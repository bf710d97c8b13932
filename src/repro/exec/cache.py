"""Content-addressed run memoisation.

Completed :class:`~repro.exec.request.RunSummary` objects are stored one
file per run fingerprint under ``$REPRO_CACHE_DIR/runs`` (default
``~/.cache/repro/runs``), next to the expert-bundle cache of
:mod:`repro.core.training`.  Because the fingerprint covers the full run
configuration *and* the simulator calibration constants, a hit is always
safe to replay — re-running a figure after an unrelated change is a pure
cache read.

The cache is tolerant by construction: a corrupted, truncated or
unreadable entry is treated as a miss, never an error.  The offending
file is *quarantined* — moved aside into ``<root>/quarantine/`` with a
one-time warning naming it — so the bad bytes survive for post-mortem
while the run is transparently recomputed.  Entries from an older
format version are simply deleted (expected churn, not corruption).
Writes go through :func:`~repro.core.persistence.atomic_write` (temp
file + ``os.replace``) so a crashed or killed run can corrupt at most
its own in-flight entry.  The ``--resume`` checkpoint is a second
:class:`RunCache` rooted at the resume directory.
"""

from __future__ import annotations

import os
import pickle
import warnings
from pathlib import Path
from typing import Optional

from ..core.persistence import atomic_write, cache_root, move_aside
from .request import RunSummary

#: On-disk entry format version; bump to orphan all existing entries.
CACHE_ENTRY_VERSION = 1

_DISABLE_VALUES = ("0", "no", "off", "false")


def cache_enabled() -> bool:
    """Run memoisation is on unless ``REPRO_RUN_CACHE`` disables it."""
    return os.environ.get(
        "REPRO_RUN_CACHE", "1"
    ).strip().lower() not in _DISABLE_VALUES


def default_cache_root() -> Path:
    return cache_root() / "runs"


class RunCache:
    """Fingerprint-keyed store of :class:`RunSummary` objects."""

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0
        self._warned_quarantine = False

    def path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.pkl"

    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def get(self, fingerprint: str) -> Optional[RunSummary]:
        """The cached summary, or ``None`` on miss/corruption."""
        path = self.path(fingerprint)
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupted/truncated/unreadable entry: move it aside for
            # post-mortem and recompute.
            self._quarantine(path)
            self.misses += 1
            return None
        if not isinstance(entry, dict) or not isinstance(
            entry.get("summary"), RunSummary
        ):
            # Alien payload under our name: keep the evidence.
            self._quarantine(path)
            self.misses += 1
            return None
        if entry.get("version") != CACHE_ENTRY_VERSION:
            # Well-formed entry from another format version: routine
            # churn after an upgrade, delete silently.
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        return entry["summary"]

    def put(self, fingerprint: str, summary: RunSummary) -> None:
        """Store ``summary``; failures are silent (cache is best-effort)."""
        path = self.path(fingerprint)
        entry = {"version": CACHE_ENTRY_VERSION, "summary": summary}
        try:
            atomic_write(path, lambda fh: pickle.dump(entry, fh, protocol=4),
                         binary=True)
        except OSError:
            return
        self.stores += 1

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry into ``quarantine/``; delete as a last
        resort so a bad entry can never be read twice."""
        try:
            target = move_aside(path, self.quarantine_dir())
        except OSError:
            self._discard(path)
            return
        if target is None:
            return
        self.quarantined += 1
        if not self._warned_quarantine:
            self._warned_quarantine = True
            warnings.warn(
                f"repro.exec: corrupt run-cache entry quarantined to "
                f"{target}; the run will be recomputed",
                stacklevel=4,
            )

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
