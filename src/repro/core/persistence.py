"""JSON persistence for trained experts, and the repo's file discipline.

Trained experts are small (two 10-weight linear models plus an
envelope), so they serialize naturally to JSON — convenient for
shipping a trained policy to another machine, versioning it, or
inspecting the Table 1 weights outside Python.  The pickles that
:mod:`repro.core.training` keeps under :func:`cache_root` are a
rebuildable cache of the same bundles; this module is the *public*
import/export format.

It is also the one place that decides how any file is published and
how a bad one is retired.  The run cache, the training caches and the
serving runtime (:mod:`repro.serve`) all build on these primitives:

* :func:`atomic_write` — every persistent write: temp file in the
  destination directory, then ``os.replace``.  :func:`save_bundle`,
  :func:`dump_checked_json` and :func:`atomic_copy` are thin callers;
* :func:`to_jsonable` — lossless conversion of selector state dicts
  (numpy arrays included) into JSON-serialisable structures.  Python's
  ``repr``-based float formatting round-trips IEEE-754 doubles exactly,
  so a state written through JSON restores *bit-identical* hyperplanes;
* :func:`payload_checksum` / :func:`dump_checked_json` /
  :func:`load_checked_json` — checksummed, atomically-written JSON
  documents.  A torn or corrupted file fails the checksum and raises
  :class:`ChecksumError` instead of silently loading garbage;
* :func:`move_aside` / :func:`prune_quarantine` — the one quarantine:
  a bad file (or superseded state directory) is renamed aside under a
  name that never overwrites earlier evidence, and each quarantine
  directory keeps the newest :data:`DEFAULT_QUARANTINE_KEEP` entries;
* :class:`UnsupportedFormatError` — data intact but in a format no
  reader accepts (a retired one): it is refused and left untouched,
  never quarantined, truncated or misread.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import IO, Callable, Optional, Union

import numpy as np

from .expert import Expert
from .features import FEATURE_NAMES
from .regression import LinearModel
from .training import ExpertBundle, ScalabilityRecord, TrainingConfig

#: Format version written into every file; bump on breaking changes.
FORMAT_VERSION = 1

#: Quarantined files kept per directory unless an explicit argument
#: overrides it.
DEFAULT_QUARANTINE_KEEP = 8


def cache_root() -> Path:
    """Root of every on-disk cache: ``$REPRO_CACHE_DIR``, else
    ``~/.cache/repro``."""
    root = os.environ.get("REPRO_CACHE_DIR")
    return Path(root) if root else Path.home() / ".cache" / "repro"


def atomic_write(path: Union[str, Path], write: Callable[[IO], None],
                 binary: bool = False) -> Path:
    """Publish a file so its real name never holds partial bytes.

    Creates the parent directory, hands ``write`` a temp file opened in
    the destination directory (text mode unless ``binary``), then
    ``os.replace``s it into place.  On any failure the temp file is
    removed and the error re-raised: a crash mid-write can leave a
    stray temp file, never a torn file under ``path``.  This is the one
    place every persisted artefact is published from.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb" if binary else "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def _model_to_dict(model: LinearModel) -> dict:
    return {
        "weights": [float(w) for w in model.weights],
        "intercept": float(model.intercept),
    }


def _model_from_dict(data: dict) -> LinearModel:
    return LinearModel(
        weights=np.asarray(data["weights"], dtype=float),
        intercept=float(data["intercept"]),
        feature_names=FEATURE_NAMES,
    )


def expert_to_dict(expert: Expert) -> dict:
    """Serialize one expert."""
    return {
        "name": expert.name,
        "provenance": expert.provenance,
        "thread_model": _model_to_dict(expert.thread_model),
        "env_model": _model_to_dict(expert.env_model),
        "feature_low": (
            None if expert.feature_low is None
            else [float(v) for v in expert.feature_low]
        ),
        "feature_high": (
            None if expert.feature_high is None
            else [float(v) for v in expert.feature_high]
        ),
    }


def expert_from_dict(data: dict) -> Expert:
    """Deserialize one expert."""
    return Expert(
        name=data["name"],
        provenance=data.get("provenance", ""),
        thread_model=_model_from_dict(data["thread_model"]),
        env_model=_model_from_dict(data["env_model"]),
        feature_low=(
            None if data.get("feature_low") is None
            else np.asarray(data["feature_low"], dtype=float)
        ),
        feature_high=(
            None if data.get("feature_high") is None
            else np.asarray(data["feature_high"], dtype=float)
        ),
    )


def bundle_to_dict(bundle: ExpertBundle) -> dict:
    """Serialize a whole bundle (experts + provenance)."""
    return {
        "format_version": FORMAT_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "experts": [expert_to_dict(e) for e in bundle.experts],
        "scalability": [asdict(r) for r in bundle.scalability],
        "samples_per_expert": dict(bundle.samples_per_expert),
        "config": asdict(bundle.config),
    }


def bundle_from_dict(data: dict) -> ExpertBundle:
    """Deserialize a bundle."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported bundle format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    if data.get("feature_names") != list(FEATURE_NAMES):
        raise ValueError(
            "bundle was trained with a different feature vector"
        )
    config_data = dict(data["config"])
    # JSON turns tuples into lists; restore the hashable config.
    for key, value in config_data.items():
        if isinstance(value, list):
            config_data[key] = tuple(
                tuple(v) if isinstance(v, list) else v for v in value
            )
    return ExpertBundle(
        experts=tuple(
            expert_from_dict(e) for e in data["experts"]
        ),
        scalability=tuple(
            ScalabilityRecord(**r) for r in data["scalability"]
        ),
        samples_per_expert=dict(data["samples_per_expert"]),
        config=TrainingConfig(**config_data),
    )


def save_bundle(bundle: ExpertBundle,
                path: Union[str, Path]) -> Path:
    """Write a bundle to a JSON file; returns the path.

    Written atomically (temp file + ``os.replace``) with sorted keys:
    a crash mid-export can never tear a half-written bundle under the
    real name, and the same bundle always serializes to the same bytes.
    """
    document = bundle_to_dict(bundle)
    return atomic_write(path, lambda fh: json.dump(
        document, fh, indent=2, sort_keys=True))


def load_bundle(path: Union[str, Path]) -> ExpertBundle:
    """Read a bundle from a JSON file."""
    with open(path) as fh:
        return bundle_from_dict(json.load(fh))


# -- checksummed documents (crash-safe online state) -----------------------


class ChecksumError(ValueError):
    """A checksummed document is torn, truncated or corrupted."""


class UnsupportedFormatError(Exception):
    """Persisted data is in a format no reader here accepts.

    Unlike a torn file, nothing is wrong with the bytes: they were
    written by a retired format.  The reader refuses them and leaves
    them exactly as found.  Deliberately not a :class:`ValueError`, so
    no handler written for torn data catches it and moves it aside.
    """


def to_jsonable(value):
    """Recursively convert ``value`` into JSON-serialisable structures.

    numpy arrays become (nested) lists of Python floats, numpy scalars
    become their Python equivalents.  Floats survive the JSON round
    trip bit-identically (``repr`` emits the shortest string that
    parses back to the same double), which is what lets a restored
    selector reproduce the exact hyperplanes it crashed with.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def payload_checksum(payload) -> str:
    """Checksum of a JSON-able payload (canonical form, sha256/16).

    ``allow_nan=False``: non-finite values have no canonical JSON
    form, and nothing legitimately persisted here may contain one —
    failing loudly at write time beats a document that cannot verify.
    """
    canonical = json.dumps(
        to_jsonable(payload), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def dump_checked_json(payload, path: Union[str, Path]) -> Path:
    """Atomically write ``payload`` with an embedded checksum.

    Temp file + ``os.replace``: a crash mid-write can leave a stray
    temp file, never a half-written document under the real name.
    """
    payload = to_jsonable(payload)
    document = {
        "format_version": FORMAT_VERSION,
        "checksum": payload_checksum(payload),
        "payload": payload,
    }
    return atomic_write(path, lambda fh: json.dump(
        document, fh, allow_nan=False, sort_keys=True))


def load_checked_json(path: Union[str, Path]):
    """Load a checksummed document; raises :class:`ChecksumError` when
    the file is malformed or its payload fails verification."""
    path = Path(path)
    try:
        with open(path) as fh:
            document = json.load(fh)
    except (OSError, ValueError) as error:
        raise ChecksumError(f"{path}: unreadable ({error})") from error
    if not isinstance(document, dict) or "payload" not in document:
        raise ChecksumError(f"{path}: not a checksummed document")
    expected = document.get("checksum")
    actual = payload_checksum(document["payload"])
    if expected != actual:
        raise ChecksumError(
            f"{path}: checksum mismatch "
            f"(expected {expected!r}, computed {actual!r})"
        )
    return document["payload"]


def atomic_copy(source: Union[str, Path],
                destination: Union[str, Path]) -> Path:
    """Copy a file so the destination is never observably partial.

    Temp file + ``os.replace`` in the destination directory — the same
    discipline as :func:`dump_checked_json`, but byte-oriented so it
    also ships files that are *legitimately* torn (a crashed server's
    journal tail, which replay quarantines on the receiving side).
    """

    def copy(out: IO) -> None:
        with open(source, "rb") as src:
            shutil.copyfileobj(src, out)

    return atomic_write(destination, copy, binary=True)


def move_aside(path: Union[str, Path],
               quarantine_dir: Union[str, Path],
               label: str = "") -> Optional[Path]:
    """Atomically move a file *or directory* into a quarantine dir.

    The one quarantine: a corrupt run-cache entry, snapshot or training
    pickle, and the serving fleet's superseded state (a stream's old
    home after an epoch swap, a torn staging directory left by a crash
    mid-copy) are all renamed aside rather than deleted: the rename is
    atomic, the evidence survives for post-mortem, and
    :func:`prune_quarantine` bounds the accumulation.  Returns the
    quarantined path, or None when ``path`` does not exist.  A name
    collision gets a numeric suffix (``.1``, ``.2`` …), so a second
    incident under the same name never overwrites the first one's bytes.
    """
    path = Path(path)
    quarantine_dir = Path(quarantine_dir)
    if not path.exists():
        return None
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{path.name}.{label}" if label else path.name
    target = quarantine_dir / stem
    serial = 0
    while target.exists():
        serial += 1
        target = quarantine_dir / f"{stem}.{serial}"
    os.replace(path, target)
    prune_quarantine(quarantine_dir, include_dirs=True)
    return target


# -- quarantine retention --------------------------------------------------


def prune_quarantine(
    directory: Union[str, Path], keep: Optional[int] = None,
    include_dirs: bool = False,
) -> int:
    """Delete all but the newest ``keep`` entries in a quarantine dir.

    Quarantined files exist for post-mortem, not as an archive; without
    retention a recurring corruption source grows the directory
    forever.  Newest-first by mtime (ties broken by name so the order
    is total); returns the number of entries removed.  Failures are
    silent — retention is best-effort housekeeping and must never turn
    a quarantine into an error.  With ``include_dirs`` (used by
    :func:`move_aside`, which quarantines whole state directories),
    stale directories are removed recursively.
    """
    directory = Path(directory)
    keep = DEFAULT_QUARANTINE_KEEP if keep is None else max(0, int(keep))
    try:
        entries = [
            p for p in directory.iterdir()
            if p.is_file() or (include_dirs and p.is_dir())
        ]
    except OSError:
        return 0
    if len(entries) <= keep:
        return 0

    def age_key(path: Path):
        try:
            mtime = path.stat().st_mtime
        except OSError:
            mtime = 0.0
        # Quarantine names carry serial counters / byte offsets, so on
        # an mtime tie the higher name is the newer file.
        return (mtime, path.name)

    removed = 0
    for stale in sorted(entries, key=age_key, reverse=True)[keep:]:
        try:
            if stale.is_dir():
                shutil.rmtree(stale, ignore_errors=True)
            else:
                stale.unlink()
            removed += 1
        except OSError:
            continue
    return removed
