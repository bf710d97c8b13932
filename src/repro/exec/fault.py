"""Fault-tolerance primitives for the experiment executor.

A grid of thousands of simulations must survive partial failure: a
worker process that segfaults or is OOM-killed, a run that hangs, a
cache entry truncated by a previous crash, a ``KeyboardInterrupt``
halfway through an overnight sweep.  This module supplies the pieces
the :class:`~repro.exec.executor.Executor` composes into that story:

* :class:`RetryPolicy` — bounded per-request retries with exponential
  backoff and *deterministic* jitter (hashed from the request key and
  attempt number, so reruns sleep identically and tests are stable);
* :class:`Checkpoint` — periodic on-disk snapshots of completed
  summaries keyed by run fingerprint, so an interrupted grid resumes
  from partial results instead of starting over;
* :class:`FailureReport` / :class:`RequestReport` /
  :class:`AttemptRecord` — the structured account of what every request
  went through (attempts, error classes, elapsed wall clock), threaded
  through the experiment drivers;
* :class:`RunTimeoutError` and :class:`SerialFallbackWarning` — typed
  failure surfaces, the warning carrying the triggering exception as
  its ``cause`` instead of swallowing it.

Environment knobs (all optional, resolved by the ``resolve_*``
helpers): ``REPRO_MAX_RETRIES``, ``REPRO_RUN_TIMEOUT``,
``REPRO_MAX_POOL_REBUILDS``, ``REPRO_CHECKPOINT``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..core.persistence import prune_quarantine
from .request import RunSummary

#: On-disk checkpoint format version; bump to orphan old checkpoints.
CHECKPOINT_VERSION = 1

#: Default number of retries after the first attempt fails.
DEFAULT_MAX_RETRIES = 2

#: Default number of pool rebuilds tolerated before degrading to serial.
DEFAULT_MAX_POOL_REBUILDS = 3


class RunTimeoutError(RuntimeError):
    """A run exceeded the configured per-run wall-clock timeout."""


class SerialFallbackWarning(UserWarning):
    """The executor degraded to in-process serial execution.

    ``cause`` holds the exception that triggered the fallback (pool
    creation failure, unserialisable request, repeated pool crashes) so
    callers can inspect it instead of parsing the message.
    """

    def __init__(self, message: str, cause: Optional[BaseException] = None):
        super().__init__(message)
        self.cause = cause


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        warnings.warn(f"ignoring non-numeric {name}={raw!r}", stacklevel=3)
        return None


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        warnings.warn(f"ignoring non-integer {name}={raw!r}", stacklevel=3)
        return None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_retries`` counts retries *after* the first attempt, so a
    request is executed at most ``max_retries + 1`` times.  Backoff for
    retry ``attempt`` (1-based) is ``base_delay * 2**(attempt - 1)``
    capped at ``max_delay``, then jittered by up to ``±jitter`` of
    itself.  The jitter is hashed from ``(key, attempt)`` rather than
    drawn from a global RNG: the same grid rerun sleeps the same
    amounts, and nothing perturbs any simulation seed.
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays cannot be negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry ``attempt`` (1-based) of request ``key``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(self.max_delay, self.base_delay * 2.0 ** (attempt - 1))
        if self.jitter == 0.0 or base == 0.0:
            return base
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        frac = int.from_bytes(digest[:8], "big") / float(2 ** 64)
        return base * (1.0 + self.jitter * (2.0 * frac - 1.0))


def resolve_retry(retry=None) -> RetryPolicy:
    """Retry-policy resolution: argument > ``REPRO_MAX_RETRIES`` > default."""
    if isinstance(retry, RetryPolicy):
        return retry
    env = _env_int("REPRO_MAX_RETRIES")
    if env is not None:
        return RetryPolicy(max_retries=max(0, env))
    return RetryPolicy()


def resolve_run_timeout(timeout=None) -> Optional[float]:
    """Per-run timeout: argument > ``REPRO_RUN_TIMEOUT`` > None (off)."""
    if timeout is not None:
        value = float(timeout)
        if value <= 0:
            raise ValueError("run timeout must be positive")
        return value
    env = _env_float("REPRO_RUN_TIMEOUT")
    if env is not None and env > 0:
        return env
    return None


def resolve_max_pool_rebuilds(limit=None) -> int:
    """Pool-rebuild budget: argument > ``REPRO_MAX_POOL_REBUILDS`` > default."""
    if limit is not None:
        return max(0, int(limit))
    env = _env_int("REPRO_MAX_POOL_REBUILDS")
    if env is not None:
        return max(0, env)
    return DEFAULT_MAX_POOL_REBUILDS


@dataclass(frozen=True)
class AttemptRecord:
    """One execution attempt of one request."""

    attempt: int
    #: "ok", "error", "timeout", "pool-crash", or "preempted" (the pool
    #: was killed because of *another* request's timeout; does not count
    #: against this request's retry budget).
    kind: str
    error: str = ""
    message: str = ""
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


@dataclass
class RequestReport:
    """Everything that happened to one request during a grid."""

    index: int
    target: str
    policy: str
    attempts: List[AttemptRecord] = field(default_factory=list)
    cached: bool = False
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return (
            self.cached or self.resumed
            or any(a.ok for a in self.attempts)
        )

    @property
    def retried(self) -> bool:
        return sum(1 for a in self.attempts if a.kind != "preempted") > 1

    @property
    def error_classes(self) -> List[str]:
        return [a.error for a in self.attempts if a.error]

    @property
    def elapsed(self) -> float:
        return sum(a.elapsed for a in self.attempts)


@dataclass
class FailureReport:
    """Structured account of one :meth:`Executor.run` invocation."""

    requests: List[RequestReport] = field(default_factory=list)
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    #: Human-readable cause of each serial fallback (mirrors
    #: :attr:`SerialFallbackWarning.cause`), in occurrence order.
    serial_fallback_causes: List[str] = field(default_factory=list)
    timeouts: int = 0
    quarantined: int = 0

    @property
    def executed(self) -> int:
        return sum(
            1 for r in self.requests if not (r.cached or r.resumed)
        )

    @property
    def retried(self) -> List[RequestReport]:
        return [r for r in self.requests if r.retried]

    @property
    def failures(self) -> List[RequestReport]:
        return [r for r in self.requests if not r.ok]

    @property
    def clean(self) -> bool:
        return (
            not self.failures and not self.retried
            and self.pool_rebuilds == 0 and self.timeouts == 0
            and self.quarantined == 0
        )

    def summary(self) -> str:
        """One-line human rendering for logs and experiment footers."""
        total = len(self.requests)
        parts = [
            f"{total} requests",
            f"{self.executed} executed",
            f"{sum(1 for r in self.requests if r.cached)} cached",
        ]
        resumed = sum(1 for r in self.requests if r.resumed)
        if resumed:
            parts.append(f"{resumed} resumed")
        if self.retried:
            parts.append(f"{len(self.retried)} retried")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.pool_rebuilds:
            parts.append(f"{self.pool_rebuilds} pool rebuilds")
        if self.serial_fallbacks:
            note = f"{self.serial_fallbacks} serial fallbacks"
            if self.serial_fallback_causes:
                note += (
                    " (cause: "
                    + "; ".join(self.serial_fallback_causes) + ")"
                )
            parts.append(note)
        if self.quarantined:
            parts.append(f"{self.quarantined} cache quarantines")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        return "; ".join(parts)


class Checkpoint:
    """Periodic on-disk snapshot of completed run summaries.

    Entries are keyed by run fingerprint, so resuming works even when
    the follow-up grid orders or slices its requests differently — any
    request whose fingerprint is already checkpointed is satisfied
    without executing.  Writes are atomic (temp file + ``os.replace``),
    flushed every ``interval`` recorded summaries and again by the
    executor's ``finally`` when a grid ends or is interrupted.
    A corrupt checkpoint file is moved aside and treated as empty,
    never an error.
    """

    def __init__(self, path, interval: int = 10):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.path = Path(path)
        self.interval = interval
        self._entries: Dict[str, RunSummary] = {}
        self._unflushed = 0
        self._loaded = False

    def load(self) -> Dict[str, RunSummary]:
        """Entries from disk (merged into this checkpoint's state)."""
        try:
            with open(self.path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            payload = None
        except Exception:
            self._move_aside()
            payload = None
        if (
            isinstance(payload, dict)
            and payload.get("version") == CHECKPOINT_VERSION
            and isinstance(payload.get("entries"), dict)
        ):
            for fingerprint, summary in payload["entries"].items():
                if isinstance(summary, RunSummary):
                    self._entries.setdefault(fingerprint, summary)
        elif payload is not None:
            self._move_aside()
        self._loaded = True
        return dict(self._entries)

    def record(self, fingerprint: str, summary: RunSummary) -> None:
        """Add one completed summary; flushes every ``interval`` adds."""
        self._entries[fingerprint] = summary
        self._unflushed += 1
        if self._unflushed >= self.interval:
            self.flush()

    def flush(self) -> None:
        """Write all entries to disk atomically; failures are silent
        (checkpointing is best-effort and must never kill a grid)."""
        if self._unflushed == 0 and (self._loaded or not self._entries):
            if not self._entries:
                return
        payload = {
            "version": CHECKPOINT_VERSION,
            "entries": dict(self._entries),
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(payload, fh, protocol=4)
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self._unflushed = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _move_aside(self) -> None:
        """Quarantine the corrupt checkpoint with bounded retention.

        Each corrupt file gets a distinct name (the previous behaviour
        overwrote a single ``.corrupt`` file, destroying the evidence
        of repeated corruption), and the quarantine directory is pruned
        to the newest ``REPRO_QUARANTINE_KEEP`` files so a recurring
        corruption source cannot grow it without bound.
        """
        quarantine = self.path.parent / (self.path.name + ".quarantine")
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            serial = 0
            while True:
                target = quarantine / f"corrupt-{serial:04d}"
                if not target.exists():
                    break
                serial += 1
            os.replace(self.path, target)
        except OSError:
            return
        prune_quarantine(quarantine)
        warnings.warn(
            f"repro.exec: corrupt checkpoint moved aside to {target}; "
            f"starting fresh",
            stacklevel=3,
        )


class ShmLedger:
    """Tracks every shared-memory segment name an executor issued.

    Segment names are parent-assigned *before* a worker task is
    submitted, so the set of segments that could possibly exist is
    known here regardless of how the worker ends — clean return,
    application error, chaos kill, timeout reaping, pool crash.  The
    executor releases a name as soon as its result is consumed and
    sweeps the remainder in its ``finally``, which is what guarantees
    no segment survives an :meth:`Executor.run` call.
    """

    def __init__(self):
        self._outstanding: set = set()
        self._issued: set = set()

    def issue(self, name: str) -> str:
        self._outstanding.add(name)
        self._issued.add(name)
        return name

    def release(self, name: str) -> None:
        """Unlink ``name`` (best effort) and mark it consumed.

        The name stays on the lifetime ``issued`` record: when a pool
        breaks, a sibling worker can materialise its segment *after*
        the parent released the not-yet-existing name, so the final
        :meth:`sweep` must revisit released names too.
        """
        self._outstanding.discard(name)
        from . import shm

        shm.unlink(name)

    def sweep(self) -> int:
        """Unlink every segment ever issued; returns how many existed.

        Called after the worker pool is shut down, so nothing can
        create further segments under these names.
        """
        from . import shm

        removed = 0
        for name in list(self._issued):
            if shm.unlink(name):
                removed += 1
        self._issued.clear()
        self._outstanding.clear()
        return removed

    def __len__(self) -> int:
        return len(self._outstanding)


def resolve_checkpoint(checkpoint="default") -> Optional[Checkpoint]:
    """Checkpoint resolution: argument > ``REPRO_CHECKPOINT`` > None.

    Accepts a :class:`Checkpoint`, a path, ``None`` (off), or the
    ``"default"`` sentinel which honours the environment knob.
    """
    if checkpoint is None:
        return None
    if isinstance(checkpoint, Checkpoint):
        return checkpoint
    if checkpoint == "default":
        env = os.environ.get("REPRO_CHECKPOINT", "").strip()
        return Checkpoint(env) if env else None
    return Checkpoint(checkpoint)
