"""Fault-tolerance primitives for the experiment executor.

A grid of thousands of simulations must survive partial failure: a
worker process that segfaults or is OOM-killed, a run that hangs, a
cache entry truncated by a previous crash, a ``KeyboardInterrupt``
halfway through an overnight sweep.  This module supplies the pieces
the :class:`~repro.exec.executor.Executor` composes into that story:

* :class:`RetryPolicy` — bounded per-request retries with exponential
  backoff and *deterministic* jitter (hashed from the request key and
  attempt number, so reruns sleep identically and tests are stable);
* :class:`FailureReport` / :class:`RequestReport` /
  :class:`AttemptRecord` — the structured account of what every request
  went through (attempts, error classes, elapsed wall clock), threaded
  through the experiment drivers;
* :class:`RunTimeoutError` and :class:`SerialFallbackWarning` — typed
  failure surfaces, the warning carrying the triggering exception as
  its ``cause`` instead of swallowing it.

Environment knobs (all optional, resolved by the ``resolve_*``
helpers): ``REPRO_MAX_RETRIES``, ``REPRO_RUN_TIMEOUT``,
``REPRO_MAX_POOL_REBUILDS``.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass, field
from typing import List, Optional

#: Default number of retries after the first attempt fails.
DEFAULT_MAX_RETRIES = 2

#: Default number of worker crash restarts tolerated in one
#: ``Executor.run`` before the rest of it degrades to serial.
DEFAULT_MAX_POOL_REBUILDS = 3


class RunTimeoutError(RuntimeError):
    """A run exceeded the configured per-run wall-clock timeout."""


class SerialFallbackWarning(UserWarning):
    """The executor degraded to in-process serial execution.

    ``cause`` holds the exception that triggered the fallback (worker
    start failure, unserialisable request, repeated worker crashes) so
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
    """Crash restarts: argument > ``REPRO_MAX_POOL_REBUILDS`` > default."""
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
    #: "ok", "error", "timeout" or "pool-crash" (the worker process
    #: died under this attempt).
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

    @property
    def ok(self) -> bool:
        return self.cached or any(a.ok for a in self.attempts)

    @property
    def retried(self) -> bool:
        return len(self.attempts) > 1

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
    #: Worker restarts after a crash.
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    #: Human-readable cause of each serial fallback (mirrors
    #: :attr:`SerialFallbackWarning.cause`), in occurrence order.
    serial_fallback_causes: List[str] = field(default_factory=list)
    timeouts: int = 0
    quarantined: int = 0

    @property
    def executed(self) -> int:
        return sum(1 for r in self.requests if not r.cached)

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
        if self.retried:
            parts.append(f"{len(self.retried)} retried")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.pool_rebuilds:
            parts.append(f"{self.pool_rebuilds} worker restarts")
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

