"""Parallel experiment execution layer.

``repro.exec`` turns the evaluation harness's embarrassing parallelism
into wall-clock speed: every simulation is described by a picklable
:class:`RunRequest`, executed by an :class:`Executor` over a process
pool (or serially, bit-identically), and memoised on disk through a
content-addressed :class:`RunCache`.  See ``docs/performance.md``.

The executor is fault-tolerant: per-request retries with backoff
(:class:`RetryPolicy`), per-run wall-clock timeouts, automatic pool
rebuild after worker crashes, corrupt-cache quarantine, and periodic
checkpointing of completed summaries (:class:`Checkpoint`) so an
interrupted grid resumes from partial results.  Each run is accounted
for in a structured :class:`FailureReport`.  See
``docs/robustness.md``.

Every request runs on its own, event-stepped, in a pool worker or in
this process.  Pool results travel back through shared-memory SoA
segments instead of pickles when the platform allows it
(:mod:`repro.exec.shm`, ``REPRO_SHM``).  Both transports return
bit-identical summaries.  See ``docs/performance.md``.
"""

from .cache import RunCache, cache_enabled, default_cache_root
from .executor import (
    STATS,
    ExecutionStats,
    Executor,
    resolve_jobs,
)
from .fault import (
    AttemptRecord,
    Checkpoint,
    FailureReport,
    RequestReport,
    RetryPolicy,
    RunTimeoutError,
    SerialFallbackWarning,
    ShmLedger,
    resolve_checkpoint,
    resolve_max_pool_rebuilds,
    resolve_retry,
    resolve_run_timeout,
)
from .request import (
    PolicySpec,
    RecordedSelection,
    RunRequest,
    RunSummary,
    WorkloadSpec,
    execute_request,
)

__all__ = [
    "AttemptRecord",
    "Checkpoint",
    "ExecutionStats",
    "Executor",
    "FailureReport",
    "PolicySpec",
    "RecordedSelection",
    "RequestReport",
    "RetryPolicy",
    "RunCache",
    "RunRequest",
    "RunSummary",
    "RunTimeoutError",
    "STATS",
    "SerialFallbackWarning",
    "ShmLedger",
    "WorkloadSpec",
    "cache_enabled",
    "default_cache_root",
    "execute_request",
    "resolve_checkpoint",
    "resolve_jobs",
    "resolve_max_pool_rebuilds",
    "resolve_retry",
    "resolve_run_timeout",
]
