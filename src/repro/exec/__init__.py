"""Parallel experiment execution layer.

``repro.exec`` turns the evaluation harness's embarrassing parallelism
into wall-clock speed: every simulation is described by a picklable
:class:`RunRequest`, executed by an :class:`Executor` over worker
processes it owns (or serially, bit-identically), and memoised on disk
through a content-addressed :class:`RunCache`.  See
``docs/performance.md``.

The executor is fault-tolerant: per-request retries with backoff
(:class:`RetryPolicy`), per-run wall-clock timeouts, a restart of
just the worker that crashed, and corrupt-cache quarantine.  Given a
resume directory (:func:`resolve_checkpoint`), every completed summary
is also published to a second :class:`RunCache` rooted there, so an
interrupted grid resumes from every completed run.  Each run is accounted
for in a structured :class:`FailureReport`.  See
``docs/robustness.md``.

Every request runs on its own, event-stepped, in a worker process or
in this process, and a worker returns its summary pickled on its own
pipe.  :mod:`repro.exec.child` forks the executor's workers and the
serving fleet's shards; :mod:`repro.exec.shm` holds the shared-memory
rings (:class:`~repro.exec.shm.ShmRing`) the fleet moves request and
decision blocks through, anonymous mappings each shard inherits when
it is forked.  See ``docs/performance.md``.
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
    FailureReport,
    RequestReport,
    RetryPolicy,
    RunTimeoutError,
    SerialFallbackWarning,
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
