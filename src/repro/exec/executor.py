"""Parallel experiment execution with run memoisation and fault tolerance.

Every paper figure is a grid of *independent* co-execution simulations,
so the evaluation harness is embarrassingly parallel across runs.  The
:class:`Executor` fans a list of :class:`~repro.exec.request.RunRequest`
objects out over a ``ProcessPoolExecutor`` and returns summaries **in
request order**, falling back to in-process serial execution whenever
``jobs == 1``, a request cannot be serialised, or the platform refuses
to give us a worker pool (sandboxes without ``/dev/shm``, missing
``fork`` …).  Each simulation is deterministic given its request, so
serial and parallel execution return identical summaries.

Requests are memoised through :class:`~repro.exec.cache.RunCache` keyed
on :meth:`RunRequest.fingerprint`; cache hits never reach the pool.

A grid survives partial failure instead of dying wholesale:

* each request gets bounded retries with exponential backoff and
  deterministic jitter (:class:`~repro.exec.fault.RetryPolicy`);
* a crashed worker (``BrokenProcessPool`` — segfault, OOM kill, chaos
  injection) rebuilds the pool and re-submits the in-flight requests,
  degrading to serial execution after ``max_pool_rebuilds`` rebuilds;
* a per-run wall-clock timeout (pool execution only — an in-process
  serial run cannot be preempted) kills the pool, requeues the
  innocent in-flight victims without charging their retry budget, and
  counts a retry against the offender;
* every completed summary is published to the resume checkpoint (a
  :class:`~repro.exec.cache.RunCache` rooted at the resume directory)
  the moment it finishes, so an interrupted grid
  (``KeyboardInterrupt``, SIGKILL, machine death) resumes from every
  completed run via ``REPRO_CHECKPOINT`` / ``checkpoint=``;
* everything that happened is recorded in a structured
  :class:`~repro.exec.fault.FailureReport` exposed as
  ``executor.last_report``.

Concurrency is picked from, in order: the ``jobs`` argument, the
``REPRO_JOBS`` environment variable, and a serial default of 1.
Fault-tolerance knobs resolve the same way: constructor argument, then
``REPRO_MAX_RETRIES`` / ``REPRO_RUN_TIMEOUT`` /
``REPRO_MAX_POOL_REBUILDS`` / ``REPRO_CHECKPOINT``, then defaults.
For chaos engineering, ``REPRO_CHAOS_WORKER_CRASH_RATE`` makes workers
randomly die before executing a request (see ``docs/robustness.md``).
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from dataclasses import InitVar, dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from .cache import RunCache, cache_enabled
from .fault import (
    AttemptRecord,
    FailureReport,
    RetryPolicy,
    RunTimeoutError,
    SerialFallbackWarning,
    resolve_checkpoint,
    resolve_max_pool_rebuilds,
    resolve_retry,
    resolve_run_timeout,
)
from .request import RunRequest, RunSummary, execute_request

#: Exceptions that mean "the pool is unusable", not "the run failed".
#: Application errors (timeouts, bad policies) propagate unchanged.
_POOL_ERRORS: tuple = (OSError, ImportError)
try:  # pragma: no cover - import layout is version-dependent
    from concurrent.futures.process import BrokenProcessPool

    _POOL_ERRORS = _POOL_ERRORS + (BrokenProcessPool,)
except ImportError:  # pragma: no cover
    BrokenProcessPool = None  # type: ignore[assignment]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count resolution: argument > ``REPRO_JOBS`` > 1."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring non-integer REPRO_JOBS={env!r}", stacklevel=2
            )
    return 1


@dataclass
class ExecutionStats:
    """Process-wide run counters (read by the benchmark timing harness)."""

    executed: int = 0
    cache_hits: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    #: Parent-side serialization cost of pool execution: bytes of
    #: pickled request blobs and wall seconds spent pickling them.
    pickled_bytes: int = 0
    serialize_seconds: float = 0.0
    #: Cause of each serial fallback, in order.  Kept out of
    #: :meth:`snapshot` deliberately: the benchmark timing harness
    #: takes numeric deltas of the snapshot keys.
    serial_fallback_causes: list = field(default_factory=list)

    def snapshot(self) -> dict:
        return {
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "serial_fallbacks": self.serial_fallbacks,
            "pickled_bytes": self.pickled_bytes,
            "serialize_seconds": self.serialize_seconds,
        }


#: Global counters across all executors in this process.
STATS = ExecutionStats()


def _chaos_crash_rate() -> float:
    """Probability a worker dies before running a request (chaos knob)."""
    raw = os.environ.get("REPRO_CHAOS_WORKER_CRASH_RATE", "").strip()
    if not raw:
        return 0.0
    try:
        rate = float(raw)
    except ValueError:
        return 0.0
    return min(1.0, max(0.0, rate))


def _maybe_chaos_crash() -> None:
    """Hard-kill this worker with probability REPRO_CHAOS_WORKER_CRASH_RATE.

    Uses ``SystemRandom`` so forked workers do not inherit correlated
    RNG state, and ``os._exit`` so the death looks like a real segfault
    or OOM kill (no exception, no cleanup, pool goes broken).  Crashing
    *before* deserialising the request means a retried run replays
    identically — chaos never perturbs simulation determinism.
    """
    rate = _chaos_crash_rate()
    if rate <= 0.0:
        return
    import random

    if random.SystemRandom().random() < rate:
        os._exit(17)


def _execute_blob(blob: bytes) -> RunSummary:
    """Worker entry point: deserialise one request and run it."""
    import cloudpickle

    _maybe_chaos_crash()
    request = cloudpickle.loads(blob)
    return execute_request(request)


class _PoolBroken(Exception):
    """Internal marker: the current pool crashed; rebuild and resume."""

    def __init__(self, cause: BaseException):
        super().__init__(str(cause))
        self.cause = cause


@dataclass
class Executor:
    """Runs request batches, parallel when asked, memoised when possible.

    ``cache`` may be a :class:`RunCache`, ``None`` (no memoisation), or
    the default sentinel which honours ``REPRO_RUN_CACHE`` /
    ``REPRO_CACHE_DIR``.  ``retry``, ``run_timeout``, ``checkpoint``
    and ``max_pool_rebuilds`` accept explicit values, ``None`` (retry:
    env default; run_timeout/checkpoint: feature off), or the
    ``"default"`` sentinel which honours the matching ``REPRO_*``
    environment knob.
    """

    jobs: Optional[int] = None
    cache: Union[RunCache, None, str] = "default"
    retry: Union[RetryPolicy, None, str] = "default"
    run_timeout: Union[float, None, str] = "default"
    checkpoint: Union[RunCache, str, None] = "default"
    max_pool_rebuilds: Optional[int] = None
    #: Accepted for callers written before cross-run batching was
    #: removed: ``None`` or ``"off"`` only, and never stored.
    batch: InitVar[Optional[str]] = None
    last_report: Optional[FailureReport] = field(
        default=None, init=False, repr=False
    )
    _warned: bool = field(default=False, init=False, repr=False)

    def __post_init__(self, batch: Optional[str]) -> None:
        if batch not in (None, "off"):
            raise ValueError(
                f"batch={batch!r}: cross-run batching was removed; "
                f"every run executes on its own (pass None or 'off')"
            )
        self.jobs = resolve_jobs(self.jobs)
        if self.cache == "default":
            self.cache = RunCache() if cache_enabled() else None
        if not isinstance(self.retry, RetryPolicy):
            self.retry = resolve_retry(None)
        if self.run_timeout == "default":
            self.run_timeout = resolve_run_timeout(None)
        elif self.run_timeout is not None:
            self.run_timeout = resolve_run_timeout(self.run_timeout)
        self.checkpoint = resolve_checkpoint(self.checkpoint)
        self.max_pool_rebuilds = resolve_max_pool_rebuilds(
            self.max_pool_rebuilds
        )

    def run(self, requests: Sequence[RunRequest]) -> List[RunSummary]:
        """Execute ``requests``; summaries come back in request order."""
        requests = list(requests)
        report = FailureReport()
        self.last_report = report
        for index, request in enumerate(requests):
            report.requests.append(
                _request_report(index, request)
            )
        results: List[Optional[RunSummary]] = [None] * len(requests)
        fingerprints: List[Optional[str]] = [None] * len(requests)

        checkpoint = self.checkpoint
        stores = [s for s in (checkpoint, self.cache) if s is not None]
        quarantined_before = sum(s.quarantined for s in stores)

        pending: List[int] = []
        for index, request in enumerate(requests):
            fingerprint = request.fingerprint() if stores else None
            fingerprints[index] = fingerprint
            resumed = cached = None
            if fingerprint is not None and checkpoint is not None:
                resumed = checkpoint.get(fingerprint)
            if (fingerprint is not None and resumed is None
                    and self.cache is not None):
                cached = self.cache.get(fingerprint)
            if resumed is not None:
                results[index] = resumed
                report.requests[index].resumed = True
            elif cached is not None:
                results[index] = cached
                report.requests[index].cached = True
                STATS.cache_hits += 1
            else:
                pending.append(index)

        try:
            if self.jobs > 1 and len(pending) > 1:
                self._run_parallel(
                    requests, pending, fingerprints, results, report
                )
            elif pending:
                self._run_serial(
                    requests, pending, fingerprints, results, report
                )
        finally:
            report.quarantined = (
                sum(s.quarantined for s in stores) - quarantined_before
            )
        return results  # type: ignore[return-value]

    # -- internals --------------------------------------------------------

    def _complete(
        self,
        index: int,
        summary: RunSummary,
        fingerprints: List[Optional[str]],
        results: List[Optional[RunSummary]],
    ) -> None:
        results[index] = summary
        STATS.executed += 1
        fingerprint = fingerprints[index]
        if fingerprint:
            if self.cache is not None:
                self.cache.put(fingerprint, summary)
            if self.checkpoint is not None:
                self.checkpoint.put(fingerprint, summary)

    def _run_serial(
        self,
        requests: List[RunRequest],
        pending: List[int],
        fingerprints: List[Optional[str]],
        results: List[Optional[RunSummary]],
        report: FailureReport,
    ) -> None:
        for index in pending:
            summary = self._run_one_with_retry(
                requests[index],
                report.requests[index],
                fingerprints[index] or f"#{index}",
            )
            self._complete(index, summary, fingerprints, results)

    def _run_one_with_retry(self, request, req_report, key: str):
        retry: RetryPolicy = self.retry  # type: ignore[assignment]
        attempt = 0
        while True:
            attempt += 1
            started = time.monotonic()
            try:
                summary = execute_request(request)
            except Exception as error:
                elapsed = time.monotonic() - started
                req_report.attempts.append(AttemptRecord(
                    attempt=attempt,
                    kind="error",
                    error=type(error).__name__,
                    message=str(error)[:200],
                    elapsed=elapsed,
                ))
                if attempt > retry.max_retries:
                    raise
                STATS.retries += 1
                delay = retry.delay(attempt, key)
                if delay > 0:
                    time.sleep(delay)
            else:
                req_report.attempts.append(AttemptRecord(
                    attempt=attempt,
                    kind="ok",
                    elapsed=time.monotonic() - started,
                ))
                return summary

    def _run_parallel(
        self,
        requests: List[RunRequest],
        pending: List[int],
        fingerprints: List[Optional[str]],
        results: List[Optional[RunSummary]],
        report: FailureReport,
    ) -> None:
        blobs: Dict[int, bytes] = {}
        try:
            import cloudpickle

            started = time.perf_counter()
            for index in pending:
                blob = cloudpickle.dumps(requests[index], protocol=4)
                STATS.pickled_bytes += len(blob)
                blobs[index] = blob
            STATS.serialize_seconds += time.perf_counter() - started
        except Exception as error:
            self._fall_back_serial(
                requests, pending, fingerprints, results, report,
                f"requests not serialisable ({error!r})", error,
            )
            return
        try:
            self._pump_pool(
                requests, pending, blobs, fingerprints, results, report
            )
        except _POOL_ERRORS as error:
            remaining = [i for i in pending if results[i] is None]
            self._fall_back_serial(
                requests, remaining, fingerprints, results, report,
                f"worker pool unavailable ({error!r})", error,
            )

    def _fall_back_serial(
        self, requests, pending, fingerprints, results, report,
        reason: str, cause: Optional[BaseException],
    ) -> None:
        self._warn_serial(reason, cause)
        STATS.serial_fallbacks += 1
        STATS.serial_fallback_causes.append(reason)
        report.serial_fallbacks += 1
        report.serial_fallback_causes.append(reason)
        self._run_serial(requests, pending, fingerprints, results, report)

    def _pump_pool(
        self,
        requests: List[RunRequest],
        pending: List[int],
        blobs: Dict[int, bytes],
        fingerprints: List[Optional[str]],
        results: List[Optional[RunSummary]],
        report: FailureReport,
    ) -> None:
        import multiprocessing
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = None
        workers = min(self.jobs, len(pending))
        retry: RetryPolicy = self.retry  # type: ignore[assignment]

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers, mp_context=context
            )

        queue = deque(pending)
        #: monotonic instant before which an index must not resubmit
        #: (retry backoff); absent means ready now.
        ready_at: Dict[int, float] = {}
        #: counted execution attempts per index ("preempted" re-runs
        #: caused by another request's timeout are not counted).
        attempts: Dict[int, int] = {index: 0 for index in pending}
        rebuilds = 0
        pool = make_pool()
        in_flight: Dict[object, tuple] = {}
        #: Every worker process ever observed, across rebuilds.  After
        #: a pool breaks, ``pool._processes`` may already be cleared by
        #: the manager thread, so teardown kills and joins this
        #: snapshot instead: no dying worker outlives the call.
        worker_procs: Dict[int, object] = {}
        clean_exit = False
        try:
            while queue or in_flight:
                try:
                    current_procs = getattr(pool, "_processes", None)
                    if current_procs:
                        worker_procs.update(current_procs)
                    now = time.monotonic()
                    deferred = []
                    while queue and len(in_flight) < workers:
                        index = queue.popleft()
                        if ready_at.get(index, 0.0) > now:
                            deferred.append(index)
                            continue
                        attempts[index] += 1
                        try:
                            future = pool.submit(
                                _execute_blob, blobs[index]
                            )
                        except _POOL_ERRORS as error:
                            # The pool broke between collections; the
                            # rejected submission is charged like a
                            # crashed future and the rebuild path takes
                            # over.
                            queue.extend(deferred)
                            req_report = report.requests[index]
                            req_report.attempts.append(AttemptRecord(
                                attempt=attempts[index],
                                kind="pool-crash",
                                error=type(error).__name__,
                                message=str(error)[:200],
                            ))
                            self._retry_or_raise(
                                index, attempts, ready_at, queue,
                                error, req_report,
                            )
                            raise _PoolBroken(error) from error
                        in_flight[future] = (index, time.monotonic())
                    queue.extend(deferred)
                    # Workers spawn lazily inside submit(); re-snapshot
                    # after the submission loop so a pool that spawns
                    # and breaks within one iteration leaves no
                    # unobserved (hence unreapable) straggler.
                    current_procs = getattr(pool, "_processes", None)
                    if current_procs:
                        worker_procs.update(current_procs)

                    if not in_flight:
                        # Everything runnable is backing off; sleep
                        # until the earliest retry becomes ready.
                        soonest = min(
                            ready_at.get(index, 0.0) for index in queue
                        )
                        pause = soonest - time.monotonic()
                        if pause > 0:
                            time.sleep(pause)
                        continue

                    timeout = None
                    if self.run_timeout is not None:
                        deadline = min(
                            started + self.run_timeout
                            for _, started in in_flight.values()
                        )
                        timeout = max(0.0, deadline - time.monotonic())
                    if queue and len(in_flight) < workers:
                        soonest = min(
                            ready_at.get(index, 0.0) for index in queue
                        )
                        wake = max(0.0, soonest - time.monotonic())
                        timeout = wake if timeout is None else min(
                            timeout, wake
                        )
                    done, _ = wait(
                        set(in_flight), timeout=timeout,
                        return_when=FIRST_COMPLETED,
                    )

                    for future in done:
                        index, started = in_flight.pop(future)
                        self._collect(
                            future, index, started, attempts, ready_at,
                            queue, fingerprints, results, report,
                        )
                except _PoolBroken as broken:
                    current_procs = getattr(pool, "_processes", None)
                    if current_procs:
                        worker_procs.update(current_procs)
                    rebuilds += 1
                    STATS.pool_rebuilds += 1
                    report.pool_rebuilds += 1
                    self._requeue_crashed(
                        in_flight, attempts, ready_at, queue, report,
                        broken.cause,
                    )
                    self._kill_pool(pool)
                    self._reap_stragglers(worker_procs)
                    if rebuilds > self.max_pool_rebuilds:
                        remaining = [
                            i for i in pending if results[i] is None
                        ]
                        self._fall_back_serial(
                            requests, remaining, fingerprints, results,
                            report,
                            f"worker pool crashed {rebuilds} times "
                            f"({broken.cause!r})",
                            broken.cause,
                        )
                        clean_exit = True
                        return
                    pool = make_pool()
                    continue

                if self.run_timeout is not None and in_flight:
                    pool = self._reap_timeouts(
                        pool, make_pool, in_flight, attempts, ready_at,
                        queue, report, requests, retry,
                    )
            clean_exit = True
        finally:
            if clean_exit:
                pool.shutdown(wait=True)
            else:
                self._kill_pool(pool)
            self._reap_stragglers(worker_procs)

    def _collect(
        self, future, index, started, attempts, ready_at, queue,
        fingerprints, results, report,
    ) -> None:
        """Fold one finished future into results / retry queue."""
        elapsed = time.monotonic() - started
        req_report = report.requests[index]
        try:
            summary = future.result()
        except Exception as error:
            if BrokenProcessPool is not None and isinstance(
                error, BrokenProcessPool
            ):
                # The pool died under this future; hand the crash to
                # the rebuild path with this index still charged.
                req_report.attempts.append(AttemptRecord(
                    attempt=attempts[index],
                    kind="pool-crash",
                    error=type(error).__name__,
                    message=str(error)[:200],
                    elapsed=elapsed,
                ))
                self._retry_or_raise(
                    index, attempts, ready_at, queue, error, req_report
                )
                raise _PoolBroken(error) from error
            req_report.attempts.append(AttemptRecord(
                attempt=attempts[index],
                kind="error",
                error=type(error).__name__,
                message=str(error)[:200],
                elapsed=elapsed,
            ))
            self._retry_or_raise(
                index, attempts, ready_at, queue, error, req_report
            )
            return
        req_report.attempts.append(AttemptRecord(
            attempt=attempts[index], kind="ok", elapsed=elapsed,
        ))
        self._complete(index, summary, fingerprints, results)

    def _retry_or_raise(
        self, index, attempts, ready_at, queue, error, req_report
    ) -> None:
        retry: RetryPolicy = self.retry  # type: ignore[assignment]
        if attempts[index] > retry.max_retries:
            if BrokenProcessPool is not None and isinstance(
                error, BrokenProcessPool
            ):
                raise RuntimeError(
                    f"request {req_report.target}/{req_report.policy} "
                    f"crashed the worker pool on all "
                    f"{attempts[index]} attempts"
                ) from error
            raise error
        STATS.retries += 1
        ready_at[index] = time.monotonic() + retry.delay(
            attempts[index], f"#{index}"
        )
        queue.append(index)

    def _requeue_crashed(
        self, in_flight, attempts, ready_at, queue, report, cause
    ) -> None:
        """After a pool crash, recycle every in-flight request."""
        for index, started in in_flight.values():
            elapsed = time.monotonic() - started
            req_report = report.requests[index]
            req_report.attempts.append(AttemptRecord(
                attempt=attempts[index],
                kind="pool-crash",
                error=type(cause).__name__,
                message=str(cause)[:200],
                elapsed=elapsed,
            ))
            self._retry_or_raise(
                index, attempts, ready_at, queue, cause, req_report
            )
        in_flight.clear()

    def _reap_timeouts(
        self, pool, make_pool, in_flight, attempts, ready_at, queue,
        report, requests, retry,
    ):
        """Kill the pool if any in-flight run exceeded its deadline.

        Killing worker processes is the only way to preempt a hung
        simulation.  The timed-out requests burn one retry each; the
        other in-flight requests are innocent victims — requeued with
        a "preempted" attempt record that does not count against their
        budget.  The rebuild does not count toward
        ``max_pool_rebuilds`` either: the pool did not crash, we shot
        it.
        """
        now = time.monotonic()
        expired = {
            future: entry
            for future, entry in in_flight.items()
            if now - entry[1] >= self.run_timeout
        }
        if not expired:
            return pool
        for future, (index, started) in expired.items():
            del in_flight[future]
            elapsed = now - started
            req_report = report.requests[index]
            req_report.attempts.append(AttemptRecord(
                attempt=attempts[index],
                kind="timeout",
                error="RunTimeoutError",
                message=f"exceeded run_timeout={self.run_timeout:.3f}s",
                elapsed=elapsed,
            ))
            STATS.timeouts += 1
            report.timeouts += 1
            if attempts[index] > retry.max_retries:
                self._kill_pool(pool)
                raise RunTimeoutError(
                    f"request {req_report.target}/{req_report.policy} "
                    f"timed out after {elapsed:.3f}s on attempt "
                    f"{attempts[index]} "
                    f"(run_timeout={self.run_timeout:.3f}s)"
                )
            STATS.retries += 1
            ready_at[index] = time.monotonic() + retry.delay(
                attempts[index], f"#{index}"
            )
            queue.append(index)
        for index, started in in_flight.values():
            req_report = report.requests[index]
            req_report.attempts.append(AttemptRecord(
                attempt=attempts[index],
                kind="preempted",
                elapsed=now - started,
            ))
            attempts[index] -= 1  # not this request's fault
            queue.append(index)
        in_flight.clear()
        self._kill_pool(pool)
        return make_pool()

    @staticmethod
    def _reap_stragglers(
        procs: Dict[int, object], timeout: float = 5.0
    ) -> None:
        """SIGKILL any observed worker process still alive.

        When a pool breaks, ``pool._processes`` may already be cleared,
        so :meth:`_kill_pool` cannot reach the workers — and on a busy
        machine a descheduled straggler can outlive the whole run,
        still burning CPU on a request the parent has already requeued.
        Killing (not terminating: SIGKILL acts even on a descheduled
        process) every straggler and joining it means no worker
        outlives :meth:`Executor.run`.
        """
        deadline = time.monotonic() + timeout
        stragglers = []
        for process in list(procs.values()):
            try:
                if not process.is_alive():
                    continue
                process.kill()
                stragglers.append(process)
            except Exception:  # pragma: no cover - racing process death
                pass
        for process in stragglers:
            try:
                process.join(timeout=max(0.0, deadline - time.monotonic()))
            except Exception:  # pragma: no cover - racing process death
                pass

    @staticmethod
    def _kill_pool(pool) -> None:
        """Terminate a pool's workers without waiting on hung tasks.

        After SIGTERM, each worker gets a short grace join so a dying
        worker is gone before the pool is rebuilt or the call
        returns.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - racing process death
                pass
        for process in list(processes.values()):
            try:
                process.join(timeout=0.5)
            except Exception:  # pragma: no cover - racing process death
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - pool already broken
            pass

    def _warn_serial(
        self, reason: str, cause: Optional[BaseException] = None
    ) -> None:
        if not self._warned:
            self._warned = True
            warnings.warn(
                SerialFallbackWarning(
                    "repro.exec: falling back to serial execution: "
                    f"{reason}",
                    cause,
                ),
                stacklevel=3,
            )


def _request_report(index: int, request):
    from .fault import RequestReport

    policy = getattr(request, "policy", None)
    return RequestReport(
        index=index,
        target=str(getattr(request, "target", "?")),
        policy=str(getattr(policy, "label", policy)),
    )
