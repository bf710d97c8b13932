"""Parallel experiment execution with run memoisation and fault tolerance.

Every paper figure is a grid of *independent* co-execution simulations,
so the evaluation harness is embarrassingly parallel across runs.  The
:class:`Executor` fans a list of :class:`~repro.exec.request.RunRequest`
objects out over worker processes it forks and owns, and returns
summaries **in request order**, falling back to in-process serial
execution whenever ``jobs == 1``, a request cannot be serialised, or a
worker process cannot be started (no ``fork``, process limits …).  Each
simulation is deterministic given its request, so serial and parallel
execution return identical summaries.

Each worker has one duplex pipe to the parent and one run in flight:
the parent sends a pickled request, the worker answers with the
summary or the exception the run raised, and the parent waits on every
pipe at once (``multiprocessing.connection.wait``).  A worker is a
:class:`~repro.exec.child.Child`, as a serving shard is (that module
says why a dead worker shows as EOF).  Requests are memoised through
:class:`~repro.exec.cache.RunCache` keyed on
:meth:`RunRequest.fingerprint`; cache hits never reach a worker.

A grid survives partial failure instead of dying wholesale, and a
failure touches only the run that caused it:

* each request gets bounded retries with exponential backoff and
  deterministic jitter (:class:`~repro.exec.fault.RetryPolicy`);
* a worker that dies (segfault, OOM kill, chaos injection) shows as
  EOF on its pipe: its run is charged one ``"pool-crash"`` attempt and
  requeued, and the worker is restarted; after more than
  ``max_pool_rebuilds`` restarts in one :meth:`Executor.run` the rest
  of the grid runs serially;
* a run past its wall-clock ``run_timeout`` (worker execution only; an
  in-process serial run cannot be stopped) has its own worker
  SIGKILLed and restarted, and is charged one ``"timeout"`` attempt;
* every completed summary is published to the resume checkpoint (a
  :class:`~repro.exec.cache.RunCache` rooted at the resume directory)
  the moment it finishes, so an interrupted grid
  (``KeyboardInterrupt``, SIGKILL, machine death) resumes from every
  completed run via ``REPRO_CHECKPOINT`` / ``checkpoint=``;
* every worker is killed and reaped before :meth:`Executor.run`
  returns or raises;
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
from .child import Child
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
    #: Worker restarts after a crash; the benchmark reads this key.
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    #: Parent-side serialization cost of worker execution: bytes of
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
    or OOM kill (no exception, no cleanup, EOF on the pipe).  Crashing
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


def _worker_main(conn) -> None:
    """Worker process: run each request blob the parent sends.

    Each reply is ``(True, summary)`` or ``(False, exception)``.
    :func:`_execute_blob` is looked up as a module global on every
    request, so a patched entry point is the one that runs.
    """
    while True:
        try:
            blob = conn.recv_bytes()
        except EOFError:
            return
        try:
            reply = (True, _execute_blob(blob))
        except Exception as error:
            reply = (False, error)
        try:
            conn.send(reply)
        except Exception as error:  # an unpicklable summary or exception
            conn.send((False, RuntimeError(
                f"worker reply could not be pickled: {error!r}"
            )))


class _Worker(Child):
    """A forked worker process (see :class:`~repro.exec.child.Child`).

    One request is in flight at a time: ``index`` is its position in
    the request list (``None`` when idle) and ``started`` the monotonic
    instant it was dispatched.  Not daemonic: a run that trains experts
    on a cold cache forks an :class:`Executor`'s workers of its own.
    """

    def __init__(self):
        super().__init__(_worker_main, daemon=False)
        self.index: Optional[int] = None
        self.started = 0.0

    def dispatch(self, index: int, blob: bytes) -> None:
        self.index, self.started = index, time.monotonic()
        try:
            self.conn.send_bytes(blob)
        except OSError:
            pass  # the worker is dead; wait() reports its EOF


def _pop_ready(queue: deque, ready_at: Dict[int, float], now: float):
    """Remove and return the first queued index whose backoff is over."""
    for position, index in enumerate(queue):
        if ready_at.get(index, 0.0) <= now:
            del queue[position]
            return index
    return None


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
        #: One slot per worker; ``None`` marks a slot to (re)spawn.
        workers: List[Optional[_Worker]] = [None] * min(
            self.jobs, len(pending)
        )
        try:
            fallback = self._run_workers(
                pending, blobs, workers, fingerprints, results, report
            )
        finally:
            for worker in workers:
                if worker is not None:
                    worker.kill()
        if fallback is not None:
            remaining = [i for i in pending if results[i] is None]
            self._fall_back_serial(
                requests, remaining, fingerprints, results, report,
                *fallback,
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

    def _run_workers(
        self,
        pending: List[int],
        blobs: Dict[int, bytes],
        workers: List[Optional["_Worker"]],
        fingerprints: List[Optional[str]],
        results: List[Optional[RunSummary]],
        report: FailureReport,
    ) -> Optional[tuple]:
        """Run ``pending`` on forked workers, one request per worker.

        Returns ``None`` once every request completed, or the
        ``(reason, cause)`` of a serial fallback.  Workers are started
        into the caller's ``workers`` slots, so the caller kills what is
        left however this returns.
        """
        from multiprocessing.connection import wait

        queue = deque(pending)
        #: monotonic instant before which an index must not be
        #: dispatched again (retry backoff); absent means ready now.
        ready_at: Dict[int, float] = {}
        attempts: Dict[int, int] = {index: 0 for index in pending}
        respawns = 0
        while True:
            now = time.monotonic()
            for slot, worker in enumerate(workers):
                if worker is not None and worker.index is not None:
                    continue
                index = _pop_ready(queue, ready_at, now)
                if index is None:
                    break
                if worker is None:
                    try:
                        worker = workers[slot] = _Worker()
                    except ValueError as error:  # pragma: no cover - no fork
                        return (f"fork start method unavailable "
                                f"({error!r})", error)
                    except OSError as error:
                        return (
                            f"cannot start a worker process ({error!r})",
                            error,
                        )
                attempts[index] += 1
                worker.dispatch(index, blobs[index])
            busy = [w for w in workers
                    if w is not None and w.index is not None]
            if not busy:
                if not queue:
                    return None
                # Everything runnable is backing off; sleep until the
                # earliest retry becomes ready.
                soonest = min(ready_at.get(index, 0.0) for index in queue)
                time.sleep(max(0.0, soonest - time.monotonic()))
                continue

            timeout = None
            if self.run_timeout is not None:
                oldest = min(w.started for w in busy)
                timeout = oldest + self.run_timeout - time.monotonic()
            if queue and len(busy) < len(workers):
                soonest = min(ready_at.get(index, 0.0) for index in queue)
                wake = soonest - time.monotonic()
                timeout = wake if timeout is None else min(timeout, wake)
            ready = wait(
                [w.conn for w in busy],
                None if timeout is None else max(0.0, timeout),
            )

            for slot, worker in enumerate(workers):
                if worker is None or worker.conn not in ready:
                    continue
                index, started = worker.index, worker.started
                worker.index = None
                req_report = report.requests[index]
                try:
                    ok, value = worker.conn.recv()
                except (EOFError, OSError) as error:
                    # The worker died (segfault, OOM kill, chaos
                    # injection) and took only this run with it.
                    elapsed = time.monotonic() - started
                    code = worker.kill()
                    workers[slot] = None
                    req_report.attempts.append(AttemptRecord(
                        attempt=attempts[index],
                        kind="pool-crash",
                        error=type(error).__name__,
                        message=f"worker exited with code {code}",
                        elapsed=elapsed,
                    ))
                    if not self._requeue(index, attempts, ready_at, queue):
                        raise RuntimeError(
                            f"request {req_report.target}/"
                            f"{req_report.policy} crashed its worker on "
                            f"all {attempts[index]} attempts"
                        ) from error
                    respawns += 1
                    STATS.pool_rebuilds += 1
                    report.pool_rebuilds += 1
                    if respawns > self.max_pool_rebuilds:
                        return (
                            f"workers crashed {respawns} times (last "
                            f"exit code {code})",
                            error,
                        )
                    continue
                elapsed = time.monotonic() - started
                if ok:
                    req_report.attempts.append(AttemptRecord(
                        attempt=attempts[index], kind="ok", elapsed=elapsed,
                    ))
                    self._complete(index, value, fingerprints, results)
                    continue
                req_report.attempts.append(AttemptRecord(
                    attempt=attempts[index],
                    kind="error",
                    error=type(value).__name__,
                    message=str(value)[:200],
                    elapsed=elapsed,
                ))
                if not self._requeue(index, attempts, ready_at, queue):
                    raise value

            if self.run_timeout is None:
                continue
            now = time.monotonic()
            for slot, worker in enumerate(workers):
                if (worker is None or worker.index is None
                        or now - worker.started < self.run_timeout):
                    continue
                # Only a kill stops a hung simulation; the other
                # workers' runs go on untouched.
                index, elapsed = worker.index, now - worker.started
                worker.kill()
                workers[slot] = None
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
                if not self._requeue(index, attempts, ready_at, queue):
                    raise RunTimeoutError(
                        f"request {req_report.target}/{req_report.policy} "
                        f"timed out after {elapsed:.3f}s on attempt "
                        f"{attempts[index]} "
                        f"(run_timeout={self.run_timeout:.3f}s)"
                    )

    def _requeue(self, index, attempts, ready_at, queue) -> bool:
        """Queue ``index`` again after its backoff; False once its retry
        budget is spent."""
        retry: RetryPolicy = self.retry  # type: ignore[assignment]
        if attempts[index] > retry.max_retries:
            return False
        STATS.retries += 1
        ready_at[index] = time.monotonic() + retry.delay(
            attempts[index], f"#{index}"
        )
        queue.append(index)
        return True

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
                # _warn_serial <- _fall_back_serial <- _run_parallel
                # <- run <- the caller of run.
                stacklevel=5,
            )


def _request_report(index: int, request):
    from .fault import RequestReport

    policy = getattr(request, "policy", None)
    return RequestReport(
        index=index,
        target=str(getattr(request, "target", "?")),
        policy=str(getattr(policy, "label", policy)),
    )
