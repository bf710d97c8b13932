"""Fault-tolerance primitives and the executor's recovery paths.

Worker crashes are injected with ``REPRO_CHAOS_WORKER_CRASH_RATE`` (the
worker hard-exits *before* deserialising its request, so retries replay
identically); hangs, and crashes of one chosen request, are injected by
monkeypatching the worker entry point before the workers are forked.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.exec import (
    AttemptRecord,
    Executor,
    FailureReport,
    PolicySpec,
    RequestReport,
    RetryPolicy,
    RunCache,
    RunRequest,
    RunTimeoutError,
    SerialFallbackWarning,
    resolve_max_pool_rebuilds,
    resolve_retry,
    resolve_run_timeout,
)
from repro.core.policies import DefaultPolicy
from repro.exec.fault import DEFAULT_MAX_POOL_REBUILDS

SCALE = 0.05

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Directory the hang-injecting worker entry points use for their
#: once-per-request marker files (inherited by forked workers).
_MARKER_ENV = "REPRO_TEST_HANG_MARKER_DIR"


def tiny_request(**overrides) -> RunRequest:
    base = dict(
        target="cg",
        policy=PolicySpec.fixed(8),
        iterations_scale=SCALE,
    )
    base.update(overrides)
    return RunRequest(**base)


def flaky_factory(fail_times: int):
    """Policy factory that raises on its first ``fail_times`` builds.

    Closure state only survives in-process, so this drives the *serial*
    retry path (parallel workers re-deserialise the closure per
    attempt).
    """
    calls = {"n": 0}

    def make():
        calls["n"] += 1
        if calls["n"] <= fail_times:
            raise RuntimeError("flaky policy build")
        from repro.core.policies.fixed import FixedPolicy

        return FixedPolicy(8)

    return make


def _hang_once_blob(blob: bytes):
    """Worker entry point: hang on the first attempt at each request.

    The marker file is created *before* hanging, so the attempt that
    gets shot by the timeout reaper leaves evidence and the retry
    proceeds normally.
    """
    import hashlib

    import cloudpickle

    from repro.exec.request import execute_request

    marker = os.path.join(
        os.environ[_MARKER_ENV], hashlib.sha256(blob).hexdigest()[:16]
    )
    try:
        open(marker, "x").close()
    except FileExistsError:
        pass
    else:
        time.sleep(60.0)
    return execute_request(cloudpickle.loads(blob))


def _hang_forever_blob(blob: bytes):
    time.sleep(60.0)


#: The request (by seed) that the fault-isolation entry points below
#: crash or hang on its first attempt; every other request sleeps
#: ``_BUSY_S`` first, so it is still running when the fault hits.
_FAULTY_SEED = 0
_BUSY_S = 0.4


def _fault_once(blob: bytes, fault):
    """Run ``blob``, calling ``fault()`` first on the first attempt at
    the ``_FAULTY_SEED`` request (marker file)."""
    import cloudpickle

    from repro.exec.request import execute_request

    request = cloudpickle.loads(blob)
    if request.seed != _FAULTY_SEED:
        time.sleep(_BUSY_S)
        return execute_request(request)
    marker = os.path.join(os.environ[_MARKER_ENV], "faulted")
    try:
        open(marker, "x").close()
    except FileExistsError:
        return execute_request(request)
    fault()


def _crash_once_blob(blob: bytes):
    def crash():
        time.sleep(0.1)  # the other worker's run is under way
        os._exit(1)

    return _fault_once(blob, crash)


def _hang_once_on_faulty_blob(blob: bytes):
    return _fault_once(blob, lambda: time.sleep(60.0))


class TestRetryPolicy:
    def test_deterministic_jitter(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.25)
        assert policy.delay(1, "#3") == policy.delay(1, "#3")
        assert policy.delay(1, "#3") != policy.delay(1, "#4")
        assert policy.delay(1, "#3") != policy.delay(2, "#3")

    def test_exponential_within_jitter_band(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=100.0, jitter=0.25)
        for attempt in (1, 2, 3, 4):
            base = 0.1 * 2 ** (attempt - 1)
            delay = policy.delay(attempt, "key")
            assert 0.75 * base <= delay <= 1.25 * base

    def test_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=2.0, jitter=0.0)
        assert policy.delay(10) == 2.0

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(base_delay=0.05, jitter=0.0)
        assert policy.delay(1) == 0.05
        assert policy.delay(2) == 0.1

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    @pytest.mark.parametrize("kwargs", [
        dict(max_retries=-1),
        dict(base_delay=-0.1),
        dict(max_delay=-1.0),
        dict(jitter=1.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestResolvers:
    def test_retry_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        assert resolve_retry().max_retries == RetryPolicy().max_retries
        monkeypatch.setenv("REPRO_MAX_RETRIES", "7")
        assert resolve_retry().max_retries == 7
        explicit = RetryPolicy(max_retries=1)
        assert resolve_retry(explicit) is explicit

    def test_run_timeout_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
        assert resolve_run_timeout() is None
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2.5")
        assert resolve_run_timeout() == 2.5
        assert resolve_run_timeout(9.0) == 9.0
        with pytest.raises(ValueError):
            resolve_run_timeout(-1.0)

    def test_non_numeric_timeout_env_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "soon")
        with pytest.warns(UserWarning, match="REPRO_RUN_TIMEOUT"):
            assert resolve_run_timeout() is None

    def test_max_pool_rebuilds_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_POOL_REBUILDS", raising=False)
        assert resolve_max_pool_rebuilds() == DEFAULT_MAX_POOL_REBUILDS
        monkeypatch.setenv("REPRO_MAX_POOL_REBUILDS", "9")
        assert resolve_max_pool_rebuilds() == 9
        assert resolve_max_pool_rebuilds(0) == 0


class TestFailureReport:
    def test_empty_report_is_clean(self):
        assert FailureReport().clean
        assert FailureReport().summary() == (
            "0 requests; 0 executed; 0 cached"
        )

    def test_retry_and_failure_accounting(self):
        ok = RequestReport(index=0, target="cg", policy="fixed-8")
        ok.attempts = [
            AttemptRecord(attempt=1, kind="error", error="OSError"),
            AttemptRecord(attempt=2, kind="ok"),
        ]
        dead = RequestReport(index=1, target="ep", policy="fixed-8")
        dead.attempts = [
            AttemptRecord(attempt=1, kind="error", error="ValueError"),
        ]
        report = FailureReport(requests=[ok, dead], timeouts=1)
        assert ok.ok and ok.retried
        assert ok.error_classes == ["OSError"]
        assert not dead.ok and not dead.retried
        assert report.retried == [ok]
        assert report.failures == [dead]
        assert not report.clean
        assert "1 retried" in report.summary()
        assert "1 FAILED" in report.summary()

    def test_serial_fallback_cause_is_rendered(self):
        report = FailureReport(
            serial_fallbacks=2,
            serial_fallback_causes=[
                "pool creation failed: PermissionError",
                "unserialisable request: TypeError",
            ],
        )
        assert (
            "2 serial fallbacks (cause: pool creation failed: "
            "PermissionError; unserialisable request: TypeError)"
        ) in report.summary()

    def test_fallback_without_recorded_cause_still_renders(self):
        report = FailureReport(serial_fallbacks=1)
        summary = report.summary()
        assert "1 serial fallbacks" in summary
        assert "cause" not in summary

    def test_cached_and_resumed_are_ok_without_attempts(self):
        # A resumed run is a cache hit: there is no separate flag.
        cached = RequestReport(
            index=0, target="cg", policy="p", cached=True
        )
        report = FailureReport(requests=[cached])
        assert cached.ok
        assert report.executed == 0
        assert "1 cached" in report.summary()


class TestCheckpoint:
    """An interrupted grid resumes from the run cache: each completed
    run is published there, and a damaged entry is rerun."""

    def run_grid(self, path, requests):
        executor = Executor(jobs=1, cache=RunCache(path))
        executor.run(requests)
        return executor.last_report

    def test_round_trip(self, tmp_path):
        path = tmp_path / "grid"
        requests = [tiny_request(seed=s) for s in range(3)]
        first = Executor(jobs=1, cache=RunCache(path))
        results = first.run(requests)
        # Each completed run is published as its own entry.
        cache = RunCache(path)
        for request, summary in zip(requests, results):
            assert cache.path(request.fingerprint()).is_file()
            assert cache.get(request.fingerprint()) == summary

    def test_corrupt_file_moved_aside(self, tmp_path):
        path = tmp_path / "grid"
        requests = [tiny_request(seed=s) for s in range(2)]
        self.run_grid(path, requests)
        entry = RunCache(path).path(requests[0].fingerprint())
        entry.write_bytes(b"definitely not a pickle")
        with pytest.warns(UserWarning, match="quarantined"):
            report = self.run_grid(path, requests)
        # The damaged run is recomputed, the intact one resumed, and
        # the cache's quarantine is counted in the report.
        assert [r.cached for r in report.requests] == [False, True]
        assert report.quarantined == 1
        quarantined = path / "quarantine" / entry.name
        assert quarantined.read_bytes() == b"definitely not a pickle"

    def test_repeated_corruption_keeps_distinct_evidence(self, tmp_path):
        # A second incident under the same fingerprint must not
        # overwrite the first one's bytes.
        path = tmp_path / "grid"
        request = tiny_request()
        self.run_grid(path, [request])
        entry = RunCache(path).path(request.fingerprint())
        for round_ in range(2):
            entry.write_bytes(b"garbage #%d" % round_)
            with pytest.warns(UserWarning, match="quarantined"):
                assert self.run_grid(path, [request]).quarantined == 1
        quarantine = path / "quarantine"
        assert (quarantine / entry.name).read_bytes() == b"garbage #0"
        assert (quarantine / f"{entry.name}.1").read_bytes() == b"garbage #1"


class TestSerialRetry:
    def test_transient_error_is_retried(self):
        executor = Executor(
            jobs=1, cache=None,
            retry=RetryPolicy(max_retries=2, base_delay=0.0),
        )
        spec = PolicySpec.of(flaky_factory(fail_times=1), label="flaky")
        (summary,) = executor.run([tiny_request(policy=spec)])
        assert summary.target_time > 0
        report = executor.last_report
        kinds = [a.kind for a in report.requests[0].attempts]
        assert kinds == ["error", "ok"]
        assert report.requests[0].retried
        assert report.requests[0].error_classes == ["RuntimeError"]
        assert not report.clean

    def test_budget_exhaustion_raises_original_error(self):
        executor = Executor(
            jobs=1, cache=None,
            retry=RetryPolicy(max_retries=1, base_delay=0.0),
        )
        spec = PolicySpec.of(flaky_factory(fail_times=10), label="flaky")
        with pytest.raises(RuntimeError, match="flaky policy build"):
            executor.run([tiny_request(policy=spec)])
        report = executor.last_report
        assert len(report.requests[0].attempts) == 2  # 1 try + 1 retry
        assert report.failures == [report.requests[0]]

    def test_zero_retries_fails_immediately(self):
        executor = Executor(
            jobs=1, cache=None,
            retry=RetryPolicy(max_retries=0),
        )
        spec = PolicySpec.of(flaky_factory(fail_times=1), label="flaky")
        with pytest.raises(RuntimeError):
            executor.run([tiny_request(policy=spec)])
        assert len(executor.last_report.requests[0].attempts) == 1


class _Unpicklable:
    """A policy factory that refuses to pickle: a grid built on it
    cannot reach a worker and runs serially."""

    def __reduce__(self):
        raise TypeError("unpicklable on purpose")

    def __call__(self):
        return DefaultPolicy()


class TestSerialFallbackWarning:
    def test_points_at_the_caller_of_run(self):
        with pytest.warns(UserWarning, match="cannot be pickled"):
            spec = PolicySpec.of(_Unpicklable(), label="unpicklable")
        executor = Executor(jobs=2, cache=None)
        requests = [tiny_request(seed=s, policy=spec) for s in (0, 1)]
        with pytest.warns(SerialFallbackWarning) as caught:
            executor.run(requests)
        fallback, = [w for w in caught
                     if issubclass(w.category, SerialFallbackWarning)]
        assert "not serialisable" in str(fallback.message)
        assert fallback.filename == __file__


class TestWorkerCrashRecovery:
    """REPRO_CHAOS_WORKER_CRASH_RATE=1.0 makes every worker die."""

    def test_degrades_to_serial_after_rebuild_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_WORKER_CRASH_RATE", "1.0")
        executor = Executor(
            jobs=2, cache=None, max_pool_rebuilds=0,
            retry=RetryPolicy(max_retries=50, base_delay=0.0),
        )
        requests = [tiny_request(seed=s) for s in (0, 1)]
        with pytest.warns(SerialFallbackWarning) as caught:
            summaries = executor.run(requests)
        warning = caught[0].message
        assert "crashed" in str(warning)
        assert warning.cause is not None
        report = executor.last_report
        assert report.serial_fallbacks == 1
        assert report.pool_rebuilds == 1
        assert all(r.ok for r in report.requests)
        # The serial fallback produced the same results a healthy
        # serial executor would have.
        monkeypatch.delenv("REPRO_CHAOS_WORKER_CRASH_RATE")
        clean = Executor(jobs=1, cache=None)
        assert summaries == clean.run(requests)

    def test_repeated_crashes_exhaust_request_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_WORKER_CRASH_RATE", "1.0")
        executor = Executor(
            jobs=2, cache=None, max_pool_rebuilds=1000,
            retry=RetryPolicy(max_retries=1, base_delay=0.0),
        )
        with pytest.raises(RuntimeError, match="crashed its worker"):
            executor.run([tiny_request(seed=s) for s in (0, 1)])
        assert executor.last_report.pool_rebuilds >= 1

    def test_crash_rate_parsing(self, monkeypatch):
        from repro.exec.executor import _chaos_crash_rate

        monkeypatch.delenv(
            "REPRO_CHAOS_WORKER_CRASH_RATE", raising=False
        )
        assert _chaos_crash_rate() == 0.0
        monkeypatch.setenv("REPRO_CHAOS_WORKER_CRASH_RATE", "0.25")
        assert _chaos_crash_rate() == 0.25
        monkeypatch.setenv("REPRO_CHAOS_WORKER_CRASH_RATE", "7")
        assert _chaos_crash_rate() == 1.0
        monkeypatch.setenv("REPRO_CHAOS_WORKER_CRASH_RATE", "lots")
        assert _chaos_crash_rate() == 0.0


class TestRunTimeout:
    def test_hung_run_is_shot_and_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path))
        monkeypatch.setattr(
            "repro.exec.executor._execute_blob", _hang_once_blob
        )
        executor = Executor(
            jobs=2, cache=None, run_timeout=0.4,
            retry=RetryPolicy(max_retries=3, base_delay=0.01),
        )
        requests = [tiny_request(seed=s) for s in range(3)]
        summaries = executor.run(requests)
        assert all(s.target_time > 0 for s in summaries)
        report = executor.last_report
        assert report.timeouts >= 1
        timed_out = [
            r for r in report.requests
            if any(a.kind == "timeout" for a in r.attempts)
        ]
        assert timed_out and all(r.ok for r in timed_out)

    def test_timeout_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(
            "repro.exec.executor._execute_blob", _hang_forever_blob
        )
        executor = Executor(
            jobs=2, cache=None, run_timeout=0.3,
            retry=RetryPolicy(max_retries=0),
        )
        with pytest.raises(RunTimeoutError, match="timed out"):
            executor.run([tiny_request(seed=s) for s in (0, 1)])
        assert multiprocessing.active_children() == []

    def test_timeouts_recorded_in_report(self, monkeypatch):
        monkeypatch.setattr(
            "repro.exec.executor._execute_blob", _hang_forever_blob
        )
        executor = Executor(
            jobs=2, cache=None, run_timeout=0.3,
            retry=RetryPolicy(max_retries=0),
        )
        with pytest.raises(RunTimeoutError):
            executor.run([tiny_request(seed=s) for s in (0, 1)])
        report = executor.last_report
        assert report.timeouts >= 1
        kinds = {
            a.kind for r in report.requests for a in r.attempts
        }
        assert "timeout" in kinds


class TestFaultIsolation:
    """A crash or a timeout costs only the run it happened to."""

    def run_isolated(self, entry_point, tmp_path, monkeypatch, **kwargs):
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path))
        monkeypatch.setattr("repro.exec.executor._execute_blob", entry_point)
        executor = Executor(
            jobs=2, cache=None,
            retry=RetryPolicy(max_retries=2, base_delay=0.01), **kwargs,
        )
        requests = [tiny_request(seed=s) for s in range(4)]
        summaries = executor.run(requests)
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        assert summaries == Executor(jobs=1, cache=None).run(requests)
        kinds = [[a.kind for a in r.attempts]
                 for r in executor.last_report.requests]
        assert kinds[1:] == [["ok"]] * 3
        return executor.last_report, kinds[0]

    def test_crash_costs_only_the_crashed_run(self, tmp_path, monkeypatch):
        report, kinds = self.run_isolated(
            _crash_once_blob, tmp_path, monkeypatch
        )
        assert kinds == ["pool-crash", "ok"]
        assert report.pool_rebuilds == 1

    def test_timeout_costs_only_the_hung_run(self, tmp_path, monkeypatch):
        report, kinds = self.run_isolated(
            _hang_once_on_faulty_blob, tmp_path, monkeypatch,
            run_timeout=1.0,
        )
        assert kinds == ["timeout", "ok"]
        assert report.timeouts == 1


class TestWorkerErrors:
    """A run that raises in a worker fails like it does in-process."""

    @pytest.fixture(autouse=True)
    def no_chaos(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_WORKER_CRASH_RATE", raising=False)

    @staticmethod
    def failing_grid(error: Exception):
        def broken():
            raise error

        return [tiny_request(seed=0),
                tiny_request(seed=1, policy=PolicySpec.of(broken, "broken"))]

    def run(self, requests):
        executor = Executor(
            jobs=2, cache=None,
            retry=RetryPolicy(max_retries=1, base_delay=0.0),
        )
        try:
            executor.run(requests)
        finally:
            assert multiprocessing.active_children() == []
            kinds = [a.kind for a in executor.last_report.requests[1].attempts]
            assert kinds == ["error", "error"]

    def test_budget_exhaustion_raises_the_runs_own_error(self):
        with pytest.raises(ValueError, match="no such policy"):
            self.run(self.failing_grid(ValueError("no such policy")))

    def test_unpicklable_error_is_reported_not_a_crash(self):
        with pytest.raises(RuntimeError, match="could not be pickled"):
            self.run(self.failing_grid(RuntimeError(lambda: None)))


class TestCheckpointResume:
    def test_resume_skips_completed_requests(self, tmp_path):
        path = tmp_path / "grid"
        requests = [tiny_request(seed=s) for s in range(3)]
        first = Executor(jobs=1, cache=RunCache(path))
        results = first.run(requests)
        assert first.last_report.executed == 3

        second = Executor(jobs=1, cache=RunCache(path))
        resumed = second.run(requests)
        assert resumed == results
        report = second.last_report
        assert report.executed == 0
        assert all(r.cached for r in report.requests)

    def test_resume_is_keyed_by_fingerprint_not_position(self, tmp_path):
        path = tmp_path / "grid"
        requests = [tiny_request(seed=s) for s in range(3)]
        Executor(jobs=1, cache=RunCache(path)).run(requests)
        # A reordered, partially-overlapping follow-up grid still
        # resumes the completed entries.
        follow_up = [requests[2], tiny_request(seed=9), requests[0]]
        executor = Executor(jobs=1, cache=RunCache(path))
        executor.run(follow_up)
        flags = [r.cached for r in executor.last_report.requests]
        assert flags == [True, False, True]

    def test_interrupted_grid_keeps_partial_results(self, tmp_path):
        path = tmp_path / "grid"
        good = tiny_request(seed=0)
        bad = tiny_request(
            seed=1,
            policy=PolicySpec.of(flaky_factory(10), label="flaky"),
        )
        executor = Executor(
            jobs=1, cache=RunCache(path), retry=RetryPolicy(max_retries=0),
        )
        with pytest.raises(RuntimeError):
            executor.run([good, bad])
        # The good run was published the moment it completed.
        assert RunCache(path).path(good.fingerprint()).is_file()
        resumer = Executor(jobs=1, cache=RunCache(path))
        resumer.run([good])
        assert resumer.last_report.requests[0].cached

    def test_killed_grid_keeps_every_completed_run(self, tmp_path):
        # A process killed without unwinding (SIGKILL, OOM kill) runs no
        # ``finally``: only runs published on completion survive it.
        path = tmp_path / "grid"
        script = textwrap.dedent(f"""
            import os
            from repro.exec import Executor, PolicySpec, RunCache, RunRequest

            def die():
                os._exit(1)

            def request(seed, policy):
                return RunRequest(target="cg", policy=policy,
                                  iterations_scale={SCALE}, seed=seed)

            requests = [request(0, PolicySpec.fixed(8)),
                        request(1, PolicySpec.fixed(8)),
                        request(2, PolicySpec.of(die, label="die"))]
            Executor(jobs=1, cache=RunCache({str(path)!r})).run(requests)
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              timeout=120)
        assert done.returncode == 1
        entries = list(path.glob("*/*.pkl"))
        assert len(entries) == 2
        requests = [tiny_request(seed=s) for s in range(2)]
        resumer = Executor(jobs=1, cache=RunCache(path))
        resumer.run(requests)
        assert all(r.cached for r in resumer.last_report.requests)


class TestStatsSnapshot:
    def test_snapshot_has_fault_counters(self):
        from repro.exec.executor import STATS

        snapshot = STATS.snapshot()
        for key in (
            "executed", "cache_hits", "retries", "timeouts",
            "pool_rebuilds", "serial_fallbacks",
        ):
            assert key in snapshot
