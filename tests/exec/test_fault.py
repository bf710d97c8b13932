"""Fault-tolerance primitives and the executor's recovery paths.

Worker crashes are injected with ``REPRO_CHAOS_WORKER_CRASH_RATE`` (the
worker hard-exits *before* deserialising its request, so retries replay
identically); hangs are injected by monkeypatching the worker entry
point before the fork-context pool is built.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.exec import (
    AttemptRecord,
    Checkpoint,
    Executor,
    FailureReport,
    PolicySpec,
    RequestReport,
    RetryPolicy,
    RunCache,
    RunRequest,
    RunTimeoutError,
    SerialFallbackWarning,
    resolve_checkpoint,
    resolve_max_pool_rebuilds,
    resolve_retry,
    resolve_run_timeout,
)
from repro.exec.fault import CHECKPOINT_VERSION, DEFAULT_MAX_POOL_REBUILDS

SCALE = 0.05

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

    def test_checkpoint_sentinel(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT", raising=False)
        assert resolve_checkpoint(None) is None
        assert resolve_checkpoint("default") is None
        monkeypatch.setenv("REPRO_CHECKPOINT", str(tmp_path / "ck.pkl"))
        resolved = resolve_checkpoint("default")
        assert isinstance(resolved, Checkpoint)
        assert resolved.path == tmp_path / "ck.pkl"
        explicit = Checkpoint(tmp_path / "other.pkl")
        assert resolve_checkpoint(explicit) is explicit
        assert resolve_checkpoint(tmp_path / "p.pkl").path == (
            tmp_path / "p.pkl"
        )


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

    def test_preempted_attempts_do_not_count_as_retries(self):
        victim = RequestReport(index=0, target="cg", policy="fixed-8")
        victim.attempts = [
            AttemptRecord(attempt=1, kind="preempted"),
            AttemptRecord(attempt=1, kind="ok"),
        ]
        assert victim.ok
        assert not victim.retried

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
        cached = RequestReport(
            index=0, target="cg", policy="p", cached=True
        )
        resumed = RequestReport(
            index=1, target="cg", policy="p", resumed=True
        )
        report = FailureReport(requests=[cached, resumed])
        assert cached.ok and resumed.ok
        assert report.executed == 0
        assert "1 resumed" in report.summary()


class TestCheckpoint:
    def fake_summary(self, seed: int):
        from repro.exec.request import RunSummary

        return RunSummary(
            target="cg", policy="fixed-8", target_time=float(seed),
            workload_throughput=0.0, duration=1.0, workload_runs=(),
            selections=(),
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.pkl"
        checkpoint = Checkpoint(path, interval=100)
        for seed in range(3):
            checkpoint.record(f"fp{seed}", self.fake_summary(seed))
        checkpoint.flush()
        loaded = Checkpoint(path).load()
        assert set(loaded) == {"fp0", "fp1", "fp2"}
        assert loaded["fp2"].target_time == 2.0

    def test_interval_autoflush(self, tmp_path):
        path = tmp_path / "ck.pkl"
        checkpoint = Checkpoint(path, interval=2)
        checkpoint.record("a", self.fake_summary(0))
        assert not path.exists()
        checkpoint.record("b", self.fake_summary(1))
        assert path.exists()

    def test_corrupt_file_moved_aside(self, tmp_path):
        path = tmp_path / "ck.pkl"
        path.write_bytes(b"definitely not a pickle")
        with pytest.warns(UserWarning, match="corrupt checkpoint"):
            assert Checkpoint(path).load() == {}
        assert not path.exists()
        quarantined = path.parent / "ck.pkl.quarantine" / "corrupt-0000"
        assert quarantined.read_bytes() == b"definitely not a pickle"

    def test_repeated_corruption_keeps_distinct_evidence(self, tmp_path):
        # The old behaviour overwrote one ``.corrupt`` file; repeated
        # corruption must leave one quarantined file per incident.
        path = tmp_path / "ck.pkl"
        for round_ in range(3):
            path.write_bytes(b"garbage #%d" % round_)
            with pytest.warns(UserWarning, match="corrupt checkpoint"):
                Checkpoint(path).load()
        quarantine = path.parent / "ck.pkl.quarantine"
        names = sorted(p.name for p in quarantine.iterdir())
        assert names == ["corrupt-0000", "corrupt-0001", "corrupt-0002"]
        assert (quarantine / "corrupt-0002").read_bytes() == b"garbage #2"

    def test_quarantine_retention_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUARANTINE_KEEP", "2")
        path = tmp_path / "ck.pkl"
        for round_ in range(5):
            path.write_bytes(b"garbage #%d" % round_)
            with pytest.warns(UserWarning, match="corrupt checkpoint"):
                Checkpoint(path).load()
        quarantine = path.parent / "ck.pkl.quarantine"
        assert len(list(quarantine.iterdir())) == 2

    def test_alien_payload_moved_aside(self, tmp_path):
        path = tmp_path / "ck.pkl"
        path.write_bytes(pickle.dumps(["not", "a", "checkpoint"]))
        with pytest.warns(UserWarning, match="corrupt checkpoint"):
            assert Checkpoint(path).load() == {}

    def test_wrong_version_moved_aside(self, tmp_path):
        path = tmp_path / "ck.pkl"
        payload = {"version": CHECKPOINT_VERSION + 1, "entries": {}}
        path.write_bytes(pickle.dumps(payload))
        with pytest.warns(UserWarning, match="corrupt checkpoint"):
            assert Checkpoint(path).load() == {}

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpoint(tmp_path / "ck.pkl", interval=0)


class TestSerialRetry:
    def test_transient_error_is_retried(self):
        executor = Executor(
            jobs=1, cache=None, checkpoint=None,
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
            jobs=1, cache=None, checkpoint=None,
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
            jobs=1, cache=None, checkpoint=None,
            retry=RetryPolicy(max_retries=0),
        )
        spec = PolicySpec.of(flaky_factory(fail_times=1), label="flaky")
        with pytest.raises(RuntimeError):
            executor.run([tiny_request(policy=spec)])
        assert len(executor.last_report.requests[0].attempts) == 1


class TestWorkerCrashRecovery:
    """REPRO_CHAOS_WORKER_CRASH_RATE=1.0 makes every worker die."""

    def test_degrades_to_serial_after_rebuild_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_WORKER_CRASH_RATE", "1.0")
        executor = Executor(
            jobs=2, cache=None, checkpoint=None, max_pool_rebuilds=0,
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
        clean = Executor(jobs=1, cache=None, checkpoint=None)
        assert summaries == clean.run(requests)

    def test_repeated_crashes_exhaust_request_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_WORKER_CRASH_RATE", "1.0")
        executor = Executor(
            jobs=2, cache=None, checkpoint=None, max_pool_rebuilds=1000,
            retry=RetryPolicy(max_retries=1, base_delay=0.0),
        )
        with pytest.raises(RuntimeError, match="crashed the worker pool"):
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
            jobs=2, cache=None, checkpoint=None, run_timeout=0.4,
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
            jobs=2, cache=None, checkpoint=None, run_timeout=0.3,
            retry=RetryPolicy(max_retries=0),
        )
        with pytest.raises(RunTimeoutError, match="timed out"):
            executor.run([tiny_request(seed=s) for s in (0, 1)])

    def test_timeouts_recorded_in_report(self, monkeypatch):
        monkeypatch.setattr(
            "repro.exec.executor._execute_blob", _hang_forever_blob
        )
        executor = Executor(
            jobs=2, cache=None, checkpoint=None, run_timeout=0.3,
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


class TestCheckpointResume:
    def test_resume_skips_completed_requests(self, tmp_path):
        path = tmp_path / "grid.pkl"
        requests = [tiny_request(seed=s) for s in range(3)]
        first = Executor(
            jobs=1, cache=None, checkpoint=Checkpoint(path, interval=1)
        )
        results = first.run(requests)
        assert first.last_report.executed == 3

        second = Executor(
            jobs=1, cache=None, checkpoint=Checkpoint(path, interval=1)
        )
        resumed = second.run(requests)
        assert resumed == results
        report = second.last_report
        assert report.executed == 0
        assert all(r.resumed for r in report.requests)

    def test_resume_is_keyed_by_fingerprint_not_position(self, tmp_path):
        path = tmp_path / "grid.pkl"
        requests = [tiny_request(seed=s) for s in range(3)]
        Executor(
            jobs=1, cache=None, checkpoint=Checkpoint(path, interval=1)
        ).run(requests)
        # A reordered, partially-overlapping follow-up grid still
        # resumes the completed entries.
        follow_up = [requests[2], tiny_request(seed=9), requests[0]]
        executor = Executor(
            jobs=1, cache=None, checkpoint=Checkpoint(path, interval=1)
        )
        executor.run(follow_up)
        flags = [r.resumed for r in executor.last_report.requests]
        assert flags == [True, False, True]

    def test_interrupted_grid_keeps_partial_results(self, tmp_path):
        path = tmp_path / "grid.pkl"
        good = tiny_request(seed=0)
        bad = tiny_request(
            seed=1,
            policy=PolicySpec.of(flaky_factory(10), label="flaky"),
        )
        executor = Executor(
            jobs=1, cache=None,
            checkpoint=Checkpoint(path, interval=100),
            retry=RetryPolicy(max_retries=0),
        )
        with pytest.raises(RuntimeError):
            executor.run([good, bad])
        # The finally-flush preserved the completed prefix.
        loaded = Checkpoint(path).load()
        assert len(loaded) == 1
        resumer = Executor(
            jobs=1, cache=None, checkpoint=Checkpoint(path)
        )
        resumer.run([good])
        assert resumer.last_report.requests[0].resumed


class TestStatsSnapshot:
    def test_snapshot_has_fault_counters(self):
        from repro.exec.executor import STATS

        snapshot = STATS.snapshot()
        for key in (
            "executed", "cache_hits", "retries", "timeouts",
            "pool_rebuilds", "serial_fallbacks",
        ):
            assert key in snapshot
