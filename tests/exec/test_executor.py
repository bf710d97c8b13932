"""Executor behaviour: jobs resolution and serial/parallel equivalence."""

from __future__ import annotations

import pytest

from repro.core.policies import DefaultPolicy, OnlineHillClimbPolicy
from repro.exec import Executor, PolicySpec, RunRequest, WorkloadSpec, resolve_jobs
from repro.experiments.scenarios import SMALL_LOW, STATIC_ISOLATED
from repro.workload.spec import workload_sets

SCALE = 0.05


def request_grid():
    """A small mixed batch: two targets x two seeds, with workloads."""
    workload = WorkloadSpec.from_set(
        workload_sets("small")[0],
        PolicySpec.of(DefaultPolicy, label="default"),
    )
    return [
        RunRequest(
            target=target,
            policy=PolicySpec.fixed(8),
            scenario=SMALL_LOW,
            workload=workload,
            seed=seed,
            iterations_scale=SCALE,
        )
        for target in ("cg", "ep")
        for seed in (0, 1)
    ]


class TestResolveJobs:
    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_bad_env_warns_and_serialises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.warns(UserWarning, match="REPRO_JOBS"):
            assert resolve_jobs() == 1

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestBatchArgument:
    """Cross-run batching is gone; ``batch`` survives only as "off"."""

    def test_off_is_accepted(self):
        executor = Executor(jobs=1, cache=None, batch="off")
        assert executor.jobs == 1
        assert "batch" not in vars(executor)

    @pytest.mark.parametrize("mode", ["auto", "pool"])
    def test_batching_modes_are_rejected(self, mode):
        with pytest.raises(ValueError, match="batching was removed"):
            Executor(jobs=1, cache=None, batch=mode)


class TestDeterminism:
    def test_parallel_matches_serial_exactly(self):
        """jobs=4 must reproduce jobs=1 bit-for-bit (no cache assist).

        Both executors run with ``cache=None`` so the parallel pass
        cannot simply replay the serial pass's memoised entries — every
        summary is recomputed in a worker process and compared by value.
        """
        requests = request_grid()
        serial = Executor(jobs=1, cache=None).run(requests)
        parallel = Executor(jobs=4, cache=None).run(requests)
        assert serial == parallel

    def test_order_preserved(self):
        requests = request_grid()
        summaries = Executor(jobs=4, cache=None).run(requests)
        assert [s.target for s in summaries] == [r.target for r in requests]
        assert all(s.target_time > 0 for s in summaries)

    def test_adaptive_policy_deterministic_across_jobs(self):
        """Stateful policies (hill climbing) are rebuilt per run and must
        converge identically regardless of which process runs them."""
        request = RunRequest(
            target="cg",
            policy=PolicySpec.of(OnlineHillClimbPolicy, label="online"),
            scenario=STATIC_ISOLATED,
            iterations_scale=SCALE,
        )
        serial = Executor(jobs=1, cache=None).run([request, request])
        parallel = Executor(jobs=2, cache=None).run([request, request])
        assert serial == parallel
        assert serial[0] == serial[1]


class TestComparisonParity:
    def test_compare_policies_parallel_matches_serial(self, tmp_path):
        from repro.experiments.runner import compare_policies

        policies = {
            "default": DefaultPolicy,
            "online": OnlineHillClimbPolicy,
        }

        def run(jobs):
            return compare_policies(
                "cg", SMALL_LOW, policies,
                seeds=(0,), iterations_scale=SCALE,
                executor=Executor(jobs=jobs, cache=None),
            )

        serial, parallel = run(1), run(4)
        assert serial.speedups == parallel.speedups
        assert serial.times == parallel.times
        assert serial.workload_gains == parallel.workload_gains
