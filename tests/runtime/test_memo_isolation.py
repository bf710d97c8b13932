"""Memoisation never leaks state across runs or instances.

The hot path carries several memos: the module-level code-feature memo
in :mod:`repro.runtime.engine`, the per-period availability draw cache,
the per-instance ``USLScaling`` efficiency memo, the ``LoadAverage``
decay memo, the scheduler's precomputed ``JobDemand`` hash/traffic and
``Allocation.thread_share``, and the engine's per-run allocation and
demand memos.  Every one must be either keyed on its full input or
scoped to the object that owns it — a run repeated after unrelated runs
in the same process must be *bit-identical* to its first execution.
"""

import math

from repro.core.policies import FixedPolicy
from repro.exec.request import (
    PolicySpec,
    RunRequest,
    _simulate,
    execute_request,
)
from repro.experiments.scenarios import SMALL_HIGH, SMALL_LOW
from repro.machine.availability import PeriodicAvailability
from repro.machine.machine import SimMachine
from repro.machine.topology import XEON_L7555
from repro.programs.scaling import USLScaling
from repro.runtime.engine import CoExecutionEngine, JobSpec
from repro.sched.loadavg import LoadAverage, LoadAverages
from repro.sched.scheduler import Allocation, JobDemand
from tests.runtime.test_engine import tiny_program


def summary_signature(summary):
    """Every continuous and discrete outcome of a run, bit-exact."""
    return (
        summary.target_time,
        summary.duration,
        summary.workload_throughput,
        summary.workload_runs,
        summary.selections,
    )


class TestRepeatedRunsAreBitIdentical:
    """A request re-executed after unrelated runs matches its first run.

    This is the regression net for cross-run leakage: any memo keyed too
    narrowly (e.g. on object identity that gets recycled, or on a subset
    of the physical inputs) would make the replay diverge.
    """

    def request(self, seed=1, scenario=SMALL_LOW):
        return RunRequest(
            target="cg", policy=PolicySpec.fixed(8), scenario=scenario,
            seed=seed, iterations_scale=0.1,
        )

    def test_interleaved_requests_replay_identically(self):
        first = execute_request(self.request())
        # Unrelated runs in between: different seed, different scenario,
        # different stepping mode — these churn every process-global
        # memo (registry programs, code features, availability draws,
        # scaling efficiencies) with other keys.
        execute_request(self.request(seed=2))
        execute_request(self.request(scenario=SMALL_HIGH))
        _simulate(self.request(), "fixed")
        replay = execute_request(self.request())
        assert summary_signature(replay) == summary_signature(first)

    def test_engine_rerun_with_shared_programs(self):
        # Two engines over the *same* Program objects: the code-feature
        # memo and the scaling-model memos are shared by design, the
        # run state (instances, demands, allocations, rates) must not be.
        target = tiny_program("t", iterations=10, work=2.0)
        workload = tiny_program("w", iterations=5, work=1.0)

        def run_once():
            jobs = [
                JobSpec(program=target, policy=FixedPolicy(8),
                        job_id="target", is_target=True),
                JobSpec(program=workload, policy=FixedPolicy(4),
                        job_id="w", restart=True),
            ]
            machine = SimMachine(topology=XEON_L7555)
            return CoExecutionEngine(machine, jobs).run()

        first = run_once()
        second = run_once()
        assert second.target_time == first.target_time
        assert second.job_times == first.job_times
        assert second.workload_work == first.workload_work
        assert second.cpu_time == first.cpu_time


class TestAvailabilityDrawCache:
    def test_draws_keyed_on_seed_and_bounds(self):
        a = PeriodicAvailability(max_processors=32, period=10.0, seed=3)
        b = PeriodicAvailability(max_processors=32, period=10.0, seed=4)
        times = [5.0 + 10.0 * i for i in range(20)]
        # Interleave queries from both instances, then replay each in
        # isolation: the shared lru_cache must answer per (seed, index).
        interleaved_a = []
        interleaved_b = []
        for t in times:
            interleaved_a.append(a.available(t))
            interleaved_b.append(b.available(t))
        assert interleaved_a == [a.available(t) for t in times]
        assert interleaved_b == [b.available(t) for t in times]
        assert interleaved_a != interleaved_b  # distinct seeds diverge

    def test_same_seed_instances_agree(self):
        a = PeriodicAvailability(max_processors=32, period=10.0, seed=7)
        b = PeriodicAvailability(max_processors=32, period=10.0, seed=7)
        times = [5.0 + 10.0 * i for i in range(10)]
        assert [a.available(t) for t in times] == [
            b.available(t) for t in times
        ]


class TestPerInstanceMemos:
    def test_usl_efficiency_memo_is_per_instance(self):
        steep = USLScaling(sigma=0.3, kappa=0.01)
        flat = USLScaling(sigma=0.005, kappa=0.0001)
        # Populate one memo first, then check the other is unaffected.
        for n in (1, 4, 16):
            steep.efficiency(n)
        for n in (1, 4, 16):
            assert flat.efficiency(n) == flat.speedup(n) / n
            assert steep.efficiency(n) == steep.speedup(n) / n

    def test_loadavg_decay_memo_tracks_dt_changes(self):
        memoed = LoadAverage(period=60.0)
        memoed.update(4.0, 0.1)
        memoed.update(4.0, 0.5)  # dt change invalidates the memo
        memoed.update(4.0, 0.1)

        fresh = LoadAverage(period=60.0)
        for dt in (0.1, 0.5, 0.1):
            fresh.update(4.0, dt)
        assert memoed.value == fresh.value

    def test_loadavg_pair_advance_matches_iterated_updates(self):
        span = LoadAverages()
        ticks = LoadAverages()
        span.update(3.0, 0.1)
        ticks.update(3.0, 0.1)
        span.advance(3.0, 0.1, 64)
        for _ in range(64):
            ticks.update(3.0, 0.1)
        assert abs(span.ldavg_1 - ticks.ldavg_1) < 1e-12
        assert abs(span.ldavg_5 - ticks.ldavg_5) < 1e-12


class TestSchedulerPrecomputation:
    def test_job_demand_hash_matches_field_tuple(self):
        a = JobDemand("j", 8, memory_intensity=0.5, locality=0.9)
        b = JobDemand("j", 8, memory_intensity=0.5, locality=0.9)
        assert a == b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1  # usable as a memo key across instances

    def test_job_demand_traffic_precomputed(self):
        demand = JobDemand("j", 8, memory_intensity=0.5, locality=0.8)
        assert demand.traffic == 8 * 0.5 / 0.8
        assert JobDemand("j", 0).traffic == 0.0

    def test_thread_share_lazy_and_prefilled_agree(self):
        lazy = Allocation(
            job_id="j", threads=8, granted_cpus=6.0,
            switch_factor=1.0, memory_factor=1.0,
        )
        assert lazy.thread_share == 6.0 / 8
        zero = Allocation(
            job_id="j", threads=0, granted_cpus=0.0,
            switch_factor=1.0, memory_factor=1.0,
        )
        assert zero.thread_share == 0.0
