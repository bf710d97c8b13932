"""Event-driven vs fixed-tick stepping equivalence.

The event-driven core (``stepping="event"``) must be an *observational
drop-in* for the per-tick reference (``stepping="fixed"``): identical
Selection sequences, identical workload run counts, and work/finish
times equal to within floating-point accumulation error.  These tests
pin that contract over every scenario the experiments layer defines,
plus the structural guarantees around tracing and timeline sampling.
Fixed stepping is a test oracle only: production runs (``RunRequest``)
are always event-stepped.
"""

import math

import pytest

from repro.core.policies import FixedPolicy
from repro.experiments.scenarios import ALL_SCENARIOS, STATIC_ISOLATED
from repro.experiments.runner import run_target
from repro.machine.machine import SimMachine
from repro.machine.topology import XEON_L7555
from repro.runtime.engine import STEPPING_MODES, CoExecutionEngine, JobSpec
from repro.runtime.tracing import TickTracer
from repro.workload.spec import workload_sets
from tests.runtime.test_engine import tiny_program

#: Relative tolerance for quantities accumulated tick-by-tick in fixed
#: mode but in closed form in event mode (~1 ulp per skipped tick).
SPAN_REL_TOL = 1e-6


def selection_triples(result):
    return [(s.job_id, s.loop_name, s.threads) for s in result.selections]


def run_both_modes(scenario, seed=1, iterations_scale=0.3, **kwargs):
    workload = (
        workload_sets(scenario.workload_size)[0]
        if scenario.workload_size else None
    )
    return {
        mode: run_target(
            "cg", FixedPolicy(8), scenario,
            workload_set=workload, seed=seed,
            iterations_scale=iterations_scale, stepping=mode, **kwargs,
        )
        for mode in STEPPING_MODES
    }


def engine_result(stepping, program=None, policy=None, dt=0.1, **kwargs):
    program = program or tiny_program("t", iterations=10, work=2.0)
    jobs = [JobSpec(program=program, policy=policy or FixedPolicy(8),
                    job_id="target", is_target=True)]
    machine = SimMachine(topology=XEON_L7555)
    engine = CoExecutionEngine(
        machine, jobs, dt=dt, stepping=stepping, **kwargs,
    )
    return engine.run()


class TestScenarioEquivalence:
    """Both modes agree on every scenario in the experiments layer."""

    @pytest.mark.parametrize(
        "scenario", ALL_SCENARIOS, ids=lambda s: s.name,
    )
    def test_modes_agree(self, scenario):
        outcomes = run_both_modes(scenario)
        fixed = outcomes["fixed"]
        event = outcomes["event"]

        # The decision log is the policy-visible behaviour: identical
        # (job, loop, threads) sequences mean every consult saw the
        # same environment in the same order.
        assert (selection_triples(fixed.result)
                == selection_triples(event.result))

        # Discrete outcomes are exactly equal.
        assert fixed.result.workload_runs == event.result.workload_runs

        # Continuous outcomes agree within span accumulation error.
        assert event.target_time == pytest.approx(
            fixed.target_time, rel=SPAN_REL_TOL,
        )
        assert event.workload_throughput == pytest.approx(
            fixed.workload_throughput, rel=SPAN_REL_TOL, abs=1e-12,
        )
        for job_id, work in fixed.result.workload_work.items():
            assert event.result.workload_work[job_id] == pytest.approx(
                work, rel=SPAN_REL_TOL, abs=1e-12,
            )


class TestExactEquality:
    """A setting with no mid-span events is bitwise identical.

    ``FixedPolicy(1)`` on an isolated static machine with a
    serial-fraction-free program never oversubscribes, never spins and
    never changes threads, so event mode's scalar span application
    performs the same multiplies in the same order as the per-tick loop
    — the results must be equal to the last bit, not approximately.
    """

    def run_mode(self, mode):
        program = tiny_program(
            "exact", iterations=8, work=2.0, serial_fraction=0.0,
        )
        return engine_result(
            mode, program=program, policy=FixedPolicy(1), dt=0.125,
        )

    def test_bitwise_equal(self):
        fixed = self.run_mode("fixed")
        event = self.run_mode("event")
        assert event.target_time == fixed.target_time
        assert event.job_times == fixed.job_times
        assert event.duration == fixed.duration
        assert event.cpu_time == fixed.cpu_time
        assert (selection_triples(event) == selection_triples(fixed))
        assert [s.time for s in event.selections] == [
            s.time for s in fixed.selections
        ]


class TestTracing:
    """A tracer disables fast-forward: every tick must be observable."""

    def run_traced(self, mode):
        tracer = TickTracer(period=0.0)
        program = tiny_program("t", iterations=12, work=2.0)
        result = engine_result(
            mode, program=program, policy=FixedPolicy(4), tracer=tracer,
        )
        return tracer, result

    def test_event_mode_traces_every_tick(self):
        fixed_tracer, fixed = self.run_traced("fixed")
        event_tracer, event = self.run_traced("event")
        assert len(event_tracer.rows) == len(fixed_tracer.rows)
        assert event.target_time == fixed.target_time
        assert [r.time for r in event_tracer.rows] == [
            r.time for r in fixed_tracer.rows
        ]


class TestTimelineSampling:
    """Timeline samples land on the same grid in both modes."""

    def test_sampled_timeline_matches(self):
        outcomes = run_both_modes(
            STATIC_ISOLATED, timeline_period=1.0,
        )
        fixed_tl = outcomes["fixed"].result.timeline
        event_tl = outcomes["event"].result.timeline
        assert len(event_tl) == len(fixed_tl)
        assert [p.time for p in event_tl] == [p.time for p in fixed_tl]
        for fp, ep in zip(fixed_tl, event_tl):
            assert ep.available == fp.available
            assert ep.target_threads == fp.target_threads
            assert ep.workload_threads == fp.workload_threads
            assert ep.env_norm == pytest.approx(
                fp.env_norm, rel=SPAN_REL_TOL, abs=1e-12,
            )

    def test_disabled_timeline_is_empty(self):
        result = engine_result("event", timeline_period=None)
        assert result.timeline == []


class TestSteppingValidation:
    def test_engine_rejects_unknown_mode(self):
        program = tiny_program()
        jobs = [JobSpec(program=program, policy=FixedPolicy(1),
                        is_target=True)]
        with pytest.raises(ValueError, match="stepping"):
            CoExecutionEngine(
                SimMachine(topology=XEON_L7555), jobs, stepping="warp",
            )
