"""Unit tests for the span kernels (`repro.runtime.kernels`).

The stepping equivalence tests (`test_stepping.py`) pin the observable
end-to-end behaviour; these tests pin the kernel math itself — the
completion-horizon rounding rules, the `SpanPlan.apply` writeback, and
a burst-storm run whose spans are wider than `SCALAR_SPAN_MAX` rows.
"""

import hashlib
import math
import pickle

import pytest

from repro.chaos.workload import storm_workload
from repro.core.policies import FixedPolicy
from repro.exec.request import PolicySpec, RunRequest, execute_request
from repro.machine.machine import SimMachine
from repro.machine.topology import XEON_L7555
from repro.runtime import kernels
from repro.runtime.engine import CoExecutionEngine, JobSpec, _JobState
from repro.runtime.kernels import (
    HORIZON_FUZZ,
    SCALAR_SPAN_MAX,
    SpanPlan,
    completion_horizon,
)
from repro.sched.scheduler import JobDemand, ProportionalShareScheduler
from tests.runtime.test_engine import tiny_program


class _StubInstance:
    def __init__(self, remaining):
        self.remaining = remaining


class _StubAlloc:
    def __init__(self, granted_cpus):
        self.granted_cpus = granted_cpus


class _StubState:
    """The minimal `_JobState` surface `SpanPlan.apply` touches."""

    def __init__(self, remaining):
        self.instance = _StubInstance(remaining)
        self.work_done = 0.0
        self.cpu_time = 0.0
        self.region_elapsed = 0.0


def job_states(thread_counts):
    """Real `_JobState`s advanced into their first parallel region."""
    states = []
    for index, threads in enumerate(thread_counts):
        program = tiny_program(
            name=f"k{index}", iterations=4, work=3.0, serial_fraction=0.2
        )
        state = _JobState(JobSpec(
            program=program, policy=FixedPolicy(threads),
            job_id=f"k{index}", is_target=index == 0,
        ))
        # Walk out of the leading serial glue into the parallel region.
        while state.instance.current_region is None:
            assert not state.instance.finished
            state.instance.advance(state.instance.remaining)
        state.region = state.instance.current_region
        state.threads = threads
        states.append(state)
    return states


def hand_rows(rates, remaining):
    """Span-plan rows ``(state, instance, alloc, rate, serial)`` with
    prescribed rates, for horizon tests."""
    return [
        (None, _StubInstance(left), None, rate, False)
        for rate, left in zip(rates, remaining)
    ]


class TestCompletionHorizon:
    def test_integer_tick_count_leaves_final_tick_to_the_engine(self):
        # Exactly 10 ticks of work: 9 are event-free, the 10th (the
        # completing tick) must run through the per-tick path.
        rows = hand_rows([2.0], [2.0 * 0.1 * 10])
        assert completion_horizon(rows, 0.1) == 9.0

    def test_fractional_tick_count_rounds_up(self):
        # 10.4 ticks of work: completion happens during tick index 10,
        # so 10 whole ticks are safe.
        rows = hand_rows([2.0], [2.0 * 0.1 * 10.4])
        assert completion_horizon(rows, 0.1) == 10.0

    def test_fuzz_absorbs_accumulation_jitter(self):
        # A hair over an integer boundary (well inside HORIZON_FUZZ)
        # must round *down* like the exact integer, not claim an extra
        # safe tick that per-tick accumulation might contradict.
        ticks = 10.0 + HORIZON_FUZZ / 10.0
        rows = hand_rows([2.0], [2.0 * 0.1 * ticks])
        assert completion_horizon(rows, 0.1) == 9.0

    def test_minimum_over_jobs(self):
        rows = hand_rows([1.0, 4.0], [1.0 * 0.1 * 30, 4.0 * 0.1 * 6])
        assert completion_horizon(rows, 0.1) == 5.0

    def test_stalled_job_imposes_no_bound(self):
        rows = hand_rows([2.0, 0.0], [2.0 * 0.1 * 8, 5.0])
        assert completion_horizon(rows, 0.1) == 7.0

    def test_all_stalled_is_unbounded(self):
        rows = hand_rows([0.0, kernels.RATE_EPSILON], [5.0, 5.0])
        assert completion_horizon(rows, 0.1) == math.inf

    def test_imminent_completion_clamps_to_zero(self):
        rows = hand_rows([2.0], [2.0 * 0.1 * 0.5])
        assert completion_horizon(rows, 0.1) == 0.0

    def test_no_rows_is_unbounded(self):
        assert completion_horizon([], 0.1) == math.inf


def plan_for(states, allocation, ticks=5, dt=0.1):
    """A SpanPlan over real states, rows gathered like the engine's span
    pre-pass (rates from the engine's own scalar ``_rate``)."""
    engine = CoExecutionEngine(SimMachine(topology=XEON_L7555), [])
    rows = []
    for state in states:
        alloc = allocation.allocations[state.spec.job_id]
        rate = engine._rate_uncached(
            state, alloc, state.region, alloc.thread_share
        )
        rows.append(
            (state, state.instance, alloc, rate, state.region is None)
        )
    return SpanPlan(rows=rows, ticks=ticks, dt=dt)


def stub_plan(rate, remaining, granted, ticks, dt):
    """A one-row SpanPlan over a stub job state in a parallel region."""
    state = _StubState(remaining)
    alloc = _StubAlloc(granted)
    return SpanPlan(
        rows=[(state, state.instance, alloc, rate, False)],
        ticks=ticks, dt=dt,
    )


class TestApplySpan:
    def test_writeback_matches_scalar_accrual(self):
        # Real `_JobState`s: two in a parallel region, one in serial
        # glue, rates from the engine's own scalar `_rate`.
        states = job_states([6, 8, 4])
        states[2].region = None
        states[2].threads = 1
        allocation = ProportionalShareScheduler(XEON_L7555).allocate(
            [JobDemand(s.spec.job_id, s.threads) for s in states], 8
        )
        before = [state.instance.remaining for state in states]
        ticks, dt = 7, 0.25
        plan = plan_for(states, allocation, ticks=ticks, dt=dt)
        plan.apply()
        for (state, _, alloc, rate, serial), left in zip(plan.rows, before):
            for value in (state.work_done, state.cpu_time,
                          state.instance.remaining, state.region_elapsed):
                assert type(value) is float
            assert state.work_done == rate * (ticks * dt)
            assert state.cpu_time == alloc.granted_cpus * (ticks * dt)
            assert state.instance.remaining == left - rate * (ticks * dt)
            # Region residency accrues only while in a parallel region.
            assert state.region_elapsed == (
                0.0 if serial else ticks * dt
            )

    def test_zero_ticks_is_a_no_op(self):
        plan = stub_plan(2.0, 10.0, granted=1.0, ticks=0, dt=0.1)
        plan.apply()
        state = plan.rows[0][0]
        assert state.work_done == 0.0
        assert state.cpu_time == 0.0
        assert state.region_elapsed == 0.0
        assert state.instance.remaining == 10.0

    def test_span_equals_iterated_ticks_within_float_noise(self):
        dt, ticks = 0.1, 64
        plan = stub_plan(1.7, 100.0, granted=2.3, ticks=ticks, dt=dt)
        plan.apply()
        work_iterated = 0.0
        cpu_iterated = 0.0
        for _ in range(ticks):
            work_iterated += 1.7 * dt
            cpu_iterated += 2.3 * dt
        state = plan.rows[0][0]
        assert state.work_done == pytest.approx(work_iterated, rel=1e-12)
        assert state.cpu_time == pytest.approx(cpu_iterated, rel=1e-12)


#: ``sha256(pickle.dumps(summary))`` of :func:`storm_request`, recorded
#: when spans wider than 12 rows still took a separate NumPy path.
STORM_DIGEST = (
    "34dbbc9db8461d2e5a25fbe81a076ad8a3134bc823bd466a30806fbde1300884"
)


def storm_request():
    """Two bursts of 16 one-shot jobs around a `cg` target: spans run
    17 to 33 rows wide."""
    return RunRequest(
        target="cg", policy=PolicySpec.fixed(8),
        workload=storm_workload(
            ("is", "ft", "mg", "lu", "ep", "bt", "sp", "cg") * 2,
            PolicySpec.fixed(4), bursts=2, interval=60.0, spread=1.0,
        ),
        seed=1, iterations_scale=0.3,
    )


class TestWideSpans:
    def test_burst_storm_summary_is_unchanged(self, monkeypatch):
        widths = []
        apply = SpanPlan.apply

        def counting_apply(plan):
            widths.append(len(plan.rows))
            return apply(plan)

        monkeypatch.setattr(SpanPlan, "apply", counting_apply)
        summary = execute_request(storm_request())
        digest = hashlib.sha256(pickle.dumps(summary)).hexdigest()
        assert digest == STORM_DIGEST
        # The run must keep exercising wide spans, or it no longer
        # guards them.
        assert max(widths) > SCALAR_SPAN_MAX
