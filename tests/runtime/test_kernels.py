"""Unit tests for the vectorized span kernels (`repro.runtime.kernels`).

The stepping equivalence tests (`test_stepping.py`) pin the observable
end-to-end behaviour; these tests pin the kernel math itself — bitwise
agreement between `span_rates` and the engine's scalar `_rate`, the
completion-horizon rounding rules, and the `apply_span` writeback.
"""

import math
import pickle

import numpy as np
import pytest

from repro.core.policies import FixedPolicy
from repro.exec.request import (
    PolicySpec,
    RunRequest,
    WorkloadSpec,
    execute_request,
)
from repro.experiments.scenarios import SMALL_LOW
from repro.machine.machine import SimMachine
from repro.machine.topology import XEON_L7555
from repro.runtime import kernels
from repro.runtime.engine import (
    MAX_SPIN_WASTE,
    SPIN_WASTE_COEFF,
    CoExecutionEngine,
    JobSpec,
    _JobState,
)
from repro.runtime.kernels import (
    HORIZON_FUZZ,
    SCALAR_SPAN_MAX,
    SpanPlan,
    SpanState,
    apply_span,
    build_span_state,
    completion_horizon,
    span_rates,
)
from repro.sched.scheduler import JobDemand, ProportionalShareScheduler
from repro.workload.spec import workload_sets
from tests.runtime.test_engine import tiny_program


class _StubInstance:
    def __init__(self, remaining):
        self.remaining = remaining


class _StubSpec:
    def __init__(self, job_id):
        self.job_id = job_id


class _StubState:
    """The minimal `_JobState` surface the kernels touch."""

    def __init__(self, job_id, threads, region, remaining):
        self.spec = _StubSpec(job_id)
        self.threads = threads
        self.region = region
        self.instance = _StubInstance(remaining)
        self.work_done = 0.0
        self.cpu_time = 0.0
        self.region_elapsed = 0.0


def parallel_region(sync_intensity=None):
    """A real Region (scaling law included) from a tiny program."""
    program = tiny_program(iterations=3, work=2.0, serial_fraction=0.2)
    region = program.regions[0]
    if sync_intensity is not None:
        object.__setattr__(region, "sync_intensity", sync_intensity)
    return region


def engine_and_states(thread_counts, available=8):
    """A real engine plus `_JobState`s advanced into their first
    parallel region, and the real scheduler allocation for them."""
    specs = []
    for index, threads in enumerate(thread_counts):
        program = tiny_program(
            name=f"k{index}", iterations=4, work=3.0, serial_fraction=0.2
        )
        specs.append(JobSpec(
            program=program, policy=FixedPolicy(threads),
            job_id=f"k{index}", is_target=index == 0,
        ))
    engine = CoExecutionEngine(SimMachine(topology=XEON_L7555), specs)
    states = []
    for spec, threads in zip(specs, thread_counts):
        state = _JobState(spec)
        # Walk out of the leading serial glue into the parallel region.
        while state.instance.current_region is None:
            assert not state.instance.finished
            state.instance.advance(state.instance.remaining)
        state.region = state.instance.current_region
        state.threads = threads
        states.append(state)
    demands = [
        JobDemand(state.spec.job_id, state.threads) for state in states
    ]
    allocation = ProportionalShareScheduler(XEON_L7555).allocate(
        demands, available
    )
    return engine, states, allocation


class TestSpanRatesMatchEngine:
    def test_oversubscribed_parallel_rates_are_bit_identical(self):
        # 6 + 8 threads onto 8 processors: shares < 1, spin path taken.
        engine, states, allocation = engine_and_states([6, 8], available=8)
        span = build_span_state(
            states, allocation, SPIN_WASTE_COEFF, MAX_SPIN_WASTE
        )
        for row, state in enumerate(states):
            alloc = allocation.allocations[state.spec.job_id]
            expected = engine._rate_uncached(
                state, alloc, state.region, alloc.thread_share
            )
            assert span.rates[row] == expected

    def test_uncontended_parallel_rates_are_bit_identical(self):
        # 2 + 2 threads onto 32 processors: no oversubscription, the
        # spin factor must collapse to exactly 1.0 on both paths.
        engine, states, allocation = engine_and_states([2, 2], available=32)
        span = build_span_state(
            states, allocation, SPIN_WASTE_COEFF, MAX_SPIN_WASTE
        )
        for row, state in enumerate(states):
            alloc = allocation.allocations[state.spec.job_id]
            expected = engine._rate_uncached(
                state, alloc, state.region, alloc.thread_share
            )
            assert span.rates[row] == expected
            # With full shares the rate reduces to the no-spin product.
            no_spin = (
                alloc.thread_share * state.threads
                * alloc.switch_factor * alloc.memory_factor
                * state.region.scaling.efficiency(state.threads)
            )
            assert span.rates[row] == no_spin

    def test_serial_glue_rates_are_bit_identical(self):
        engine, states, allocation = engine_and_states([4, 8], available=8)
        for state in states:
            state.region = None  # back in serial glue
            state.threads = 1
        demands = [JobDemand(s.spec.job_id, 1) for s in states]
        allocation = ProportionalShareScheduler(XEON_L7555).allocate(
            demands, 8
        )
        span = build_span_state(
            states, allocation, SPIN_WASTE_COEFF, MAX_SPIN_WASTE
        )
        for row, state in enumerate(states):
            alloc = allocation.allocations[state.spec.job_id]
            expected = engine._rate_uncached(
                state, alloc, None, alloc.thread_share
            )
            assert span.rates[row] == expected

    def test_empty_span(self):
        span = build_span_state(
            [], object(), SPIN_WASTE_COEFF, MAX_SPIN_WASTE
        )
        assert len(span) == 0
        assert span_rates(span, SPIN_WASTE_COEFF, MAX_SPIN_WASTE).size == 0
        assert completion_horizon([], 0.1) == math.inf


def hand_span(rates, remaining, serial=None, granted=None):
    """A SpanState with prescribed rates, for horizon/apply tests."""
    count = len(rates)
    states = [
        _StubState(f"j{i}", 4, None, remaining[i]) for i in range(count)
    ]
    serial_arr = np.zeros(count, dtype=bool)
    if serial is not None:
        serial_arr[:] = serial
    return SpanState(
        states=states,
        threads=np.full(count, 4.0),
        share=np.ones(count),
        granted_cpus=np.asarray(
            granted if granted is not None else [1.0] * count, dtype=float
        ),
        switch_factor=np.ones(count),
        memory_factor=np.ones(count),
        efficiency=np.ones(count),
        sync=np.zeros(count),
        serial=serial_arr,
        remaining=np.asarray(remaining, dtype=float),
        rates=np.asarray(rates, dtype=float),
    )


def hand_rows(rates, remaining):
    """Span-plan rows ``(state, instance, alloc, rate, serial)`` with
    prescribed rates, for horizon tests."""
    return [
        (state, state.instance, None, rate, False)
        for state, rate in zip(hand_span(rates, remaining).states, rates)
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


class TestApplySpan:
    def test_writeback_matches_scalar_accrual(self):
        rates = [1.5, 0.25]
        granted = [3.0, 0.5]
        span = hand_span(
            rates, [100.0, 100.0], serial=[False, True], granted=granted
        )
        ticks, dt = 7, 0.25
        apply_span(span, ticks, dt)
        elapsed = ticks * dt
        for row, state in enumerate(span.states):
            # Element-for-element the engine's scalar span loop.
            assert state.work_done == rates[row] * elapsed
            assert state.cpu_time == granted[row] * elapsed
            assert state.instance.remaining == 100.0 - rates[row] * elapsed
        # Region residency accrues only while in a parallel region.
        assert span.states[0].region_elapsed == elapsed
        assert span.states[1].region_elapsed == 0.0

    def test_zero_ticks_is_a_no_op(self):
        span = hand_span([2.0], [10.0])
        apply_span(span, 0, 0.1)
        state = span.states[0]
        assert state.work_done == 0.0
        assert state.cpu_time == 0.0
        assert state.instance.remaining == 10.0

    def test_span_equals_iterated_ticks_within_float_noise(self):
        dt, ticks = 0.1, 64
        span = hand_span([1.7], [100.0], granted=[2.3])
        apply_span(span, ticks, dt)
        work_iterated = 0.0
        cpu_iterated = 0.0
        for _ in range(ticks):
            work_iterated += 1.7 * dt
            cpu_iterated += 2.3 * dt
        assert span.states[0].work_done == pytest.approx(
            work_iterated, rel=1e-12
        )
        assert span.states[0].cpu_time == pytest.approx(
            cpu_iterated, rel=1e-12
        )


class TestBuildSpanState:
    def test_gathers_real_allocation_rows(self):
        _, states, allocation = engine_and_states([6, 8], available=8)
        span = build_span_state(
            states, allocation, SPIN_WASTE_COEFF, MAX_SPIN_WASTE
        )
        assert span.states == states
        for row, state in enumerate(states):
            alloc = allocation.allocations[state.spec.job_id]
            assert span.threads[row] == float(state.threads)
            assert span.share[row] == alloc.thread_share
            assert span.granted_cpus[row] == alloc.granted_cpus
            assert span.switch_factor[row] == alloc.switch_factor
            assert span.memory_factor[row] == alloc.memory_factor
            assert span.remaining[row] == state.instance.remaining
            assert not span.serial[row]
            assert span.sync[row] == state.region.sync_intensity
            assert span.efficiency[row] == (
                state.region.scaling.efficiency(state.threads)
            )

    def test_serial_rows_get_neutral_region_factors(self):
        state = _StubState("s", 1, None, 5.0)
        demands = [JobDemand("s", 1)]
        allocation = ProportionalShareScheduler(XEON_L7555).allocate(
            demands, 8
        )
        span = build_span_state(
            [state], allocation, SPIN_WASTE_COEFF, MAX_SPIN_WASTE
        )
        assert span.serial[0]
        assert span.efficiency[0] == 1.0
        assert span.sync[0] == 0.0


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
    return SpanPlan(
        rows=rows, ticks=ticks, dt=dt, allocation=allocation,
        spin_coeff=SPIN_WASTE_COEFF, max_spin_waste=MAX_SPIN_WASTE,
    )


class TestSpanPlanPaths:
    """`SpanPlan.apply` takes the scalar path up to `SCALAR_SPAN_MAX`
    rows and the NumPy path above it; both must leave identical state."""

    def applied(self, monkeypatch, scalar_max):
        monkeypatch.setattr(kernels, "SCALAR_SPAN_MAX", scalar_max)
        _, states, allocation = engine_and_states([6, 8], available=8)
        plan_for(states, allocation, ticks=7).apply()
        return states

    def test_scalar_and_vector_paths_are_bit_identical(self, monkeypatch):
        scalar = self.applied(monkeypatch, SCALAR_SPAN_MAX)
        vector = self.applied(monkeypatch, 0)
        for s, v in zip(scalar, vector):
            assert v.work_done == s.work_done
            assert v.cpu_time == s.cpu_time
            assert v.region_elapsed == s.region_elapsed
            assert v.instance.remaining == s.instance.remaining

    def test_vector_path_writes_python_floats(self, monkeypatch):
        for state in self.applied(monkeypatch, 0):
            assert type(state.work_done) is float
            assert type(state.cpu_time) is float
            assert type(state.instance.remaining) is float


class TestVectorPathSummaries:
    def test_forced_vector_path_pickles_identically(self, monkeypatch):
        # A workload scenario has spans with several active rows; with
        # SCALAR_SPAN_MAX = 0 every one of them takes the NumPy path.
        request = RunRequest(
            target="cg", policy=PolicySpec.fixed(8), scenario=SMALL_LOW,
            workload=WorkloadSpec.from_set(
                workload_sets(SMALL_LOW.workload_size)[0],
                PolicySpec.fixed(4),
            ),
            seed=1, iterations_scale=0.1,
        )
        scalar = execute_request(request)
        monkeypatch.setattr(kernels, "SCALAR_SPAN_MAX", 0)
        vector = execute_request(request)
        assert pickle.dumps(vector) == pickle.dumps(scalar)
