"""Vectorized allocation/progress kernels for event-driven stepping.

The event-driven engine (:class:`repro.runtime.engine.CoExecutionEngine`
with ``stepping="event"``) advances whole *spans* of ticks at once
whenever the system is event-free.  Within such a span every job's
progress rate is constant, so the per-job math the fixed-tick engine
performs once per tick per job — granted shares, spin/efficiency
factors, work accrual — collapses to a handful of NumPy operations over
a structure-of-arrays snapshot of the active jobs.

The formulas here mirror ``CoExecutionEngine._rate`` operation for
operation (same constants, same evaluation order), so a span accrues the
same work the fixed-tick reference would, up to floating-point
accumulation order (one multiply per span instead of one per tick).

Spans are applied one run at a time: stacking many runs' spans into
one kernel call lost to per-run execution on a 2-core host, and no
fig08 span has enough rows to leave the scalar path (see
``docs/performance.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

#: Stalled-rate threshold, matching the fixed-tick advance loop's guard.
RATE_EPSILON = 1e-12

#: Safety fuzz, in ticks, subtracted before rounding a completion
#: horizon.  It must exceed the divergence between per-tick and per-span
#: work accumulation (~1 ulp per tick, so ~1e-8 ticks even for very
#: long spans) while costing far less than the whole tick of margin a
#: blanket ``-1`` would waste at every event.
HORIZON_FUZZ = 1e-6

#: Largest active-row count for which a fast-forward span is applied
#: with scalar Python instead of the NumPy kernels: below this the
#: array gather in :func:`build_span_state` costs more than the
#: vectorization saves.  Both paths compute the same products in the
#: same order and write back Python floats, so results are
#: bit-identical down to their pickled bytes.
SCALAR_SPAN_MAX = 12


@dataclass
class SpanState:
    """Structure-of-arrays snapshot of the active jobs for one span.

    One row per *active* job, in engine iteration order.  ``states``
    keeps the matching ``_JobState`` references so span results can be
    written back after the vectorized math.
    """

    states: List[object]
    threads: np.ndarray      # selected thread count (1 in serial glue)
    share: np.ndarray        # per-thread CPU fraction granted this tick
    granted_cpus: np.ndarray  # scheduler grant (CPU-seconds per second)
    switch_factor: np.ndarray
    memory_factor: np.ndarray
    efficiency: np.ndarray   # scaling-law efficiency at `threads`
    sync: np.ndarray         # region sync intensity (0 in serial glue)
    serial: np.ndarray       # bool: job is in serial glue
    remaining: np.ndarray    # work left in the current phase
    rates: np.ndarray        # progress rates (filled by span_rates)

    def __len__(self) -> int:
        return len(self.states)


def build_span_state(states, allocation, spin_coeff: float,
                     max_spin_waste: float) -> SpanState:
    """Gather the active jobs and this tick's allocation into arrays.

    ``states`` is the engine's active ``_JobState`` list; ``allocation``
    the :class:`~repro.sched.scheduler.TickAllocation` in force for the
    span (allocations only change at event ticks, by construction).
    """
    count = len(states)
    threads = np.empty(count, dtype=float)
    share = np.empty(count, dtype=float)
    granted_cpus = np.empty(count, dtype=float)
    switch_factor = np.empty(count, dtype=float)
    memory_factor = np.empty(count, dtype=float)
    efficiency = np.ones(count, dtype=float)
    sync = np.zeros(count, dtype=float)
    serial = np.zeros(count, dtype=bool)
    remaining = np.empty(count, dtype=float)

    for row, state in enumerate(states):
        alloc = allocation.allocations[state.spec.job_id]
        region = state.region
        threads[row] = float(state.threads)
        share[row] = alloc.granted_cpus / max(alloc.threads, 1)
        granted_cpus[row] = alloc.granted_cpus
        switch_factor[row] = alloc.switch_factor
        memory_factor[row] = alloc.memory_factor
        remaining[row] = state.instance.remaining
        if region is None:
            serial[row] = True
        else:
            efficiency[row] = region.scaling.efficiency(state.threads)
            sync[row] = region.sync_intensity

    span = SpanState(
        states=list(states),
        threads=threads,
        share=share,
        granted_cpus=granted_cpus,
        switch_factor=switch_factor,
        memory_factor=memory_factor,
        efficiency=efficiency,
        sync=sync,
        serial=serial,
        remaining=remaining,
        rates=np.empty(count, dtype=float),
    )
    span.rates = span_rates(span, spin_coeff, max_spin_waste)
    return span


def span_rates(span: SpanState, spin_coeff: float,
               max_spin_waste: float) -> np.ndarray:
    """Progress rates for every job at once.

    Vectorized transliteration of ``CoExecutionEngine._rate``: serial
    glue progresses at ``min(1, share) * switch_factor``; parallel
    regions at granted CPU discounted by context-switch, memory,
    scaling-efficiency and spin-waste factors.
    """
    if span.threads.size == 0:
        return np.empty_like(span.threads)
    granted = np.maximum(span.share * span.threads, 1e-9)
    oversub = np.maximum(0.0, span.threads / granted - 1.0)
    spin = spin_coeff * span.sync * span.threads * oversub
    spin_factor = (1.0 - max_spin_waste) + (
        max_spin_waste / (1.0 + spin)
    )
    region_rates = (
        granted * span.switch_factor * span.memory_factor
        * span.efficiency * spin_factor
    )
    serial_rates = np.minimum(1.0, span.share) * span.switch_factor
    return np.where(span.serial, serial_rates, region_rates)


def completion_horizon(rows, dt: float) -> float:
    """Max whole ticks before any job could complete its phase.

    ``rows`` are :class:`SpanPlan` rows, ``(state, instance, alloc,
    rate, serial)`` — the engine's span pre-pass working set.  For a
    job progressing at rate ``r`` with ``w = m * r * dt`` work
    remaining, the fixed-tick engine completes the phase *during* tick
    index ``ceil(m) - 1`` (for integer ``m`` the final tick consumes
    exactly the remaining work), so up to ``ceil(m) - 1`` whole ticks
    are completion-free and the completion tick itself runs through the
    exact per-tick path.  :data:`HORIZON_FUZZ` is subtracted first so
    the accumulation-order difference between per-tick and per-span
    work totals can never push the completion across a tick boundary.
    Stalled jobs (``rate <= RATE_EPSILON``) never complete and impose
    no bound.
    """
    min_ticks = math.inf
    for _state, instance, _alloc, rate, _serial in rows:
        if rate > RATE_EPSILON:
            ticks_left = instance.remaining / (rate * dt)
            if ticks_left < min_ticks:
                min_ticks = ticks_left
    if math.isinf(min_ticks):
        return math.inf
    return max(0.0, math.ceil(min_ticks - HORIZON_FUZZ) - 1.0)


def apply_span(span: SpanState, ticks: int, dt: float) -> None:
    """Write ``ticks`` ticks of progress back onto the job states.

    Work, CPU time and region residency all accrue linearly while rates
    hold, so the whole span is two vector multiplies.  The phase cannot
    complete inside the span (:func:`completion_horizon` guarantees a
    full tick of headroom), so ``remaining`` is decremented directly
    without boundary handling.  The products are converted to Python
    floats before they touch job state: a NumPy scalar would otherwise
    leak into run summaries, equal in value to the scalar path's result
    but different in ``repr`` and pickled bytes.
    """
    if ticks < 1 or len(span) == 0:
        return
    elapsed = ticks * dt
    work = (span.rates * elapsed).tolist()
    cpu = (span.granted_cpus * elapsed).tolist()
    for state, row_work, row_cpu, serial in zip(
        span.states, work, cpu, span.serial.tolist()
    ):
        state.work_done += row_work
        state.cpu_time += row_cpu
        state.instance.remaining -= row_work
        if not serial:
            state.region_elapsed += elapsed


@dataclass
class SpanPlan:
    """One engine's event-free fast-forward, applied by :meth:`apply`.

    ``rows`` carries ``(state, instance, alloc, rate, serial)`` tuples —
    the span pre-pass working set — and ``allocation`` the
    :class:`~repro.sched.scheduler.TickAllocation` in force for the
    span.
    """

    rows: list
    ticks: int
    dt: float
    allocation: object
    spin_coeff: float
    max_spin_waste: float

    def __len__(self) -> int:
        return len(self.rows)

    def apply(self) -> None:
        """Apply the span: scalar Python for few rows, NumPy above
        :data:`SCALAR_SPAN_MAX`."""
        if len(self.rows) <= SCALAR_SPAN_MAX:
            self.apply_scalar()
        else:
            span = build_span_state(
                [row[0] for row in self.rows],
                self.allocation, self.spin_coeff, self.max_spin_waste,
            )
            apply_span(span, self.ticks, self.dt)

    def apply_scalar(self) -> None:
        """Few jobs: the NumPy gather costs more than it saves, and the
        pre-pass already holds every rate.  The math below is
        element-for-element the same as :func:`apply_span` (same
        products, same order), so both paths produce bit-identical
        state."""
        elapsed = self.ticks * self.dt
        for state, instance, alloc, rate, serial in self.rows:
            work = rate * elapsed
            state.work_done += work
            state.cpu_time += alloc.granted_cpus * elapsed
            instance.remaining -= work
            if not serial:
                state.region_elapsed += elapsed
