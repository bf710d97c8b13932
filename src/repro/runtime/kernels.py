"""Span kernels for event-driven stepping.

The event-driven engine (:class:`repro.runtime.engine.CoExecutionEngine`
with ``stepping="event"``) advances whole *spans* of ticks at once
whenever the system is event-free.  Within such a span every job's
progress rate is constant, so the per-job work accrual the fixed-tick
engine performs once per tick per job collapses to one multiply per job
per span.

The engine's span pre-pass already holds each active job's rate (the
last per-tick ``_rate`` evaluation), so :func:`completion_horizon` and
:meth:`SpanPlan.apply` are plain loops over those rows: a span accrues
the same work the fixed-tick reference would, up to floating-point
accumulation order (one multiply per span instead of one add per tick).
Gathering the rows into NumPy arrays costs more than it saves at every
measured width, up to 256 rows (see ``docs/performance.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Stalled-rate threshold, matching the fixed-tick advance loop's guard.
RATE_EPSILON = 1e-12

#: Safety fuzz, in ticks, subtracted before rounding a completion
#: horizon.  It must exceed the divergence between per-tick and per-span
#: work accumulation (~1 ulp per tick, so ~1e-8 ticks even for very
#: long spans) while costing far less than the whole tick of margin a
#: blanket ``-1`` would waste at every event.
HORIZON_FUZZ = 1e-6

#: No code branches on this: every span takes :meth:`SpanPlan.apply`'s
#: one loop.  ``bench/tracing.py``'s ``_after_span_apply`` imports it
#: each time a span is applied and counts spans wider than this as
#: "vector", so it must stay until that tracer stops reading it.
SCALAR_SPAN_MAX = 12


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


@dataclass
class SpanPlan:
    """One engine's event-free fast-forward, applied by :meth:`apply`.

    ``rows`` carries ``(state, instance, alloc, rate, serial)`` tuples —
    the span pre-pass working set.
    """

    rows: list
    ticks: int
    dt: float

    def __len__(self) -> int:
        return len(self.rows)

    def apply(self) -> None:
        """Write ``ticks`` ticks of progress back onto the job states.

        Work, CPU time and region residency all accrue linearly while
        rates hold.  The phase cannot complete inside the span
        (:func:`completion_horizon` leaves a full tick of headroom), so
        ``remaining`` is decremented directly without boundary
        handling.
        """
        elapsed = self.ticks * self.dt
        for state, instance, alloc, rate, serial in self.rows:
            work = rate * elapsed
            state.work_done += work
            state.cpu_time += alloc.granted_cpus * elapsed
            instance.remaining -= work
            if not serial:
                state.region_elapsed += elapsed
