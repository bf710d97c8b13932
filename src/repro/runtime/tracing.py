"""Structured engine tracing.

A :class:`TickTracer` attached to a :class:`~repro.runtime.engine.
CoExecutionEngine` records one row per scheduler tick: time, available
processors, total demand, bandwidth saturation, and per-job (threads,
granted CPUs).  Useful for debugging policies, for plotting timelines
outside Python, and for the paper-style "what happened at t₀" analyses.

The trace is plain data: export with :meth:`TickTracer.to_csv` or
consume :attr:`TickTracer.rows` directly.

The serving runtime records a :class:`TierTransition` — the same idea
at a different granularity: one event per degradation-ladder move
(mixture → best expert → default and back), listed in
``ServeReport.transitions``, so a soak run's breaker behaviour can be
replayed decision-by-decision afterwards.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union


@dataclass(frozen=True)
class TickRecord:
    """One scheduler tick's telemetry."""

    time: float
    available: int
    total_demand: int
    bandwidth_saturation: float
    #: job id -> threads demanded this tick.
    threads: Dict[str, int]
    #: job id -> CPUs granted this tick.
    granted: Dict[str, float]

    @property
    def oversubscription(self) -> float:
        return self.total_demand / self.available if self.available else 0.0


@dataclass(frozen=True)
class TierTransition:
    """One degradation-ladder move by the serving circuit breaker."""

    request_index: int
    from_tier: str
    to_tier: str
    #: Why the breaker moved: "trip" (failures exceeded the threshold),
    #: "probe" (a half-open probe of the upper tier succeeded enough to
    #: step back up), or "probe-failed" (the probe re-tripped).
    reason: str


@dataclass
class TickTracer:
    """Collects tick records; pass to ``CoExecutionEngine(tracer=...)``.

    ``period`` subsamples: one record every ``period`` simulated
    seconds (default: every tick — fine for short runs, heavy for long
    ones).
    """

    period: float = 0.0
    rows: List[TickRecord] = field(default_factory=list)
    _next_due: float = field(default=0.0, repr=False)

    def record(
        self,
        time: float,
        available: int,
        demands,
        allocation,
    ) -> None:
        """Called by the engine once per tick."""
        if self.period > 0.0 and time < self._next_due:
            return
        self._next_due = time + self.period
        self.rows.append(TickRecord(
            time=time,
            available=available,
            total_demand=allocation.runqueue.runnable,
            bandwidth_saturation=allocation.bandwidth_saturation,
            threads={d.job_id: d.threads for d in demands},
            granted={
                job_id: alloc.granted_cpus
                for job_id, alloc in allocation.allocations.items()
            },
        ))

    def clear(self) -> None:
        self.rows = []
        self._next_due = 0.0

    # -- consumption -------------------------------------------------------

    def job_ids(self) -> List[str]:
        ids: List[str] = []
        for row in self.rows:
            for job_id in row.threads:
                if job_id not in ids:
                    ids.append(job_id)
        return ids

    def series(self, job_id: str) -> List[tuple]:
        """(time, threads, granted) triples for one job."""
        return [
            (row.time, row.threads.get(job_id, 0),
             row.granted.get(job_id, 0.0))
            for row in self.rows
        ]

    def utilisation(self) -> float:
        """Mean fraction of available processors that had demand."""
        if not self.rows:
            return 0.0
        return sum(
            min(1.0, row.total_demand / row.available)
            for row in self.rows
        ) / len(self.rows)

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the trace as CSV (one column pair per job)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        job_ids = self.job_ids()
        header = ["time", "available", "total_demand", "saturation"]
        for job_id in job_ids:
            header += [f"{job_id}.threads", f"{job_id}.granted"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in self.rows:
                record = [
                    f"{row.time:.3f}", row.available,
                    row.total_demand,
                    f"{row.bandwidth_saturation:.4f}",
                ]
                for job_id in job_ids:
                    record.append(row.threads.get(job_id, 0))
                    record.append(
                        f"{row.granted.get(job_id, 0.0):.3f}"
                    )
                writer.writerow(record)
        return path
