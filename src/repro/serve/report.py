"""Structured outcome of a serving session.

:class:`FleetReport` is the one report the soak harness returns and
the CLI prints.  Each of its per-shard rows is a :class:`ServeReport`,
the same plain-data object :meth:`PolicyServer.report
<repro.serve.server.PolicyServer.report>` returns: admission
(answered/shed/deadline-missed counts), degradation (per-tier decision
counts, every ladder transition), latency (p50/p99/mean/max), and the
crash-safety machinery's bookkeeping (journal records, snapshots,
quarantines, recovery point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..runtime.metrics import FixedBucketHistogram
from ..runtime.tracing import TierTransition


def _histogram_line(snapshot: Dict[str, list]) -> Optional[str]:
    """Render a histogram snapshot's populated buckets, or None."""
    if not snapshot or not snapshot.get("counts"):
        return None
    histogram = FixedBucketHistogram(snapshot["bounds"])
    histogram.merge(snapshot)
    populated = histogram.nonzero()
    if not populated:
        return None
    buckets = ", ".join(f"{label}={count}" for label, count in populated)
    return f"latency histogram: {buckets}"


def _gauge_fragment(label: str, snapshot: Dict[str, float]) -> Optional[str]:
    if not snapshot or not snapshot.get("count"):
        return None
    return (f"{label} mean {snapshot['mean']:.1f} "
            f"max {snapshot['max']:.0f}")


@dataclass
class ServeReport:
    """Summary of one :class:`~repro.serve.server.PolicyServer` session."""

    total: int = 0
    answered: int = 0
    shed: int = 0
    deadline_misses: int = 0
    #: Decisions the final guard had to clamp into [1, available].
    clamped: int = 0
    #: Failure counts by reason ("exception", "non-finite",
    #: "out-of-range", "degenerate-features", "deadline") across all
    #: tier attempts.
    failures: Dict[str, int] = field(default_factory=dict)
    #: Answered decisions by serving tier name.
    tier_decisions: Dict[str, int] = field(default_factory=dict)
    transitions: List[TierTransition] = field(default_factory=list)
    trips: int = 0
    recoveries: int = 0
    probe_failures: int = 0
    final_tier: str = ""
    #: Latency snapshot (seconds): count/p50/p99/mean/max.
    latency: Dict[str, float] = field(default_factory=dict)
    #: Fixed-bucket latency histogram snapshot (bounds/counts).
    latency_histogram: Dict[str, list] = field(default_factory=dict)
    #: Arrival-group depth gauge snapshot (count/min/max/mean/last).
    queue_depth: Dict[str, float] = field(default_factory=dict)
    #: Served micro-batch size gauge snapshot.
    batch_sizes: Dict[str, float] = field(default_factory=dict)
    #: Journal/snapshot bookkeeping (empty when serving stateless).
    journal: Dict[str, int] = field(default_factory=dict)

    @property
    def unanswered(self) -> int:
        return self.total - self.answered - self.shed

    def to_jsonable(self) -> dict:
        return {
            "total": self.total,
            "answered": self.answered,
            "shed": self.shed,
            "deadline_misses": self.deadline_misses,
            "clamped": self.clamped,
            "failures": dict(self.failures),
            "tier_decisions": dict(self.tier_decisions),
            "transitions": [
                {
                    "request_index": t.request_index,
                    "from_tier": t.from_tier,
                    "to_tier": t.to_tier,
                    "reason": t.reason,
                }
                for t in self.transitions
            ],
            "trips": self.trips,
            "recoveries": self.recoveries,
            "probe_failures": self.probe_failures,
            "final_tier": self.final_tier,
            "latency": dict(self.latency),
            "latency_histogram": dict(self.latency_histogram),
            "queue_depth": dict(self.queue_depth),
            "batch_sizes": dict(self.batch_sizes),
            "journal": dict(self.journal),
        }


#: Tier precedence for merging ``final_tier`` across per-stream servers
#: (higher = further degraded; unknown tiers sit below "expert").
_TIER_RANK = {"": 0, "default": 3, "expert": 2}


def merge_serve_reports(
    reports: List["ServeReport"],
    *,
    latency: Dict[str, float],
    latency_histogram: Dict[str, list],
    batch_sizes: Dict[str, float],
) -> "ServeReport":
    """Fold several :class:`ServeReport` objects into one.

    A shard hosts one :class:`~repro.serve.server.PolicyServer` per
    stream (that isolation is what makes a single stream's state
    shippable during resharding), but operators and the fleet aggregate
    still want *one* report per shard — this is the fold.  Counters and
    count dicts sum exactly; transitions concatenate in request order;
    ``final_tier`` takes the most-degraded stream.  Latency and gauge
    snapshots cannot be merged exactly from summaries, so the caller
    passes the shard-level instruments (the shard worker's shared
    latency ledger and flush-level batch-size gauge).  The merged
    report has no queue-depth gauge: a shard serves every flush from
    position 0, so the batch sizes already say it.
    """
    merged = ServeReport()
    for report in reports:
        merged.total += report.total
        merged.answered += report.answered
        merged.shed += report.shed
        merged.deadline_misses += report.deadline_misses
        merged.clamped += report.clamped
        for key, count in report.failures.items():
            merged.failures[key] = merged.failures.get(key, 0) + count
        for key, count in report.tier_decisions.items():
            merged.tier_decisions[key] = (
                merged.tier_decisions.get(key, 0) + count
            )
        merged.transitions.extend(report.transitions)
        merged.trips += report.trips
        merged.recoveries += report.recoveries
        merged.probe_failures += report.probe_failures
        if _TIER_RANK.get(report.final_tier, 1) >= _TIER_RANK.get(
                merged.final_tier, 0):
            if report.final_tier:
                merged.final_tier = report.final_tier
        for key, count in report.journal.items():
            if key == "recovered_req":
                merged.journal[key] = max(
                    merged.journal.get(key, -1), count
                )
            else:
                merged.journal[key] = merged.journal.get(key, 0) + count
    merged.transitions.sort(key=lambda t: t.request_index)
    merged.latency = latency
    merged.latency_histogram = latency_histogram
    merged.batch_sizes = batch_sizes
    return merged


@dataclass
class FleetReport:
    """Aggregate outcome of a sharded serving fleet session.

    One :class:`ServeReport` row per shard member.  A row's ``total``,
    ``answered``, ``shed``, ``deadline_misses`` and ``tier_decisions``
    count the decisions the parent received from that member across
    every failover generation, so the rows sum to :attr:`total`.  Its
    other fields — ``trips``, ``recoveries``, ``failures``,
    ``transitions``, latency and journal bookkeeping — come from the
    live generation's worker only: a killed worker's counters die with
    it.  The aggregate latency histogram and gauges are exact merges
    (fixed bucket bounds), while the aggregate p50/p99 are approximated
    from the merged histogram (bucket upper bounds) — raw samples stay
    in their shard processes.
    """

    shards: int = 0
    total: int = 0
    answered: int = 0
    shed: int = 0
    deadline_misses: int = 0
    #: Requests re-delivered after a shard death that the replacement
    #: recognised as already journaled (deduplicated, not re-served).
    recovered: int = 0
    #: Shard deaths detected and replaced mid-session.
    failovers: int = 0
    #: ``failovers`` by cause (sums to it): ``"journal-write:<ERRNO>"``
    #: when the shard's journal refused a write, ``"unresponsive"``
    #: past its liveness deadline, else ``"died"``.
    failover_causes: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds of the serving session (0 when unknown).
    wall_s: float = 0.0
    #: Routing epochs swapped (one per committed resize or
    #: evacuation — the fleet starts at epoch 0).
    epochs: int = 0
    #: Live resizes committed during the session.
    resizes: int = 0
    #: Streams whose state was shipped to a new owner (resize and
    #: evacuation combined).
    streams_migrated: int = 0
    #: Supervisor-granted shard restarts (crash failovers that spent
    #: restart budget).
    restarts: int = 0
    #: Shards evacuated after exhausting their restart budget.
    evacuations: int = 0
    #: Evacuated shards brought back by the supervisor.
    reinstatements: int = 0
    #: Liveness verdicts reached via heartbeat/doorbell deadline.
    heartbeat_timeouts: int = 0
    #: Extra spawn attempts consumed by transient fork failures.
    spawn_retries: int = 0
    #: Histogram (seconds) of per-resize drain pauses — the window a
    #: migrating stream is quiesced between barrier and epoch swap.
    drain_pause: Dict[str, list] = field(default_factory=dict)
    #: Member ids for ``per_shard`` rows (positional when empty —
    #: resizing fleets have non-contiguous member ids).
    shard_ids: List[int] = field(default_factory=list)
    per_shard: List[ServeReport] = field(default_factory=list)
    latency_histogram: Dict[str, list] = field(default_factory=dict)
    batch_sizes: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        if self.wall_s <= 0.0:
            return 0.0
        return self.answered / self.wall_s

    def latency_quantile(self, q: float) -> float:
        """Approximate latency quantile from the merged histogram.

        Returns the upper bound of the bucket containing the q-th
        sample (conservative: the true quantile is at or below it).
        """
        counts = self.latency_histogram.get("counts") or []
        bounds = self.latency_histogram.get("bounds") or []
        total = sum(counts)
        if not total:
            return 0.0
        rank = max(1, -(-total * q // 100))
        seen = 0
        for i, count in enumerate(counts):
            seen += count
            if seen >= rank:
                return float(bounds[i]) if i < len(bounds) else float(
                    bounds[-1]
                )
        return float(bounds[-1])

    def to_jsonable(self) -> dict:
        return {
            "shards": self.shards,
            "total": self.total,
            "answered": self.answered,
            "shed": self.shed,
            "deadline_misses": self.deadline_misses,
            "recovered": self.recovered,
            "failovers": self.failovers,
            "failover_causes": dict(self.failover_causes),
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "epochs": self.epochs,
            "resizes": self.resizes,
            "streams_migrated": self.streams_migrated,
            "restarts": self.restarts,
            "evacuations": self.evacuations,
            "reinstatements": self.reinstatements,
            "heartbeat_timeouts": self.heartbeat_timeouts,
            "spawn_retries": self.spawn_retries,
            "drain_pause": dict(self.drain_pause),
            "shard_ids": list(self.shard_ids),
            "latency_histogram": dict(self.latency_histogram),
            "batch_sizes": dict(self.batch_sizes),
            "per_shard": [r.to_jsonable() for r in self.per_shard],
        }

    def format(self) -> str:
        lines = [
            f"fleet: {self.shards} shards, {self.total} requests "
            f"(answered {self.answered}, shed {self.shed}, "
            f"deadline misses {self.deadline_misses})",
        ]
        if self.failovers or self.recovered:
            causes = ", ".join(f"{cause} {count}" for cause, count
                               in sorted(self.failover_causes.items()))
            lines.append(
                f"failover: {self.failovers} shard deaths"
                f"{f' ({causes})' if causes else ''}, "
                f"{self.recovered} journaled requests deduplicated"
            )
        if self.resizes or self.streams_migrated or self.epochs:
            lines.append(
                f"resharding: {self.resizes} resizes, "
                f"{self.streams_migrated} streams migrated, "
                f"epoch {self.epochs}"
            )
        if (self.restarts or self.evacuations or self.reinstatements
                or self.heartbeat_timeouts):
            lines.append(
                f"supervision: {self.restarts} restarts, "
                f"{self.evacuations} evacuations, "
                f"{self.reinstatements} reinstatements, "
                f"{self.heartbeat_timeouts} heartbeat timeouts"
            )
        if self.spawn_retries:
            lines.append(f"spawn retries: {self.spawn_retries}")
        pause = _histogram_line(self.drain_pause)
        if pause:
            lines.append(pause.replace("latency histogram",
                                       "drain pause histogram"))
        if self.wall_s > 0.0:
            lines.append(
                f"throughput: {self.throughput_rps:,.0f} req/s over "
                f"{self.wall_s:.2f}s; "
                f"p99 <= {self.latency_quantile(99.0) * 1e6:.0f}us "
                f"(histogram bound)"
            )
        histogram = _histogram_line(self.latency_histogram)
        if histogram:
            lines.append(histogram)
        batch_sizes = _gauge_fragment("batch size", self.batch_sizes)
        if batch_sizes:
            lines.append(batch_sizes)
        for position, report in enumerate(self.per_shard):
            if position < len(self.shard_ids):
                shard_index = self.shard_ids[position]
            else:
                shard_index = position
            tiers = ", ".join(
                f"{name}={count}"
                for name, count in report.tier_decisions.items()
            ) or "-"
            lines.append(
                f"  shard {shard_index}: {report.total} requests, "
                f"tiers [{tiers}], trips {report.trips}, "
                f"recoveries {report.recoveries}"
            )
        return "\n".join(lines)
