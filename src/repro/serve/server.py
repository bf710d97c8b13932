"""The supervised decision loop: admission, deadlines, degradation.

A :class:`PolicyServer` wraps a thread policy behind the loop a
long-lived mapping service needs:

* **admission** — each arrival batch is admitted up to the queue
  capacity; the overflow is *explicitly shed* (a shed request gets a
  decision object saying so, never silence);
* **deadlines** — every answered request's wall-clock latency is
  ledgered (p50/p99 in the report); a tier that blows the per-decision
  budget is treated as failed and the cascade continues downward to a
  cheaper tier;
* **tiered degradation** — a :class:`~repro.serve.breaker.CircuitBreaker`
  walks the ladder mixture → best single expert → OpenMP default
  (``n = available processors``) on repeated failures, and half-open
  probes walk it back up when the world recovers;
* **an answer, always** — the final default tier cannot fail, and a
  last guard clamps every response into ``[1, available]``.

The wall clock is injectable (``clock=``) so deadline behaviour is
testable deterministically; the breaker counts requests, not seconds,
so degradation sequences are reproducible by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from ..core.features import feature_matrix, sanitize_features
from ..core.policies.base import PolicyContext, ThreadPolicy
from ..runtime.metrics import Gauge, LatencyLedger
from ..runtime.tracing import TierTransition
from .breaker import BreakerConfig, CircuitBreaker
from .journal import ServeStateStore
from .report import ServeReport


@dataclass(frozen=True)
class ServeRequest:
    """One decision request: a stream index plus the policy context."""

    index: int
    ctx: PolicyContext


@dataclass(frozen=True, slots=True)
class ServeDecision:
    """The server's answer (or explicit non-answer) to one request.

    Slotted: a fleet keeps one per served request, so the per-object
    dict would be most of their memory.
    """

    index: int
    #: Final thread count, always in [1, available]; None when shed.
    threads: Optional[int]
    #: Name of the tier that produced the answer ("shed" when shed).
    tier: str
    latency_s: float
    shed: bool = False
    deadline_missed: bool = False
    #: Failure reason of the *preferred* tier when the answer came from
    #: a lower one (None for a clean first-tier answer).
    failure: Optional[str] = None


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving loop."""

    #: Requests admitted per arrival batch; the rest are shed.
    queue_capacity: int = 64
    #: Per-decision wall-clock budget, seconds.
    deadline_s: float = 0.050
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Requests between full-state snapshots (when serving stateful).
    snapshot_interval: int = 256

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")


class TierFailure(Exception):
    """A tier declined to produce a trustworthy decision."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _PolicyTier:
    """Tier 0: the wrapped policy itself (normally the mixture).

    A policy-internal safe-default fallback (degenerate features) is
    surfaced as a tier failure: the answer it would give is exactly the
    default tier's answer, and the breaker needs to see the distrust.
    """

    def __init__(self, policy: ThreadPolicy):
        self.policy = policy
        self.name = policy.name

    def decide(self, ctx: PolicyContext, planned=None) -> int:
        before = int(getattr(self.policy, "fallback_count", 0) or 0)
        if planned is None:
            threads = self.policy.select(ctx)
        else:
            # Batch path: the pure per-expert work was precomputed by
            # plan_batch; the sequential learn/select core still runs
            # here, so the decision is bit-identical to select().
            plan, row = planned
            threads = self.policy._select_planned(ctx, plan, row)
        after = int(getattr(self.policy, "fallback_count", 0) or 0)
        if after > before:
            raise TierFailure("degenerate-features")
        return threads


class _BestExpertTier:
    """Tier 1: the mixture's single most-trusted expert, no learning.

    Cheaper and simpler than the mixture (one model evaluation, no
    selector, no state mutation), but still feature-driven — so it too
    refuses degenerate inputs and lets the breaker continue to the
    unconditional default.
    """

    name = "expert"

    def __init__(self, policy):
        self.policy = policy

    def decide(self, ctx: PolicyContext, planned=None) -> int:
        features, degenerate = sanitize_features(ctx.feature_vector())
        if degenerate:
            raise TierFailure("degenerate-features")
        expert = self.policy.experts[self.policy.best_expert_index()]
        return ctx.snap_to_available(
            expert.predict_threads(features, ctx.max_threads)
        )


class _DefaultTier:
    """Final tier: the OpenMP default, one thread per available
    processor.  Pure arithmetic on trusted fields — cannot fail."""

    name = "default"

    def decide(self, ctx: PolicyContext, planned=None) -> int:
        return ctx.clamp(ctx.available_processors)


def _build_tiers(policy: ThreadPolicy) -> List:
    tiers: List = [_PolicyTier(policy)]
    if hasattr(policy, "best_expert_index") and hasattr(policy, "experts"):
        tiers.append(_BestExpertTier(policy))
    tiers.append(_DefaultTier())
    return tiers


class PolicyServer:
    """Long-lived, supervised serving of one thread policy.

    With ``state_dir`` set (and a policy that supports online-state
    export), construction *recovers*: the newest good snapshot is
    loaded, the journal tail replayed, the breaker restored, and
    :attr:`next_index` points at the first request the restarted server
    should see — all before journaling re-attaches, so recovery itself
    is never re-journaled.
    """

    def __init__(
        self,
        policy: ThreadPolicy,
        config: Optional[ServeConfig] = None,
        *,
        state_dir: Optional[Union[str, Path]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.policy = policy
        self.config = config or ServeConfig()
        self._clock = clock
        self.tiers = _build_tiers(policy)
        self.breaker = CircuitBreaker(
            len(self.tiers), self.config.breaker
        )
        self.latency = LatencyLedger()
        self.queue_depth = Gauge()
        self.batch_sizes = Gauge()
        self._failures: dict = {}
        self._tier_decisions: dict = {}
        self._transitions: List[TierTransition] = []
        self._total = 0
        self._answered = 0
        self._shed = 0
        self._deadline_misses = 0
        self._clamped = 0
        self.store: Optional[ServeStateStore] = None
        self.next_index = 0
        self._drop_log = getattr(policy, "drop_decision_log", None)
        #: The journal extra and the breaker state it holds: rebuilt
        #: only when the state changes, so the journal re-encodes it
        #: only then (it keys its last block on this dict's identity).
        self._extra_state: Optional[tuple] = None
        self._extra: dict = {}
        if state_dir is not None:
            if not hasattr(policy, "export_online_state"):
                raise TypeError(
                    f"policy {policy.name!r} cannot persist online "
                    "state; serve it without state_dir"
                )
            self.store = ServeStateStore(
                state_dir, policy,
                snapshot_interval=self.config.snapshot_interval,
            )
            self.next_index, extra = self.store.recover()
            breaker_state = extra.get("breaker")
            if breaker_state:
                self.breaker.load_state(breaker_state)
            self.store.attach()

    # -- the decision loop ------------------------------------------------

    def _attempt(self, tier, ctx: PolicyContext, start: float,
                 enforce_deadline: bool, planned=None):
        """One tier's try: ``(threads, None)`` or ``(None, reason)``."""
        try:
            threads = tier.decide(ctx, planned)
        except TierFailure as failure:
            return None, failure.reason
        except Exception:
            return None, "exception"
        if (isinstance(threads, float) and not math.isfinite(threads)):
            return None, "non-finite"
        try:
            threads = int(threads)
        except (TypeError, ValueError):
            return None, "non-finite"
        if threads < 1 or threads > ctx.max_threads:
            return None, "out-of-range"
        if (enforce_deadline
                and self._clock() - start > self.config.deadline_s):
            return None, "deadline"
        return threads, None

    def _record_transition(self, index: int, from_tier: str,
                           to_tier: str, reason: str) -> None:
        self._transitions.append(TierTransition(
            request_index=index, from_tier=from_tier,
            to_tier=to_tier, reason=reason,
        ))

    def _serve(self, request: ServeRequest,
               planned=None) -> ServeDecision:
        ctx = request.ctx
        start = self._clock()
        probing = self.breaker.wants_probe()
        resting_tier = self.breaker.tier
        start_tier = resting_tier - 1 if probing else resting_tier
        answer: Optional[int] = None
        answer_tier = self.tiers[-1].name
        first_failure: Optional[str] = None
        for i in range(start_tier, len(self.tiers)):
            tier = self.tiers[i]
            is_default = i == len(self.tiers) - 1
            threads, reason = self._attempt(
                tier, ctx, start, enforce_deadline=not is_default,
                planned=planned if i == 0 else None,
            )
            ok = reason is None
            if i == start_tier:
                if probing:
                    upper = self.tiers[start_tier].name
                    lower = self.tiers[resting_tier].name
                    verdict = self.breaker.record_probe(ok)
                    if verdict == "probe":
                        self._record_transition(
                            request.index, lower, upper, "probe")
                    elif verdict == "probe-failed":
                        self._record_transition(
                            request.index, upper, lower, "probe-failed")
                else:
                    verdict = self.breaker.record_result(ok)
                    if verdict == "trip":
                        self._record_transition(
                            request.index,
                            self.tiers[resting_tier].name,
                            self.tiers[self.breaker.tier].name,
                            "trip")
            if ok:
                answer = threads
                answer_tier = tier.name
                break
            self._failures[reason] = self._failures.get(reason, 0) + 1
            if first_failure is None:
                first_failure = reason
        if answer is None:  # unreachable: the default tier cannot fail
            answer = ctx.clamp(ctx.available_processors)
        clamped = max(1, min(answer, ctx.available_processors))
        if clamped != answer:
            self._clamped += 1
        elapsed = self._clock() - start
        missed = elapsed > self.config.deadline_s
        if missed:
            self._deadline_misses += 1
        self.latency.record(elapsed)
        self._answered += 1
        self._tier_decisions[answer_tier] = (
            self._tier_decisions.get(answer_tier, 0) + 1
        )
        return ServeDecision(
            index=request.index,
            threads=clamped,
            tier=answer_tier,
            latency_s=elapsed,
            deadline_missed=missed,
            failure=first_failure,
        )

    # -- public API -------------------------------------------------------

    def offer(
        self, batch: Sequence[ServeRequest], start_position: int = 0
    ) -> List[ServeDecision]:
        """Serve one arrival batch; overflow beyond the queue capacity
        is shed explicitly.  Every request — served or shed — advances
        the journal, so a restart resumes at the right stream point.

        ``start_position`` is where the batch's first request sits in
        its logical arrival group — non-zero when a restarted stream
        resumes mid-burst, so admission decisions stay identical to the
        uninterrupted stream's."""
        return self._offer(list(batch), start_position, plan=None)

    def offer_batch(
        self, batch: Sequence[ServeRequest], start_position: int = 0
    ) -> List[ServeDecision]:
        """Vectorized :meth:`offer` — bit-identical decisions.

        The pure per-expert work for the admitted prefix is computed in
        one plan (:meth:`MixturePolicy.plan_batch`, at any batch size);
        admission, breaker walks, journaling and the sequential
        learn/select core are the exact same code path as :meth:`offer`.
        Policies without a plan (non-mixture policies, pools with
        nonlinear or retrofit experts) decide request by request.
        """
        batch = list(batch)
        return self._offer(
            batch, start_position, plan=self._plan(batch, start_position)
        )

    def _plan(self, batch: List[ServeRequest], start_position: int):
        plan_batch = getattr(self.policy, "plan_batch", None)
        if plan_batch is None:
            return None
        capacity = self.config.queue_capacity
        admitted = batch[:max(0, capacity - start_position)]
        if not admitted:
            return None
        contexts = [request.ctx for request in admitted]
        return plan_batch(
            feature_matrix(contexts), [ctx.max_threads for ctx in contexts]
        )

    def _offer(
        self, batch: List[ServeRequest], start_position: int, plan
    ) -> List[ServeDecision]:
        decisions: List[ServeDecision] = []
        capacity = self.config.queue_capacity
        self.queue_depth.record(start_position + len(batch))
        self.batch_sizes.record(len(batch))
        for offset, request in enumerate(batch):
            position = start_position + offset
            self._total += 1
            if position >= capacity:
                self._shed += 1
                decisions.append(ServeDecision(
                    index=request.index, threads=None, tier="shed",
                    latency_s=0.0, shed=True,
                ))
            else:
                planned = None if plan is None else (plan, offset)
                decisions.append(self._serve(request, planned))
            if self.store is not None:
                extra = self._journal_extra()
                self.store.commit(request.index, extra)
                self.store.maybe_snapshot(request.index, extra)
            self.next_index = request.index + 1
        if self.store is not None:
            # Group commit: every record of the batch reaches the OS
            # before any of its decisions leaves the server.
            self.store.flush()
        if self._drop_log is not None:
            # Nothing here reads the mixture's decision log (snapshots
            # exclude it, recovery resets it); keeping it would grow
            # memory by one record per request, forever.
            self._drop_log()
        return decisions

    def _journal_extra(self) -> dict:
        state = self.breaker.state()
        if state != self._extra_state:
            self._extra_state = state
            self._extra = {"breaker": self.breaker.export_state()}
        return self._extra

    def serve_one(self, request: ServeRequest) -> ServeDecision:
        (decision,) = self.offer([request])
        return decision

    def close(self) -> None:
        """Flush and detach cleanly (a crash simply skips this)."""
        if self.store is not None:
            self.store.detach()
            self.store.close()

    def report(self) -> ServeReport:
        return ServeReport(
            total=self._total,
            answered=self._answered,
            shed=self._shed,
            deadline_misses=self._deadline_misses,
            clamped=self._clamped,
            failures=dict(self._failures),
            tier_decisions=dict(self._tier_decisions),
            transitions=list(self._transitions),
            trips=self.breaker.trips,
            recoveries=self.breaker.recoveries,
            probe_failures=self.breaker.probe_failures,
            final_tier=self.tiers[self.breaker.tier].name,
            latency=self.latency.snapshot(),
            latency_histogram=self.latency.histogram.snapshot(),
            queue_depth=self.queue_depth.snapshot(),
            batch_sizes=self.batch_sizes.snapshot(),
            journal=self.store.stats() if self.store else {},
        )
