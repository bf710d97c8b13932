"""The Mixture of Experts policy — the paper's contribution.

At every parallel-region entry (Section 4.2, Figure 4):

1. The previous timestep's pending environment predictions are scored
   against the environment just observed; the selector learns from the
   per-expert errors ``a^k = |‖ê^k‖ - ‖e‖|`` (last-timestep data only,
   Section 5.3).
2. The selector M picks the expert for the current features.
3. That expert's thread predictor supplies the thread count.

The policy never tries thread counts out ("it does not try out different
policies ... as this is too expensive"); adaptation comes entirely from
the environment-prediction proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence

import numpy as np

from ..expert import Expert
from ..features import (NUM_FEATURES, env_norms, feature_matrix,
                        sanitize_features, sanitize_features_batch)
from ..selector import ExpertSelector, HyperplaneSelector
from .base import PolicyContext, ThreadPolicy


class MixtureJournalSink(Protocol):
    """Receives mixture-level state transitions the selector can't see.

    Discarding a pending prediction (non-finite observation, degenerate
    features) mutates no selector state, yet it changes what the *next*
    request will learn from — so crash recovery has to replay it.  The
    serving runtime records it alongside the selector operations.
    """

    def record_clear(self) -> None:
        ...


@dataclass(frozen=True)
class ExpertDecision:
    """One mixture decision, kept for the Section 8 analyses."""

    time: float
    loop_name: str
    expert_index: int
    threads: int
    #: Each expert's predicted ‖ê_{t+1}‖ at this decision.
    predicted_norms: tuple[float, ...]
    #: Each expert's thread prediction at this decision (what every
    #: expert *would* have chosen — feeds the Figure 17 analysis).
    predicted_threads: tuple[int, ...] = ()
    #: Observed ‖e_t‖ when the *next* decision was made (None for the
    #: final decision of a run).
    observed_next_norm: Optional[float] = None


@dataclass
class _Pending:
    features: np.ndarray
    predicted_norms: tuple[float, ...]
    decision_index: int
    #: Per-expert domain distances at ``features``, from the plan that
    #: made the decision; None for pools the kernel does not plan, whose
    #: distances are taken when the prediction is scored.
    domain: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class BatchDecisionPlan:
    """The pure per-expert work for a batch of decisions.

    Everything here is a pure function of the frozen experts and the
    feature rows, so computing it ahead of the sequential learn/select
    loop cannot observe different state than computing it inside; that
    loop (selector updates, selects, pending bookkeeping) stays strictly
    in request order.
    """

    features: np.ndarray  # (B, F) sanitized feature rows
    degenerate: List[bool]  # row had non-finite entries
    #: Per row: (predicted ‖ê‖, thread predictions, domain distances),
    #: one entry per expert.
    rows: List[tuple]
    #: Per row: the observed ‖e‖ of the *unsanitized* row, equal to its
    #: context's ``env.norm`` (NaN/inf for a faulty sensor reading).
    observed: List[float]


class _FrozenPool:
    """A pool of frozen linear experts stacked into ``(E, F)`` arrays.

    Envelope-less experts get ±inf bounds and an infinite width: the
    clip leaves every finite feature alone and the domain distance is
    exactly zero, as :meth:`Expert.domain_distance` returns for them.
    """

    def __init__(self, experts: Sequence[Expert]):
        low, high, width = [], [], []
        for expert in experts:
            if expert.feature_low is None or expert.feature_high is None:
                low.append(np.full(NUM_FEATURES, -np.inf))
                high.append(np.full(NUM_FEATURES, np.inf))
                width.append(np.full(NUM_FEATURES, np.inf))
            else:
                low.append(expert.feature_low)
                high.append(expert.feature_high)
                width.append(np.maximum(
                    expert.feature_high - expert.feature_low, 1e-9
                ))
        self.low = np.array(low, dtype=float)
        self.high = np.array(high, dtype=float)
        self.width = np.array(width, dtype=float)
        #: Thread then environment model of every expert: the models'
        #: own weight arrays, so each dot is the scalar path's BLAS call.
        models = [e.thread_model for e in experts]
        models += [e.env_model for e in experts]
        self.weights = [model.weights for model in models]
        self.intercepts = np.array([model.intercept for model in models],
                                   dtype=float)

    def plan(self, matrix: np.ndarray, limits: np.ndarray) -> List[tuple]:
        """Per-row ``(norms, threads, domain)`` for sanitized rows.

        Clipping, domain distances and the post-processing of the model
        outputs run over whole blocks.  Each model dot product stays a
        per-(row, expert) ``ddot`` on a contiguous slice, because a
        batched matmul sums in another order and drifts in the last
        ulp (see docs/performance.md).  ``np.add.reduce(...) / F`` is
        the arithmetic ``np.mean`` performs, minus its dispatch layers.
        """
        block = matrix[:, None, :]
        clipped = np.clip(block, self.low, self.high)
        below = np.maximum(self.low - block, 0.0)
        above = np.maximum(block - self.high, 0.0)
        displacement = (below + above) / self.width
        domain = np.sqrt(
            np.add.reduce(displacement * displacement, axis=-1)
            / NUM_FEATURES
        ).tolist()
        weights = self.weights
        raw = np.array([
            [c.dot(w) for c, w in zip(cells + cells, weights)]
            for cells in map(list, clipped)
        ]) + self.intercepts
        count = len(self.low)
        threads, norms = raw[:, :count], raw[:, count:]
        # Expert.predict_threads: round half to even, clamp to
        # [1, limit], and 1 for a non-finite output.
        threads = np.where(
            np.isfinite(threads),
            np.maximum(np.minimum(np.rint(threads), limits), 1.0),
            1.0,
        ).astype(np.int64).tolist()
        # Expert.predict_env_norm: non-negative, and 0 when non-finite.
        norms = np.where(
            np.isfinite(norms), np.maximum(0.0, norms), 0.0
        ).tolist()
        return list(zip(map(tuple, norms), map(tuple, threads),
                        map(tuple, domain)))


class MixturePolicy(ThreadPolicy):
    """Expert selector + expert pool, learning online."""

    name = "mixture"

    def __init__(
        self,
        experts: Sequence[Expert],
        selector: Optional[ExpertSelector] = None,
        domain_weight: float = 5.0,
    ):
        experts = tuple(experts)
        if not experts:
            raise ValueError("MixturePolicy needs at least one expert")
        if domain_weight < 0:
            raise ValueError("domain_weight must be non-negative")
        self.experts = experts
        #: Weight of the domain-distance term added to each expert's
        #: environment error before the selector learns from it (see
        #: :meth:`repro.core.expert.Expert.domain_distance`).
        self.domain_weight = domain_weight
        self._selector = selector or HyperplaneSelector(
            num_experts=len(experts), dim=NUM_FEATURES
        )
        self.decisions: List[ExpertDecision] = []
        self._pending: Optional[_Pending] = None
        #: Times the policy refused to trust degenerate inputs and fell
        #: back to the safe default thread count (surfaced as
        #: ``RunSummary.policy_fallbacks``).
        self.fallback_count = 0
        #: Optional crash-safety sink (see :class:`MixtureJournalSink`).
        self.journal: Optional[MixtureJournalSink] = None
        #: The decision kernel's stacked pool, when every member is a
        #: frozen linear :class:`Expert`; None for pools with another
        #: kind of member, whose predictions :meth:`_decide` makes one
        #: expert at a time.
        self._pool = (
            _FrozenPool(experts)
            if all(type(e) is Expert for e in experts) else None
        )
        #: Experts that learn online (Section 4.1 retrofitting).
        self._recorders = tuple(
            record for record in (
                getattr(e, "record_observation", None) for e in experts
            ) if record is not None
        )
        self._chosen = [0] * len(experts)

    @property
    def selector(self) -> ExpertSelector:
        return self._selector

    def reset(self) -> None:
        self._selector.reset()
        self.decisions = []
        self._chosen = [0] * len(self.experts)
        self._pending = None
        self.fallback_count = 0

    def _discard_pending(self) -> None:
        """Drop the pending prediction, journaling the drop if it was
        real (a no-op drop changes nothing and needs no record)."""
        if self._pending is not None and self.journal is not None:
            self.journal.record_clear()
        self._pending = None

    # -- crash-safe online state ------------------------------------------

    def clear_pending(self) -> None:
        """Replay hook: drop the pending prediction (no journaling —
        replay must not re-record what is being replayed)."""
        self._pending = None

    def restore_pending(self, features: np.ndarray) -> None:
        """Replay hook: reinstate the pending prediction for ``features``.

        The per-expert predicted norms are a pure function of the
        (frozen) experts and the features, so they are recomputed rather
        than persisted.  ``decision_index=-1`` marks that the matching
        :class:`ExpertDecision` predates this process's decision log and
        must not be rewritten when the prediction is scored.
        """
        features = np.asarray(features, dtype=float)
        plan = self.plan_batch(features[None, :], 1)
        if plan is None:
            norms = tuple(e.predict_env_norm(features) for e in self.experts)
            domain = None
        else:
            norms, _, domain = plan.rows[0]
        self._pending = _Pending(
            features=features,
            predicted_norms=norms,
            decision_index=-1,
            domain=domain,
        )

    def drop_decision_log(self) -> None:
        """Forget :attr:`decisions` and the selector's selection log.

        The serving runtime never reads either log (snapshots exclude
        them, recovery resets them), so it calls this after every batch
        rather than let each grow by one entry per request, forever.
        The pending prediction is still scored; like one from
        :meth:`restore_pending`, it just has no logged decision left to
        rewrite.
        """
        self.decisions.clear()
        if self._pending is not None:
            self._pending.decision_index = -1
        stats = getattr(self._selector, "stats", None)
        if stats is not None:
            stats.selections.clear()

    def export_online_state(self) -> dict:
        """Snapshot of everything online learning has accumulated."""
        export = getattr(self._selector, "export_state", None)
        if export is None:
            raise TypeError(
                f"selector {type(self._selector).__name__} does not "
                "support state export"
            )
        return {
            "selector": export(),
            "pending_features": (
                None if self._pending is None
                else [float(v) for v in self._pending.features]
            ),
            "fallback_count": self.fallback_count,
        }

    def load_online_state(self, state: dict) -> None:
        """Restore a :meth:`export_online_state` snapshot."""
        self._selector.load_state(state["selector"], as_initial=False)
        pending = state.get("pending_features")
        if pending is None:
            self._pending = None
        else:
            self.restore_pending(np.asarray(pending, dtype=float))
        self.fallback_count = int(state.get("fallback_count", 0))
        self.decisions = []
        self._chosen = [0] * len(self.experts)

    def best_expert_index(self) -> int:
        """The single expert to fall back on when the mixture is
        distrusted (the serving runtime's tier-1 degradation target).

        Prefers the selector's persisted notion of its favourite expert
        (stable across crash recovery); a selector without one falls
        back to this run's selection counts.
        """
        best = getattr(self._selector, "best_index", None)
        if best is not None:
            return int(best())
        counts = self.selection_counts()
        return max(range(len(counts)), key=counts.__getitem__)

    def select(self, ctx: PolicyContext) -> int:
        if self._pool is None:
            features, degenerate = sanitize_features(ctx.feature_vector())
            return self._decide(ctx, features, degenerate, None,
                                ctx.env.norm)
        plan = self.plan_batch(feature_matrix([ctx]), ctx.max_threads)
        return self._select_planned(ctx, plan, 0)

    def _decide(
        self,
        ctx: PolicyContext,
        features: np.ndarray,
        degenerate: bool,
        planned: Optional[tuple],
        observed_norm: float,
    ) -> int:
        """The per-decision core: score, learn, select, log.

        ``planned`` is this row's ``(predicted_norms, predicted_threads,
        domain_distances)`` from :meth:`plan_batch`.  It is None only
        for a pool the kernel does not plan; those predictions are then
        made here, after the experts that learn online have seen the
        observation.  ``observed_norm`` is ``ctx.env.norm``.
        """
        if not math.isfinite(observed_norm):
            # A NaN/inf observation cannot score anything; discard the
            # pending predictions rather than learn from garbage (the
            # paper's last-timestep-only protocol makes this a plain
            # skip, not a backlog).
            self._discard_pending()

        # 1. Score last timestep's predictions and train the selector.
        # Errors combine environment-prediction accuracy with how far
        # each expert's training domain is from the observed state.
        # Experts that learn online (Section 4.1 retrofitting) receive
        # the observation too.
        pending = self._pending
        if pending is not None:
            for record in self._recorders:
                record(pending.features, observed_norm)
            domains = pending.domain
            if domains is None:
                domains = tuple(
                    expert.domain_distance(pending.features)
                    for expert in self.experts
                )
            weight = self.domain_weight
            errors = [
                abs(predicted - observed_norm) + weight * distance
                for predicted, distance in zip(
                    pending.predicted_norms, domains
                )
            ]
            self._selector.update(pending.features, errors)
            index = pending.decision_index
            # A pending restored from crash recovery points at a
            # decision made before the restart (index -1): the learning
            # above still happens, only the log rewrite is skipped.
            if index >= 0:
                old = self.decisions[index]
                self.decisions[index] = ExpertDecision(
                    time=old.time,
                    loop_name=old.loop_name,
                    expert_index=old.expert_index,
                    threads=old.threads,
                    predicted_norms=old.predicted_norms,
                    predicted_threads=old.predicted_threads,
                    observed_next_norm=observed_norm,
                )

        if degenerate:
            # Safe fallback (see docs/robustness.md): with corrupted
            # features there is no basis for expertise — behave like
            # the OpenMP default of one thread per available processor,
            # learn nothing, and leave no pending prediction to score
            # against the next (possibly also corrupt) observation.
            self.fallback_count += 1
            self._discard_pending()
            return ctx.clamp(ctx.available_processors)

        # 2. Select the expert for the current state.
        choice = self._selector.select(features)

        # 3. Its thread predictor makes the mapping decision.
        if planned is None:
            predicted_norms = tuple(
                e.predict_env_norm(features) for e in self.experts
            )
            predicted_threads = tuple(
                e.predict_threads(features, ctx.max_threads)
                for e in self.experts
            )
            domain = None
        else:
            predicted_norms, predicted_threads, domain = planned
        threads = ctx.snap_to_available(predicted_threads[choice])

        self.decisions.append(ExpertDecision(
            time=ctx.time,
            loop_name=ctx.loop_name,
            expert_index=choice,
            threads=threads,
            predicted_norms=predicted_norms,
            predicted_threads=predicted_threads,
        ))
        self._chosen[choice] += 1
        self._pending = _Pending(
            features=features,
            predicted_norms=predicted_norms,
            decision_index=len(self.decisions) - 1,
            domain=domain,
        )
        return threads

    # -- the decision kernel ----------------------------------------------

    def plan_batch(
        self, feature_rows: np.ndarray, max_threads
    ) -> Optional[BatchDecisionPlan]:
        """The pure per-expert work for ``(B, F)`` rows, any B >= 1.

        ``max_threads`` is one limit for every row or one per row.
        Returns None for a pool with a member other than a frozen
        linear :class:`Expert` (a nonlinear or retrofit expert):
        :meth:`_decide` makes those predictions itself.
        """
        if self._pool is None:
            return None
        matrix, degenerate = sanitize_features_batch(feature_rows)
        limits = np.asarray(max_threads, dtype=float)
        if limits.ndim:
            limits = limits.reshape(len(matrix), 1)
        return BatchDecisionPlan(
            features=matrix,
            degenerate=degenerate.tolist(),
            rows=self._pool.plan(matrix, limits),
            observed=env_norms(np.asarray(feature_rows, dtype=float)),
        )

    def _select_planned(
        self, ctx: PolicyContext, plan: BatchDecisionPlan, row: int
    ) -> int:
        """One decision using row ``row`` of a plan."""
        return self._decide(
            ctx, plan.features[row], plan.degenerate[row], plan.rows[row],
            plan.observed[row],
        )

    def select_batch(self, ctxs: Sequence[PolicyContext]) -> List[int]:
        """Batch :meth:`select` — bit-identical to the sequential loop.

        One plan covers the batch; the stateful learn/select loop then
        runs strictly in request order against it.
        """
        ctxs = list(ctxs)
        plan = None
        if ctxs:
            plan = self.plan_batch(
                feature_matrix(ctxs), [ctx.max_threads for ctx in ctxs]
            )
        if plan is None:
            return [self.select(ctx) for ctx in ctxs]
        return [
            self._select_planned(ctx, plan, row)
            for row, ctx in enumerate(ctxs)
        ]

    # -- analyses ---------------------------------------------------------

    def selection_counts(self) -> List[int]:
        """How often each expert was chosen (Figure 15b)."""
        return list(self._chosen)

    def env_prediction_accuracies(
        self, tolerance: float = 0.25
    ) -> List[float]:
        """Per-expert fraction of env predictions within ``tolerance``
        (relative), over this run's scored decisions (Figure 15a)."""
        scored = [d for d in self.decisions
                  if d.observed_next_norm is not None]
        if not scored:
            return [0.0] * len(self.experts)
        accuracies = []
        for k in range(len(self.experts)):
            hits = sum(
                1 for d in scored
                if abs(d.predicted_norms[k] - d.observed_next_norm)
                <= tolerance * max(d.observed_next_norm, 1e-9)
            )
            accuracies.append(hits / len(scored))
        return accuracies

    def mixture_accuracy(self, tolerance: float = 0.25) -> float:
        """Accuracy of the *chosen* expert's env prediction per step."""
        scored = [d for d in self.decisions
                  if d.observed_next_norm is not None]
        if not scored:
            return 0.0
        hits = sum(
            1 for d in scored
            if abs(d.predicted_norms[d.expert_index] - d.observed_next_norm)
            <= tolerance * max(d.observed_next_norm, 1e-9)
        )
        return hits / len(scored)
