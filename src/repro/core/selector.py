"""The expert selector M (Sections 4.2, 5.3).

``M`` maps a feature vector to the expert whose *environment prediction*
is expected to be most accurate there: "select the expert that is most
accurate in predicting the environment.  As this can be evaluated at
each time step, it can be used to build, online, the mixture of experts
model M."

Section 5.3 realises M as "a series of hyperplanes S in the
10-dimensional feature space" whose regions assign experts, seeded with
an even partition and adjusted online; "To minimize runtime overhead, we
only use data from the last timestep to update the model."

We implement this as a multiclass perceptron over running-z-normalised
features: each expert owns a linear score, the pairwise decision
boundaries are the hyperplanes, and a margin-gated perceptron update
reclassifies genuinely mispredicted points — the paper's "If there was
a misprediction, the hyperplane S would be updated to reclassify this
feature point."  See :class:`HyperplaneSelector` for details.

Alternative selectors used by the ablation benchmarks live here too
(frozen partitions, a feature-blind recent-accuracy tracker, and
uniform-random choice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence

import numpy as np


#: Unused by the program.  The benchmark's tracer
#: (``bench/tracing.py``) imports it when it classifies served
#: sub-batches, so it stays until the tracer stops doing so.
SCALAR_BATCH_MAX = 8


def _finite_features(features: np.ndarray) -> np.ndarray:
    """Float view of ``features`` with non-finite entries zeroed."""
    features = np.asarray(features, dtype=float)
    mask = np.isfinite(features)
    if mask.all():
        return features
    return np.where(mask, features, 0.0)


class ExpertSelector(Protocol):
    """Chooses an expert index from a feature vector; learns online."""

    def select(self, features: np.ndarray) -> int:
        ...

    def update(self, features: np.ndarray,
               errors: Sequence[float]) -> bool:
        """Learn from last timestep's per-expert env errors.

        Returns True when the selector's choice at ``features`` differed
        from the most accurate expert (a misprediction).
        """
        ...

    def reset(self) -> None:
        ...


class SelectorJournalSink(Protocol):
    """Receives every state-mutating selector operation, in order.

    The serving runtime (:mod:`repro.serve`) attaches a sink that
    appends these operations to a write-ahead journal; replaying them
    through the selector's real ``update``/``select`` methods restores
    bit-identical state after a crash.  Only *sanitized* inputs are
    recorded — what the selector actually consumed — so a replay never
    re-runs input validation differently than the original call did.
    """

    def record_update(
        self, features: np.ndarray, errors: Sequence[float]
    ) -> None:
        ...

    def record_select(self, features: np.ndarray) -> None:
        ...


class _RunningNormalizer:
    """Online per-dimension z-normalisation (Welford).

    The standard deviation is cached until the next :meth:`observe`, so
    a select right after an update reuses the value the update took.
    """

    def __init__(self, dim: int):
        self._dim = dim
        self.reset()

    def reset(self) -> None:
        self._count = 0
        self._mean = np.zeros(self._dim)
        self._m2 = np.zeros(self._dim)
        self._std: Optional[np.ndarray] = None

    def observe(self, x: np.ndarray) -> None:
        self._count += 1
        delta = x - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (x - self._mean)
        self._std = None

    def normalize(self, x: np.ndarray) -> np.ndarray:
        if self._count < 2:
            return np.zeros_like(x)
        std = self._std
        if std is None:
            std = np.sqrt(self._m2 / (self._count - 1))
            std = self._std = np.where(std < 1e-9, 1.0, std)
        return (x - self._mean) / std


@dataclass
class SelectorStats:
    """Bookkeeping exposed to the analyses (Figures 15a/15b)."""

    selections: List[int] = field(default_factory=list)
    updates: int = 0
    mispredictions: int = 0

    @property
    def misprediction_rate(self) -> float:
        if self.updates == 0:
            return 0.0
        return self.mispredictions / self.updates

    def selection_counts(self, num_experts: int) -> List[int]:
        counts = [0] * num_experts
        for k in self.selections:
            counts[k] += 1
        return counts


class HyperplaneSelector:
    """The paper's selector: feature-space hyperplanes, online updates.

    Each expert k owns a linear score ``g_k(f) = v_k·z(f) + b_k`` over
    the running-normalised features; the selected expert is the argmax.
    The decision boundaries ``{f : g_i(f) = g_j(f)}`` are exactly the
    "series of hyperplanes S in the 10-dimensional feature space" of
    Section 5.3, and the regions they carve are "the regions in the
    feature space where one expert is more accurate than the others".

    Learning is a multiclass perceptron on last-timestep data only: when
    the selected expert was not the most environment-accurate one, the
    accurate expert's hyperplane is pulled toward the point and the
    wrongly-chosen one pushed away — "If there was a misprediction, the
    hyperplane S would be updated to reclassify this feature point."

    The initial partition is even: all scores start at zero and ties
    are broken round-robin, so before any feedback each expert is chosen
    equally often.
    """

    def __init__(
        self,
        num_experts: int,
        dim: int,
        learning_rate: float = 0.5,
        margin: float = 0.2,
    ):
        if num_experts < 1:
            raise ValueError("need at least one expert")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self._num_experts = num_experts
        self._dim = dim
        self._lr = learning_rate
        self._margin = margin
        self._journal: Optional[SelectorJournalSink] = None
        self.reset()

    def attach_journal(self, sink: SelectorJournalSink) -> None:
        """Mirror every state-mutating operation into ``sink``.

        Attach *after* any snapshot restore / journal replay, or the
        replayed operations would be journaled a second time.
        """
        self._journal = sink

    def detach_journal(self) -> None:
        self._journal = None

    def reset(self) -> None:
        """Return to the initial partition (even, or a pre-seeded one)."""
        initial = getattr(self, "_initial_state", None)
        if initial is not None:
            self.load_state(initial, as_initial=False)
            self.stats = SelectorStats()
            return
        self._normalizer = _RunningNormalizer(self._dim)
        self._V = np.zeros((self._num_experts, self._dim))
        self._b = np.zeros(self._num_experts)
        self._tie_breaker = 0
        self.stats = SelectorStats()

    # -- state snapshot (for offline pre-seeding) --------------------------

    def export_state(self) -> dict:
        """Serializable snapshot of the learned partition.

        Includes the round-robin tie-breaker counter: two selectors
        with identical hyperplanes but different tie-breaker phases
        diverge on the very next tied selection, so bit-identical
        crash recovery has to carry it.
        """
        norm = self._normalizer
        return {
            "V": self._V.copy(),
            "b": self._b.copy(),
            "norm_count": norm._count,
            "norm_mean": norm._mean.copy(),
            "norm_m2": norm._m2.copy(),
            "tie_breaker": self._tie_breaker,
        }

    def load_state(self, state: dict, as_initial: bool = True) -> None:
        """Install a snapshot; with ``as_initial``, reset() returns to it.

        Used to deploy a selector pre-seeded on the offline training
        data, so runtime adaptation starts from an informed partition
        instead of re-learning the platform from scratch on every run.
        """
        self._V = np.array(state["V"], dtype=float)
        self._b = np.array(state["b"], dtype=float)
        if self._V.shape != (self._num_experts, self._dim):
            raise ValueError("state shape does not match this selector")
        normalizer = _RunningNormalizer(self._dim)
        normalizer._count = int(state["norm_count"])
        normalizer._mean = np.array(state["norm_mean"], dtype=float)
        normalizer._m2 = np.array(state["norm_m2"], dtype=float)
        self._normalizer = normalizer
        # Pre-serve snapshots (older states) carry no tie-breaker; a
        # fresh phase is correct for those, required for crash recovery.
        self._tie_breaker = int(state.get("tie_breaker", 0))
        self.stats = SelectorStats()
        if as_initial:
            self._initial_state = {
                "V": self._V.copy(),
                "b": self._b.copy(),
                "norm_count": normalizer._count,
                "norm_mean": normalizer._mean.copy(),
                "norm_m2": normalizer._m2.copy(),
                "tie_breaker": self._tie_breaker,
            }

    def best_index(self) -> int:
        """Expert favoured by the learned partition overall.

        The bias term accumulates +lr for every point pulled toward an
        expert and -lr for every push away, so its argmax is the expert
        the online feedback has favoured most — and unlike selection
        counts it is part of persisted state, so the answer is stable
        across a crash/restart.  Ties resolve to the lowest index.
        """
        return int(np.argmax(self._b))

    @property
    def num_experts(self) -> int:
        return self._num_experts

    @property
    def hyperplanes(self) -> np.ndarray:
        """Per-expert (weights, bias) rows: shape (K, dim + 1)."""
        return np.hstack([self._V, self._b[:, None]])

    def _scores(self, x: np.ndarray) -> np.ndarray:
        return self._V @ x + self._b

    def _choose(self, x: np.ndarray) -> int:
        scores = self._scores(x).tolist()
        best = max(scores)
        contenders = [k for k, score in enumerate(scores)
                      if score >= best - 1e-12]
        if len(contenders) == 1:
            return contenders[0]
        # Even initial partition: rotate through tied experts.
        choice = contenders[self._tie_breaker % len(contenders)]
        self._tie_breaker += 1
        return choice

    def select(self, features: np.ndarray) -> int:
        features = _finite_features(features)
        if self._journal is not None:
            self._journal.record_select(features)
        x = self._normalizer.normalize(features)
        choice = self._choose(x)
        self.stats.selections.append(choice)
        return choice

    def update(self, features: np.ndarray,
               errors: Sequence[float]) -> bool:
        """Perceptron update toward the most-accurate expert.

        Non-finite errors (a NaN observation propagated into the
        scoring) make the update a no-op: one poisoned timestep must
        not corrupt the learned partition, and ``argmin`` over NaN is
        meaningless anyway.  Non-finite feature entries are zeroed
        before they can reach the running normaliser — a single NaN
        observed by Welford's accumulator would stay NaN forever.
        """
        errors = list(errors)
        if len(errors) != self._num_experts:
            raise ValueError(
                f"expected {self._num_experts} errors, got {len(errors)}"
            )
        if not all(math.isfinite(float(e)) for e in errors):
            return False
        features = _finite_features(features)
        # Journal before mutating: a crash after the record is written
        # but before the mutation lands replays the op on restart, which
        # reproduces exactly the state this call was about to produce.
        if self._journal is not None:
            self._journal.record_update(features, errors)
        self._normalizer.observe(features)
        x = self._normalizer.normalize(features)
        predicted = self._choose(x)
        # The first minimum, as np.argmin picks it (errors are finite).
        desired = errors.index(min(errors))
        self.stats.updates += 1
        if predicted == desired:
            return False
        # Only reclassify on a *meaningful* misprediction: when experts'
        # errors are within the margin of each other the disagreement is
        # measurement noise, and flip-flopping between near-equal experts
        # costs more than it gains.
        if errors[desired] >= (1.0 - self._margin) * errors[predicted]:
            return False
        self.stats.mispredictions += 1
        self._V[desired] += self._lr * x
        self._b[desired] += self._lr
        self._V[predicted] -= self._lr * x
        self._b[predicted] -= self._lr
        return True


class FrozenEvenSelector(HyperplaneSelector):
    """The even initial partition with online updates disabled.

    Ablation: how much does Section 5.3's online adjustment buy?  With
    zero scores forever, selection stays round-robin across experts.
    """

    def update(self, features: np.ndarray,
               errors: Sequence[float]) -> bool:
        errors = list(errors)
        if not all(math.isfinite(float(e)) for e in errors):
            return False
        features = _finite_features(features)
        if self._journal is not None:
            self._journal.record_update(features, errors)
        self._normalizer.observe(features)
        x = self._normalizer.normalize(features)
        predicted = self._choose(x)
        desired = errors.index(min(errors))
        self.stats.updates += 1
        if predicted != desired:
            self.stats.mispredictions += 1
            return True
        return False


class AccuracyEMASelector:
    """Feature-blind alternative: pick the expert with the lowest
    exponentially-averaged recent environment error.

    Ablation: is partitioning the *feature space* (so different regions
    prefer different experts) better than simply tracking which expert
    has been accurate lately?
    """

    def __init__(self, num_experts: int, decay: float = 0.8):
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        self._num_experts = num_experts
        self._decay = decay
        self.reset()

    def reset(self) -> None:
        self._ema = np.zeros(self._num_experts)
        self._seen = False
        self.stats = SelectorStats()

    def select(self, features: np.ndarray) -> int:
        choice = int(np.argmin(self._ema)) if self._seen else 0
        self.stats.selections.append(choice)
        return choice

    def update(self, features: np.ndarray,
               errors: Sequence[float]) -> bool:
        errors = np.asarray(list(errors), dtype=float)
        if errors.shape != (self._num_experts,):
            raise ValueError(
                f"expected {self._num_experts} errors, got {errors.shape}"
            )
        if not np.isfinite(errors).all():
            return False
        predicted = int(np.argmin(self._ema)) if self._seen else 0
        if self._seen:
            self._ema = self._decay * self._ema + (1 - self._decay) * errors
        else:
            self._ema = errors.copy()
            self._seen = True
        desired = int(np.argmin(errors))
        self.stats.updates += 1
        if predicted != desired:
            self.stats.mispredictions += 1
            return True
        return False


class RandomSelector:
    """Uniform-random expert choice (ablation lower bound)."""

    def __init__(self, num_experts: int, seed: int = 0):
        self._num_experts = num_experts
        self._seed = seed
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)
        self.stats = SelectorStats()

    def select(self, features: np.ndarray) -> int:
        choice = int(self._rng.integers(self._num_experts))
        self.stats.selections.append(choice)
        return choice

    def update(self, features: np.ndarray,
               errors: Sequence[float]) -> bool:
        self.stats.updates += 1
        return False
