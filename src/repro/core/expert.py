"""The expert: a (thread predictor, environment predictor) pair.

Section 4.1: "Each expert has two models associated with it: (a) thread
predictor 'w' and (b) an environment predictor 'm'."  Both are linear
models over the same 10-d feature vector:

* ``n = w·f`` — the thread count predicted to maximise speedup;
* ``‖ê_{t+1}‖ = m·f`` — the predicted norm of the *next* environment.

"As m and w are built from the same training data, they are correlated
... if m is accurate, so is w" — which is why the selector can use m's
accuracy as a proxy for w's quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .features import FEATURE_NAMES, NUM_FEATURES, FeatureSample
from .regression import LinearModel, fit_least_squares


@dataclass(frozen=True)
class Expert:
    """One offline-trained thread-selection expert."""

    name: str
    thread_model: LinearModel  # 'w' in the paper
    env_model: LinearModel  # 'm' in the paper
    #: Human-readable provenance: which training slice built this expert
    #: ("scalable @ twelve-core", ...).
    provenance: str = ""
    #: Per-feature envelope of the training data.  Predictions clip the
    #: input to this region first: a linear model is only trusted where
    #: it saw data, so states beyond the densest contention seen in
    #: training are treated like the training extreme rather than
    #: linearly extrapolated into nonsense.
    feature_low: Optional[np.ndarray] = None
    feature_high: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.thread_model.dim != NUM_FEATURES:
            raise ValueError(
                f"thread model must be {NUM_FEATURES}-d, "
                f"got {self.thread_model.dim}"
            )
        if self.env_model.dim != NUM_FEATURES:
            raise ValueError(
                f"environment model must be {NUM_FEATURES}-d, "
                f"got {self.env_model.dim}"
            )
        for bound in (self.feature_low, self.feature_high):
            if bound is not None and np.asarray(bound).shape != (
                NUM_FEATURES,
            ):
                raise ValueError(
                    f"feature envelope must have shape ({NUM_FEATURES},)"
                )

    def _clip(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if not np.isfinite(features).all():
            # Degenerate input (faulty sensor, chaos injection): NaN in
            # one dimension would make the dot product NaN.  Zero the
            # bad entries — "no signal" — before trusting the model.
            features = np.where(np.isfinite(features), features, 0.0)
        if self.feature_low is None or self.feature_high is None:
            return features
        return np.clip(features, self.feature_low, self.feature_high)

    def predict_threads(self, features: np.ndarray,
                        max_threads: int) -> int:
        """w(f): the thread count, clamped to [1, max_threads].

        Never NaN and never below 1: a non-finite model output (only
        possible if the model itself carries non-finite weights)
        degrades to the minimal safe count of one thread.
        """
        raw = self.thread_model.predict_one(self._clip(features))
        if not math.isfinite(raw):
            return 1
        return int(max(1, min(max_threads, round(raw))))

    def predict_env_norm(self, features: np.ndarray) -> float:
        """m(f): predicted ‖e_{t+1}‖ (clamped to be non-negative).

        Clipped to the training envelope like the thread predictor.
        This is what keeps the paper's m-w correlation honest: outside
        an expert's training domain its thread predictions are unusable
        *and* its environment predictions saturate at the domain edge,
        so the selector (which only sees environment accuracy) steers
        away from exactly the experts whose mapping advice would be
        stale.
        """
        raw = self.env_model.predict_one(self._clip(features))
        if not math.isfinite(raw):
            return 0.0
        return max(0.0, raw)

    def env_error(self, features: np.ndarray,
                  observed_norm: float) -> float:
        """|‖ê‖ - ‖e‖|: the prediction error the selector minimises."""
        return abs(self.predict_env_norm(features) - observed_norm)

    def without_envelope(self) -> "Expert":
        """A copy that applies its linear models raw (no clipping)."""
        return Expert(
            name=self.name,
            thread_model=self.thread_model,
            env_model=self.env_model,
            provenance=self.provenance,
            feature_low=None,
            feature_high=None,
        )

    def with_envelope_margin(self, margin: float) -> "Expert":
        """A copy whose envelope is widened by ``margin`` x its width.

        Used for the "Offline" baseline: a single deployed model gets a
        generic trust region somewhat beyond its data, rather than the
        tight per-slice envelopes the mixture's experts use.
        """
        if margin < 0:
            raise ValueError("margin must be non-negative")
        if self.feature_low is None or self.feature_high is None:
            return self
        width = self.feature_high - self.feature_low
        return Expert(
            name=self.name,
            thread_model=self.thread_model,
            env_model=self.env_model,
            provenance=self.provenance,
            feature_low=self.feature_low - margin * width,
            feature_high=self.feature_high + margin * width,
        )

    def domain_distance(self, features: np.ndarray) -> float:
        """How far outside this expert's training envelope ``f`` lies.

        Zero inside the envelope; otherwise the RMS of the per-feature
        clip displacement, scaled by the envelope's width (so a 12-core
        expert asked about a 32-processor state is ~2 envelope-widths
        out on the processors axis).  The mixture adds this, weighted,
        to the environment error: an expert has no *expertise* where it
        has no data, however plausible its extrapolated numbers look.
        """
        if self.feature_low is None or self.feature_high is None:
            return 0.0
        features = np.asarray(features, dtype=float)
        width = np.maximum(self.feature_high - self.feature_low, 1e-9)
        below = np.maximum(self.feature_low - features, 0.0)
        above = np.maximum(features - self.feature_high, 0.0)
        displacement = (below + above) / width
        return float(np.sqrt(np.mean(displacement * displacement)))


#: Default ridge strength for expert models (standardized space).
DEFAULT_RIDGE = 1.0


def train_expert(
    name: str,
    samples: Sequence[FeatureSample],
    provenance: str = "",
    ridge: float = DEFAULT_RIDGE,
) -> Expert:
    """Fit an expert's two linear models on a training slice.

    Both models use standardized ridge regression: the expert must rely
    on signals that generalise across programs (processors, load) rather
    than memorising each training program through its code features.
    """
    samples = list(samples)
    if not samples:
        raise ValueError(f"expert {name!r}: no training samples")
    X = np.stack([s.features for s in samples])
    thread_targets = np.array([s.best_threads for s in samples], float)
    env_targets = np.array([s.next_env_norm for s in samples], float)
    thread_model = fit_least_squares(
        X, thread_targets, feature_names=FEATURE_NAMES, ridge=ridge,
        standardize=True,
    )
    env_model = fit_least_squares(
        X, env_targets, feature_names=FEATURE_NAMES, ridge=ridge,
        standardize=True,
    )
    return Expert(
        name=name,
        thread_model=thread_model,
        env_model=env_model,
        provenance=provenance,
        feature_low=X.min(axis=0),
        feature_high=X.max(axis=0),
    )
