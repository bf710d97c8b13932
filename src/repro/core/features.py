"""The paper's 10-dimensional feature vector (Table 1).

``f = [c || e]``: three static code features from the compiler and seven
environment features from the OS.  At loop *i* the vector is
``f_i = (f_i^1, ..., f_i^10)``; code features are normalized to the total
number of instructions in the program (done in
:mod:`repro.compiler.features`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from ..compiler.features import CODE_FEATURE_NAMES, CodeFeatures
from ..sched.stats import ENV_FEATURE_NAMES, EnvironmentSample, environment_norm

#: All ten canonical feature names, Table 1 order (f^1..f^10).
FEATURE_NAMES: tuple[str, ...] = CODE_FEATURE_NAMES + ENV_FEATURE_NAMES

#: Dimensionality of the canonical feature space.
NUM_FEATURES = len(FEATURE_NAMES)

#: Index of the first environment feature (f^4) within the vector.
ENV_OFFSET = len(CODE_FEATURE_NAMES)


def make_feature_vector(
    code: CodeFeatures, env: EnvironmentSample
) -> np.ndarray:
    """Assemble the 10-d feature vector for one loop entry."""
    return np.concatenate(
        [np.asarray(code.as_tuple(), dtype=float), env.as_vector()]
    )


#: ``ctx -> (f^1, ..., f^10)`` for a policy context: the ten fields
#: :func:`make_feature_vector` reads, fetched in one C call.
_CONTEXT_FIELDS = attrgetter(
    *(f"code.{name}" for name in CODE_FEATURE_NAMES),
    *(f"env.{name}" for name in ENV_FEATURE_NAMES),
)


def feature_matrix(contexts: Sequence) -> np.ndarray:
    """The ``(B, F)`` matrix of the contexts' feature vectors.

    Row ``i`` equals ``contexts[i].feature_vector()`` bit for bit: the
    same fields are converted to float64 the same way, just in one
    array construction instead of two per row plus a stack.
    """
    return np.array(
        [_CONTEXT_FIELDS(ctx) for ctx in contexts], dtype=float
    ).reshape(len(contexts), NUM_FEATURES)


def sanitize_features(
    features: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """``(clean, was_degenerate)``: non-finite entries replaced by 0.0.

    Faulty environment sensors (chaos injection, a real ``/proc`` read
    racing a counter reset) can leave NaN/inf in the vector; a linear
    model fed one NaN returns NaN for everything downstream.  Zero is
    the canonical "no signal" value here — features are normalised and
    the selector z-scores them, so a zeroed dimension simply stops
    discriminating instead of poisoning the whole prediction.
    """
    features = np.asarray(features, dtype=float)
    mask = np.isfinite(features)
    if mask.all():
        return features, False
    return np.where(mask, features, 0.0), True


def sanitize_features_batch(
    features: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-axis :func:`sanitize_features` over a ``(B, F)`` matrix.

    Returns ``(clean, degenerate)`` where ``degenerate[i]`` is True iff
    row ``i`` contained a non-finite entry.  Bit-identical per row to
    the scalar call: the replacement is purely elementwise (``np.where``
    against an ``isfinite`` mask), so hoisting it over the batch axis
    cannot change a single float.  The result is C-contiguous so row
    slices feed the same contiguous-dot code path the scalar vectors do.
    """
    matrix = np.ascontiguousarray(features, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(
            f"expected a (B, F) feature matrix, got shape {matrix.shape}"
        )
    mask = np.isfinite(matrix)
    if mask.all():
        return matrix, np.zeros(len(matrix), dtype=bool)
    return np.where(mask, matrix, 0.0), ~mask.all(axis=1)


def env_part(features: np.ndarray) -> np.ndarray:
    """The environment slice (f^4..f^10) of a feature vector."""
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != NUM_FEATURES:
        raise ValueError(
            f"expected {NUM_FEATURES}-d feature vector(s), "
            f"got shape {features.shape}"
        )
    return features[..., ENV_OFFSET:]


def env_norms(feature_rows: np.ndarray) -> list[float]:
    """‖e‖ of every row of a ``(B, F)`` matrix, in one batched reduce.

    Equal, bit for bit, to :func:`~repro.sched.stats.environment_norm`
    of each row's environment slice (``EnvironmentSample.norm``):
    ``np.add.reduce`` along a row sums in the order the 1-D reduce
    does, and division and ``sqrt`` are correctly rounded in both.
    Non-finite rows give NaN or inf, exactly as the scalar call does.
    """
    env = feature_rows[:, ENV_OFFSET:]
    return np.sqrt(
        np.add.reduce(env * env, axis=1) / (NUM_FEATURES - ENV_OFFSET)
    ).tolist()


def env_norm_of(features: np.ndarray) -> float:
    """‖e‖ of the environment embedded in a single feature vector."""
    return environment_norm(env_part(features))


@dataclass(frozen=True)
class FeatureSample:
    """One labelled observation used in training.

    ``features`` is f_t, ``best_threads`` the thread count that maximised
    speedup at t, ``speedup`` the speedup it achieved, and
    ``next_env_norm`` the measured ‖e_{t+1}‖ — the target of the
    environment predictor.
    """

    features: np.ndarray
    best_threads: int
    speedup: float
    next_env_norm: float
    program: str = ""
    platform: str = ""

    def __post_init__(self) -> None:
        vec = np.asarray(self.features, dtype=float)
        if vec.shape != (NUM_FEATURES,):
            raise ValueError(
                f"features must have shape ({NUM_FEATURES},), "
                f"got {vec.shape}"
            )
        if self.best_threads < 1:
            raise ValueError("best_threads must be >= 1")
        if self.speedup <= 0:
            raise ValueError("speedup must be positive")
        if self.next_env_norm < 0:
            raise ValueError("next_env_norm cannot be negative")
