"""Policy hardening under sensor faults.

The guarantee (docs/robustness.md): no matter what garbage the
environment sensors report, every policy emits a positive, finite
thread count; the mixture falls back to the documented safe default
(one thread per available processor) on degenerate features, counts
the fallback, and never lets a NaN poison its online learning state.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.chaos import SensorFaultSpec, sensor_fault_factory
from repro.compiler.features import CodeFeatures
from repro.core.features import NUM_FEATURES, sanitize_features
from repro.core.hierarchical import HierarchicalSelector
from repro.core.policies.base import PolicyContext
from repro.core.policies.mixture import MixturePolicy
from repro.core.selector import HyperplaneSelector
from repro.exec import Executor, PolicySpec, RunRequest
from repro.experiments.scenarios import SMALL_LOW
from repro.sched.stats import EnvironmentSample

SCALE = 0.05


def env_sample(**overrides) -> EnvironmentSample:
    base = dict(
        time=1.0, workload_threads=4.0, processors=32.0, runq_sz=2.0,
        ldavg_1=3.0, ldavg_5=2.5, cached_memory=0.5,
        pages_free_rate=0.25,
    )
    base.update(overrides)
    return EnvironmentSample(**base)


def context(env: EnvironmentSample, time: float = 1.0) -> PolicyContext:
    return PolicyContext(
        time=time,
        loop_name="loop",
        code=CodeFeatures(0.1, 0.2, 0.05),
        env=env,
        available_processors=16,
        max_threads=32,
    )


class TestSanitizeFeatures:
    def test_clean_vector_passes_through(self):
        vector = np.arange(10, dtype=float)
        clean, degenerate = sanitize_features(vector)
        assert not degenerate
        assert (clean == vector).all()

    def test_non_finite_entries_zeroed(self):
        vector = np.array([1.0, float("nan"), float("inf"), -math.inf])
        clean, degenerate = sanitize_features(vector)
        assert degenerate
        assert list(clean) == [1.0, 0.0, 0.0, 0.0]


class TestMixtureFallback:
    def mixture(self, tiny_bundle) -> MixturePolicy:
        return MixturePolicy(
            tiny_bundle.experts,
            selector=HyperplaneSelector(
                num_experts=len(tiny_bundle.experts), dim=NUM_FEATURES,
            ),
        )

    def test_nan_features_hit_safe_default(self, tiny_bundle):
        policy = self.mixture(tiny_bundle)
        ctx = context(env_sample(ldavg_1=float("nan")))
        threads = policy.select(ctx)
        # Safe default: one thread per available processor.
        assert threads == ctx.clamp(ctx.available_processors) == 16
        assert policy.fallback_count == 1
        # Nothing was recorded to learn from.
        assert policy.decisions == []

    def test_recovers_after_faulty_sample(self, tiny_bundle):
        policy = self.mixture(tiny_bundle)
        policy.select(context(env_sample(ldavg_1=float("inf"))))
        threads = policy.select(context(env_sample(), time=2.0))
        assert 1 <= threads <= 32
        assert policy.fallback_count == 1
        assert len(policy.decisions) == 1

    def test_nan_observation_never_poisons_the_selector(self, tiny_bundle):
        faulty = self.mixture(tiny_bundle)
        clean = self.mixture(tiny_bundle)
        samples = [env_sample(time=float(t)) for t in range(6)]
        # The faulty policy sees one all-NaN sample mid-stream.
        nan_sample = env_sample(
            time=2.5, ldavg_1=float("nan"), runq_sz=float("nan"),
        )
        for policy, stream in (
            (clean, samples),
            (faulty, samples[:3] + [nan_sample] + samples[3:]),
        ):
            for index, sample in enumerate(stream):
                policy.select(context(sample, time=float(index)))
        # After the fault the policy keeps making finite decisions ...
        assert all(
            d.threads >= 1 and all(
                math.isfinite(n) for n in d.predicted_norms
            )
            for d in faulty.decisions
        )
        # ... and its selector state is still finite (no Welford
        # poisoning through the normalizer).
        last = faulty.select(context(env_sample(time=99.0), time=99.0))
        assert 1 <= last <= 32

    def test_reset_clears_fallback_count(self, tiny_bundle):
        policy = self.mixture(tiny_bundle)
        policy.select(context(env_sample(ldavg_1=float("nan"))))
        assert policy.fallback_count == 1
        policy.reset()
        assert policy.fallback_count == 0


class TestSelectorHardening:
    def test_update_rejects_non_finite_errors(self):
        selector = HyperplaneSelector(num_experts=3, dim=NUM_FEATURES)
        features = np.ones(NUM_FEATURES)
        assert not selector.update(features, [0.1, float("nan"), 0.2])
        assert not selector.update(features, [0.1, math.inf, 0.2])
        # A rejected update is a complete no-op: nothing observed,
        # nothing counted, no weights moved.
        assert selector.stats.updates == 0
        assert np.isfinite(selector._V).all()
        assert (selector._V == 0.0).all()

    def test_update_sanitizes_features(self):
        selector = HyperplaneSelector(num_experts=2, dim=4)
        bad = np.array([1.0, float("nan"), 2.0, 3.0])
        assert selector.update(bad, [0.5, 0.1]) in (True, False)
        # Later selections on clean features stay well-defined.
        choice = selector.select(np.ones(4))
        assert choice in (0, 1)

    def test_hierarchical_update_rejects_non_finite(self):
        selector = HierarchicalSelector(
            groups=((0, 1), (2, 3)), dim=NUM_FEATURES,
        )
        features = np.ones(NUM_FEATURES)
        assert not selector.update(
            features, [0.1, float("nan"), 0.2, 0.3]
        )


class TestExpertHardening:
    def test_nan_features_predict_finite_threads(self, tiny_bundle):
        features = np.full(NUM_FEATURES, float("nan"))
        for expert in tiny_bundle.experts:
            threads = expert.predict_threads(features, 32)
            assert isinstance(threads, int)
            assert 1 <= threads <= 32
            assert math.isfinite(expert.predict_env_norm(features))


class TestEndToEndDegradation:
    @pytest.mark.parametrize("mode", ["nan", "stale"])
    def test_faulty_sensors_never_break_a_run(self, tiny_bundle, mode):
        bundle = tiny_bundle

        def mixture():
            return MixturePolicy(
                bundle.experts,
                selector=HyperplaneSelector(
                    num_experts=len(bundle.experts), dim=NUM_FEATURES,
                ),
            )

        spec = PolicySpec.of(
            sensor_fault_factory(
                mixture, SensorFaultSpec(mode=mode, rate=0.5, seed=7),
            ),
            label=f"mixture~{mode}",
        )
        request = RunRequest(
            target="cg", policy=spec, scenario=SMALL_LOW,
            iterations_scale=SCALE,
        )
        (summary,) = Executor(jobs=1, cache=None).run(
            [request]
        )
        threads = [s.threads for s in summary.selections]
        assert threads
        assert all(isinstance(t, int) and 1 <= t for t in threads)
        if mode == "nan":
            # The degradation is visible in the run summary, not
            # buried: NaN injection must have tripped the fallback.
            assert summary.policy_fallbacks > 0
        # The engine finished the run and produced sane numbers.
        assert summary.target_time > 0
        assert math.isfinite(summary.target_time)

    def test_faulty_run_is_deterministic(self, tiny_bundle):
        bundle = tiny_bundle

        def mixture():
            return MixturePolicy(
                bundle.experts,
                selector=HyperplaneSelector(
                    num_experts=len(bundle.experts), dim=NUM_FEATURES,
                ),
            )

        spec = PolicySpec.of(
            sensor_fault_factory(
                mixture, SensorFaultSpec(mode="nan", rate=0.5, seed=7),
            ),
            label="mixture~nan",
        )
        request = RunRequest(
            target="cg", policy=spec, scenario=SMALL_LOW,
            iterations_scale=SCALE,
        )
        executor = Executor(jobs=1, cache=None)
        assert executor.run([request]) == executor.run([request])
