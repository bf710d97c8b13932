"""The offline training pipeline (miniature configuration)."""

import numpy as np
import pytest

from repro.core import training
from repro.core.persistence import save_bundle
from repro.core.training import (
    ScalabilityRecord,
    TrainingConfig,
    default_experts,
    partition_samples,
    pretrain_selector_state,
    scale_program,
    thread_candidates,
    training_dataset,
)
from repro.programs import registry
from repro.serve.soak import tiny_training_config


class TestThreadCandidates:
    def test_powers_of_two_plus_p(self):
        assert thread_candidates(32) == [1, 2, 4, 8, 16, 32]
        assert thread_candidates(12) == [1, 2, 4, 8, 12]
        assert thread_candidates(1) == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            thread_candidates(0)


class TestScaleProgram:
    def test_scales_iterations(self):
        lu = registry.get("lu")
        scaled = scale_program(lu, 0.5)
        assert scaled.iterations == round(lu.iterations * 0.5)

    def test_floor(self):
        lu = registry.get("lu")
        assert scale_program(lu, 0.001).iterations == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            scale_program(registry.get("lu"), 0.0)


class TestScalabilityRecord:
    def test_criterion(self):
        """Scalable iff speedup >= P/4 (Section 5.1)."""
        assert ScalabilityRecord("x", "p", 8.0, 32).scalable
        assert not ScalabilityRecord("x", "p", 7.9, 32).scalable
        assert ScalabilityRecord("x", "p", 3.0, 12).scalable


class TestTrainingData:
    def test_samples_have_labels(self, tiny_config):
        samples, scalability = training_dataset(tiny_config)
        assert len(samples) > 50
        for sample in samples[:20]:
            assert sample.features.shape == (10,)
            assert sample.best_threads >= 1
            assert sample.speedup > 0
            assert sample.next_env_norm >= 0
            assert sample.program in tiny_config.target_names
            assert sample.platform in tiny_config.platform_names

    def test_scalability_covers_targets(self, tiny_config):
        _, scalability = training_dataset(tiny_config)
        pairs = {(r.program, r.platform) for r in scalability}
        expected = {
            (t, p)
            for t in tiny_config.target_names
            for p in tiny_config.platform_names
        }
        assert pairs == expected

    def test_labels_respond_to_processors(self, tiny_config):
        """ep's best thread count must grow with the processor level."""
        samples, _ = training_dataset(tiny_config)
        ep = [s for s in samples if s.program == "ep"]
        by_procs = {}
        for s in ep:
            by_procs.setdefault(s.features[4], []).append(s.best_threads)
        levels = sorted(by_procs)
        assert np.mean(by_procs[levels[-1]]) >= np.mean(
            by_procs[levels[0]]
        )

    def test_isolated_states_present(self, tiny_config):
        samples, _ = training_dataset(tiny_config)
        assert any(s.features[3] == 0.0 for s in samples)


class TestPartition:
    def test_granularity_one_pools_everything(self, tiny_config):
        samples, scalability = training_dataset(tiny_config)
        slices = partition_samples(samples, scalability, 1)
        assert list(slices) == ["E1"]
        assert len(slices["E1"]) == len(samples)

    def test_granularity_four_slices_by_platform_and_scaling(
        self, tiny_config,
    ):
        samples, scalability = training_dataset(tiny_config)
        slices = partition_samples(samples, scalability, 4)
        for key in slices:
            scal, platform = key.split("@")
            assert scal in ("scalable", "nonscalable")
            assert platform in tiny_config.platform_names

    def test_partition_preserves_samples(self, tiny_config):
        samples, scalability = training_dataset(tiny_config)
        slices = partition_samples(samples, scalability, 4)
        assert sum(len(v) for v in slices.values()) <= len(samples)

    def test_bad_granularity(self, tiny_config):
        samples, scalability = training_dataset(tiny_config)
        with pytest.raises(ValueError):
            partition_samples(samples, scalability, 3)


class TestBundles:
    def test_bundle_contents(self, tiny_bundle, tiny_config):
        assert len(tiny_bundle.experts) >= 2
        assert tiny_bundle.config == tiny_config
        for expert in tiny_bundle.experts:
            assert tiny_bundle.samples_per_expert[expert.name] >= 15

    def test_expert_lookup(self, tiny_bundle):
        first = tiny_bundle.experts[0]
        assert tiny_bundle.expert(first.name) is first
        with pytest.raises(KeyError):
            tiny_bundle.expert("E99")

    def test_scalability_lookup(self, tiny_bundle, tiny_config):
        record = tiny_bundle.scalability_of(
            "ep", tiny_config.platform_names[0]
        )
        assert record.program == "ep"
        with pytest.raises(KeyError):
            tiny_bundle.scalability_of("nope", "nowhere")

    def test_monolithic_single_expert(self, tiny_mono):
        assert len(tiny_mono.experts) == 1

    def test_in_process_cache(self, tiny_config, tiny_bundle):
        assert default_experts(tiny_config) is tiny_bundle

    def test_ep_is_scalable_everywhere(self, tiny_bundle, tiny_config):
        for platform in tiny_config.platform_names:
            assert tiny_bundle.scalability_of("ep", platform).scalable


class TestPretraining:
    def test_state_shape(self, tiny_bundle, tiny_config):
        samples, _ = training_dataset(tiny_config)
        state = pretrain_selector_state(tiny_bundle.experts, samples)
        assert state["V"].shape == (len(tiny_bundle.experts), 10)

    def test_deterministic(self, tiny_bundle, tiny_config):
        samples, _ = training_dataset(tiny_config)
        a = pretrain_selector_state(tiny_bundle.experts, samples)
        b = pretrain_selector_state(tiny_bundle.experts, samples)
        assert np.allclose(a["V"], b["V"])
        assert np.allclose(a["b"], b["b"])

    def test_validation(self, tiny_bundle):
        with pytest.raises(ValueError):
            pretrain_selector_state(tiny_bundle.experts, [])
        with pytest.raises(ValueError):
            pretrain_selector_state([], [1])


class TestDiskCache:
    """A torn training pickle is quarantined and rebuilt, never fatal."""

    @pytest.fixture
    def isolated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(training, "_BUNDLE_CACHE", {})
        monkeypatch.setattr(training, "_DATA_CACHE", {})
        return tmp_path

    @pytest.mark.parametrize("granularity", [4, 0],
                             ids=["bundle", "raw-data"])
    def test_truncated_pickle_is_quarantined_and_rebuilt(
        self, isolated, granularity
    ):
        config = tiny_training_config()
        original = save_bundle(default_experts(config),
                               isolated / "original.json").read_text()
        victim = training._cache_path(config, granularity)
        if granularity == 0:
            # Reach the raw-data pickle through a bundle rebuild.
            training._cache_path(config, 4).unlink()
        torn = victim.read_bytes()[: victim.stat().st_size // 2]
        victim.write_bytes(torn)
        training._BUNDLE_CACHE.clear()
        training._DATA_CACHE.clear()

        with pytest.warns(UserWarning, match="quarantined"):
            bundle = default_experts(config)

        rebuilt = save_bundle(bundle, isolated / "rebuilt.json")
        assert rebuilt.read_text() == original
        assert (isolated / "quarantine" / victim.name).read_bytes() == torn
        # The rebuilt pickle was published in place and loads again.
        training._BUNDLE_CACHE.clear()
        training._DATA_CACHE.clear()
        assert save_bundle(default_experts(config),
                           rebuilt).read_text() == original
