"""JSON expert persistence."""

import json

import numpy as np
import pytest

from repro.core.persistence import (
    DEFAULT_QUARANTINE_KEEP,
    FORMAT_VERSION,
    ChecksumError,
    bundle_from_dict,
    bundle_to_dict,
    dump_checked_json,
    expert_from_dict,
    expert_to_dict,
    load_bundle,
    load_checked_json,
    payload_checksum,
    prune_quarantine,
    save_bundle,
)
from tests.core.test_expert import make_samples
from repro.core.expert import train_expert


class TestExpertRoundTrip:
    def test_predictions_preserved(self):
        expert = train_expert("E-x", make_samples(), provenance="p")
        clone = expert_from_dict(expert_to_dict(expert))
        for sample in make_samples(n=10, seed=7):
            assert clone.predict_threads(
                sample.features, 32,
            ) == expert.predict_threads(sample.features, 32)
            assert clone.predict_env_norm(
                sample.features,
            ) == pytest.approx(expert.predict_env_norm(sample.features))

    def test_envelope_preserved(self):
        expert = train_expert("E-x", make_samples())
        clone = expert_from_dict(expert_to_dict(expert))
        assert np.allclose(clone.feature_low, expert.feature_low)
        assert np.allclose(clone.feature_high, expert.feature_high)

    def test_unbounded_expert(self):
        expert = train_expert("E-x", make_samples()).without_envelope()
        clone = expert_from_dict(expert_to_dict(expert))
        assert clone.feature_low is None


class TestBundleRoundTrip:
    def test_file_round_trip(self, tiny_bundle, tmp_path):
        path = save_bundle(tiny_bundle, tmp_path / "bundle.json")
        loaded = load_bundle(path)
        assert len(loaded.experts) == len(tiny_bundle.experts)
        assert loaded.config == tiny_bundle.config
        assert loaded.samples_per_expert == tiny_bundle.samples_per_expert
        for original, clone in zip(tiny_bundle.experts, loaded.experts):
            assert clone.name == original.name
            assert clone.provenance == original.provenance
            assert np.allclose(
                clone.thread_model.weights,
                original.thread_model.weights,
            )

    def test_scalability_preserved(self, tiny_bundle, tmp_path):
        path = save_bundle(tiny_bundle, tmp_path / "b.json")
        loaded = load_bundle(path)
        for record in loaded.scalability:
            original = tiny_bundle.scalability_of(
                record.program, record.platform,
            )
            assert record.speedup_at_p == pytest.approx(
                original.speedup_at_p,
            )

    def test_loaded_bundle_is_usable(self, tiny_bundle, tmp_path):
        from repro.core.policies import MixturePolicy
        from tests.core.test_policies import make_ctx

        loaded = load_bundle(save_bundle(tiny_bundle, tmp_path / "b.json"))
        policy = MixturePolicy(loaded.experts)
        assert 1 <= policy.select(make_ctx()) <= 32

    def test_json_is_human_readable(self, tiny_bundle, tmp_path):
        path = save_bundle(tiny_bundle, tmp_path / "b.json")
        data = json.loads(path.read_text())
        assert data["format_version"] == FORMAT_VERSION
        assert data["feature_names"][0] == "load_store_count"


class TestValidation:
    def test_bad_version_rejected(self, tiny_bundle):
        data = bundle_to_dict(tiny_bundle)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            bundle_from_dict(data)

    def test_feature_mismatch_rejected(self, tiny_bundle):
        data = bundle_to_dict(tiny_bundle)
        data["feature_names"] = ["other"]
        with pytest.raises(ValueError, match="feature vector"):
            bundle_from_dict(data)


class TestCheckedJson:
    def test_round_trip(self, tmp_path):
        payload = {"b": [1.0, 2.5], "a": {"nested": [0.1]}}
        path = tmp_path / "doc.json"
        dump_checked_json(payload, path)
        assert load_checked_json(path) == payload

    def test_numpy_values_serialise(self, tmp_path):
        payload = {"w": np.arange(3, dtype=float), "n": np.float64(0.5)}
        path = tmp_path / "doc.json"
        dump_checked_json(payload, path)
        assert load_checked_json(path) == {"w": [0.0, 1.0, 2.0], "n": 0.5}

    def test_checksum_is_representation_independent(self):
        # Same logical payload, different key order and container
        # types: the checksum must not care.
        assert payload_checksum({"a": 1, "b": [2.0]}) == payload_checksum(
            {"b": np.array([2.0]), "a": 1}
        )

    def test_tampering_detected(self, tmp_path):
        path = tmp_path / "doc.json"
        dump_checked_json({"value": 1.0}, path)
        doc = json.loads(path.read_text())
        doc["payload"]["value"] = 2.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ChecksumError):
            load_checked_json(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "doc.json"
        dump_checked_json({"value": list(range(100))}, path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(ChecksumError):
            load_checked_json(path)

    def test_missing_file_is_a_checksum_error(self, tmp_path):
        with pytest.raises(ChecksumError):
            load_checked_json(tmp_path / "never-written.json")


class TestQuarantineRetention:
    def fill(self, directory, count):
        directory.mkdir(parents=True, exist_ok=True)
        for i in range(count):
            (directory / f"corrupt-{i:04d}").write_text(str(i))

    def test_keeps_newest_k(self, tmp_path):
        self.fill(tmp_path, 12)
        removed = prune_quarantine(tmp_path, keep=5)
        assert removed == 7
        # mtimes tie within the test's resolution; the name order
        # tie-break keeps the highest-numbered (newest) files.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"corrupt-{i:04d}" for i in range(7, 12)
        ]

    def test_under_limit_is_untouched(self, tmp_path):
        self.fill(tmp_path, 3)
        assert prune_quarantine(tmp_path, keep=5) == 0
        assert len(list(tmp_path.iterdir())) == 3

    def test_missing_directory_is_a_noop(self, tmp_path):
        assert prune_quarantine(tmp_path / "absent") == 0

    def test_default_retention_keeps_eight(self, tmp_path):
        self.fill(tmp_path, 10)
        assert prune_quarantine(tmp_path) == 2
        assert len(list(tmp_path.iterdir())) == DEFAULT_QUARANTINE_KEEP == 8


class TestMoveAside:
    def test_moves_files_and_directories_with_labels(self, tmp_path):
        from repro.core.persistence import move_aside

        victim = tmp_path / "stream-abc"
        victim.mkdir()
        (victim / "journal.jsonl").write_text("{}\n")
        quarantine = tmp_path / "quarantine"
        moved = move_aside(victim, quarantine, "superseded")
        assert moved == quarantine / "stream-abc.superseded"
        assert not victim.exists()
        assert (moved / "journal.jsonl").read_text() == "{}\n"

    def test_collisions_get_serial_suffixes(self, tmp_path):
        from repro.core.persistence import move_aside

        quarantine = tmp_path / "quarantine"
        targets = []
        for _ in range(3):
            victim = tmp_path / "torn"
            victim.write_text("x")
            targets.append(move_aside(victim, quarantine, "stage"))
        assert [t.name for t in targets] == [
            "torn.stage", "torn.stage.1", "torn.stage.2"
        ]

    def test_missing_source_is_a_noop(self, tmp_path):
        from repro.core.persistence import move_aside

        assert move_aside(tmp_path / "absent",
                          tmp_path / "quarantine") is None
        assert not (tmp_path / "quarantine").exists()
