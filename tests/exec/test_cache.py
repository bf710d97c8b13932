"""Run-cache behaviour: hits, misses, invalidation, corruption."""

from __future__ import annotations

import pickle

import pytest

from repro.exec import (
    Executor,
    PolicySpec,
    RunCache,
    RunRequest,
    cache_enabled,
    default_cache_root,
    execute_request,
)
from repro.exec.cache import CACHE_ENTRY_VERSION

SCALE = 0.05


def tiny_request(**overrides) -> RunRequest:
    base = dict(
        target="cg",
        policy=PolicySpec.fixed(8),
        iterations_scale=SCALE,
    )
    base.update(overrides)
    return RunRequest(**base)


@pytest.fixture
def cache(tmp_path) -> RunCache:
    return RunCache(root=tmp_path / "runs")


class TestRunCache:
    def test_miss_then_hit(self, cache):
        request = tiny_request()
        fingerprint = request.fingerprint()
        assert cache.get(fingerprint) is None
        summary = execute_request(request)
        cache.put(fingerprint, summary)
        assert cache.get(fingerprint) == summary
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_corrupted_entry_is_a_miss(self, cache):
        request = tiny_request()
        fingerprint = request.fingerprint()
        cache.put(fingerprint, execute_request(request))
        cache.path(fingerprint).write_bytes(b"not a pickle")
        with pytest.warns(UserWarning, match="quarantined"):
            assert cache.get(fingerprint) is None
        # The broken file was moved aside (not left to fail forever,
        # not silently destroyed) and the move was counted.
        assert not cache.path(fingerprint).exists()
        quarantined = list(cache.quarantine_dir().iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes() == b"not a pickle"
        assert cache.quarantined == 1

    def test_quarantine_retention_is_bounded(self, cache):
        # A recurring corruption source (bad disk, version skew) must
        # not grow the quarantine directory without bound: only the
        # newest DEFAULT_QUARANTINE_KEEP files survive.
        summary = execute_request(tiny_request())
        with pytest.warns(UserWarning, match="quarantined"):
            for i in range(10):
                fingerprint = f"{i:02d}deadbeef"
                cache.put(fingerprint, summary)
                cache.path(fingerprint).write_bytes(b"junk %d" % i)
                assert cache.get(fingerprint) is None
        assert cache.quarantined == 10
        assert len(list(cache.quarantine_dir().iterdir())) == 8

    def test_quarantine_warns_once(self, cache):
        requests = [tiny_request(seed=s) for s in (0, 1)]
        for request in requests:
            cache.put(request.fingerprint(), execute_request(request))
            cache.path(request.fingerprint()).write_bytes(b"garbage")
        with pytest.warns(UserWarning, match="quarantined") as caught:
            for request in requests:
                assert cache.get(request.fingerprint()) is None
        messages = [
            w for w in caught if "quarantined" in str(w.message)
        ]
        assert len(messages) == 1
        assert cache.quarantined == 2

    def test_wrong_version_is_a_miss(self, cache):
        request = tiny_request()
        fingerprint = request.fingerprint()
        entry = {
            "version": CACHE_ENTRY_VERSION + 1,
            "summary": execute_request(request),
        }
        path = cache.path(fingerprint)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(entry))
        assert cache.get(fingerprint) is None

    def test_cache_dir_env_redirect(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_root() == tmp_path / "elsewhere" / "runs"

    def test_cache_enabled_env(self, monkeypatch):
        assert cache_enabled()
        for value in ("0", "no", "off", "FALSE"):
            monkeypatch.setenv("REPRO_RUN_CACHE", value)
            assert not cache_enabled()
        monkeypatch.setenv("REPRO_RUN_CACHE", "1")
        assert cache_enabled()


class TestExecutorMemoisation:
    def test_second_run_is_a_replay(self, cache):
        executor = Executor(jobs=1, cache=cache)
        requests = [tiny_request(seed=s) for s in (0, 1)]
        first = executor.run(requests)
        second = executor.run(requests)
        assert first == second
        assert cache.stores == 2
        assert cache.hits == 2

    def test_physics_change_invalidates(self, cache, monkeypatch):
        executor = Executor(jobs=1, cache=cache)
        request = tiny_request()
        executor.run([request])
        monkeypatch.setattr(
            "repro.core.training.simulator_fingerprint",
            lambda: "recalibrated",
        )
        executor.run([request])
        # The new fingerprint missed the old entry and stored a new one.
        assert cache.hits == 0
        assert cache.stores == 2

    def test_patched_engine_constant_changes_fingerprint(self, monkeypatch):
        # The fingerprint is memoised, but on the constants it reads,
        # so a recalibrated engine still misses the old entries.
        from repro.core.training import simulator_fingerprint
        from repro.runtime import engine

        calibrated = simulator_fingerprint()
        monkeypatch.setattr(engine, "SPIN_WASTE_COEFF",
                            engine.SPIN_WASTE_COEFF * 2)
        assert simulator_fingerprint() != calibrated
        monkeypatch.undo()
        assert simulator_fingerprint() == calibrated

    def test_untokened_requests_still_execute(self, cache):
        class Hostile:
            def __reduce__(self):
                raise TypeError("nope")

            def __call__(self):
                from repro.core.policies.fixed import FixedPolicy

                return FixedPolicy(8)

        with pytest.warns(UserWarning, match="cannot be pickled"):
            spec = PolicySpec.of(Hostile(), label="hostile")
        assert spec.token is None
        executor = Executor(jobs=1, cache=cache)
        summaries = executor.run([tiny_request(policy=spec)])
        assert summaries[0].target_time > 0
        assert cache.stores == 0

    def test_cache_none_disables_memoisation(self):
        executor = Executor(jobs=1, cache=None)
        request = tiny_request()
        assert executor.run([request]) == executor.run([request])
