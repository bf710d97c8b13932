"""Kill-resilience: grids survive crashing workers, corrupt caches,
and interruption, with bit-identical results.

Workers are force-crashed mid-run via ``REPRO_CHAOS_WORKER_CRASH_RATE``
(the worker hard-exits with ``os._exit`` before deserialising its
request — indistinguishable from a segfault or OOM kill from the
pool's perspective).  The acceptance bar: a >= 50-request grid
completes with correct request-ordered summaries equal to a clean
serial run.
"""

from __future__ import annotations

import pytest

from repro.exec import (
    Executor,
    PolicySpec,
    RetryPolicy,
    RunCache,
    RunRequest,
)

SCALE = 0.02

#: High enough that a 52-request grid sees many crashes (P[none] ~ 1e-8),
#: low enough that no request plausibly exhausts its retry budget.
CRASH_RATE = "0.3"

RETRY = RetryPolicy(max_retries=40, base_delay=0.005, max_delay=0.05)


def grid_requests():
    """A 52-request grid: 2 targets x 2 policies x 13 seeds."""
    return [
        RunRequest(
            target=target, policy=PolicySpec.fixed(threads), seed=seed,
            iterations_scale=SCALE,
        )
        for target in ("cg", "ep")
        for threads in (8, 16)
        for seed in range(13)
    ]


@pytest.fixture(scope="module")
def baseline():
    """Clean serial results for the grid (no chaos, no cache)."""
    return Executor(jobs=1, cache=None, checkpoint=None).run(
        grid_requests()
    )


class TestKillResilience:
    def test_grid_survives_crashing_workers(self, baseline, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_WORKER_CRASH_RATE", CRASH_RATE)
        executor = Executor(
            jobs=4, cache=None, checkpoint=None, retry=RETRY,
            max_pool_rebuilds=10_000,
        )
        requests = grid_requests()
        summaries = executor.run(requests)

        # Request-ordered, bit-identical to the clean serial run.
        assert summaries == baseline
        assert [s.target for s in summaries] == [
            r.target for r in requests
        ]

        report = executor.last_report
        assert report.pool_rebuilds >= 1
        assert report.retried
        assert not report.failures
        assert report.executed == len(requests)
        # Every recorded crash was followed by a successful attempt.
        for request_report in report.requests:
            assert request_report.attempts[-1].ok

    def test_corrupt_cache_entry_is_quarantined_and_recomputed(
        self, baseline, tmp_path, monkeypatch
    ):
        cache = RunCache(root=tmp_path / "runs")
        requests = grid_requests()
        # Pre-populate two entries, then corrupt one of them the way a
        # mid-write crash would: truncated garbage on disk.
        for index in (0, 1):
            fingerprint = requests[index].fingerprint()
            cache.put(fingerprint, baseline[index])
        corrupt_path = cache.path(requests[0].fingerprint())
        corrupt_path.write_bytes(b"\x80truncated-by-a-crash")

        monkeypatch.setenv("REPRO_CHAOS_WORKER_CRASH_RATE", CRASH_RATE)
        executor = Executor(
            jobs=4, cache=cache, checkpoint=None, retry=RETRY,
            max_pool_rebuilds=10_000,
        )
        with pytest.warns(UserWarning, match="quarantined"):
            summaries = executor.run(requests)

        assert summaries == baseline
        report = executor.last_report
        assert report.quarantined == 1
        # The corrupt entry was recomputed, the intact one replayed.
        assert not report.requests[0].cached
        assert report.requests[1].cached
        # The poisoned bytes were preserved for post-mortem, and the
        # recomputed summary took the entry's place.
        assert list(cache.quarantine_dir().iterdir())
        assert cache.get(requests[0].fingerprint()) == baseline[0]

    def test_interrupted_chaos_grid_resumes(
        self, baseline, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS_WORKER_CRASH_RATE", CRASH_RATE)
        path = tmp_path / "grid"
        requests = grid_requests()
        first = Executor(
            jobs=4, cache=None, checkpoint=RunCache(path),
            retry=RETRY, max_pool_rebuilds=10_000,
        )
        first.run(requests)

        # A fresh executor (fresh process in real life) resumes the
        # whole grid from the checkpoint without executing anything.
        monkeypatch.delenv("REPRO_CHAOS_WORKER_CRASH_RATE")
        resumer = Executor(
            jobs=4, cache=None, checkpoint=RunCache(path),
        )
        resumed = resumer.run(requests)
        assert resumed == baseline
        report = resumer.last_report
        assert report.executed == 0
        assert all(r.resumed for r in report.requests)
