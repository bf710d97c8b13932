"""Happy-path overhead of the fault-tolerance machinery.

Retries, per-run timeouts, worker restarts and failure reporting exist
for the unhappy path; a healthy grid must not pay for them.  This
benchmark replays a fully-cached grid (the run cache is also what an
interrupted grid resumes from) through an executor with every
robustness feature switched on and asserts the per-request overhead
(fingerprint, cache read, report bookkeeping) stays far below the
cost of even the tiniest real simulation.
"""

import pytest

from repro.exec import (
    Executor,
    PolicySpec,
    RetryPolicy,
    RunCache,
    RunRequest,
)

#: Grid size; big enough that per-request overhead dominates constants.
GRID = 40

#: Generous absolute bound per cached request, seconds.  A real run at
#: benchmark scale costs tens of milliseconds; replaying one through
#: the full retry/timeout/report machinery must cost well under two.
PER_REQUEST_BOUND = 2e-3


def grid_requests():
    return [
        RunRequest(
            target=target, policy=PolicySpec.fixed(threads), seed=seed,
            iterations_scale=0.02,
        )
        for target in ("cg", "ep")
        for threads in (8, 16)
        for seed in range(GRID // 4)
    ]


def test_overhead_cached_grid_with_faults_armed(benchmark, tmp_path):
    requests = grid_requests()
    cache = RunCache(root=tmp_path / "runs")
    Executor(jobs=1, cache=cache).run(requests)
    assert cache.stores == GRID

    def replay():
        executor = Executor(
            jobs=1,
            cache=cache,
            retry=RetryPolicy(max_retries=5),
            run_timeout=300.0,
            max_pool_rebuilds=3,
        )
        summaries = executor.run(requests)
        assert len(summaries) == GRID
        assert all(r.cached for r in executor.last_report.requests)
        return summaries

    benchmark.pedantic(replay, rounds=3, iterations=1, warmup_rounds=1)
    assert benchmark.stats["mean"] / GRID < PER_REQUEST_BOUND
