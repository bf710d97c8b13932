"""Simulation-path workloads: the Figure 8 grid, cold and replayed.

The grid is the fig08 summary at benchmark scale: the four dynamic
scenarios x ``SIM_TARGETS`` x the five standard policies x both
workload sets x the seeds ``(seed, seed + 1)`` = 480 runs.

* ``sim-cold`` executes the grid on an empty run cache.  Its requests
  are the ones :func:`run_dynamic_summary` submits, cut into eight
  interleaved slices of 60 runs, so every slice mixes all scenarios,
  targets and policies; each slice runs on a fresh cache, and slices
  repeat until the time is up.
* ``sim-warm`` fills a cache with the whole grid (untimed), then
  replays the grid through it, pass after pass, until the time is up.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path
from typing import Dict, List

import hostspeed
from stats import median

SIM_TARGETS = ("cg", "ep", "lu", "mg", "art", "bodytrack")
ITERATIONS_SCALE = 0.3
SLICES = 8


def grid_seeds(seed: int):
    return (seed, seed + 1)


def executor_for(cache_root: Path):
    """The grid's executor over this run cache; pool width and batch
    mode come from the pinned environment (``run.PINNED_ENV``)."""
    from repro.exec import Executor, RunCache

    return Executor(cache=RunCache(cache_root))


def grid_requests(policies, seed: int) -> list:
    """The run requests :func:`run_dynamic_summary` submits, in order.

    Captured by handing it an executor that records each batch
    and answers with placeholders instead of simulating.
    """
    from repro.exec import Executor, RunSummary
    from repro.experiments.dynamic import run_dynamic_summary

    placeholder = RunSummary(
        target="", policy="", target_time=1.0, workload_throughput=1.0,
        duration=1.0, workload_runs=(), selections=(),
    )
    captured: list = []

    class _Capture(Executor):
        def run(self, requests):
            requests = list(requests)
            captured.extend(requests)
            return [placeholder] * len(requests)

    run_dynamic_summary(
        targets=SIM_TARGETS, policies=policies,
        iterations_scale=ITERATIONS_SCALE, seeds=grid_seeds(seed),
        executor=_Capture(jobs=1, cache=None, batch="off"),
    )
    return captured


def slices_of(requests: list) -> List[list]:
    return [requests[j::SLICES] for j in range(SLICES)]


def summaries_digest(summaries) -> str:
    """Digest of every field a run summary carries, in order."""
    h = hashlib.sha256()
    for s in summaries:
        h.update(repr((s.target, s.policy, s.target_time,
                       s.workload_throughput, s.duration, s.workload_runs,
                       s.selections, s.records,
                       s.policy_fallbacks)).encode())
    return h.hexdigest()[:32]


def _failed_runs(report) -> int:
    """Runs that errored or were retried (more than one attempt)."""
    return sum(
        1 for r in report.requests
        if len(r.attempts) > 1 or any(a.kind != "ok" for a in r.attempts)
    )


def run_cold(ctx, seconds: float) -> dict:
    """Execute grid slices on empty caches until ``seconds`` elapse."""
    requests = grid_requests(ctx.policies, ctx.seed)
    slices = slices_of(requests)
    recorded = ctx.expected_sim()
    rates, latencies, checks, speeds = [], [], [], []
    first_digest: Dict[int, str] = {}
    attempted = failed = 0
    timed = 0.0
    started = time.perf_counter()
    count = 0
    while count == 0 or time.perf_counter() - started < seconds:
        j = count % SLICES
        root = ctx.scratch / f"cold-{count}"
        executor = executor_for(root)
        summaries, elapsed, speed = hostspeed.timed(executor.run, slices[j])
        shutil.rmtree(root, ignore_errors=True)
        timed += elapsed
        count += 1
        speeds.append(speed)
        report = executor.last_report
        attempted += len(summaries)
        failed += _failed_runs(report)
        rates.append(len(summaries) / (elapsed * speed))
        latencies.extend(r.attempts[-1].elapsed * 1000.0 * speed
                         for r in report.requests)
        executed = sum(1 for r in report.requests if not r.cached)
        checks.append((f"slice {j} ran cold", executed == len(slices[j]),
                       f"{executed}/{len(slices[j])} executed"))
        digest = summaries_digest(summaries)
        if j in first_digest:
            checks.append((f"slice {j} repeats", digest == first_digest[j],
                           digest))
            continue
        first_digest[j] = digest
        if recorded is not None:
            checks.append((f"slice {j} matches expected.json",
                           digest == recorded["slices"][j], digest))
    return {
        "attempted": attempted,
        "failed": failed,
        "ops_per_s": median(rates),
        "rate_samples": len(rates),
        "latencies_ms": latencies,
        "latency_op": "run",
        "timed_s": timed,
        "speed": median(speeds),
        "checks": checks,
        "details": [("slices", count), ("runs", attempted)],
    }


def fill(ctx) -> dict:
    """Run the whole grid cold through :func:`run_dynamic_summary` into
    the cache ``sim-warm`` replays; returns per-scenario hmeans."""
    from repro.experiments.dynamic import run_dynamic_summary

    executor = executor_for(ctx.run_dir / "warm-cache")
    summary = run_dynamic_summary(
        targets=SIM_TARGETS, policies=ctx.policies,
        iterations_scale=ITERATIONS_SCALE, seeds=grid_seeds(ctx.seed),
        executor=executor,
    )
    return summary.scenario_hmeans()


def _replay_pass(ctx, executor):
    """One replay of the grid, table by table, as
    :func:`run_dynamic_summary` does; returns (tables, runs, cache misses)."""
    from repro.experiments.dynamic import run_dynamic_scenario
    from repro.experiments.scenarios import DYNAMIC_SCENARIOS

    tables = {}
    runs = misses = 0
    for scenario in DYNAMIC_SCENARIOS:
        tables[scenario.name] = run_dynamic_scenario(
            scenario, SIM_TARGETS, ctx.policies,
            iterations_scale=ITERATIONS_SCALE,
            seeds=grid_seeds(ctx.seed), executor=executor,
        )
        report = executor.last_report
        runs += len(report.requests)
        misses += sum(1 for r in report.requests if not r.cached)
    return tables, runs, misses


def run_warm(ctx, seconds: float, filled: Dict[str, Dict[str, float]]) -> dict:
    """Replay the filled grid, one pass per timed operation."""
    from repro.experiments.dynamic import DynamicSummary

    recorded = ctx.expected_sim()
    checks = []
    if recorded is not None:
        checks.append(("cold hmeans match expected.json",
                       filled == recorded["hmeans"], ""))
    executor = executor_for(ctx.run_dir / "warm-cache")
    rates, latencies, speeds = [], [], []
    attempted = failed = 0
    timed = 0.0
    started = time.perf_counter()
    while not rates or time.perf_counter() - started < seconds:
        (tables, runs, misses), elapsed, speed = hostspeed.timed(
            _replay_pass, ctx, executor)
        timed += elapsed
        speeds.append(speed)
        attempted += runs
        # A replay that had to simulate anything missed the cache.
        failed += misses
        rates.append(runs / (elapsed * speed))
        latencies.append(elapsed * 1000.0 * speed)
        hmeans = DynamicSummary(tables=tables).scenario_hmeans()
        checks.append((f"pass {len(rates)} hmeans equal the cold run",
                       hmeans == filled, ""))
    return {
        "attempted": attempted,
        "failed": failed,
        "ops_per_s": median(rates),
        "rate_samples": len(rates),
        "latencies_ms": latencies,
        "latency_op": "grid replay pass",
        "timed_s": timed,
        "speed": median(speeds),
        "checks": checks,
        "details": [("passes", len(rates)), ("runs replayed", attempted)],
    }
