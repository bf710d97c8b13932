"""Serving-latency microbenchmarks: what does crash-safety cost?

The serving runtime journals every selector operation and periodically
snapshots full state so a restart loses nothing.  That durability is
paid on the decision path (one journal record per request, group-
written once per served batch — here one request per batch), so it has
to be cheap relative to the decision itself.  Each sample is the wall
clock of a whole ``serve_one`` call, which includes the journal commit
and flush (``ServeDecision.latency_s`` stops before either runs), and
the gate is that journaling costs at most 40% of the median decision.
"""

from __future__ import annotations

import time

from conftest import emit, run_once

from repro.core.training import default_experts
from repro.runtime.metrics import percentile
from repro.serve import (
    PolicyServer,
    ServeConfig,
    SoakSpec,
    build_policy,
    make_request,
    tiny_training_config,
)

REQUESTS = 1_000
SPEC = SoakSpec(requests=REQUESTS)

#: Allowed journaling overhead, relative on the p50 of whole-call
#: wall clock (the median is robust to timer jitter, the p99 is not).
P50_RELATIVE_BUDGET = 1.40

_LATENCIES: dict = {}


def _serve_stream(state_dir=None):
    """Per-request ``serve_one`` wall clock over the standard soak
    stream (request construction excluded)."""
    bundle = default_experts(tiny_training_config())
    server = PolicyServer(
        build_policy(bundle), ServeConfig(), state_dir=state_dir
    )
    latencies = []
    for index in range(REQUESTS):
        request = make_request(SPEC, index)
        start = time.perf_counter()
        server.serve_one(request)
        latencies.append(time.perf_counter() - start)
    server.close()
    return latencies


def _stats(latencies):
    return {
        "p50": percentile(latencies, 50),
        "p99": percentile(latencies, 99),
        "max": max(latencies),
    }


def test_serve_latency_plain(benchmark):
    latencies = run_once(benchmark, _serve_stream)
    _LATENCIES["plain"] = latencies
    stats = _stats(latencies)
    emit(
        "overhead_serve_latency_plain",
        "== Serving decision latency, no journaling ==\n"
        f"requests {REQUESTS}; p50 {stats['p50'] * 1e6:.1f}us; "
        f"p99 {stats['p99'] * 1e6:.1f}us; "
        f"max {stats['max'] * 1e6:.1f}us",
    )
    # A decision must stay far below a region's runtime (~100ms
    # simulated): well under a millisecond of p50 wall time here.
    assert stats["p50"] < 1e-3


def test_serve_latency_journaled(benchmark, tmp_path):
    latencies = run_once(
        benchmark, lambda: _serve_stream(tmp_path / "state")
    )
    plain = _LATENCIES.get("plain") or _serve_stream()
    journaled = _stats(latencies)
    baseline = _stats(plain)
    overhead = journaled["p50"] / baseline["p50"] - 1.0
    emit(
        "overhead_serve_latency_journaled",
        "== Serving decision latency, write-ahead journaling ==\n"
        f"requests {REQUESTS}; p50 {journaled['p50'] * 1e6:.1f}us; "
        f"p99 {journaled['p99'] * 1e6:.1f}us; "
        f"max {journaled['max'] * 1e6:.1f}us\n"
        f"p50 overhead vs plain: {overhead:+.1%} "
        f"(budget {P50_RELATIVE_BUDGET - 1:.0%})",
    )
    assert journaled["p50"] <= baseline["p50"] * P50_RELATIVE_BUDGET
