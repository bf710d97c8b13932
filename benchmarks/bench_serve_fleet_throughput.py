"""Serving-fleet throughput: what does sharding buy?

Drives the same synthetic request stream through process-mode fleets
of 1, 2 and 4 shards and reports requests/second plus the p99 latency
bound from the merged per-shard histograms.  One test function per
shard count keeps the timing-ledger nodeids distinct so the regression
gate can compare them across runs.

The scaling assertions (2 shards >= 1.6x one shard, 4 shards >= 2x)
only hold when the machine actually has cores to scale onto; on
smaller hosts they are skipped with an explicit note rather than
silently passing, and the matching ``_gates`` directives in
``baseline_timings.json`` carry ``min_cores`` so the ledger gate skips
there too.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest
from conftest import emit, run_once

from repro.core.training import default_experts
from repro.exec import shm
from repro.serve import (
    FleetConfig,
    ServeConfig,
    SoakSpec,
    run_fleet_soak,
    tiny_training_config,
)

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="POSIX shared memory unavailable"
)

REQUESTS = 2_000
SPEC = SoakSpec(requests=REQUESTS, seed=0)

#: Required speedup of N shards over one shard — only asserted when
#: the host has at least N cores (see ``_scaling_gate``).
SCALING_FLOORS = {2: 1.6, 4: 2.0}

_THROUGHPUT: dict = {}


def _fleet_session(shards: int):
    """One full process-mode fleet session; returns its FleetReport."""
    bundle = default_experts(tiny_training_config())
    config = FleetConfig(
        shards=shards, batch_max=32,
        serve=ServeConfig(queue_capacity=64),
    )
    with tempfile.TemporaryDirectory() as tmp:
        report, _, _ = run_fleet_soak(
            SPEC, bundle, config=config,
            state_root=Path(tmp), processes=True,
        )
    return report


def _run(benchmark, shards: int):
    report = run_once(benchmark, lambda: _fleet_session(shards))
    assert report.total == REQUESTS
    assert report.answered + report.shed == REQUESTS
    assert report.failovers == 0
    rps = report.throughput_rps
    _THROUGHPUT[shards] = rps
    # A fleet is bound by its busiest shard: with share s of the
    # requests on it, no placement lets it beat 1/s of one shard.
    share = max(row.total for row in report.per_shard) / report.total
    emit(
        f"serve_fleet_throughput_{shards}shard",
        f"== Serving fleet throughput, {shards} shard(s) ==\n"
        f"requests {REQUESTS}; answered {report.answered}; "
        f"shed {report.shed}\n"
        f"throughput {rps:,.0f} req/s over {report.wall_s:.2f}s; "
        f"p99 <= {report.latency_quantile(99.0) * 1e6:.0f}us "
        f"(histogram bound)\n"
        f"busiest shard serves {share:.0%} of requests; "
        f"placement bound {1 / share:.2f}x one shard",
    )
    return report


def _scaling_gate(shards: int) -> None:
    floor = SCALING_FLOORS[shards]
    cores = os.cpu_count() or 1
    if cores < shards:
        pytest.skip(
            f"scaling gate needs >= {shards} cores, host has {cores}: "
            f"{shards}-shard vs 1-shard speedup not asserted"
        )
    base = _THROUGHPUT.get(1) or _fleet_session(1).throughput_rps
    ratio = _THROUGHPUT[shards] / base
    assert ratio >= floor, (
        f"{shards} shards reached only {ratio:.2f}x one shard "
        f"(floor {floor}x)"
    )


def test_fleet_throughput_1_shard(benchmark):
    _run(benchmark, 1)


def test_fleet_throughput_2_shards(benchmark):
    _run(benchmark, 2)
    _scaling_gate(2)


def test_fleet_throughput_4_shards(benchmark):
    _run(benchmark, 4)
    _scaling_gate(4)
