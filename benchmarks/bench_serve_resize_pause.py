"""Resize pause: what does a live reshard cost the request stream?

Drives a supervised process-mode fleet through the canonical 2→4→3
elastic walk mid-stream and reports the drain-pause distribution —
the wall-clock each resize stalls serving for (quiesce → drain
barrier → ship → epoch swap).  The p99 bound is written to
``results/serve_resize_pause.json`` where the regression gate's
absolute-bound directive (``_gates`` in ``baseline_timings.json``)
checks it: resharding a small fleet must stay a sub-second pause, not
a stop-the-world rebuild.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from conftest import RESULTS_DIR, emit, run_once

from repro.core.training import default_experts
from repro.serve import (
    FleetConfig,
    ServeConfig,
    SoakSpec,
    run_fleet_soak,
    tiny_training_config,
)

REQUESTS = 2_000
SPEC = SoakSpec(requests=REQUESTS, seed=0)
RESIZE_AT = {REQUESTS // 3: 4, (2 * REQUESTS) // 3: 3}

METRICS_PATH = RESULTS_DIR / "serve_resize_pause.json"


def _histogram_quantile(snapshot: dict, q: float) -> float:
    """Upper bound of the bucket holding the q-th sample."""
    counts = snapshot.get("counts") or []
    bounds = snapshot.get("bounds") or []
    total = sum(counts)
    if not total:
        return 0.0
    rank = max(1, -(-total * q // 100))
    seen = 0
    for i, count in enumerate(counts):
        seen += count
        if seen >= rank:
            return float(bounds[i]) if i < len(bounds) else float(
                bounds[-1]
            )
    return float(bounds[-1])


def _resize_session():
    bundle = default_experts(tiny_training_config())
    config = FleetConfig(
        shards=2, batch_max=32,
        serve=ServeConfig(queue_capacity=64),
    )
    with tempfile.TemporaryDirectory() as tmp:
        report, _, _ = run_fleet_soak(
            SPEC, bundle, config=config, state_root=Path(tmp),
            processes=True, resize_at=RESIZE_AT, supervise=True,
        )
    return report


def test_resize_pause(benchmark):
    report = run_once(benchmark, _resize_session)
    assert report.total == REQUESTS
    assert report.answered + report.shed == REQUESTS
    assert report.resizes == len(RESIZE_AT)
    assert report.epochs == len(RESIZE_AT)
    pause_p99 = _histogram_quantile(report.drain_pause, 99.0)
    pause_max = _histogram_quantile(report.drain_pause, 100.0)
    METRICS_PATH.parent.mkdir(exist_ok=True)
    METRICS_PATH.write_text(json.dumps({
        "requests": REQUESTS,
        "resizes": report.resizes,
        "streams_migrated": report.streams_migrated,
        "resize_pause_p99_s": pause_p99,
        "resize_pause_max_s": pause_max,
        "throughput_rps": round(report.throughput_rps, 1),
    }, indent=2, sort_keys=True) + "\n")
    emit(
        "serve_resize_pause",
        "== Live resharding pause (2→4→3, supervised) ==\n"
        f"requests {REQUESTS}; resizes {report.resizes}; "
        f"streams migrated {report.streams_migrated}\n"
        f"drain pause p99 <= {pause_p99 * 1e3:.1f}ms, "
        f"max <= {pause_max * 1e3:.1f}ms (histogram bounds)\n"
        f"throughput {report.throughput_rps:,.0f} req/s over "
        f"{report.wall_s:.2f}s",
    )
    # the histogram's last bound is ~4.2s: a pause landing in the
    # overflow bucket means resharding degenerated to stop-the-world
    assert pause_p99 <= 4.2
