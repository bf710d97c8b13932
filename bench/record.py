"""Record the outputs the benchmark checks against, into expected.json.

    python3 bench/record.py --seeds 0-9

For each seed this stores the ``sim`` grid's per-scenario x per-policy
hmeans and the digest of each of its eight slices, and the per-stream
decision digests of ``serve-steady`` (a run of ``run_seconds`` from
``BENCHMARK.json``) and ``serve-saturate``, computed with an
inline-fleet twin.  Re-record only when a change is meant to alter
simulated physics or decisions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import serve
import sim


def seed_list(text: str):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    args = parser.parse_args(argv)
    seconds = run.run_seconds()

    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(parents=True, exist_ok=True)
    run.pin_environment(run.OUT / "build")
    build = run.ensure_build()
    run_dir = run.private_dir(build)
    run.pin_environment(run_dir / "cache")

    from repro.core.training import TrainingConfig, default_experts
    from repro.experiments.runner import standard_policies

    expected = (json.loads(run.EXPECTED.read_text())
                if run.EXPECTED.exists() else {})
    policies = standard_policies()
    bundle = default_experts(TrainingConfig(), granularity=4)
    try:
        for seed in args.seeds:
            ctx = run.Context(seed, run_dir / f"seed-{seed}", expected)
            ctx.policies = policies
            hmeans = sim.fill(ctx)
            executor = sim.executor_for(ctx.run_dir / "warm-cache")
            slices = [sim.summaries_digest(executor.run(part)) for part in
                      sim.slices_of(sim.grid_requests(policies, seed))]
            shutil.rmtree(ctx.run_dir)
            expected.setdefault("sim", {})[str(seed)] = {
                "hmeans": hmeans, "slices": slices}

            _dues, _phases, requests, streams = serve.steady_inputs(
                seed, seconds)
            expected.setdefault("serve-steady", {}).setdefault(
                f"{seconds:g}", {})[str(seed)] = serve.twin_digests(
                    bundle, requests, streams)
            requests, streams = serve.saturate_inputs(seed)
            expected.setdefault("serve-saturate", {}).setdefault(
                f"{serve.SATURATE_TRIAL:g}", {})[str(seed)] = \
                serve.twin_digests(bundle, requests, streams)
            print(f"recorded seed {seed}", flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
