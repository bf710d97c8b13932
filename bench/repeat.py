"""Repeat the benchmark and report how steady each metric is.

    python3 bench/repeat.py --runs N [--workload W ...]
                            [--save FILE] [--compare FILE]

Runs ``bench/run.py`` N times per workload with seeds 0 to N-1, each
run as long as ``run_seconds`` in ``BENCHMARK.json``, and
prints for each workload and metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is their
distance as a share of the median.  Fails when the spread of an
end-to-end metric other than ``setup_s`` exceeds its bound in
``BENCHMARK.json``.  ``--save`` writes the values; ``--compare`` fails
when a median is worse than a saved one by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload",
               workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def worse_by(metric: dict, old: float, new: float) -> float:
    """Share by which ``new`` is worse than ``old`` (negative: better)."""
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)
    chosen = args.workload or workloads
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {w: {} for w in chosen}
    for run in range(args.runs):
        for workload in chosen:
            measured = run_once(workload, run)
            for name, value in measured.items():
                values[workload].setdefault(name, []).append(value)
            print(f"run {run + 1}/{args.runs} {workload}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in measured.items()), flush=True)

    baseline = json.loads(args.compare.read_text()) if args.compare else {}
    failures = []
    print(f"\n{'workload':16s}{'metric':18s}{'median':>12s}{'q1':>12s}"
          f"{'q3':>12s}{'spread':>9s}{'bound':>8s}")
    for workload in chosen:
        for name, series in values[workload].items():
            q1, mid, q3 = quartiles(series)
            share = spread(series)
            bound = metrics[name]["bound"]
            print(f"{workload:16s}{name:18s}{mid:12.4g}{q1:12.4g}"
                  f"{q3:12.4g}{share:9.3f}{bound:8.2f}")
            if name != "setup_s" and share > bound:
                failures.append(f"{workload} {name}: spread {share:.3f} "
                                f"> bound {bound}")
            old = baseline.get(workload, {}).get(name)
            if old:
                _q1, old_mid, _q3 = quartiles(old)
                change = worse_by(metrics[name], old_mid, mid)
                if change > bound:
                    failures.append(f"{workload} {name}: median worse by "
                                    f"{change:.3f} > bound {bound}")
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
