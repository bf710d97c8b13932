"""The repository benchmark: end-to-end metrics for the simulation and
serving paths, and an outside-in per-layer trace.

Run from the repository root::

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace [0|1]]

Without ``--workload`` the four workloads run in order.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of an
untraced run, or with ``--trace 1`` the per-layer metrics, written in
full to ``bench/out/layers.json`` and ``bench/out/trace.json``.  The
exit status is 0 only when every correctness check passed.

``--seconds`` is the length of each timed phase; it defaults to
``run_seconds`` in ``BENCHMARK.json``, which is also what the runner
named there passes (``--workload W --seed N --seconds S --trace 0|1``).

The first run in a checkout trains the expert bundles (the build,
about half a minute) into ``bench/out/build``; later runs copy them.
Each workload is measured in a child process that has started no other
child before it, so neither the build nor another workload counts
toward its set-up time or peak RSS.  ``run.py`` adopts whatever its
children leave behind and exits only when every process it started,
directly or not, has ended.  See ``bench/README.md`` for the
workloads, metrics and how to read the trace.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import serve  # noqa: E402
import sim  # noqa: E402
from stats import median, percentile, supported_tail, tail  # noqa: E402
from tracing import (PER_LAYER, RECONCILE_MAX, Family,  # noqa: E402
                     Tracer, chrome_trace, per_layer_metrics, read_parts,
                     reconcile)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

WORKLOADS = ("sim-cold", "sim-warm", "serve-steady", "serve-saturate")
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: How long the build and one workload's process may run before they
#: are stopped.
BUILD_TIMEOUT_S = 700
WORKLOAD_TIMEOUT_S = 150
#: How long processes a child left behind may take to end by
#: themselves before they are killed.
REAP_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36
#: The environment the programs under test see: two workers (the
#: reference host's cores), no batching, memoisation and shared memory
#: on; every other REPRO_* knob at its default.  The executors the
#: benchmark builds take their pool width and batch mode from here.
PINNED_ENV = {"REPRO_JOBS": "2", "REPRO_BATCH": "off",
              "REPRO_RUN_CACHE": "1", "REPRO_SHM": "1"}
BUILD_SCRIPT = ("from repro.experiments.runner import standard_policies; "
                "standard_policies()")


def pin_environment(cache_dir: Path) -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_ENV)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)


def ensure_build() -> Path:
    """Train the expert bundles once per checkout (the build step).

    Training runs in a child process into a temporary directory that is
    renamed into place only when complete, so an interrupted build is
    simply redone.
    """
    build = OUT / "build"
    if (build / "READY").exists():
        return build
    tmp = OUT / f"build-tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", BUILD_SCRIPT], env=env,
                   check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    shutil.rmtree(tmp / "runs", ignore_errors=True)
    (tmp / "READY").write_text(f"{time.perf_counter() - started:.1f}\n")
    shutil.rmtree(build, ignore_errors=True)
    os.replace(tmp, build)
    return build


def become_subreaper() -> None:
    """Adopt this process's orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so that :func:`reap_children` can wait
    for what a measuring process left behind: its multiprocessing
    resource tracker outlives it briefly, and a crashed run may leave
    pool workers or shards."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> list:
    """Pids whose parent is this process."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_bytes()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat[stat.rindex(b")") + 2:].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_children(grace_s: float = REAP_GRACE_S) -> None:
    """Wait until this process has no child left; after ``grace_s``,
    kill each remaining one (and each that is adopted later)."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def private_dir(build: Path) -> Path:
    """This run's own directory: an empty run cache beside copies of the
    built expert bundles.  Leftovers of dead runs are removed."""
    for stale in OUT.glob("run-*"):
        pid = stale.name.split("-", 1)[1]
        if pid.isdigit() and not _alive(int(pid)):
            shutil.rmtree(stale, ignore_errors=True)
    run_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cache = run_dir / "cache"
    cache.mkdir(parents=True)
    for bundle in build.glob("experts-*.pkl"):
        shutil.copy2(bundle, cache / bundle.name)
    return run_dir


class Context:
    """Inputs and set-up artefacts shared by one run's phases."""

    def __init__(self, seed: int, run_dir: Path, expected: dict):
        self.seed = seed
        self.run_dir = run_dir
        self.expected = expected
        self.scratch = run_dir
        self.policies = None
        self.bundle = None
        self.filled = None
        self._scratches = 0

    def new_scratch(self, label: str) -> Path:
        """A fresh directory for one phase's caches and fleet state."""
        self._scratches += 1
        self.scratch = self.run_dir / f"{label}-{self._scratches}"
        self.scratch.mkdir(parents=True)
        return self.scratch

    def expected_sim(self):
        return self.expected.get("sim", {}).get(str(self.seed))

    def expected_serve(self, workload: str, key: float):
        return (self.expected.get(workload, {}).get(f"{key:g}", {})
                .get(str(self.seed)))


# -- set-up -------------------------------------------------------------------


def forget_loaded_bundles() -> None:
    """Drop the in-process bundle memo so each set-up repetition loads
    the bundles from disk, as a fresh process does."""
    from repro.core import training

    training._BUNDLE_CACHE.clear()
    training._DATA_CACHE.clear()


def setup_sim(ctx: Context) -> float:
    from repro.experiments import runner

    started = time.perf_counter()
    ctx.policies = runner.standard_policies()
    return time.perf_counter() - started


def setup_serve(ctx: Context) -> float:
    """Load the mixture's bundle and bring a fleet up to ready."""
    from repro.core import training

    started = time.perf_counter()
    ctx.bundle = training.default_experts(training.TrainingConfig(),
                                          granularity=4)
    fleet = serve.spawn_fleet(ctx.bundle, ctx.new_scratch("setup"))
    elapsed = time.perf_counter() - started
    fleet.close()
    return elapsed


def run_sim_warm(ctx: Context, seconds: float) -> dict:
    """Fill the cache once per run (untimed), then replay it."""
    if ctx.filled is None:
        ctx.filled = sim.fill(ctx)
    return sim.run_warm(ctx, seconds, ctx.filled)


#: workload -> (set-up, timed phase, checks run after the phase or None
#: when the phase checks its own outputs)
PLAN = {
    "sim-cold": (setup_sim, sim.run_cold, None),
    "sim-warm": (setup_sim, run_sim_warm, None),
    "serve-steady": (setup_serve, serve.run_steady, serve.verify),
    "serve-saturate": (setup_serve, serve.run_saturate, serve.verify),
}


def run_phase(workload: str, ctx: Context, seconds: float,
              tracer=None) -> dict:
    """One timed phase in a fresh scratch directory, traced when given
    a tracer, then its correctness checks (never traced)."""
    _setup, phase, verify = PLAN[workload]
    ctx.new_scratch(workload)
    if tracer is None:
        result = phase(ctx, seconds)
    else:
        started = time.perf_counter()
        tracer.install()
        try:
            with tracer.span("bench.phase"):
                result = phase(ctx, seconds)
        finally:
            tracer.uninstall()
        result["traced_wall_s"] = time.perf_counter() - started
    # Before the checks: an unrecorded seed's inline twin is not part of
    # the workload.
    result["rss_peak_mb"] = rss_peak_mb()
    if verify is not None:
        verify(ctx, result)
    return result


# -- metrics ------------------------------------------------------------------


def rss_peak_mb() -> float:
    """Peak RSS of this process or of its largest finished child (the
    process measures one workload, so these are that workload's)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(result: dict, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (result["ops_per_s"], "1/s"),
        "latency_p50_ms": (median(result["latencies_ms"]), "ms"),
        "rss_peak_mb": (result["rss_peak_mb"], "MB"),
    }


def describe(result: dict, setup: dict) -> list:
    """Human-readable lines: each metric with its sample count, then the
    details and every correctness check."""
    latencies = result["latencies_ms"]
    q = supported_tail(len(latencies))
    tail_line = (f"  latency_tail_ms  {percentile(latencies, q):10.3f} ms   "
                 f"p{q:g}, n={len(latencies)}" if q is not None else
                 f"  latency_tail_ms  {'-':>10s}      no percentile has ten "
                 f"samples beyond it (n={len(latencies)})")
    lines = [
        f"  setup_s          {setup['setup_s']:10.3f} s    "
        f"median of n={len(setup['reps'])} set-ups "
        f"{[round(t, 3) for t in setup['reps']]} + imports "
        f"{setup['import_s']:.3f} s",
        f"  ops_per_s        {result['ops_per_s']:10.2f} 1/s  "
        f"median of n={result['rate_samples']}, "
        f"{result['attempted']} ops in {result['timed_s']:.2f} s",
        f"  latency_p50_ms   {median(latencies):10.3f} ms   "
        f"per {result['latency_op']}, n={len(latencies)}",
        tail_line,
        f"  rss_peak_mb      {result['rss_peak_mb']:10.1f} MB",
        f"  host speed       {result['speed']:10.3f}      of reference "
        f"(set-up {setup['speed']:.3f}); times above are scaled by it",
        f"  fail_frac        {result['failed'] / result['attempted']:10.4f}"
        f"      {result['failed']} of {result['attempted']}",
    ]
    for rate, values in result.get("per_phase_ms", []):
        if values:
            q = supported_tail(len(values), 99.0) or 50.0
            lines.append(
                f"  at {rate:g} req/s: p50 {median(values):.3f} ms, "
                f"p{q:g} {percentile(values, q):.3f} ms, n={len(values)}")
    for name, value in result.get("details", []):
        lines.append(f"  {name}: {value}")
    for name, value in sorted(result.get("facts", {}).items()):
        lines.append(f"  {name}: {value:.4g}")
    for name, ok, detail in result["checks"]:
        lines.append(f"  check {'ok  ' if ok else 'FAIL'} {name}"
                     + (f" ({detail})" if detail and not ok else ""))
    return lines


# -- one workload -------------------------------------------------------------


def measure_setup(ctx: Context, setup, reps: int, import_s: float) -> dict:
    """Set up ``reps`` times; times are scaled to reference host speed."""
    speeds, times = [], []
    for _ in range(reps):
        forget_loaded_bundles()
        elapsed, _wall, speed = hostspeed.timed(setup, ctx)
        speeds.append(speed)
        times.append(elapsed * speed)
    import_s *= speeds[0]
    return {"reps": times, "import_s": import_s,
            "setup_s": import_s + median(times), "speed": median(speeds)}


def run_untraced(workload: str, ctx: Context, seconds: float,
                 import_s: float):
    setup_info = measure_setup(ctx, PLAN[workload][0], SETUP_REPS,
                               import_s)
    result = run_phase(workload, ctx, seconds)
    metrics = end_to_end(result, setup_info["setup_s"])
    return result, metrics, describe(result, setup_info)


def _time_per_op(workload: str, result: dict) -> float:
    """What the tracer's overhead is measured on: time per operation,
    or for the fixed-rate open loop, the median latency."""
    if workload == "serve-steady":
        return median(result["latencies_ms"])
    return 1.0 / result["ops_per_s"]


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def run_traced(workload: str, ctx: Context, seconds: float):
    """Set-up traced, an untraced reference phase, then the traced
    phase; each phase runs half of ``seconds``."""
    from repro.exec import STATS
    from repro.serve.fleet import FleetConfig

    setup = PLAN[workload][0]
    parts = OUT / "parts"
    shutil.rmtree(parts, ignore_errors=True)
    tracer = Tracer(parts)

    forget_loaded_bundles()
    before = STATS.snapshot()
    tracer.install()
    wall_started = time.perf_counter()
    try:
        with tracer.span("bench.setup"):
            setup(ctx)
    finally:
        tracer.uninstall()
    parent_wall = time.perf_counter() - wall_started
    setup_stats = _delta(STATS.snapshot(), before)

    reference = run_phase(workload, ctx, seconds / 2)

    # Only the traced phase's children report; drop the set-up fleet's.
    shutil.rmtree(parts, ignore_errors=True)
    before = STATS.snapshot()
    result = run_phase(workload, ctx, seconds / 2, tracer)
    facts = _delta(STATS.snapshot(), before)
    parent_wall += result["traced_wall_s"]

    facts.update(result.get("facts", {}))
    facts.update({
        "training_runs": setup_stats["executed"],
        "jobs": int(PINNED_ENV["REPRO_JOBS"]),
        "batch_max": FleetConfig().batch_max,
        "serve_wall_s": result["timed_s"] if workload.startswith("serve")
        else 0.0,
        "bench.trace_overhead_frac": (
            _time_per_op(workload, result)
            / _time_per_op(workload, reference) - 1.0),
        "bench.latency_tail_ms": tail(reference["latencies_ms"])[1],
        # What reconciliation holds the tracer's totals against, all
        # measured without it (the parent family spans both windows).
        "parent_wall_s": parent_wall,
        "cache_lookups": sum(stats["cache_hits"] + stats["executed"]
                             for stats in (setup_stats, facts)),
        "runs_executed": setup_stats["executed"] + facts["executed"],
        "requests_submitted": (result["attempted"]
                               if workload.startswith("serve") else 0),
        "shard_requests": result.get("shard_requests", 0),
    })
    children = read_parts(parts)
    parent_doc = tracer.part("parent")
    families = {"parent": Family([parent_doc]),
                "worker": Family(children.get("worker", [])),
                "shard": Family(children.get("shard", []))}
    gaps = reconcile(families["parent"], families["worker"],
                     families["shard"], facts)
    metrics = per_layer_metrics(families["parent"], families["worker"],
                                families["shard"], facts, gaps)
    worst = metrics["bench.reconcile_gap_frac"]
    layers = {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": seconds / 2,
        "metrics": metrics,
        "reconcile": {
            family: [{"quantity": label, "traced": traced,
                      "independent": independent, "gap": gap}
                     for label, traced, independent, gap in rows]
            for family, rows in gaps.items()},
        "families": {
            name: {
                "processes": len(family.docs),
                "wall_s": family.walls_s() if name != "parent"
                else [parent_wall],
                "layers": {
                    layer: {"calls": calls, "busy_s": busy / 1e9,
                            "self_s": own / 1e9}
                    for layer, (calls, busy, own)
                    in sorted(family.stats.items())},
            }
            for name, family in families.items()},
    }
    events = chrome_trace({"parent": [parent_doc], **children})
    shutil.rmtree(parts, ignore_errors=True)
    result["checks"] = result["checks"] + reference["checks"] + [(
        f"trace reconciles within {RECONCILE_MAX:.0%}",
        worst <= RECONCILE_MAX,
        "; ".join(f"{family} {label}: {traced:.6g} traced vs "
                  f"{independent:.6g}" for family, rows in gaps.items()
                  for label, traced, independent, gap in rows
                  if gap > RECONCILE_MAX))]
    lines = [f"  {name:42s} {value:14.6g}" for name, value in metrics.items()]
    lines.extend(f"  check {'ok  ' if ok else 'FAIL'} {name}"
                 + (f" ({detail})" if detail and not ok else "")
                 for name, ok, detail in result["checks"])
    units = {name: unit for name, unit, _better in PER_LAYER}
    return result, {k: (v, units[k]) for k, v in metrics.items()}, lines, \
        layers, events


# -- main ---------------------------------------------------------------------


def run_seconds() -> float:
    """The default phase length: ``run_seconds`` in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return float(spec["run_seconds"])


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark the simulation and serving paths.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of each timed phase (default: "
                        "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer trace run instead of end-to-end")
    # Set on the process run.py starts to measure one workload.
    parser.add_argument("--measure", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_workload(args) -> int:
    """Measure ``args.workload`` in this process; the build is ready."""
    run_dir = private_dir(OUT / "build")
    pin_environment(run_dir / "cache")
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}

    import repro.experiments.runner  # noqa: F401
    import repro.serve.fleet  # noqa: F401

    # Interpreter start-up and imports.
    import_s = time.perf_counter() - T_START
    ctx = Context(args.seed, run_dir / args.workload, expected)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}"
          + ("  (traced)" if args.trace else ""), flush=True)
    try:
        if args.trace:
            result, values, lines, layers, events = run_traced(
                args.workload, ctx, args.seconds)
            (OUT / "layers.json").write_text(
                json.dumps(layers, indent=2, sort_keys=True) + "\n")
            (OUT / "trace.json").write_text(json.dumps(
                {"traceEvents": events, "displayTimeUnit": "ms"}) + "\n")
        else:
            result, values, lines = run_untraced(
                args.workload, ctx, args.seconds, import_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("\n".join(lines), flush=True)
    correct = all(ok for _name, ok, _detail in result["checks"])
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}
    print(result_line(correct, result["attempted"], result["failed"],
                      metrics), flush=True)
    return 0 if correct else 1


def run_in_children(args, workloads) -> int:
    """Measure each workload in a child process of its own and merge
    their results; with several workloads, metric names get the
    workload as a prefix and the trace files hold every workload."""
    correct = True
    attempted = failed = 0
    metrics: dict = {}
    layers, events = {}, []
    for workload in workloads:
        command = [sys.executable, str(BENCH / "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", str(args.trace), "--measure"]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        reap_children()
        lines = done.stdout.splitlines()
        try:
            outcome = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(done.stdout, end="", flush=True)
            print(f"bench: {workload} exited {done.returncode} without a "
                  "result", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        correct = correct and outcome["correct"] and done.returncode == 0
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name, entry in outcome["metrics"].items():
            metrics[prefix + name] = entry
        if args.trace and len(workloads) > 1:
            layers[workload] = json.loads((OUT / "layers.json").read_text())
            events.extend(json.loads(
                (OUT / "trace.json").read_text())["traceEvents"])
    if args.trace and len(workloads) > 1:
        (OUT / "layers.json").write_text(
            json.dumps(layers, indent=2, sort_keys=True) + "\n")
        (OUT / "trace.json").write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}) + "\n")
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"bench: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    pin_environment(OUT / "build")
    if args.measure:
        return run_workload(args)
    # A process's peak RSS covers every child it ever waited for, and
    # its start includes the build: measure in fresh processes, and
    # wait for everything they start.
    become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        ensure_build()
        reap_children()
        return run_in_children(args, [args.workload] if args.workload
                               else list(WORKLOADS))
    finally:
        reap_children()


if __name__ == "__main__":
    sys.exit(main())
