"""Command-line interface: regenerate any paper figure or table.

Examples::

    python -m repro fig8 --quick      # dynamic-environment summary
    python -m repro tab1              # expert weights table
    python -m repro fig15b            # expert selection frequency
    python -m repro list              # all available experiments
    python -m repro lint              # lint every benchmark's IR
    python -m repro lint cg mg --format json
    python -m repro lint --strict     # CI gate: warnings fail too
    python -m repro profile           # cProfile one simulation run
    python -m repro profile mg --scenario large-high --top 40
    python -m repro profile --output run.pstats
    python -m repro serve-fleet --tiny --shards 1 --inline  # one server
    python -m repro serve-fleet --tiny --shards 4   # sharded serving
    python -m repro serve-fleet --tiny --kill-at 5000 --verify-twin
    python -m repro serve-fleet --tiny --resize-at 3333:4,6666:3 \
        --kill-at 5000 --supervise --verify-twin
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from .experiments import (
    DYNAMIC_SCENARIOS,
    EVALUATION_TARGETS,
    LARGE_HIGH,
    LARGE_LOW,
    QUICK_TARGETS,
    SMALL_HIGH,
    SMALL_LOW,
    run_adaptive_pairs,
    run_affinity,
    run_dynamic_scenario,
    run_dynamic_summary,
    run_env_accuracy,
    run_expert_weights,
    run_feature_impact,
    run_granularity,
    run_live_case_study,
    run_motivation,
    run_num_experts,
    run_selection_frequency,
    run_static_isolated,
    run_thread_distribution,
    run_workload_impact,
)
from .experiments.extensions import (
    run_churn,
    run_data_tradeoff,
    run_energy,
    run_model_comparison,
    run_portability,
    run_unseen_suite,
)
from .workload.trace import generate_live_trace


def _fig1(quick: bool) -> str:
    trace = generate_live_trace()
    lines = ["== Figure 1: live system activity (synthetic log) =="]
    lines.append(
        f"{len(trace.times)} samples over "
        f"{trace.times[-1] / 3600.0:.1f} hours on "
        f"{trace.system.hw_contexts} hardware contexts"
    )
    step = max(1, len(trace.times) // 24)
    for index in range(0, len(trace.times), step):
        t = trace.times[index]
        n = trace.threads[index]
        bar = "#" * max(1, int(60 * n / trace.system.hw_contexts))
        lines.append(f"{t / 3600.0:6.1f}h {n:6d} {bar}")
    return "\n".join(lines)


def _scale(quick: bool) -> float:
    return 0.3 if quick else 1.0


def _targets(quick: bool) -> Sequence[str]:
    return QUICK_TARGETS if quick else EVALUATION_TARGETS


#: Experiment registry: name -> (description, runner).
EXPERIMENTS: Dict[str, tuple] = {
    "fig1": ("live-system activity trace",
             lambda quick: _fig1(quick)),
    "fig2": ("motivation timelines (lu vs mg)",
             lambda quick: run_motivation(
                 iterations_scale=_scale(quick)).format()),
    "fig3": ("motivation speedups",
             lambda quick: run_motivation(
                 iterations_scale=_scale(quick)).format()),
    "tab1": ("expert model weights",
             lambda quick: run_expert_weights().format()),
    "fig6": ("feature impact",
             lambda quick: run_feature_impact().format()),
    "fig7": ("isolated static system",
             lambda quick: run_static_isolated(
                 targets=_targets(quick),
                 iterations_scale=_scale(quick)).format()),
    "fig8": ("dynamic-environment summary",
             lambda quick: run_dynamic_summary(
                 targets=_targets(quick),
                 iterations_scale=_scale(quick),
                 seeds=(0,) if quick else (0, 1)).format()),
    "fig9": ("small workload, low frequency",
             lambda quick: run_dynamic_scenario(
                 SMALL_LOW, targets=_targets(quick),
                 iterations_scale=_scale(quick),
                 seeds=(0,) if quick else (0, 1)).format()),
    "fig10": ("small workload, high frequency",
              lambda quick: run_dynamic_scenario(
                  SMALL_HIGH, targets=_targets(quick),
                  iterations_scale=_scale(quick),
                  seeds=(0,) if quick else (0, 1)).format()),
    "fig11": ("large workload, low frequency",
              lambda quick: run_dynamic_scenario(
                  LARGE_LOW, targets=_targets(quick),
                  iterations_scale=_scale(quick),
                  seeds=(0,) if quick else (0, 1)).format()),
    "fig12": ("large workload, high frequency",
              lambda quick: run_dynamic_scenario(
                  LARGE_HIGH, targets=_targets(quick),
                  iterations_scale=_scale(quick),
                  seeds=(0,) if quick else (0, 1)).format()),
    "fig13a": ("impact on workloads",
               lambda quick: run_workload_impact(
                   targets=_targets(quick),
                   scenarios=DYNAMIC_SCENARIOS[:1 if quick else 4],
                   iterations_scale=_scale(quick)).format()),
    "fig13b": ("adaptive workload pairs",
               lambda quick: run_adaptive_pairs(
                   pairs=(("lu", "mg"), ("cg", "ep")),
                   iterations_scale=_scale(quick)).format()),
    "fig14a": ("live-system case study",
               lambda quick: run_live_case_study(
                   targets=_targets(quick),
                   iterations_scale=_scale(quick)).format()),
    "fig14b": ("affinity scheduling",
               lambda quick: run_affinity(
                   targets=_targets(quick),
                   iterations_scale=_scale(quick)).format()),
    "fig14c": ("monolithic vs mixture",
               lambda quick: run_granularity(
                   targets=_targets(quick), granularities=(1, 4),
                   iterations_scale=_scale(quick)).format()),
    "fig15a": ("environment predictor accuracy",
               lambda quick: run_env_accuracy(
                   targets=_targets(quick),
                   scenarios=DYNAMIC_SCENARIOS[:1 if quick else 4],
                   iterations_scale=_scale(quick)).format()),
    "fig15b": ("expert selection frequency",
               lambda quick: run_selection_frequency(
                   targets=_targets(quick),
                   iterations_scale=_scale(quick)).format()),
    "fig15c": ("number of experts",
               lambda quick: run_num_experts(
                   targets=_targets(quick),
                   iterations_scale=_scale(quick)).format()),
    "fig16": ("expert granularity (1/4/8)",
              lambda quick: run_granularity(
                  targets=_targets(quick), granularities=(1, 4, 8),
                  iterations_scale=_scale(quick)).format()),
    "fig17": ("thread number distribution",
              lambda quick: run_thread_distribution(
                  targets=_targets(quick),
                  iterations_scale=_scale(quick)).format()),
    "ext-svm": ("Section 9: SVM-style experts",
                lambda quick: run_model_comparison(
                    iterations_scale=_scale(quick)).format()),
    "ext-data": ("Section 9: experts vs training-data size",
                 lambda quick: run_data_tradeoff(
                     iterations_scale=_scale(quick)).format()),
    "ext-port": ("Section 9: portability to a 48-core machine",
                 lambda quick: run_portability(
                     iterations_scale=_scale(quick)).format()),
    "ext-churn": ("extension: mapping under job churn",
                  lambda quick: run_churn(
                      iterations_scale=_scale(quick)).format()),
    "ext-rodinia": ("extension: unseen suite (Rodinia)",
                    lambda quick: run_unseen_suite(
                        iterations_scale=_scale(quick)).format()),
    "ext-energy": ("extension: energy to solution",
                   lambda quick: run_energy(
                       iterations_scale=_scale(quick)).format()),
}


def _parse_rule_codes(values: Optional[Sequence[str]]) -> Optional[List[str]]:
    """Flatten repeated / comma-separated ``--select``/``--ignore`` values."""
    if not values:
        return None
    codes: List[str] = []
    for value in values:
        codes.extend(c.strip() for c in value.split(",") if c.strip())
    return codes or None


def _resolve_lint_targets(parser: argparse.ArgumentParser,
                          targets: Sequence[str]):
    """Resolve lint targets to an ordered ``{label: module}`` mapping.

    A target is a registered program name (or paper alias), a suite
    name (``nas``, ``spec``, ``parsec``, ``rodinia``), or a path to a
    textual-IR file.  No targets means the entire benchmark registry —
    the CI gate.  Files are parsed without validation so structural
    problems surface as R000 diagnostics instead of a crash.
    """
    from .compiler.parser import IRParseError, parse_module
    from .programs import registry

    modules: Dict[str, object] = {}

    def add(label: str, module) -> None:
        if label in modules:
            parser.error(f"duplicate lint target {label!r}")
        modules[label] = module

    if not targets:
        for program in registry.all_programs():
            add(program.name, program.module)
        return modules

    suite_names = set(registry.suites())
    for target in targets:
        if os.path.sep in target or os.path.isfile(target):
            try:
                with open(target, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as error:
                parser.error(f"cannot read {target!r}: {error}")
            try:
                module = parse_module(text, validate=False)
            except IRParseError as error:
                parser.error(f"{target}: {error}")
            add(target, module)
        elif target in suite_names:
            for program in registry.suite(target):
                add(program.name, program.module)
        else:
            try:
                program = registry.get(target)
            except KeyError as error:
                parser.error(str(error.args[0]))
            add(program.name, program.module)
    return modules


def _lint_sarif(results) -> str:
    """Render lint diagnostics as a SARIF 2.1.0 document.

    IR modules have no source files, so registry targets get synthetic
    ``ir/<module>.ir`` artifact URIs (file targets keep their path) and
    the precise IR location rides in the message text.
    """
    from .analysis.sarif import LEVELS, SarifResult, render_sarif_json
    from .compiler.analysis import VALIDATION_CODE, all_rules

    sarif_results = []
    for label, diagnostics in results.items():
        uri = label if os.path.isfile(label) else f"ir/{label}.ir"
        for d in diagnostics:
            instruction = d.location.instruction
            sarif_results.append(SarifResult(
                rule_id=d.code,
                level=LEVELS[d.severity.value],
                message=f"[{d.location}] {d.message}",
                uri=uri,
                line=1 if instruction is None else instruction + 1,
            ))
    rules = {
        r.code: {
            "name": r.name,
            "summary": r.summary,
            "level": LEVELS[r.severity.value],
        }
        for r in all_rules()
    }
    rules[VALIDATION_CODE] = {
        "name": "validation-failure",
        "summary": "structural IR validation failed",
        "level": "error",
    }
    return render_sarif_json(sarif_results, "repro-lint", rules)


def lint_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro lint``: run the IR static analysis and report findings."""
    from .compiler.analysis import (
        Linter,
        all_rules,
        is_failure,
        render_diagnostics_json,
        render_diagnostics_text,
    )

    rule_lines = "\n".join(
        f"  {r.code}  {r.name:26s} [{r.severity.value}] {r.summary}"
        for r in all_rules()
    )
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static analysis (lint) over benchmark IR modules.",
        epilog=f"rules:\n{rule_lines}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="program name, paper alias, suite name (nas/spec/parsec/"
             "rodinia), or a textual-IR file; default: every "
             "registered benchmark",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="promote warnings to failures (info never fails)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text); 'sarif' emits a SARIF "
             "2.1.0 document for code-scanning upload",
    )
    parser.add_argument(
        "--select", action="append", metavar="CODES",
        help="run only these rule codes (comma-separated, repeatable)",
    )
    parser.add_argument(
        "--ignore", action="append", metavar="CODES",
        help="skip these rule codes (comma-separated, repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        linter = Linter(
            select=_parse_rule_codes(args.select),
            ignore=_parse_rule_codes(args.ignore),
        )
    except KeyError as error:
        parser.error(str(error.args[0]))

    modules = _resolve_lint_targets(parser, args.targets)
    results = {
        label: linter.lint(module) for label, module in modules.items()
    }
    if args.format == "json":
        print(render_diagnostics_json(results, strict=args.strict))
    elif args.format == "sarif":
        print(_lint_sarif(results))
    else:
        print(render_diagnostics_text(results, strict=args.strict))
    failed = any(
        is_failure(diagnostics, strict=args.strict)
        for diagnostics in results.values()
    )
    return 1 if failed else 0


def sanitize_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro sanitize``: determinism self-lint over Python sources.

    Scans for the determinism hazards catalogued in
    :mod:`repro.analysis.sanitize` — unseeded RNG, wall-clock reads in
    fingerprinted paths, non-atomic writes in persistence paths,
    iteration-order leaks — and reports them like a compiler.  With no
    paths it scans the installed :mod:`repro` package itself: the
    repo's own gate is ``repro sanitize --strict``.
    """
    import json as json_module
    from pathlib import Path

    from .analysis.sanitize import (
        SanitizeFinding,
        all_sanitize_rules,
        sanitize_findings_failed,
        sanitize_path,
        sanitize_tree,
    )
    from .analysis.sarif import LEVELS, SarifResult, render_sarif_json

    rule_lines = "\n".join(
        f"  {r.code}  {r.name:22s} [{r.severity}] {r.summary}"
        for r in all_sanitize_rules()
    )
    parser = argparse.ArgumentParser(
        prog="repro sanitize",
        description="Determinism sanitizer (AST self-lint) over Python "
                    "sources.",
        epilog=(
            f"rules:\n{rule_lines}\n\n"
            "suppress a finding with '# sanitize: ok [CODES]' on the "
            "flagged line or the line above"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to scan (default: the installed "
             "repro package)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="warnings fail the gate too (errors always fail)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text); 'sarif' emits a SARIF "
             "2.1.0 document for code-scanning upload",
    )
    args = parser.parse_args(argv)

    targets = args.paths or [str(Path(__file__).resolve().parent)]
    findings: List[SanitizeFinding] = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            findings.extend(sanitize_tree(path))
        elif path.is_file():
            findings.extend(sanitize_path(path))
        else:
            parser.error(f"no such file or directory: {target!r}")
    findings = list(dict.fromkeys(findings))
    findings.sort(key=SanitizeFinding.sort_key)

    failed = sanitize_findings_failed(findings, strict=args.strict)
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    if args.format == "json":
        payload = {
            "findings": [f.as_dict() for f in findings],
            "summary": {
                "errors": errors,
                "warnings": warnings,
                "failed": failed,
                "strict": args.strict,
            },
        }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "sarif":
        results = [
            SarifResult(
                rule_id=f.code,
                level=LEVELS[f.severity],
                message=f.message,
                uri=f.path,
                line=f.line,
                column=f.column,
            )
            for f in findings
        ]
        rules = {
            r.code: {
                "name": r.name,
                "summary": r.summary,
                "level": LEVELS[r.severity],
            }
            for r in all_sanitize_rules()
        }
        print(render_sarif_json(results, "repro-sanitize", rules))
    else:
        for finding in findings:
            print(finding)
        verdict = "FAIL" if failed else "PASS"
        print(
            f"sanitize: {errors} error(s), {warnings} warning(s) — "
            f"verdict {verdict}"
        )
    return 1 if failed else 0


def profile_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro profile``: cProfile one simulation run.

    Executes a single :class:`~repro.exec.request.RunRequest` (the unit
    every experiment fans out over) under :mod:`cProfile` and prints the
    top functions by cumulative time — the first stop when the engine's
    wall clock regresses.
    """
    import cProfile
    import pstats

    from .core.policies import DefaultPolicy
    from .exec.request import PolicySpec, RunRequest, WorkloadSpec
    from .experiments.scenarios import ALL_SCENARIOS
    from .workload.spec import workload_sets

    scenarios = {s.name: s for s in ALL_SCENARIOS}
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Profile one co-execution simulation with cProfile.",
    )
    parser.add_argument(
        "target", nargs="?", default="cg",
        help="target benchmark to simulate (default: cg)",
    )
    parser.add_argument(
        "--scenario", choices=sorted(scenarios), default="small-low",
        help="evaluation scenario (default: small-low)",
    )
    parser.add_argument(
        "--threads", type=int, default=8, metavar="N",
        help="fixed thread policy for the target (default: 8)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="scenario seed (default: 0)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.3, metavar="FRACTION",
        help="iterations scale of the simulated programs (default: 0.3)",
    )
    parser.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="functions to print, by cumulative time (default: 25)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="also dump raw pstats data to FILE (snakeviz-compatible)",
    )
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.top < 1:
        parser.error("--top must be >= 1")
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")

    scenario = scenarios[args.scenario]
    workload = None
    if scenario.workload_size is not None:
        workload = WorkloadSpec.from_set(
            workload_sets(scenario.workload_size)[0],
            PolicySpec.of(DefaultPolicy, "default"),
        )
    request = RunRequest(
        target=args.target,
        policy=PolicySpec.fixed(args.threads),
        scenario=scenario,
        workload=workload,
        seed=args.seed,
        iterations_scale=args.scale,
    )

    from .exec.request import execute_request

    # Warm the process-global memos (program registry, code features,
    # expert bundles) outside the profile so the report shows steady-
    # state engine cost, not one-time setup.
    execute_request(request)

    profiler = cProfile.Profile()
    profiler.enable()
    summary = execute_request(request)
    profiler.disable()

    print(
        f"profiled {args.target} / fixed-{args.threads} / "
        f"{scenario.name} (seed={args.seed}, scale={args.scale}): "
        f"target_time={summary.target_time:.2f}s simulated"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(pstats.SortKey.CUMULATIVE)
    stats.print_stats(args.top)
    if args.output:
        stats.dump_stats(args.output)
        print(f"raw profile written to {args.output}")
    return 0


def serve_fleet_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro serve-fleet``: soak the policy-serving fleet under chaos.

    Routes a synthetic request stream (sensor faults inside a window,
    availability flapping) across shards, each stream placed on one,
    micro-batched into the vectorized decision path, asserting the
    serving invariants.  Optionally kills the shard owning a chosen
    request and/or live-resizes the fleet mid-stream; ``--verify-twin``
    then proves the run bit-identical to an uninterrupted, never-resized
    inline twin.  A single server is ``--shards 1 --inline``.  See the
    "Serving failure model" section of docs/robustness.md.
    """
    import json as json_module
    import tempfile as tempfile_module
    from pathlib import Path

    from .chaos import (
        SENSOR_FAULT_MODES,
        SensorFaultSpec,
        churn_resize_map,
        parse_churn_schedule,
    )
    from .core.training import default_experts
    from .serve import (
        FleetConfig,
        ServeConfig,
        SoakInvariantError,
        SoakSpec,
        run_fleet_soak,
        tiny_training_config,
        verify_twin,
    )

    parser = argparse.ArgumentParser(
        prog="repro serve-fleet",
        description="Soak the sharded policy-serving fleet under "
                    "composed chaos injection.",
    )
    add = parser.add_argument
    add("--requests", type=int, default=10_000, metavar="N",
        help="length of the request stream (default: 10000)")
    add("--seed", type=int, default=0, help="stream seed (default: 0)")
    add("--tiny", action="store_true",
        help="serve experts trained on the miniature configuration "
             "(seconds to train, disk-cached) instead of the full one")
    add("--shards", type=int, default=2, metavar="N",
        help="shard count; streams are placed evenly (default: 2)")
    add("--batch-max", type=int, default=32, metavar="N",
        help="micro-batch flush threshold (default: 32)")
    add("--batch-linger", type=float, default=0.002, metavar="SECONDS",
        help="micro-batch flush deadline (default: 0.002)")
    add("--ring-slots", type=int, default=4, metavar="N",
        help="shared-memory ring slots per direction (default: 4)")
    add("--slot-bytes", type=int, default=1 << 16, metavar="BYTES",
        help="bytes per ring slot (default: 65536)")
    add("--queue-capacity", type=int, default=64, metavar="N",
        help="per-stream admission queue capacity (default: 64)")
    add("--deadline", type=float, default=0.050, metavar="SECONDS",
        help="per-decision wall-clock budget (default: 0.050)")
    add("--snapshot-interval", type=int, default=256, metavar="N",
        help="requests between full-state snapshots (default: 256)")
    add("--sensor", choices=SENSOR_FAULT_MODES, default=None,
        help="sensor fault mode injected inside the fault window "
             "(default: none)")
    add("--sensor-rate", type=float, default=1.0, metavar="P",
        help="per-request sensor fault probability inside the window "
             "(default: 1.0)")
    add("--fault-window", type=float, nargs=2, default=(0.3, 0.6),
        metavar=("LO", "HI"),
        help="sensor-fault window as stream fractions (default: 0.3 0.6)")
    add("--flap-period", type=float, default=40.0, metavar="SECONDS",
        help="availability flapping period in simulated seconds "
             "(default: 40)")
    add("--inline", action="store_true",
        help="serve every shard on the caller's thread (deterministic, "
             "no processes, no shared memory; decisions are identical)")
    add("--state-root", metavar="DIR", default=None,
        help="root of the per-shard journal/snapshot directories "
             "(default: a temporary directory, removed afterwards)")
    add("--kill-at", type=int, default=None, metavar="INDEX",
        help="kill the shard owning request INDEX just before it is "
             "submitted (SIGKILL, or an abandoned inline worker)")
    add("--resize-at", metavar="IDX:SHARDS,...", default=None,
        help="churn schedule: live-resize to SHARDS just before request "
             "IDX (default: no resize)")
    add("--supervise", action="store_true",
        help="arbitrate shard losses with the supervising controller "
             "(heartbeats, restart budgets, evacuation)")
    add("--verify-twin", action="store_true",
        help="with --kill-at and/or --resize-at: also run an "
             "uninterrupted, never-resized inline twin and fail unless "
             "every stream's learning state and every served decision "
             "are bit-identical to it")
    add("--format", choices=("text", "json"), default="text",
        help="report format (default: text)")
    args = parser.parse_args(argv)
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    if not 0.0 <= args.sensor_rate <= 1.0:
        parser.error("--sensor-rate must be in [0, 1]")
    if args.kill_at is not None and not 0 < args.kill_at < args.requests:
        parser.error("--kill-at must fall inside the stream")
    if args.batch_max > args.queue_capacity:
        parser.error("--batch-max cannot exceed --queue-capacity "
                     "(full flushes must always fit the admission "
                     "queue, or decisions depend on flush timing)")
    resize_at = {}
    if args.resize_at is not None:
        try:
            resize_at = churn_resize_map(
                parse_churn_schedule(args.resize_at))
        except ValueError as error:
            parser.error(str(error))
    for index in resize_at:
        if not 0 <= index < args.requests:
            parser.error(f"resize at {index} falls outside the stream")
    if args.verify_twin and args.kill_at is None and not resize_at:
        parser.error("--verify-twin requires --kill-at or --resize-at")

    sensor = None
    if args.sensor is not None:
        sensor = SensorFaultSpec(
            mode=args.sensor, rate=args.sensor_rate, seed=args.seed,
        )
    spec = SoakSpec(
        requests=args.requests,
        seed=args.seed,
        sensor=sensor,
        fault_window=tuple(args.fault_window),
        flap_period=args.flap_period,
    )
    config = FleetConfig(
        shards=args.shards,
        batch_max=args.batch_max,
        batch_linger_s=args.batch_linger,
        ring_slots=args.ring_slots,
        slot_bytes=args.slot_bytes,
        serve=ServeConfig(
            queue_capacity=args.queue_capacity,
            deadline_s=args.deadline,
            snapshot_interval=args.snapshot_interval,
        ),
    )
    if args.tiny:
        bundle = default_experts(tiny_training_config())
    else:
        bundle = default_experts()
    run_options = dict(
        config=config, processes=not args.inline, kill_at=args.kill_at,
        resize_at=resize_at, supervise=args.supervise,
    )

    def run(state_root: Path) -> int:
        try:
            if args.verify_twin:
                outcome = verify_twin(spec, bundle, state_root,
                                      **run_options)
                report = outcome.pop("report")
            else:
                outcome = None
                report, _, _ = run_fleet_soak(
                    spec, bundle, state_root=state_root, **run_options,
                )
        except SoakInvariantError as error:
            print(f"FLEET SOAK FAILED: {error}", file=sys.stderr)
            return 1
        if args.format == "json":
            payload = report.to_jsonable()
            if outcome is not None:
                payload["twin"] = outcome
            print(json_module.dumps(payload, indent=2))
            return 0
        print(report.format())
        if outcome is not None:
            events = [f"resized {index}→{shards} shards"
                      for index, shards in sorted(resize_at.items())]
            if args.kill_at is not None:
                events.append(f"shard killed before request {args.kill_at}")
            print(
                "twin check: {events}; {failovers} failovers, "
                "{recovered} re-deliveries deduplicated, "
                "{compared_decisions} served decisions and {streams} "
                "stream states bit-identical to the inline twin".format(
                    events=", ".join(events), **outcome,
                )
            )
        return 0

    if args.state_root is not None:
        return run(Path(args.state_root))
    with tempfile_module.TemporaryDirectory() as tmp:
        return run(Path(tmp))


def _format_bytes(count: int) -> str:
    """Human-scale byte count (``512 B`` / ``3.4 KiB`` / ``1.2 MiB``)."""
    if count < 1024:
        return f"{count} B"
    if count < 1024 * 1024:
        return f"{count / 1024:.1f} KiB"
    return f"{count / (1024 * 1024):.1f} MiB"


def _exec_footer(before: dict) -> str:
    """Fault-tolerance and transport footer for one experiment.

    Renders the worker-restart and serial-fallback activity (with the
    triggering causes) plus the request-serialization traffic that
    :class:`~repro.exec.executor.ExecutionStats` accumulated since
    ``before`` — empty when the run was clean and
    nothing was serialized, so quiet experiments stay quiet.
    """
    from .exec.executor import STATS

    after = STATS.snapshot()

    def delta(key: str):
        return after[key] - before.get(key, 0)

    parts = []
    rebuilds = delta("pool_rebuilds")
    if rebuilds:
        parts.append(f"{rebuilds} worker restarts")
    fallbacks = delta("serial_fallbacks")
    if fallbacks:
        causes = STATS.serial_fallback_causes[-fallbacks:]
        note = f"{fallbacks} serial fallbacks"
        if causes:
            note += " (cause: " + "; ".join(causes) + ")"
        parts.append(note)
    pickled = delta("pickled_bytes")
    if pickled:
        seconds = delta("serialize_seconds")
        parts.append(
            f"{_format_bytes(pickled)} pickled in {seconds * 1000:.0f} ms"
        )
    if not parts:
        return ""
    return f"[exec: {'; '.join(parts)}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "sanitize":
        return sanitize_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "serve-fleet":
        return serve_fleet_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's figures and tables, or lint "
                    "the benchmark IR ('repro lint --help').",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (fig1..fig17, tab1), 'list' / 'all', or the "
             "'lint' / 'sanitize' / 'profile' / 'serve-fleet' "
             "subcommands",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller target set and shorter programs",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run simulations over N worker processes (default: "
             "$REPRO_JOBS, else serial)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retry each failed/crashed simulation up to N times "
             "(default: $REPRO_MAX_RETRIES, else 2)",
    )
    parser.add_argument(
        "--run-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry any single simulation exceeding SECONDS of "
             "wall clock (pool execution only; default: "
             "$REPRO_RUN_TIMEOUT, else unlimited)",
    )
    args = parser.parse_args(argv)

    if args.jobs is not None:
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        # Experiment drivers read REPRO_JOBS through
        # repro.exec.resolve_jobs, so one env var reaches all of them.
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.max_retries is not None:
        if args.max_retries < 0:
            parser.error("--max-retries cannot be negative")
        # The fault-tolerance knobs travel the same way: executors
        # resolve them from the environment (repro.exec.fault).
        os.environ["REPRO_MAX_RETRIES"] = str(args.max_retries)
    if args.run_timeout is not None:
        if args.run_timeout <= 0:
            parser.error("--run-timeout must be positive")
        os.environ["REPRO_RUN_TIMEOUT"] = str(args.run_timeout)

    if args.experiment == "list":
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:8s} {description}")
        print(f"{'lint':8s} static IR diagnostics over the benchmark "
              f"registry ('repro lint --help')")
        print(f"{'sanitize':8s} determinism self-lint over the repro "
              f"sources ('repro sanitize --help')")
        print(f"{'profile':8s} cProfile one simulation run "
              f"('repro profile --help')")
        print(f"{'serve-fleet':8s} chaos-soak the policy-serving fleet: "
              f"kill, resize, twin-verify ('repro serve-fleet --help')")
        return 0

    names = (
        list(EXPERIMENTS) if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        if name not in EXPERIMENTS:
            parser.error(
                f"unknown experiment {name!r}; try 'list'"
            )
        description, runner = EXPERIMENTS[name]
        from .exec.executor import STATS

        exec_before = STATS.snapshot()
        started = time.time()
        print(runner(args.quick))
        print(f"[{name}: {description} — {time.time() - started:.1f}s]")
        footer = _exec_footer(exec_before)
        if footer:
            print(footer)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
