"""Shared experiment infrastructure: policy factories and run drivers.

All figure drivers funnel through :func:`run_target` /
:func:`compare_policies`, which enforce the paper's protocol: "The same
external workload is reproduced for all evaluated policies in all cases"
— identical seeds, workload sets and availability schedules across
policies, with only the target's policy varying.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.policies import (
    AnalyticPolicy,
    DefaultPolicy,
    MixturePolicy,
    MonolithicPolicy,
    OfflinePolicy,
    OnlineHillClimbPolicy,
    ThreadPolicy,
)
from ..core.features import NUM_FEATURES
from ..core.selector import HyperplaneSelector
from ..core.training import (
    ExpertBundle,
    TrainingConfig,
    default_experts,
    pretrain_selector_state,
    scale_program,
    training_dataset,
)
from ..exec import (
    Executor,
    FailureReport,
    PolicySpec,
    RunRequest,
    RunSummary,
    WorkloadSpec,
    resolve_jobs,
)
from ..machine.affinity import AffinityPolicy
from ..machine.machine import SimMachine
from ..machine.topology import Topology, XEON_L7555
from ..programs import registry
from ..runtime.engine import CoExecutionEngine, JobSpec, SimulationResult
from ..runtime.metrics import harmonic_mean
from ..workload.spec import WorkloadSet, workload_sets
from .scenarios import Scenario

#: Order in which the paper lists policies in every figure.
POLICY_ORDER = ("default", "online", "offline", "analytic", "mixture")

PolicyFactory = Callable[[], ThreadPolicy]


def mixture_factory(
    bundle: ExpertBundle,
    config: TrainingConfig = TrainingConfig(),
    pretrained: bool = True,
) -> PolicyFactory:
    """Factory for MixturePolicy instances over a bundle's experts.

    With ``pretrained`` (the default) the selector starts from the
    partition learnt offline on the training data and keeps adapting
    online; without it, selection starts from the paper's blind even
    partition (used by the ablation benchmarks).
    """
    if pretrained:
        samples, _ = training_dataset(config)
        state = pretrain_selector_state(bundle.experts, samples)
    else:
        state = None
    # A partial over a module-level function pickles by reference plus
    # its data, so its policy token does not depend on where this file
    # lives or on which line the function starts.
    return partial(_mixture_policy, bundle.experts, state)


def _mixture_policy(experts, state) -> MixturePolicy:
    selector = HyperplaneSelector(num_experts=len(experts), dim=NUM_FEATURES)
    if state is not None:
        selector.load_state(state)
    return MixturePolicy(experts, selector=selector)


def _offline_policy(expert) -> OfflinePolicy:
    return OfflinePolicy(expert.with_envelope_margin(0.5))


def cgo13_config(config: TrainingConfig = TrainingConfig()) -> TrainingConfig:
    """Training setup of the paper's "Offline" baseline (CGO'13).

    That model was trained for one platform, without hardware variation,
    and against at most a small multiprogrammed workload — the paper
    faults exactly this: "The offline technique ... is limited by its
    workload training and cannot adapt to new environments" / the
    offline model is "unable to adjust to the changing hardware
    resources".
    """
    from ..machine.topology import XEON_L7555 as _X

    return replace(
        config,
        platform_names=(_X.name,),
        availability_levels=(1.0,),
        workload_bundles=(("is", "cg", "ft"),),
    )


def standard_policies(
    config: TrainingConfig = TrainingConfig(),
) -> Dict[str, PolicyFactory]:
    """Fresh-instance factories for the five evaluated policies.

    The offline baseline is the CGO'13 analogue: one model, trained on
    the evaluation platform at full availability (no hardware-variation
    data — see :func:`cgo13_config`).  The mixture uses the four
    Section 5.1 experts with a selector pre-seeded on its training data.
    """
    bundle = default_experts(config, granularity=4)
    offline = default_experts(cgo13_config(config), granularity=1)
    return {
        "default": DefaultPolicy,
        "online": OnlineHillClimbPolicy,
        "offline": partial(_offline_policy, offline.experts[0]),
        "analytic": AnalyticPolicy,
        "mixture": mixture_factory(bundle, config),
    }


@dataclass
class RunOutcome:
    """One co-execution run's headline numbers.

    ``result`` carries the full tick timeline only when the run executed
    in-process through :func:`run_target`; outcomes assembled from the
    parallel/memoised executor path hold the slim summary numbers and
    ``result=None``.
    """

    target: str
    policy: str
    target_time: float
    workload_throughput: float
    result: Optional[SimulationResult] = None


def run_target(
    target_name: str,
    policy: ThreadPolicy,
    scenario: Scenario,
    workload_set: Optional[WorkloadSet] = None,
    seed: int = 0,
    topology: Topology = XEON_L7555,
    iterations_scale: float = 1.0,
    target_affinity: Optional[AffinityPolicy] = None,
    workload_affinity: Optional[AffinityPolicy] = None,
    workload_policy_factory: PolicyFactory = DefaultPolicy,
    dt: float = 0.1,
    max_time: float = 3600.0,
    stepping: str = "event",
    timeline_period: Optional[float] = None,
) -> RunOutcome:
    """Run one target under one policy in one scenario.

    ``timeline_period`` defaults to ``None`` (no timeline sampling),
    matching the executor's request path bit-for-bit; pass a period when
    the caller consumes ``result.timeline`` (e.g. the energy model).
    """
    target = registry.get(target_name)
    if iterations_scale != 1.0:
        target = scale_program(target, iterations_scale)
    machine = SimMachine(
        topology=topology,
        availability=scenario.availability(topology, seed=seed),
    )
    jobs = [JobSpec(
        program=target,
        policy=policy,
        job_id="target",
        is_target=True,
        affinity=target_affinity,
    )]
    if workload_set is not None:
        for index, program in enumerate(workload_set.programs()):
            if iterations_scale != 1.0:
                program = scale_program(program, iterations_scale)
            jobs.append(JobSpec(
                program=program,
                policy=workload_policy_factory(),
                job_id=f"w{index}-{program.name}",
                restart=True,
                affinity=workload_affinity,
            ))
    engine = CoExecutionEngine(
        machine=machine, jobs=jobs, dt=dt, max_time=max_time,
        stepping=stepping, timeline_period=timeline_period,
    )
    result = engine.run()
    if result.target_time is None:
        raise RuntimeError(
            f"run timed out: {target_name} / {policy.name} / "
            f"{scenario.name}"
        )
    return RunOutcome(
        target=target_name,
        policy=policy.name,
        target_time=result.target_time,
        workload_throughput=result.workload_throughput,
        result=result,
    )


@dataclass
class PolicyComparison:
    """One target's results across all policies in one scenario.

    ``speedups`` are vs the default policy, harmonically averaged over
    (workload set x repetition) configurations, matching the paper's
    averaging ("All results are averaged over these different benchmark
    sets", hmean per Section 7).
    """

    target: str
    scenario: str
    speedups: Dict[str, float]
    times: Dict[str, float]
    workload_gains: Dict[str, float]
    #: Raw per-configuration outcomes, keyed by policy name.
    outcomes: Dict[str, List[RunOutcome]] = field(default_factory=dict)
    #: Fault-tolerance account of the executor invocation that produced
    #: this comparison (retries, pool rebuilds, quarantines …); ``None``
    #: for comparisons assembled outside the executor path.
    failure_report: Optional[FailureReport] = None


def _scenario_sets(scenario: Scenario) -> Tuple[Optional[WorkloadSet], ...]:
    if scenario.workload_size is None:
        return (None,)
    return workload_sets(scenario.workload_size)


def _comparison_requests(
    target_name: str,
    scenario: Scenario,
    specs: Dict[str, PolicySpec],
    seeds: Sequence[int],
    topology: Topology,
    iterations_scale: float,
    target_affinity: Optional[AffinityPolicy],
    workload_affinity: Optional[AffinityPolicy],
    max_time: float,
) -> List[RunRequest]:
    """The request batch for one comparison, in sets x seeds x policies
    order (the same workload/seed configuration for every policy, per the
    paper's protocol)."""
    workload_policy = PolicySpec.of(DefaultPolicy, label="default")
    requests: List[RunRequest] = []
    for workload_set in _scenario_sets(scenario):
        workload = (
            WorkloadSpec.from_set(workload_set, workload_policy)
            if workload_set is not None else None
        )
        for seed in seeds:
            for spec in specs.values():
                requests.append(RunRequest(
                    target=target_name,
                    policy=spec,
                    scenario=scenario,
                    workload=workload,
                    seed=seed,
                    topology=topology,
                    iterations_scale=iterations_scale,
                    max_time=max_time,
                    target_affinity=target_affinity,
                    workload_affinity=workload_affinity,
                ))
    return requests


def _assemble_comparison(
    target_name: str,
    scenario: Scenario,
    policy_names: Sequence[str],
    summaries: Sequence[RunSummary],
) -> PolicyComparison:
    """Fold one comparison's summaries (sets x seeds x policies order)
    back into the per-policy outcome lists and figure statistics."""
    outcomes: Dict[str, List[RunOutcome]] = {name: [] for name in policy_names}
    for index, summary in enumerate(summaries):
        name = policy_names[index % len(policy_names)]
        outcomes[name].append(RunOutcome(
            target=target_name,
            policy=summary.policy,
            target_time=summary.target_time,
            workload_throughput=summary.workload_throughput,
        ))

    policies = policy_names
    configs = range(len(outcomes["default"]))
    speedups = {}
    times = {}
    workload_gains = {}
    for name in policies:
        per_config = [
            outcomes["default"][i].target_time
            / outcomes[name][i].target_time
            for i in configs
        ]
        speedups[name] = harmonic_mean(per_config)
        times[name] = sum(o.target_time for o in outcomes[name]) / len(
            outcomes[name]
        )
        gains = []
        for i in configs:
            base = outcomes["default"][i].workload_throughput
            ours = outcomes[name][i].workload_throughput
            if base > 0 and ours > 0:
                gains.append(ours / base)
        workload_gains[name] = (
            harmonic_mean(gains) if gains else 1.0
        )
    return PolicyComparison(
        target=target_name,
        scenario=scenario.name,
        speedups=speedups,
        times=times,
        workload_gains=workload_gains,
        outcomes=outcomes,
    )


def compare_policies(
    target_name: str,
    scenario: Scenario,
    policies: Dict[str, PolicyFactory],
    seeds: Sequence[int] = (0, 1),
    topology: Topology = XEON_L7555,
    iterations_scale: float = 1.0,
    target_affinity: Optional[AffinityPolicy] = None,
    workload_affinity: Optional[AffinityPolicy] = None,
    max_time: float = 3600.0,
    executor: Optional[Executor] = None,
    jobs: Optional[int] = None,
) -> PolicyComparison:
    """Evaluate all policies on one target in one scenario.

    Runs go through the :mod:`repro.exec` layer: spread over the
    executor's worker pool (``jobs``/``REPRO_JOBS``; default serial)
    and memoised on disk, while keeping the paper's protocol —
    identical workload sets, seeds and availability schedules across
    policies.
    """
    if "default" not in policies:
        raise ValueError("policies must include the 'default' baseline")
    if executor is None:
        executor = Executor(jobs=resolve_jobs(jobs))
    specs = {
        name: PolicySpec.of(factory, label=name)
        for name, factory in policies.items()
    }
    requests = _comparison_requests(
        target_name, scenario, specs, seeds, topology,
        iterations_scale, target_affinity, workload_affinity, max_time,
    )
    summaries = executor.run(requests)
    comparison = _assemble_comparison(
        target_name, scenario, list(specs), summaries,
    )
    comparison.failure_report = executor.last_report
    return comparison


@dataclass
class ScenarioTable:
    """Per-benchmark speedups plus the hmean row (one paper figure)."""

    scenario: str
    rows: List[PolicyComparison]
    #: Fault-tolerance account of the whole batch (see
    #: :class:`repro.exec.FailureReport`); ``None`` outside the
    #: executor path.
    failure_report: Optional[FailureReport] = None

    def policies(self) -> List[str]:
        return list(self.rows[0].speedups) if self.rows else []

    def hmean(self) -> Dict[str, float]:
        return {
            name: harmonic_mean([row.speedups[name] for row in self.rows])
            for name in self.policies()
        }

    def workload_hmean(self) -> Dict[str, float]:
        return {
            name: harmonic_mean(
                [row.workload_gains[name] for row in self.rows]
            )
            for name in self.policies()
        }

    def format(self) -> str:
        """Render the table the way the figures print it."""
        names = self.policies()
        header = f"{'benchmark':14s}" + "".join(
            f"{n:>11s}" for n in names
        )
        lines = [f"== scenario: {self.scenario} ==", header]
        for row in self.rows:
            lines.append(
                f"{row.target:14s}"
                + "".join(f"{row.speedups[n]:11.2f}" for n in names)
            )
        hm = self.hmean()
        lines.append(
            f"{'hmean':14s}" + "".join(f"{hm[n]:11.2f}" for n in names)
        )
        if self.failure_report is not None and not (
            self.failure_report.clean
        ):
            lines.append(f"[faults: {self.failure_report.summary()}]")
        return "\n".join(lines)


def evaluate_scenario(
    scenario: Scenario,
    targets: Sequence[str],
    policies: Optional[Dict[str, PolicyFactory]] = None,
    seeds: Sequence[int] = (0, 1),
    iterations_scale: float = 1.0,
    topology: Topology = XEON_L7555,
    executor: Optional[Executor] = None,
    jobs: Optional[int] = None,
) -> ScenarioTable:
    """One full per-benchmark figure (Figures 7, 9-12).

    All targets' runs are submitted as a single list so the worker pool
    stays saturated across row boundaries.
    """
    if policies is None:
        policies = standard_policies()
    if "default" not in policies:
        raise ValueError("policies must include the 'default' baseline")
    if executor is None:
        executor = Executor(jobs=resolve_jobs(jobs))
    specs = {
        name: PolicySpec.of(factory, label=name)
        for name, factory in policies.items()
    }
    requests: List[RunRequest] = []
    for target in targets:
        requests.extend(_comparison_requests(
            target, scenario, specs, seeds, topology,
            iterations_scale, None, None, 3600.0,
        ))
    summaries = executor.run(requests)
    chunk = len(_scenario_sets(scenario)) * len(seeds) * len(specs)
    rows = [
        _assemble_comparison(
            target, scenario, list(specs),
            summaries[i * chunk:(i + 1) * chunk],
        )
        for i, target in enumerate(targets)
    ]
    return ScenarioTable(
        scenario=scenario.name,
        rows=rows,
        failure_report=executor.last_report,
    )
