"""Dynamic-environment evaluation (Figures 8-12) and the static case
(Figure 7).

Figure 7: every policy on an isolated, static 32-core system.
Figures 9-12: per-benchmark speedups for each of the four dynamic
scenarios.  Figure 8: the cross-scenario summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.training import TrainingConfig
from ..runtime.metrics import harmonic_mean, median
from ..exec import Executor, resolve_jobs
from .runner import (
    PolicyFactory,
    ScenarioTable,
    evaluate_scenario,
    standard_policies,
)
from .scenarios import (
    DYNAMIC_SCENARIOS,
    EVALUATION_TARGETS,
    STATIC_ISOLATED,
    Scenario,
)


def run_static_isolated(
    targets: Sequence[str] = EVALUATION_TARGETS,
    policies: Optional[Dict[str, PolicyFactory]] = None,
    iterations_scale: float = 1.0,
    seeds: Sequence[int] = (0,),
    executor: Optional[Executor] = None,
    jobs: Optional[int] = None,
) -> ScenarioTable:
    """Figure 7: isolated static system."""
    if policies is None:
        policies = standard_policies()
    if executor is None:
        executor = Executor(jobs=resolve_jobs(jobs))
    return evaluate_scenario(
        STATIC_ISOLATED, targets, policies,
        seeds=seeds, iterations_scale=iterations_scale,
        executor=executor,
    )


def run_dynamic_scenario(
    scenario: Scenario,
    targets: Sequence[str] = EVALUATION_TARGETS,
    policies: Optional[Dict[str, PolicyFactory]] = None,
    iterations_scale: float = 1.0,
    seeds: Sequence[int] = (0, 1),
    executor: Optional[Executor] = None,
    jobs: Optional[int] = None,
) -> ScenarioTable:
    """One of Figures 9-12."""
    if policies is None:
        policies = standard_policies()
    if executor is None:
        executor = Executor(jobs=resolve_jobs(jobs))
    return evaluate_scenario(
        scenario, targets, policies,
        seeds=seeds, iterations_scale=iterations_scale,
        executor=executor,
    )


@dataclass
class DynamicSummary:
    """Figure 8: summary across the four dynamic scenarios."""

    tables: Dict[str, ScenarioTable]

    def scenario_hmeans(self) -> Dict[str, Dict[str, float]]:
        """Per-scenario hmean speedups, keyed scenario -> policy."""
        return {name: table.hmean() for name, table in self.tables.items()}

    def overall(self) -> Dict[str, float]:
        """Overall hmean per policy across scenarios and benchmarks."""
        policies = next(iter(self.tables.values())).policies()
        return {
            policy: harmonic_mean([
                row.speedups[policy]
                for table in self.tables.values()
                for row in table.rows
            ])
            for policy in policies
        }

    def overall_median(self) -> Dict[str, float]:
        """The paper also quotes the median (1.54x for the mixture)."""
        policies = next(iter(self.tables.values())).policies()
        return {
            policy: median([
                row.speedups[policy]
                for table in self.tables.values()
                for row in table.rows
            ])
            for policy in policies
        }

    def format(self) -> str:
        policies = next(iter(self.tables.values())).policies()
        lines = ["== Figure 8: dynamic-environment summary =="]
        header = f"{'scenario':14s}" + "".join(
            f"{p:>11s}" for p in policies
        )
        lines.append(header)
        for name, hm in self.scenario_hmeans().items():
            lines.append(
                f"{name:14s}" + "".join(f"{hm[p]:11.2f}" for p in policies)
            )
        overall = self.overall()
        med = self.overall_median()
        lines.append(
            f"{'overall hmean':14s}"
            + "".join(f"{overall[p]:11.2f}" for p in policies)
        )
        lines.append(
            f"{'overall median':14s}"
            + "".join(f"{med[p]:11.2f}" for p in policies)
        )
        return "\n".join(lines)


def run_dynamic_summary(
    targets: Sequence[str] = EVALUATION_TARGETS,
    policies: Optional[Dict[str, PolicyFactory]] = None,
    iterations_scale: float = 1.0,
    seeds: Sequence[int] = (0, 1),
    scenarios: Sequence[Scenario] = DYNAMIC_SCENARIOS,
    executor: Optional[Executor] = None,
    jobs: Optional[int] = None,
) -> DynamicSummary:
    """Figure 8 (and the underlying Figures 9-12 tables).

    All scenarios share one executor, so the run cache and the
    fault-tolerance settings persist across the four tables.
    """
    if policies is None:
        policies = standard_policies()
    if executor is None:
        executor = Executor(jobs=resolve_jobs(jobs))
    tables = {
        scenario.name: run_dynamic_scenario(
            scenario, targets, policies,
            iterations_scale=iterations_scale, seeds=seeds,
            executor=executor,
        )
        for scenario in scenarios
    }
    return DynamicSummary(tables=tables)
