"""Experiment runner infrastructure (miniature end-to-end runs)."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import textwrap
from functools import partial
from pathlib import Path

import pytest

from repro.exec import PolicySpec

from repro.core.policies import DefaultPolicy, FixedPolicy, MixturePolicy
from repro.experiments.runner import (
    cgo13_config,
    compare_policies,
    evaluate_scenario,
    mixture_factory,
    run_target,
    standard_policies,
)
from repro.experiments.scenarios import SMALL_LOW, STATIC_ISOLATED

SCALE = 0.08  # very small programs for test speed


@pytest.fixture(scope="module")
def tiny_policies(tiny_bundle):
    """A policy dict like standard_policies, but on the tiny bundle."""
    return {
        "default": DefaultPolicy,
        "fixed8": lambda: FixedPolicy(8),
        "mixture": lambda: MixturePolicy(tiny_bundle.experts),
    }


class TestRunTarget:
    def test_isolated_run(self):
        outcome = run_target(
            "cg", FixedPolicy(8), STATIC_ISOLATED,
            iterations_scale=SCALE,
        )
        assert outcome.target_time > 0
        assert outcome.workload_throughput == 0.0
        assert outcome.policy == "fixed-8"

    def test_with_workload(self):
        from repro.workload.spec import workload_sets

        outcome = run_target(
            "cg", FixedPolicy(8), SMALL_LOW,
            workload_set=workload_sets("small")[0],
            iterations_scale=SCALE,
        )
        assert outcome.workload_throughput > 0
        assert len(outcome.result.workload_runs) == 2

    def test_deterministic(self):
        times = [
            run_target("cg", FixedPolicy(8), SMALL_LOW,
                       workload_set=None, seed=3,
                       iterations_scale=SCALE).target_time
            for _ in range(2)
        ]
        assert times[0] == times[1]


class TestComparePolicies:
    def test_speedups_relative_to_default(self, tiny_policies):
        comparison = compare_policies(
            "cg", STATIC_ISOLATED, tiny_policies,
            seeds=(0,), iterations_scale=SCALE,
        )
        assert comparison.speedups["default"] == pytest.approx(1.0)
        assert set(comparison.speedups) == set(tiny_policies)
        assert all(v > 0 for v in comparison.speedups.values())

    def test_requires_default(self, tiny_policies):
        policies = dict(tiny_policies)
        del policies["default"]
        with pytest.raises(ValueError, match="default"):
            compare_policies("cg", STATIC_ISOLATED, policies)

    def test_workload_gains_tracked(self, tiny_policies):
        comparison = compare_policies(
            "cg", SMALL_LOW, tiny_policies,
            seeds=(0,), iterations_scale=SCALE,
        )
        assert all(v > 0 for v in comparison.workload_gains.values())

    def test_outcomes_recorded_per_configuration(self, tiny_policies):
        comparison = compare_policies(
            "cg", SMALL_LOW, tiny_policies,
            seeds=(0, 1), iterations_scale=SCALE,
        )
        # 2 workload sets x 2 seeds.
        assert len(comparison.outcomes["default"]) == 4


class TestEvaluateScenario:
    def test_table_structure(self, tiny_policies):
        table = evaluate_scenario(
            STATIC_ISOLATED, ["cg", "ep"], tiny_policies,
            seeds=(0,), iterations_scale=SCALE,
        )
        assert [row.target for row in table.rows] == ["cg", "ep"]
        hmean = table.hmean()
        assert hmean["default"] == pytest.approx(1.0)
        text = table.format()
        assert "cg" in text and "hmean" in text


class TestFactories:
    def test_mixture_factory_fresh_instances(self, tiny_bundle,
                                             tiny_config):
        factory = mixture_factory(tiny_bundle, tiny_config)
        a, b = factory(), factory()
        assert a is not b
        assert a.selector is not b.selector

    def test_pretrained_state_loaded(self, tiny_bundle, tiny_config):
        factory = mixture_factory(tiny_bundle, tiny_config,
                                  pretrained=True)
        policy = factory()
        import numpy as np
        assert not np.allclose(policy.selector.hyperplanes, 0.0)

    def test_unpretrained_starts_even(self, tiny_bundle, tiny_config):
        factory = mixture_factory(tiny_bundle, tiny_config,
                                  pretrained=False)
        import numpy as np
        assert np.allclose(factory().selector.hyperplanes, 0.0)

    def test_cgo13_config_restrictions(self, tiny_config):
        restricted = cgo13_config(tiny_config)
        assert restricted.platform_names == ("xeon-l7555",)
        assert restricted.availability_levels == (1.0,)

    def test_standard_policies_names(self, tiny_config):
        policies = standard_policies(tiny_config)
        assert set(policies) == {
            "default", "online", "offline", "analytic", "mixture",
        }
        for factory in policies.values():
            policy = factory()
            assert hasattr(policy, "select")


class TestPolicyTokens:
    """``offline`` and ``mixture`` tokens depend on the bundle, not on
    where the source lives."""

    SCRIPT = textwrap.dedent("""
        import json, sys
        from repro.core.training import TrainingConfig
        from repro.exec import PolicySpec
        from repro.experiments.runner import standard_policies

        def tuples(value):
            if isinstance(value, list):
                return tuple(tuples(item) for item in value)
            return value

        fields = json.loads(sys.argv[1])
        config = TrainingConfig(**{k: tuples(v) for k, v in fields.items()})
        policies = standard_policies(config)
        print(json.dumps({name: PolicySpec.of(policies[name]).token
                          for name in ("offline", "mixture")}))
    """)

    def tokens_from(self, src: Path, config) -> dict:
        fields = json.dumps(dataclasses.asdict(config))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, fields],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=300, check=True,
        )
        return json.loads(done.stdout)

    def test_tokens_do_not_depend_on_the_checkout_path(self, tmp_path,
                                                       tiny_config):
        standard_policies(tiny_config)  # train once into the disk cache
        src = Path(__file__).resolve().parents[2] / "src"
        copies = [tmp_path / name / "src" for name in ("a", "elsewhere")]
        for copy in copies:
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns(
                "__pycache__"))
        first, second = (self.tokens_from(c, tiny_config) for c in copies)
        assert first == second
        assert None not in first.values()

    def test_a_different_bundle_changes_the_tokens(self, tiny_bundle,
                                                   tiny_mono, tiny_config):
        policies = standard_policies(tiny_config)
        offline = policies["offline"]
        other_offline = partial(offline.func, tiny_mono.experts[0])
        assert (PolicySpec.of(offline).token
                != PolicySpec.of(other_offline).token)
        mixtures = [mixture_factory(bundle, tiny_config)
                    for bundle in (tiny_bundle, tiny_mono)]
        assert (PolicySpec.of(mixtures[0]).token
                != PolicySpec.of(mixtures[1]).token)
