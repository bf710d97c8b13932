"""RunRequest construction, fingerprints and in-process execution."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.policies import DefaultPolicy
from repro.exec import PolicySpec, RunRequest, WorkloadSpec, execute_request
from repro.exec import request as request_mod
from repro.experiments.scenarios import LARGE_HIGH, SMALL_LOW, Scenario
from repro.machine.affinity import CompactAffinity, NoAffinity, ScatterAffinity
from repro.machine.topology import TWELVE_CORE, XEON_L7555
from repro.workload.spec import workload_sets

SCALE = 0.05


def tiny_request(**overrides) -> RunRequest:
    base = dict(
        target="cg",
        policy=PolicySpec.fixed(8),
        iterations_scale=SCALE,
    )
    base.update(overrides)
    return RunRequest(**base)


class TestPolicySpec:
    def test_fixed_has_stable_token(self):
        assert PolicySpec.fixed(8).token == "fixed:8"
        assert PolicySpec.fixed(8) == PolicySpec.fixed(8)
        assert PolicySpec.fixed(8).token != PolicySpec.fixed(4).token

    def test_of_derives_label_and_token(self):
        spec = PolicySpec.of(DefaultPolicy)
        assert spec.label == "DefaultPolicy"
        assert spec.token is not None

    def test_of_passes_specs_through(self):
        spec = PolicySpec.fixed(8)
        assert PolicySpec.of(spec) is spec
        relabelled = PolicySpec.of(spec, label="baseline")
        assert relabelled.label == "baseline"
        assert relabelled.token == spec.token

    def test_of_token_is_deterministic(self):
        assert (
            PolicySpec.of(DefaultPolicy).token
            == PolicySpec.of(DefaultPolicy).token
        )

    def test_unpicklable_factory_gets_no_token(self):
        spec = PolicySpec.of(lambda: DefaultPolicy(), label="local")
        # cloudpickle serialises lambdas, so the token exists ...
        assert spec.token is not None
        # ... but a genuinely unpicklable object falls back to None.
        class Hostile:
            def __reduce__(self):
                raise TypeError("nope")

            def __call__(self):  # pragma: no cover - never built
                return DefaultPolicy()

        hostile = Hostile()
        with pytest.warns(UserWarning, match="cannot be pickled") as caught:
            assert PolicySpec.of(hostile, label="hostile").token is None
            # Warned once per distinct factory, not once per request.
            PolicySpec.of(hostile, label="hostile")
        assert len(
            [w for w in caught if "cannot be pickled" in str(w.message)]
        ) == 1

    def test_build_returns_fresh_instances(self):
        spec = PolicySpec.of(DefaultPolicy)
        assert spec.build() is not spec.build()


class TestFingerprint:
    def test_stable_for_equal_requests(self):
        assert tiny_request().fingerprint() == tiny_request().fingerprint()

    def test_sensitive_to_every_field(self):
        base = tiny_request().fingerprint()
        variants = [
            tiny_request(target="ep"),
            tiny_request(policy=PolicySpec.fixed(4)),
            tiny_request(seed=1),
            tiny_request(iterations_scale=SCALE * 2),
            tiny_request(dt=0.2),
            tiny_request(max_time=1800.0),
            tiny_request(processors=8),
            tiny_request(record=True),
            tiny_request(scenario=SMALL_LOW),
            tiny_request(workload=WorkloadSpec.from_set(
                workload_sets("small")[0], PolicySpec.fixed(4),
            )),
        ]
        prints = [v.fingerprint() for v in variants]
        assert base not in prints
        assert len(set(prints)) == len(prints)

    def test_untokened_policy_is_unfingerprintable(self):
        spec = dataclasses.replace(PolicySpec.fixed(8), token=None)
        assert tiny_request(policy=spec).fingerprint() is None

    def test_simulator_fingerprint_included(self, monkeypatch):
        before = tiny_request().fingerprint()
        monkeypatch.setattr(
            "repro.core.training.simulator_fingerprint", lambda: "other",
        )
        assert tiny_request().fingerprint() != before


def golden_requests() -> dict:
    """One request per fingerprinted field group, built fresh per call."""
    small = WorkloadSpec.from_set(workload_sets("small")[0],
                                  PolicySpec.fixed(4))
    burst = dataclasses.replace(
        WorkloadSpec.from_set(workload_sets("large")[0],
                              PolicySpec.fixed(2)),
        start_times=(0.0, 2.5), restart=False,
    )
    return {
        "static": tiny_request(),
        "scenario_workload": tiny_request(
            scenario=SMALL_LOW, seed=3, workload=small),
        "topology_affinities": tiny_request(
            topology=TWELVE_CORE, target_affinity=CompactAffinity(),
            workload_affinity=ScatterAffinity(), processors=8),
        "burst_record": tiny_request(
            scenario=LARGE_HIGH, record=True, workload=burst),
        "llc_zero": tiny_request(
            topology=dataclasses.replace(XEON_L7555, llc_mb=0.0)),
        "llc_negzero": tiny_request(
            topology=dataclasses.replace(XEON_L7555, llc_mb=-0.0)),
        "penalty_negzero": tiny_request(
            target_affinity=NoAffinity(cross_socket_penalty=-0.0)),
    }


#: Fingerprints of :func:`golden_requests`.  A change here orphans every
#: cached run: change these only together with ``RUN_FORMAT_VERSION`` or
#: the simulator calibration.
GOLDEN = {
    "static":
        "98cddf6f8bb8431e046a2a3631f255991a79719d380f01ccb168ca62ee6d809e",
    "scenario_workload":
        "b001e4054493ee9a1056f5df9919880f0a8e7d4ab91ffb7a858b077d1d3f4e9c",
    "topology_affinities":
        "8b50d2f58088d6679cd3516bf24f3c022f4359bd9032ee41e651670b3243bac1",
    "burst_record":
        "b5b854ff651cf8a06c0ec0dc18098e0a08eb69eca243103f09305f03824367b5",
    "llc_zero":
        "4e921e6262f629821c07d21f38b174375539e9f38f04d72df0fafb2a69a53c5c",
    "llc_negzero":
        "0f47b32aef4173474b1ea77d201cd4d9e2546b0ae53da7fcfb5d9561095d9dbd",
    "penalty_negzero":
        "a59c4de3dcb13552bc13893998a85f855b520f15109bad111e58469727f6f7fb",
}


class TestGoldenFingerprint:
    def test_pinned_values(self):
        prints = {name: request.fingerprint()
                  for name, request in golden_requests().items()}
        assert prints == GOLDEN

    def test_pinned_values_in_reverse_order(self):
        # -0.0 == 0.0 and they hash alike, so a value-keyed repr memo
        # would hand the second topology the first one's repr.
        requests = golden_requests()
        for name in reversed(list(requests)):
            assert requests[name].fingerprint() == GOLDEN[name], name

    def test_equal_distinct_scenarios_agree(self):
        twin = Scenario("small-low", "small", "low")
        assert twin == SMALL_LOW and twin is not SMALL_LOW
        request = golden_requests()["scenario_workload"]
        assert (dataclasses.replace(request, scenario=twin).fingerprint()
                == GOLDEN["scenario_workload"])

    def test_replaced_scenario_misses(self):
        request = golden_requests()["scenario_workload"]
        request.fingerprint()
        changed = dataclasses.replace(SMALL_LOW, hw_change="high")
        assert changed.name == SMALL_LOW.name
        assert (dataclasses.replace(request, scenario=changed).fingerprint()
                != GOLDEN["scenario_workload"])

    def test_mutable_scenario_is_never_memoised(self):
        @dataclasses.dataclass
        class Mutable:
            name: str = "m"

        scenario = Mutable()
        before = tiny_request(scenario=scenario).fingerprint()
        scenario.name = "n"
        assert tiny_request(scenario=scenario).fingerprint() != before

    def test_repr_memo_is_bounded(self):
        for index in range(request_mod._REPRS_MAX + 10):
            tiny_request(scenario=Scenario(f"s{index}", None,
                                           "static")).fingerprint()
            assert len(request_mod._REPRS) <= request_mod._REPRS_MAX


class TestExecuteRequest:
    def test_isolated_static_run(self):
        summary = execute_request(tiny_request())
        assert summary.target == "cg"
        assert summary.policy == "fixed-8"
        assert summary.target_time > 0
        assert summary.workload_throughput == 0.0
        assert summary.records == ()

    def test_scenario_with_workload(self):
        request = tiny_request(
            scenario=SMALL_LOW,
            workload=WorkloadSpec.from_set(
                workload_sets("small")[0],
                PolicySpec.of(DefaultPolicy, label="default"),
            ),
        )
        summary = execute_request(request)
        assert summary.workload_throughput > 0
        assert len(summary.workload_runs) == 2

    def test_matches_run_target(self):
        """The request path reproduces run_target bit-for-bit."""
        from repro.core.policies.fixed import FixedPolicy
        from repro.experiments.runner import run_target

        workload_set = workload_sets("small")[0]
        outcome = run_target(
            "cg", FixedPolicy(8), SMALL_LOW,
            workload_set=workload_set, seed=3, iterations_scale=SCALE,
        )
        summary = execute_request(tiny_request(
            scenario=SMALL_LOW,
            workload=WorkloadSpec.from_set(
                workload_set, PolicySpec.of(DefaultPolicy, label="default"),
            ),
            seed=3,
        ))
        assert summary.target_time == outcome.target_time
        assert summary.workload_throughput == outcome.workload_throughput

    def test_record_collects_selections(self):
        summary = execute_request(tiny_request(record=True))
        assert summary.records
        record = summary.records[0]
        assert record.threads == 8
        assert isinstance(record.features, tuple)

    def test_timeout_raises(self):
        with pytest.raises(RuntimeError, match="timed out"):
            execute_request(tiny_request(max_time=0.5))
