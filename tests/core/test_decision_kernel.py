"""The decision kernel end to end: batch size never changes a served
decision, and pools the kernel does not plan decide as they always did.

Per-cell checks of ``MixturePolicy.plan_batch`` against the scalar
``Expert`` methods live in ``test_batch_select.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.determinism import StateDigest
from repro.chaos import SensorFaultSpec
from repro.compiler.features import CodeFeatures
from repro.core.expert import train_expert
from repro.core.nonlinear import train_nonlinear_expert
from repro.core.policies import MixturePolicy
from repro.core.policies.base import PolicyContext
from repro.core.retrofit import RetrofitExpert
from repro.sched.stats import EnvironmentSample
from repro.serve import PolicyServer, SoakSpec, make_request
from repro.serve.soak import build_policy
from tests.core.test_expert import make_samples


def served_decisions(bundle, requests, batch_size, state_dir):
    # A frozen clock: no decision can miss its deadline, so the tiers
    # depend on the inputs alone.
    server = PolicyServer(build_policy(bundle), state_dir=state_dir,
                          clock=lambda: 0.0)
    decisions = []
    for start in range(0, len(requests), batch_size):
        decisions.extend(
            server.offer_batch(requests[start:start + batch_size])
        )
    digest = StateDigest()
    for decision in decisions:
        digest.fold("decision", [decision.index, decision.threads,
                                 decision.tier, decision.failure])
    state = server.policy.export_online_state()
    digest.fold("selector", {key: np.asarray(value).tolist()
                             for key, value in state["selector"].items()})
    digest.fold("pending", state["pending_features"])
    digest.fold("fallbacks", state["fallback_count"])
    server.close()
    answers = [(d.index, d.threads, d.tier) for d in decisions]
    return answers, digest.hexdigest()


class TestServedBatchSizes:
    def test_batch_size_does_not_change_a_decision(self, tiny_bundle,
                                                   tmp_path):
        spec = SoakSpec(requests=600, seed=3,
                        sensor=SensorFaultSpec("nan", rate=0.3))
        requests = [make_request(spec, i) for i in range(spec.requests)]
        runs = [
            served_decisions(tiny_bundle, requests, size,
                             tmp_path / f"b{size}")
            for size in (1, 7, 32)
        ]
        assert runs[0][0] == runs[1][0] == runs[2][0]
        assert runs[0][1] == runs[1][1] == runs[2][1]


def stream_ctxs(count, seed):
    """Contexts spanning the synthetic training envelopes and beyond,
    with NaN features and NaN observations mixed in."""
    rng = np.random.default_rng(seed)
    ctxs = []
    for t in range(count):
        workload = float(rng.uniform(0.0, 100.0))
        available = int(rng.choice([4, 8, 16, 32, 48]))
        code = CodeFeatures(*(float(v) for v in rng.uniform(0, 0.4, 3)))
        if t % 17 == 5:
            code = CodeFeatures(math.nan, 0.3, 0.05)
        if t % 23 == 11:
            workload = math.nan
        env = EnvironmentSample(
            time=float(t), workload_threads=workload,
            processors=float(available),
            runq_sz=workload + float(rng.uniform(0, 4)),
            ldavg_1=workload * 0.9, ldavg_5=workload * 0.8,
            cached_memory=float(rng.uniform(4, 20)),
            pages_free_rate=float(rng.uniform(0.3, 2.0)),
        )
        ctxs.append(PolicyContext(
            time=float(t), loop_name="loop", code=code, env=env,
            available_processors=available, max_threads=48,
        ))
    return ctxs


def decision_digest(policy, ctxs):
    threads = [policy.select(ctx) for ctx in ctxs]
    digest = StateDigest()
    for decision in policy.decisions:
        digest.fold("decision", [
            decision.expert_index, decision.threads,
            list(decision.predicted_norms),
            list(decision.predicted_threads),
            decision.observed_next_norm,
        ])
    digest.fold("threads", threads)
    digest.fold("fallbacks", policy.fallback_count)
    state = policy.export_online_state()
    digest.fold("selector", {key: np.asarray(value).tolist()
                             for key, value in state["selector"].items()})
    digest.fold("pending", state["pending_features"])
    return digest.hexdigest()


def fair_share(features, max_threads):
    return max(1, round(features[4] - features[3] / 2.0))


class TestMixedPoolDigests:
    """Pools the kernel does not plan keep their per-expert path; these
    digests were recorded before the kernel replaced the twin paths."""

    def test_nonlinear_only_pool(self):
        experts = [
            train_nonlinear_expert(f"NL-{seed}", make_samples(seed=seed),
                                   num_features=40, seed=seed)
            for seed in range(3)
        ]
        assert decision_digest(
            MixturePolicy(experts), stream_ctxs(300, seed=1)
        ) == NONLINEAR_DIGEST

    def test_linear_plus_retrofit_pool(self):
        experts = [
            train_expert(f"E-{seed}", make_samples(seed=seed))
            for seed in range(2)
        ]
        experts.append(RetrofitExpert("E-hand", fair_share, refit_every=20))
        assert decision_digest(
            MixturePolicy(experts), stream_ctxs(300, seed=2)
        ) == RETROFIT_DIGEST


NONLINEAR_DIGEST = (
    "e69d817685d8bb221c5c5e6a666dadc540a80bcc3e6e6f2055eabfbbd1740bee"
)
RETROFIT_DIGEST = (
    "d98788d0db0b0e0b50b18088fc154b291430a625da149117bad3109fca5c70ee"
)
