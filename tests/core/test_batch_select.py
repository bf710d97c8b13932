"""Bit-identity of the decision kernel vs the scalar reference.

The serving fleet plans every micro-batch through
``MixturePolicy.plan_batch``; every assertion here is exact (``==`` on
floats, no tolerances): the kernel batches only elementwise work and the
per-row mean and keeps every dot product per (row, expert), so a single
differing ulp is a bug, not noise.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.determinism import StateDigest
from repro.compiler.features import CodeFeatures
from repro.core.features import (
    ENV_OFFSET,
    NUM_FEATURES,
    feature_matrix,
    sanitize_features,
    sanitize_features_batch,
)
from repro.core.hierarchical import HierarchicalSelector
from repro.core.policies import MixturePolicy
from repro.core.policies.base import PolicyContext
from repro.core.selector import HyperplaneSelector
from repro.sched.stats import EnvironmentSample

BATCH = 32


def feature_rows(rng, count=BATCH, poison_every=0):
    rows = rng.normal(size=(count, NUM_FEATURES)) * 10.0
    if poison_every:
        for i in range(0, count, poison_every):
            rows[i, int(rng.integers(NUM_FEATURES))] = math.nan
    return rows


def make_ctx(time=0.0, workload=8.0, available=32, max_threads=32,
             code=None):
    env = EnvironmentSample(
        time=time, workload_threads=workload, processors=float(available),
        runq_sz=workload, ldavg_1=workload, ldavg_5=workload,
        cached_memory=8.0, pages_free_rate=1.0,
    )
    return PolicyContext(
        time=time,
        loop_name="loop",
        code=code or CodeFeatures(0.1, 0.3, 0.05),
        env=env,
        available_processors=available,
        max_threads=max_threads,
    )


def ctx_stream(count=BATCH):
    """A varied context stream with degenerate and NaN-norm entries."""
    ctxs = []
    for t in range(count):
        workload = 4.0 + 3.0 * (t % 7)
        code = CodeFeatures(0.1 + 0.01 * (t % 5), 0.3, 0.05)
        if t % 11 == 5:
            # NaN code feature: degenerate features, finite env norm.
            code = CodeFeatures(math.nan, 0.3, 0.05)
        if t % 13 == 7:
            # NaN env field: degenerate features AND NaN observation.
            workload = math.nan
        ctxs.append(make_ctx(
            time=float(t), workload=workload,
            available=16 if t % 3 else 32, code=code,
        ))
    return ctxs


class TestSanitizeBatch:
    def test_matches_scalar_rows(self):
        rng = np.random.default_rng(0)
        rows = feature_rows(rng, poison_every=5)
        clean, degenerate = sanitize_features_batch(rows)
        for i in range(len(rows)):
            ref, ref_degenerate = sanitize_features(rows[i])
            assert bool(degenerate[i]) == ref_degenerate
            assert np.array_equal(clean[i], ref)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            sanitize_features_batch(np.zeros(NUM_FEATURES))


def kernel_rows(rng, count):
    """Rows inside, beside and far outside the envelopes, with NaN and
    ±inf entries sprinkled in."""
    rows = rng.normal(size=(count, NUM_FEATURES)) * 20.0
    rows[::3] *= 50.0
    poisons = (math.nan, math.inf, -math.inf)
    for i in range(1, count, 4):
        rows[i, int(rng.integers(NUM_FEATURES))] = poisons[i % 3]
    return rows


class TestExpertBatch:
    """Every plan cell equals the scalar ``Expert`` method's value."""

    def test_predictions_bit_identical(self, tiny_bundle):
        experts = list(tiny_bundle.experts)
        experts.append(experts[0].without_envelope())
        policy = MixturePolicy(experts)
        for count in (1, 2, 8, 9, 32):
            rng = np.random.default_rng(count)
            rows = kernel_rows(rng, count)
            limits = rng.integers(1, 48, size=count)
            plan = policy.plan_batch(rows, limits)
            for i, row in enumerate(rows):
                clean, degenerate = sanitize_features(row)
                norms, threads, distances = plan.rows[i]
                assert plan.degenerate[i] == degenerate
                assert np.array_equal(plan.features[i], clean)
                assert norms == tuple(
                    e.predict_env_norm(clean) for e in experts
                )
                assert threads == tuple(
                    e.predict_threads(clean, int(limits[i]))
                    for e in experts
                )
                assert distances == tuple(
                    e.domain_distance(clean) for e in experts
                )

    def test_without_envelope(self, tiny_bundle):
        expert = tiny_bundle.experts[0].without_envelope()
        rows = kernel_rows(np.random.default_rng(2), BATCH)
        plan = MixturePolicy([expert]).plan_batch(rows, 32)
        for i, row in enumerate(rows):
            clean, _ = sanitize_features(row)
            norms, _, distances = plan.rows[i]
            assert distances == (0.0,)
            assert norms == (expert.predict_env_norm(clean),)

    def test_scalar_max_threads_broadcasts(self, tiny_bundle):
        rows = kernel_rows(np.random.default_rng(3), BATCH)
        plan = MixturePolicy(tiny_bundle.experts).plan_batch(rows, 16)
        for i, row in enumerate(rows):
            clean, _ = sanitize_features(row)
            assert plan.rows[i][1] == tuple(
                e.predict_threads(clean, 16) for e in tiny_bundle.experts
            )


def trained_selector(factory, rng, steps=60):
    selector = factory()
    for _ in range(steps):
        errors = [float(v) for v in rng.uniform(0.5, 5.0,
                                                selector.num_experts)]
        selector.update(rng.normal(size=NUM_FEATURES) * 10.0, errors)
    return selector


class RecordingSink:
    def __init__(self):
        self.records = []

    def record_update(self, features, errors):
        self.records.append(
            ("update", [float(v) for v in features],
             [float(e) for e in errors])
        )

    def record_select(self, features):
        self.records.append(("select", [float(v) for v in features]))


class ReferenceGate:
    """The selector's choice rule as it stood before the list form:
    numpy ``max`` + ``flatnonzero`` over a freshly computed std."""

    def __init__(self, state):
        self.V, self.b = state["V"], state["b"]
        self.count = state["norm_count"]
        self.mean, self.m2 = state["norm_mean"], state["norm_m2"]
        self.tie = state["tie_breaker"]

    def choose(self, row):
        features = np.where(np.isfinite(row), row, 0.0)
        if self.count < 2:
            x = np.zeros_like(features)
        else:
            std = np.sqrt(self.m2 / (self.count - 1))
            std = np.where(std < 1e-9, 1.0, std)
            x = (features - self.mean) / std
        scores = self.V @ x + self.b
        best = float(scores.max())
        contenders = np.flatnonzero(scores >= best - 1e-12)
        if len(contenders) == 1:
            return int(contenders[0])
        choice = int(contenders[self.tie % len(contenders)])
        self.tie += 1
        return choice


class TestHyperplaneSelectBatch:
    """The list-based choice and the cached std pick what the numpy
    reference picks, row after row."""

    def test_trained_selector(self):
        rng = np.random.default_rng(4)
        selector = trained_selector(
            lambda: HyperplaneSelector(num_experts=3, dim=NUM_FEATURES),
            rng,
        )
        reference = ReferenceGate(selector.export_state())
        sink = RecordingSink()
        selector.attach_journal(sink)
        rows = feature_rows(np.random.default_rng(5), poison_every=7)
        for row in rows:
            assert selector.select(row) == reference.choose(row)
        assert selector._tie_breaker == reference.tie
        assert sink.records == [
            ("select", [float(v) for v in sanitize_features(row)[0]])
            for row in rows
        ]

    def test_tie_breaker_advances_identically(self):
        # A fresh selector scores everything 0: every row is a tie, so
        # the round-robin phase advances once per row.
        selector = HyperplaneSelector(num_experts=4, dim=NUM_FEATURES)
        reference = ReferenceGate(selector.export_state())
        rows = np.zeros((BATCH, NUM_FEATURES))
        assert [selector.select(row) for row in rows] == [
            reference.choose(row) for row in rows
        ]
        assert selector._tie_breaker == reference.tie == BATCH

    def test_update_learns_toward_the_first_minimum(self):
        # A fresh selector predicts expert 0; of the tied best errors
        # the pull goes to the lower index, as np.argmin picks it.
        selector = HyperplaneSelector(num_experts=3, dim=NUM_FEATURES)
        errors = [9.0, 1.0, 1.0]
        assert selector.update(np.ones(NUM_FEATURES), errors)
        assert selector.export_state()["b"].tolist() == [-0.5, 0.5, 0.0]
        assert int(np.argmin(errors)) == 1


class TestHierarchicalSelectBatch:
    """The two-level gate composes its gates' choices row by row."""

    def check(self, gate, rows):
        state = gate.export_state()
        top = ReferenceGate(state["top"])
        inner = [ReferenceGate(s) for s in state["inner"]]
        groups = gate.groups
        for row in rows:
            group = top.choose(row)
            expected = groups[group][inner[group].choose(row)]
            assert gate.select(row) == expected

    def test_trained_gate(self):
        gate = trained_selector(
            lambda: HierarchicalSelector(
                groups=[[0, 1], [2, 3], [4]], dim=NUM_FEATURES
            ),
            np.random.default_rng(6),
        )
        self.check(gate, feature_rows(np.random.default_rng(7),
                                      poison_every=9))

    def test_fresh_gate_round_robin(self):
        gate = HierarchicalSelector(groups=[[0, 1], [2]], dim=NUM_FEATURES)
        self.check(gate, np.zeros((BATCH, NUM_FEATURES)))
        assert gate.stats.selections[:4] == [0, 2, 1, 2]


def assert_same_decisions(policy_a, policy_b):
    assert len(policy_a.decisions) == len(policy_b.decisions)
    for left, right in zip(policy_a.decisions, policy_b.decisions):
        assert left == right  # dataclass ==: exact floats, exact ints


def random_contexts(rng, count):
    """Contexts over many magnitudes, with faulty-sensor rows: NaN,
    +inf and -inf in environment fields, NaN in code fields, and
    integer-valued fields."""
    values = rng.normal(size=(count, NUM_FEATURES)) * 10.0 ** rng.integers(
        -6, 7, size=(count, NUM_FEATURES))
    faults = (math.nan, math.inf, -math.inf)
    for i in range(0, count, 7):
        values[i, int(rng.integers(ENV_OFFSET, NUM_FEATURES))] = \
            faults[i % 3]
    for i in range(3, count, 29):
        values[i, int(rng.integers(ENV_OFFSET))] = math.nan
    for i in range(5, count, 31):
        values[i] = 0.0
    ctxs = []
    for i, row in enumerate(values.tolist()):
        if i % 17 == 1:
            row[ENV_OFFSET] = i % 64
        ctxs.append(PolicyContext(
            time=float(i), loop_name="loop",
            code=CodeFeatures(*row[:ENV_OFFSET]),
            env=EnvironmentSample(float(i), *row[ENV_OFFSET:]),
            available_processors=16, max_threads=32,
        ))
    return ctxs


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestColumnarIntake:
    """The shard intake's one-call matrix and batched ‖e‖ reduce equal
    the per-context reference bit for bit (``==``, NaN rows included)."""

    def test_feature_matrix_equals_stacked_feature_vectors(self):
        ctxs = random_contexts(np.random.default_rng(3), 20_000)
        matrix = feature_matrix(ctxs)
        reference = np.stack([ctx.feature_vector() for ctx in ctxs])
        assert matrix.shape == reference.shape
        assert matrix.dtype == reference.dtype
        assert np.array_equal(matrix, reference, equal_nan=True)
        assert matrix.tobytes() == reference.tobytes()
        assert feature_matrix([]).shape == (0, NUM_FEATURES)

    def test_plan_norms_equal_env_norm(self, tiny_bundle):
        policy = MixturePolicy(tiny_bundle.experts)
        ctxs = random_contexts(np.random.default_rng(4), 20_000)
        plan = policy.plan_batch(feature_matrix(ctxs), 32)
        norms = [ctx.env.norm for ctx in ctxs]
        assert sum(math.isnan(n) for n in norms) > 100
        assert sum(math.isinf(n) for n in norms) > 100
        assert len(plan.observed) == len(norms)
        mismatched = [i for i, (a, b) in enumerate(zip(plan.observed, norms))
                      if not same_float(a, b)]
        assert mismatched == []

    def test_decoded_ring_block_rebuilds_the_same_matrix(self):
        from repro.serve.fleet import decode_requests, encode_requests
        from repro.serve.server import ServeRequest

        ctxs = random_contexts(np.random.default_rng(5), 500)
        pairs = [(f"s{i % 3}", ServeRequest(index=i, ctx=ctx))
                 for i, ctx in enumerate(ctxs)]
        position, decoded = decode_requests(*encode_requests(pairs, 7))
        assert position == 7
        assert [(s, r.index) for s, r in decoded] == \
            [(s, r.index) for s, r in pairs]
        assert feature_matrix([r.ctx for _, r in decoded]).tobytes() == \
            feature_matrix(ctxs).tobytes()
        for (_, got), want in zip(decoded, ctxs):
            assert (got.ctx.time, got.ctx.loop_name,
                    got.ctx.available_processors, got.ctx.max_threads) == \
                (want.time, want.loop_name, want.available_processors,
                 want.max_threads)
            assert same_float(got.ctx.env.norm, want.env.norm)


class TestMixtureSelectBatch:
    def test_bit_identical_to_scalar_loop(self, tiny_bundle):
        batched = MixturePolicy(tiny_bundle.experts)
        scalar = MixturePolicy(tiny_bundle.experts)
        ctxs = ctx_stream()
        threads = batched.select_batch(ctxs)
        reference = [scalar.select(ctx) for ctx in ctxs]
        assert threads == reference
        assert batched.fallback_count == scalar.fallback_count
        assert_same_decisions(batched, scalar)
        state_a = batched.export_online_state()
        state_b = scalar.export_online_state()
        for key in state_a["selector"]:
            assert np.array_equal(
                state_a["selector"][key], state_b["selector"][key]
            ), key
        assert state_a["pending_features"] == state_b["pending_features"]

    def test_carries_pending_across_batches(self, tiny_bundle):
        batched = MixturePolicy(tiny_bundle.experts)
        scalar = MixturePolicy(tiny_bundle.experts)
        ctxs = ctx_stream(3 * BATCH)
        threads = []
        for start in range(0, len(ctxs), BATCH):
            threads.extend(batched.select_batch(ctxs[start:start + BATCH]))
        reference = [scalar.select(ctx) for ctx in ctxs]
        assert threads == reference
        assert_same_decisions(batched, scalar)

    def test_scalar_pending_scored_by_planned_path(self, tiny_bundle):
        # A pending created by select must be scored identically by
        # the batch path.
        batched = MixturePolicy(tiny_bundle.experts)
        scalar = MixturePolicy(tiny_bundle.experts)
        ctxs = ctx_stream()
        batched.select(ctxs[0])
        scalar.select(ctxs[0])
        assert batched.select_batch(ctxs[1:]) == [
            scalar.select(ctx) for ctx in ctxs[1:]
        ]
        assert_same_decisions(batched, scalar)

    def test_online_experts_fall_back_to_scalar(self, tiny_bundle):
        class OnlineExpert:
            name = "online"

            def __init__(self, inner):
                self.inner = inner
                self.observations = []

            def record_observation(self, features, norm):
                self.observations.append(norm)

            def __getattr__(self, attribute):
                return getattr(self.inner, attribute)

        experts = [OnlineExpert(e) for e in tiny_bundle.experts]
        policy = MixturePolicy(experts)
        assert policy.plan_batch(
            np.zeros((BATCH, NUM_FEATURES)), 32
        ) is None
        threads = policy.select_batch(ctx_stream(12))
        assert len(threads) == 12
        assert experts[0].observations  # scalar path fed the expert

    def test_digest_cross_check(self, tiny_bundle):
        # The REPRO_SANITIZE-style check: folding both decision streams
        # into a rolling digest must produce the same hex.
        digests = []
        for use_batch in (False, True):
            policy = MixturePolicy(tiny_bundle.experts)
            ctxs = ctx_stream(2 * BATCH)
            if use_batch:
                threads = policy.select_batch(ctxs)
            else:
                threads = [policy.select(ctx) for ctx in ctxs]
            digest = StateDigest()
            for index, decision in enumerate(policy.decisions):
                digest.fold("decision", {
                    "index": index,
                    "expert": decision.expert_index,
                    "threads": decision.threads,
                    "predicted_norms": list(decision.predicted_norms),
                    "observed": decision.observed_next_norm,
                })
            digest.fold("threads", list(threads))
            digest.fold("fallbacks", policy.fallback_count)
            digests.append(digest.hexdigest())
        assert digests[0] == digests[1]
