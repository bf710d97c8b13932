"""The serving loop: admission, deadlines, and the degradation ladder.

The stub-policy tests pin down the loop mechanics deterministically
(shedding by batch position, deadline accounting through an injected
clock, breaker-driven tier walks); the mixture tests then drive the
real three-tier ladder through a chaos window and assert the paper's
deployment story — degrade fast, answer always, recover when the world
does.
"""

from __future__ import annotations

import pytest

from repro.compiler.features import CodeFeatures
from repro.core.policies.base import PolicyContext
from repro.runtime.tracing import ServeTracer
from repro.sched.stats import EnvironmentSample
from repro.serve import (
    BreakerConfig,
    FleetConfig,
    PolicyServer,
    ServeConfig,
    ServeRequest,
    SoakSpec,
    make_request,
    run_fleet_soak,
)
from repro.chaos import SensorFaultSpec


def env_sample(**overrides) -> EnvironmentSample:
    base = dict(
        time=1.0, workload_threads=4.0, processors=16.0, runq_sz=2.0,
        ldavg_1=3.0, ldavg_5=2.5, cached_memory=0.5,
        pages_free_rate=0.25,
    )
    base.update(overrides)
    return EnvironmentSample(**base)


def request(index: int, available: int = 16) -> ServeRequest:
    ctx = PolicyContext(
        time=float(index),
        loop_name="loop",
        code=CodeFeatures(0.1, 0.2, 0.05),
        env=env_sample(processors=float(available)),
        available_processors=available,
        max_threads=32,
    )
    return ServeRequest(index=index, ctx=ctx)


class StubPolicy:
    """Two-tier ladder fodder: answers 4 threads, or fails on demand."""

    name = "stub"

    def __init__(self):
        self.failing = False

    def select(self, ctx: PolicyContext) -> int:
        if self.failing:
            raise RuntimeError("sensor meltdown")
        return 4


class FakeClock:
    """Advances a fixed amount per reading."""

    def __init__(self, step: float):
        self.step = step
        self.now = 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


BREAKER = BreakerConfig(
    trip_threshold=3, cooldown_requests=4, probe_successes=2
)


class TestAdmission:
    def test_overflow_is_shed_explicitly(self):
        server = PolicyServer(
            StubPolicy(), ServeConfig(queue_capacity=3, breaker=BREAKER)
        )
        batch = [request(i) for i in range(5)]
        decisions = server.offer(batch)
        assert [d.shed for d in decisions] == [
            False, False, False, True, True
        ]
        assert [d.threads for d in decisions[:3]] == [4, 4, 4]
        assert all(d.threads is None for d in decisions[3:])
        assert all(d.tier == "shed" for d in decisions[3:])
        report = server.report()
        assert (report.total, report.answered, report.shed) == (5, 3, 2)
        assert report.unanswered == 0

    def test_start_position_offsets_admission(self):
        # A batch resumed mid-burst sheds by its *logical* position,
        # not its position in the replayed batch.
        server = PolicyServer(
            StubPolicy(), ServeConfig(queue_capacity=3, breaker=BREAKER)
        )
        decisions = server.offer(
            [request(i) for i in range(3, 6)], start_position=2
        )
        assert [d.shed for d in decisions] == [False, True, True]


class TestDeadlines:
    def test_slow_tier_fails_over_and_is_ledgered(self):
        # Every clock reading advances 1s against a 0.5s budget: the
        # stub tier blows the deadline, the default tier (exempt, it
        # must answer) serves, and the miss is counted.
        clock = FakeClock(step=1.0)
        server = PolicyServer(
            StubPolicy(),
            ServeConfig(deadline_s=0.5, breaker=BREAKER),
            clock=clock,
        )
        decision = server.serve_one(request(0))
        assert decision.tier == "default"
        assert decision.failure == "deadline"
        assert decision.deadline_missed
        report = server.report()
        assert report.deadline_misses == 1
        assert report.failures == {"deadline": 1}
        assert report.latency["count"] == 1

    def test_fast_decisions_meet_the_deadline(self):
        clock = FakeClock(step=1e-6)
        server = PolicyServer(
            StubPolicy(),
            ServeConfig(deadline_s=0.5, breaker=BREAKER),
            clock=clock,
        )
        decision = server.serve_one(request(0))
        assert decision.tier == "stub"
        assert not decision.deadline_missed
        assert decision.failure is None


class TestDegradationLadder:
    def serve_n(self, server, n, start=0):
        return [server.serve_one(request(start + i)) for i in range(n)]

    def test_trips_to_default_and_recovers(self):
        policy = StubPolicy()
        tracer = ServeTracer()
        server = PolicyServer(
            policy, ServeConfig(breaker=BREAKER), tracer=tracer
        )
        # Healthy: the policy answers.
        assert self.serve_n(server, 2)[0].tier == "stub"
        # Meltdown: after trip_threshold consecutive failures the
        # breaker steps to the default tier; every request is still
        # answered (by the default) meanwhile.
        policy.failing = True
        melted = self.serve_n(server, 4, start=2)
        assert all(d.tier == "default" for d in melted)
        assert all(d.threads == 16 for d in melted)
        assert server.breaker.tier == 1
        assert [t.reason for t in tracer.transitions] == ["trip"]
        assert tracer.transitions[0].request_index == 4
        # Recovery: faults clear, the cooldown passes, probes succeed,
        # and the ladder steps back up.
        policy.failing = False
        self.serve_n(server, BREAKER.cooldown_requests
                     + BREAKER.probe_successes, start=6)
        assert server.breaker.tier == 0
        assert [t.reason for t in tracer.transitions] == ["trip", "probe"]
        assert server.serve_one(request(99)).tier == "stub"
        report = server.report()
        assert (report.trips, report.recoveries) == (1, 1)
        assert report.final_tier == "stub"

    def test_failed_probe_returns_to_lower_tier(self):
        policy = StubPolicy()
        server = PolicyServer(policy, ServeConfig(breaker=BREAKER))
        policy.failing = True
        self.serve_n(server, BREAKER.trip_threshold)
        self.serve_n(server, BREAKER.cooldown_requests, start=3)
        # Still failing when the probe half-opens: back to the default.
        probed = server.serve_one(request(50))
        assert probed.tier == "default"
        assert server.breaker.tier == 1
        assert server.report().probe_failures == 1

    def test_exception_failures_are_categorised(self):
        policy = StubPolicy()
        server = PolicyServer(policy, ServeConfig(breaker=BREAKER))
        policy.failing = True
        decision = server.serve_one(request(0))
        assert decision.failure == "exception"
        assert decision.tier == "default"
        assert server.report().failures["exception"] >= 1


class TestMixtureLadderUnderChaos:
    """The real ladder (mixture → expert → default) under sensor nans,
    served by a single server: a 1-shard inline fleet, one breaker per
    stream (loop name)."""

    @pytest.fixture(scope="class")
    def soak(self, tiny_bundle):
        spec = SoakSpec(
            requests=400,
            sensor=SensorFaultSpec(mode="nan", rate=1.0),
            fault_window=(0.2, 0.5),
        )
        report, decisions, _ = run_fleet_soak(
            spec, tiny_bundle, config=FleetConfig(shards=1),
        )
        streams = {}
        for transition in report.per_shard[0].transitions:
            stream = make_request(spec, transition.request_index)
            streams.setdefault(stream.ctx.loop_name, []).append(transition)
        return spec, report, decisions, streams

    def test_steps_down_within_trip_threshold(self, soak):
        spec, report, _, streams = soak
        fault_start = int(spec.fault_window[0] * spec.requests)
        # The stream's requests interleave, so each stream's
        # trip_threshold-th faulty request arrives within this bound.
        bound = fault_start + len(streams) * BreakerConfig().trip_threshold
        assert len(streams) == 4
        for transitions in streams.values():
            first = transitions[0]
            assert first.reason == "trip"
            assert fault_start <= first.request_index < bound
            # With every request in the window degenerate, each
            # stream's ladder walks all the way down: mixture ->
            # expert -> default.
            trip_targets = [
                t.to_tier for t in transitions if t.reason == "trip"
            ]
            assert trip_targets[:2] == ["expert", "default"]
        assert report.per_shard[0].failures["degenerate-features"] > 0

    def test_every_request_answered_in_range(self, soak):
        spec, report, decisions, _ = soak
        row = report.per_shard[0]
        assert report.total == row.total == spec.requests
        assert report.answered + report.shed == report.total
        assert row.unanswered == 0
        for decision in decisions:
            if not decision.shed:
                assert decision.threads is not None
                assert 1 <= decision.threads <= spec.processors

    def test_recovers_after_faults_clear(self, soak):
        _, report, _, streams = soak
        row = report.per_shard[0]
        # default -> expert -> mixture, on every stream
        assert row.recoveries >= 2 * len(streams)
        for transitions in streams.values():
            assert transitions[-1].to_tier == "mixture"
        assert row.final_tier == "mixture"
        # The mixture is back in charge by the end of the stream.
        assert row.tier_decisions["mixture"] > 0
