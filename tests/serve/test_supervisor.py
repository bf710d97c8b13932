"""The supervising fleet controller: heartbeats, budgets, degradation."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.exec.fault import RetryPolicy
from repro.serve.fleet import (
    FleetConfig,
    PolicyFleet,
    ShardLostError,
    _ProcessShard,
)
from repro.serve.soak import (
    SoakSpec,
    _check_fleet_decisions,
    _compare_decisions,
    _compare_stream_states,
    build_policy,
    make_request,
    run_fleet_soak,
)
from repro.serve.supervisor import FleetSupervisor, SupervisorConfig


SPEC = SoakSpec(requests=240, seed=3)


def drive(fleet, start=0, stop=None):
    for index in range(start, stop if stop is not None else SPEC.requests):
        fleet.submit(make_request(SPEC, index))


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="heartbeat"):
            SupervisorConfig(heartbeat_interval_s=0.0)
        with pytest.raises(ValueError, match="exceed"):
            SupervisorConfig(heartbeat_interval_s=2.0,
                             liveness_timeout_s=1.0)
        with pytest.raises(ValueError, match="max_restarts"):
            SupervisorConfig(max_restarts=-1)

    def test_doorbell_timeout_validated(self):
        with pytest.raises(ValueError):
            FleetConfig(doorbell_timeout_s=0.0)


class TestLiveness:
    def test_doorbell_timeout_raises_instead_of_hanging(
            self, tiny_bundle, tmp_path):
        # A wedged shard must surface as ShardLostError at the fleet's
        # deadline (the doorbell timeout when unsupervised), never as
        # a parent hang.
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=1, batch_max=16, ring_slots=2,
                        doorbell_timeout_s=0.3),
            state_root=tmp_path, processes=True,
        )
        try:
            shard = fleet._shards[0]
            os.kill(shard.process.pid, signal.SIGSTOP)
            with pytest.raises(ShardLostError, match="unresponsive") as lost:
                shard.drain_streams([])
            assert lost.value.cause == "unresponsive"
            assert fleet.events.get("heartbeat_timeouts") == 1
        finally:
            os.kill(fleet._shards[0].process.pid, signal.SIGCONT)
            fleet.abort()

    def test_heartbeat_timeout_triggers_failover(self, tiny_bundle,
                                                 tmp_path):
        # A shard that wedges while idle (no decisions in flight) is
        # detected by the heartbeat deadline, failed over, and serving
        # continues losslessly on the replacement.
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=2, batch_max=16, ring_slots=2),
            state_root=tmp_path, processes=True,
        )
        supervisor = FleetSupervisor(
            fleet,
            SupervisorConfig(heartbeat_interval_s=0.05,
                             liveness_timeout_s=0.3),
            sleep=lambda seconds: None,
        )
        drive(fleet, stop=120)
        fleet.drain()
        victim = fleet._shards[0]
        os.kill(victim.process.pid, signal.SIGSTOP)
        # The stopped shard owes the pong of the next ping; the
        # deadline counts from that ping, so keep polling past it.
        deadline = time.monotonic() + 10.0
        while not fleet._failovers and time.monotonic() < deadline:
            fleet.poll()
            time.sleep(0.01)
        assert fleet._failovers == 1
        assert supervisor.restarts.get(0, 0) == 1
        drive(fleet, start=120)
        report = fleet.close()
        assert report.answered + report.recovered == SPEC.requests
        assert report.restarts == 1
        assert report.failover_causes.get("unresponsive") == 1

    def test_an_idle_caller_fails_no_healthy_shard_over(
            self, tiny_bundle, tmp_path):
        # Pings go out only from poll(), so a caller that stays idle
        # past the liveness timeout leaves its shards owing no pong:
        # that silence must not fail a healthy shard over.
        config = FleetConfig(shards=2, batch_max=16, ring_slots=2)
        _, twin_decisions, twin_states = run_fleet_soak(
            SPEC, tiny_bundle, config=config, state_root=tmp_path / "twin",
        )
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle), config,
            state_root=tmp_path / "run", processes=True,
        )
        FleetSupervisor(
            fleet,
            SupervisorConfig(heartbeat_interval_s=0.1,
                             liveness_timeout_s=0.5),
            sleep=lambda seconds: None,
        )
        drive(fleet, stop=SPEC.requests - 40)
        fleet.drain()
        time.sleep(1.0)
        drive(fleet, start=SPEC.requests - 40)
        report = fleet.close()
        assert (report.failovers, report.failover_causes) == (0, {})
        assert report.heartbeat_timeouts == 0
        _check_fleet_decisions(SPEC, fleet.decisions)
        _compare_stream_states(twin_states, fleet.stream_states, "idling")
        _compare_decisions(twin_decisions, fleet.decisions, "idling")


class TestRestartBudget:
    def test_exhausted_budget_evacuates_then_reinstates(
            self, tiny_bundle, tmp_path):
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=2, batch_max=16, ring_slots=2),
            state_root=tmp_path, processes=True,
        )
        supervisor = FleetSupervisor(
            fleet,
            SupervisorConfig(max_restarts=0),
            sleep=lambda seconds: None,
        )
        drive(fleet, stop=120)
        fleet.drain()

        victim = fleet.members[0]
        fleet.kill_shard(victim)
        fleet.poll()  # first dispatch after the kill detects the loss
        drive(fleet, start=120, stop=180)
        # budget 0 → the loss evacuated the member instead of
        # restarting it; the ring re-homed its streams to the survivor
        assert supervisor.evacuated == [victim]
        assert victim not in fleet.members
        assert len(fleet.members) == 1

        plan = supervisor.reinstate(victim)
        assert victim in fleet.members
        assert supervisor.evacuated == []
        assert victim in plan.added
        drive(fleet, start=180)
        report = fleet.close()
        assert report.answered + report.recovered == SPEC.requests
        assert report.evacuations == 1
        assert report.reinstatements == 1

    def test_reinstate_requires_evacuation(self, tiny_bundle, tmp_path):
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=1, batch_max=16),
            state_root=tmp_path,
        )
        supervisor = FleetSupervisor(fleet, sleep=lambda s: None)
        with pytest.raises(ValueError, match="not evacuated"):
            supervisor.reinstate(0)
        fleet.close()

    def test_last_member_is_never_evacuated(self, tiny_bundle,
                                            tmp_path):
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=1, batch_max=16),
            state_root=tmp_path,
        )
        supervisor = FleetSupervisor(
            fleet, SupervisorConfig(max_restarts=0),
            sleep=lambda s: None,
        )
        # even with an exhausted budget, a one-member fleet restarts —
        # evacuating the whole ring would drop every stream
        assert supervisor.verdict(0) == "restart"
        fleet.close()


class TestSpawnRetry:
    def test_transient_spawn_failures_are_retried(self, tiny_bundle,
                                                  tmp_path, monkeypatch):
        # Satellite 2: shard spawn rides the executor's RetryPolicy
        # with deterministic jitter instead of failing the fleet.
        import repro.serve.fleet as fleet_module

        failures = {"remaining": 2}
        real = _ProcessShard

        def flaky(*args, **kwargs):
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise OSError("transient spawn failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(fleet_module, "_ProcessShard", flaky)
        slept = []
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=1, batch_max=16, ring_slots=2),
            state_root=tmp_path, processes=True,
            spawn_retry=RetryPolicy(max_retries=3, base_delay=0.01,
                                    max_delay=0.05),
            sleep=slept.append,
        )
        drive(fleet, stop=40)
        report = fleet.close()
        assert report.answered == 40
        assert report.spawn_retries == 2
        assert len(slept) == 2
        # deterministic jitter: the same key yields the same delays
        policy = RetryPolicy(max_retries=3, base_delay=0.01,
                             max_delay=0.05)
        assert slept == [policy.delay(attempt, "shard-0-g0")
                         for attempt in (1, 2)]

    def test_permanent_spawn_failure_surfaces(self, tiny_bundle,
                                              tmp_path, monkeypatch):
        import repro.serve.fleet as fleet_module

        def always_fails(*args, **kwargs):
            raise OSError("permanent spawn failure")

        monkeypatch.setattr(fleet_module, "_ProcessShard", always_fails)
        with pytest.raises(OSError, match="permanent"):
            PolicyFleet(
                lambda: build_policy(tiny_bundle),
                FleetConfig(shards=1, ring_slots=2),
                state_root=tmp_path, processes=True,
                spawn_retry=RetryPolicy(max_retries=2, base_delay=0.01,
                                        max_delay=0.05),
                sleep=lambda seconds: None,
            )


class TestOneReader:
    """Every message on a shard's pipe is read once, by its one reader."""

    def test_pongs_interleave_with_doorbells_through_a_kill(
            self, tiny_bundle, tmp_path):
        # One ring slot and no linger put every request in its own
        # doorbell, and a 1 ms heartbeat pings on nearly every poll, so
        # pongs sit between decision doorbells on both pipes.  A shard
        # killed mid-run must still leave every index answered exactly
        # once and every decision and state equal to the inline twin.
        spec = SoakSpec(requests=400, seed=5)
        config = FleetConfig(shards=2, batch_max=16, ring_slots=1,
                             batch_linger_s=0.0)
        _, twin_decisions, twin_states = run_fleet_soak(
            spec, tiny_bundle, config=config,
            state_root=tmp_path / "twin",
        )
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle), config,
            state_root=tmp_path / "run", processes=True,
        )
        FleetSupervisor(
            fleet,
            SupervisorConfig(heartbeat_interval_s=0.001,
                             liveness_timeout_s=10.0),
            sleep=lambda seconds: None,
        )
        for index in range(spec.requests):
            request = make_request(spec, index)
            if index == 200:
                fleet.kill_shard(fleet.owner(request.ctx.loop_name))
            fleet.submit(request)
        report = fleet.close()
        _check_fleet_decisions(spec, fleet.decisions)
        assert report.failovers == 1
        assert report.failover_causes == {"died": 1}
        assert report.heartbeat_timeouts == 0
        _compare_stream_states(twin_states, fleet.stream_states, "a kill")
        _compare_decisions(twin_decisions, fleet.decisions, "a kill")
        assert multiprocessing.active_children() == []

    def test_stale_pipe_in_a_ready_list_is_never_read(
            self, tiny_bundle, tmp_path, monkeypatch):
        # Both shards die with batches in flight, so one poll sees both
        # pipes ready.  Handling the first loss evacuates that member,
        # and re-delivering its batches to the other shard finds that
        # one dead too: it is replaced while the poll still holds its
        # old pipe in the ready list.  That pipe must be skipped, not
        # read (a read would charge the member a second loss).
        reads = []
        real_recv = _ProcessShard._recv

        def recording_recv(shard, deadline=None):
            reads.append(shard.conn.closed)
            return real_recv(shard, deadline)

        monkeypatch.setattr(_ProcessShard, "_recv", recording_recv)
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=2, batch_max=1, ring_slots=2),
            state_root=tmp_path, processes=True,
        )
        supervisor = FleetSupervisor(
            fleet,
            SupervisorConfig(heartbeat_interval_s=60.0,
                             liveness_timeout_s=120.0, max_restarts=0),
            sleep=lambda seconds: None,
        )
        for shard in fleet._shards.values():
            os.kill(shard.process.pid, signal.SIGSTOP)
        # The four soak loops are four streams, two per shard, so the
        # first four requests fill both two-slot windows.
        drive(fleet, stop=4)
        assert [len(shard.inflight)
                for shard in fleet._shards.values()] == [2, 2]
        for member in list(fleet.members):
            fleet.kill_shard(member)
        fleet.poll()
        (evacuated,) = supervisor.evacuated
        (survivor,) = fleet.members
        assert supervisor.restarts == {survivor: 1}
        drive(fleet, start=4, stop=40)
        report = fleet.close()
        assert not any(reads)
        assert sorted(d.index for d in fleet.decisions) == list(range(40))
        assert report.evacuations == 1
        assert report.failovers == 1
        assert report.failover_causes == {"died": 1}
        assert report.heartbeat_timeouts == 0
        assert multiprocessing.active_children() == []
