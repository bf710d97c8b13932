"""The supervising fleet controller: heartbeats, budgets, degradation."""

from __future__ import annotations

import os
import signal

import pytest

from repro.exec import shm
from repro.exec.fault import RetryPolicy
from repro.serve.fleet import (
    FleetConfig,
    PolicyFleet,
    ShardLostError,
    _ProcessShard,
)
from repro.serve.soak import SoakSpec, build_policy, make_request
from repro.serve.supervisor import FleetSupervisor, SupervisorConfig

needs_shm = pytest.mark.skipif(
    not shm.shm_available(), reason="POSIX shared memory unavailable"
)

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


@needs_shm
class TestLiveness:
    def test_doorbell_timeout_raises_instead_of_hanging(
            self, tiny_bundle, tmp_path):
        # Satellite 1: a wedged shard must surface as ShardLostError on
        # the bounded control-pipe receive, never as a parent hang.
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=1, batch_max=16, ring_slots=2),
            state_root=tmp_path, processes=True,
        )
        try:
            shard = fleet._shards[0]
            os.kill(shard.process.pid, signal.SIGSTOP)
            with pytest.raises(ShardLostError, match="unresponsive"):
                shard._recv(timeout_s=0.3)
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
        victim.last_activity -= 10.0  # silence predates the deadline
        supervisor.tick()
        assert fleet._failovers >= 1
        assert supervisor.restarts.get(0, 0) == 1
        drive(fleet, start=120)
        report = fleet.close()
        assert report.answered + report.recovered == SPEC.requests
        assert report.restarts == 1
        assert report.failover_causes.get("unresponsive") == 1


@needs_shm
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


@needs_shm
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
