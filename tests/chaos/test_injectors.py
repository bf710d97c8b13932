"""Chaos injectors: fault math, composition, and determinism.

The determinism contract mirrors the repo-wide stepping contract
(tests/runtime/test_stepping.py): identical selection sequences between
serial and parallel execution (bit-identical summaries), and identical
selection *triples* with times equal to floating-point accumulation
error between event-driven and fixed-tick stepping.
"""

from __future__ import annotations

import math

import pytest

from repro.chaos import (
    AvailabilityFlap,
    BurstStormInjector,
    ChaosScenario,
    CollapseInjector,
    FlapInjector,
    SENSOR_FAULT_MODES,
    SensorFaultPolicy,
    SensorFaultSpec,
    sensor_fault_factory,
    storm_workload,
)
from repro.compiler.features import CodeFeatures
from repro.core.policies.fixed import FixedPolicy
from repro.core.policies.base import PolicyContext
from repro.exec import Executor, PolicySpec, RunRequest
from repro.exec.request import _simulate
from repro.experiments.scenarios import SMALL_LOW
from repro.machine.availability import FailureWindow, StaticAvailability
from repro.sched.stats import ENV_FEATURE_NAMES, EnvironmentSample

SCALE = 0.05


def env_sample(**overrides) -> EnvironmentSample:
    base = dict(
        time=1.0, workload_threads=4.0, processors=32.0, runq_sz=2.0,
        ldavg_1=3.0, ldavg_5=2.5, cached_memory=0.5,
        pages_free_rate=0.25,
    )
    base.update(overrides)
    return EnvironmentSample(**base)


def context(env: EnvironmentSample) -> PolicyContext:
    return PolicyContext(
        time=env.time,
        loop_name="loop",
        code=CodeFeatures(0.1, 0.2, 0.05),
        env=env,
        available_processors=16,
        max_threads=32,
    )


class Recorder(FixedPolicy):
    """Fixed policy that keeps the contexts it was consulted with."""

    def __init__(self):
        super().__init__(8)
        self.seen = []

    def select(self, ctx):
        self.seen.append(ctx)
        return super().select(ctx)


class TestAvailabilityFlap:
    def flap(self, **overrides):
        base = dict(
            base=StaticAvailability(32), period=10.0,
            surviving_fraction=0.25, start=5.0, duty=0.4,
        )
        base.update(overrides)
        return AvailabilityFlap(**base)

    def test_healthy_before_start(self):
        flap = self.flap()
        assert flap.available(0.0) == 32
        assert flap.next_change(0.0) == 5.0

    def test_degraded_then_recovered_within_period(self):
        flap = self.flap()
        # Degraded phase [5, 9), healthy [9, 15), degraded [15, 19) ...
        assert flap.available(5.0) == 8
        assert flap.available(8.99) == 8
        assert flap.available(9.0) == 32
        assert flap.available(14.99) == 32
        assert flap.available(15.0) == 8

    def test_next_change_tracks_flap_edges(self):
        flap = self.flap()
        assert flap.next_change(5.0) == 9.0
        assert flap.next_change(8.99) == 9.0
        assert flap.next_change(9.0) == 15.0
        assert flap.next_change(15.0) == 19.0

    def test_horizon_strictly_future(self):
        flap = self.flap()
        for t in (0.0, 5.0, 8.999, 9.0, 15.0, 123.45):
            assert flap.next_change(t) > t

    def test_never_below_one_processor(self):
        flap = self.flap(
            base=StaticAvailability(2), surviving_fraction=0.1,
        )
        assert flap.available(5.0) == 1

    def test_horizon_includes_base_schedule_changes(self):
        trace_base = FailureWindow(
            base=StaticAvailability(32), start=7.0, end=100.0,
        )
        flap = self.flap(base=trace_base)
        # Base edge at 7.0 falls inside the flap's [5, 9) degraded
        # phase; the combined horizon must not coast past it.
        assert flap.next_change(6.0) == 7.0

    @pytest.mark.parametrize("kwargs", [
        dict(period=0.0),
        dict(surviving_fraction=0.0),
        dict(surviving_fraction=1.5),
        dict(start=-1.0),
        dict(duty=0.0),
        dict(duty=1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            self.flap(**kwargs)


class TestInjectors:
    def test_collapse_wraps_in_failure_window(self):
        injector = CollapseInjector(start=10.0, end=20.0)
        schedule = injector.apply(StaticAvailability(32))
        assert isinstance(schedule, FailureWindow)
        assert schedule.available(15.0) == 4  # 32 * 0.125
        assert schedule.available(25.0) == 32

    def test_collapse_validates_eagerly(self):
        with pytest.raises(ValueError):
            CollapseInjector(start=5.0, end=5.0)
        with pytest.raises(ValueError):
            CollapseInjector(start=0.0, end=1.0, surviving_fraction=0.0)

    def test_flap_injector_apply(self):
        injector = FlapInjector(period=6.0, surviving_fraction=0.5)
        schedule = injector.apply(StaticAvailability(32))
        assert isinstance(schedule, AvailabilityFlap)
        assert schedule.available(0.0) == 16
        assert schedule.available(3.0) == 32


class TestChaosScenario:
    def test_name_and_delegation(self):
        chaos = ChaosScenario(
            base=SMALL_LOW,
            injectors=(CollapseInjector(start=5.0, end=25.0),),
        )
        assert chaos.name == f"{SMALL_LOW.name}+chaos"
        assert chaos.workload_size == SMALL_LOW.workload_size
        assert chaos.hw_change == SMALL_LOW.hw_change

    def test_injectors_compose_left_to_right(self):
        chaos = ChaosScenario(
            base=SMALL_LOW,
            injectors=(
                CollapseInjector(start=0.0, end=1e9,
                                 surviving_fraction=0.5),
                FlapInjector(period=10.0, surviving_fraction=0.5,
                             duty=0.5),
            ),
        )
        schedule = chaos.availability(seed=0)
        base = SMALL_LOW.availability(seed=0)
        # During a flap's degraded phase both injectors bite.
        assert schedule.available(2.0) == max(
            1, (base.available(2.0) // 2) // 2
        )

    def test_rejects_injectors_without_apply(self):
        with pytest.raises(TypeError, match="apply"):
            ChaosScenario(base=SMALL_LOW, injectors=(object(),))

    def test_repr_is_deterministic_and_fingerprintable(self):
        def chaos():
            return ChaosScenario(
                base=SMALL_LOW,
                injectors=(CollapseInjector(start=5.0, end=25.0),),
            )

        assert repr(chaos()) == repr(chaos())
        request = RunRequest(
            target="cg", policy=PolicySpec.fixed(8), scenario=chaos(),
            iterations_scale=SCALE,
        )
        assert request.fingerprint() is not None
        plain = RunRequest(
            target="cg", policy=PolicySpec.fixed(8), scenario=SMALL_LOW,
            iterations_scale=SCALE,
        )
        assert request.fingerprint() != plain.fingerprint()


class TestStormWorkload:
    def test_wave_layout(self):
        workload = storm_workload(
            ("is", "ft"), PolicySpec.fixed(4),
            bursts=2, interval=100.0, spread=4.0,
        )
        assert workload.program_names == ("is", "ft", "is", "ft")
        assert workload.start_times == (0.0, 2.0, 100.0, 102.0)
        assert workload.restart is False

    def test_validation(self):
        with pytest.raises(ValueError):
            storm_workload((), PolicySpec.fixed(4))
        with pytest.raises(ValueError):
            storm_workload(("is",), PolicySpec.fixed(4), bursts=0)
        with pytest.raises(ValueError):
            storm_workload(("is",), PolicySpec.fixed(4), interval=0.0)

    def test_injector_renames(self):
        from repro.exec import WorkloadSpec

        steady = WorkloadSpec(
            program_names=("is",), policy=PolicySpec.fixed(4),
            name="steady",
        )
        stormy = BurstStormInjector(bursts=2).apply_workload(steady)
        assert stormy.name == "steady+storm"
        assert stormy.restart is False

    def test_storm_parameters_change_fingerprint(self):
        def request(bursts):
            return RunRequest(
                target="cg", policy=PolicySpec.fixed(8),
                workload=storm_workload(
                    ("is",), PolicySpec.fixed(4), bursts=bursts,
                ),
                iterations_scale=SCALE,
            )

        assert request(2).fingerprint() != request(3).fingerprint()


class TestSensorFaults:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="mode"):
            SensorFaultSpec(mode="gremlins")
        with pytest.raises(ValueError):
            SensorFaultSpec(mode="nan", rate=1.5)
        with pytest.raises(ValueError):
            SensorFaultSpec(mode="nan", fields=("not_a_field",))
        with pytest.raises(ValueError):
            SensorFaultSpec(mode="nan", fields=())
        assert set(SENSOR_FAULT_MODES) == {
            "nan", "stale", "clip", "noise",
        }

    def consult(self, policy, samples):
        for sample in samples:
            policy.select(context(sample))

    def test_nan_mode_corrupts_listed_fields(self):
        inner = Recorder()
        policy = SensorFaultPolicy(
            inner,
            SensorFaultSpec(mode="nan", rate=1.0, fields=("ldavg_1",)),
        )
        policy.select(context(env_sample()))
        seen = inner.seen[0].env
        assert math.isnan(seen.ldavg_1)
        assert seen.ldavg_5 == 2.5  # untouched field

    def test_stale_mode_replays_previous_clean_sample(self):
        inner = Recorder()
        policy = SensorFaultPolicy(
            inner, SensorFaultSpec(mode="stale", rate=1.0),
        )
        first = env_sample(ldavg_1=3.0)
        second = env_sample(time=2.0, ldavg_1=9.0)
        self.consult(policy, [first, second])
        # First consultation has no history: passes through unchanged.
        assert inner.seen[0].env.ldavg_1 == 3.0
        # Second reads the stuck sensor: the previous *clean* value.
        assert inner.seen[1].env.ldavg_1 == 3.0
        assert inner.seen[1].env.time == 2.0

    def test_clip_mode_saturates(self):
        inner = Recorder()
        policy = SensorFaultPolicy(
            inner,
            SensorFaultSpec(
                mode="clip", rate=1.0, fields=("ldavg_1",),
                magnitude=1.0,
            ),
        )
        policy.select(context(env_sample(ldavg_1=3.0)))
        assert inner.seen[0].env.ldavg_1 == 1.0

    def test_noise_mode_stays_non_negative(self):
        inner = Recorder()
        policy = SensorFaultPolicy(
            inner, SensorFaultSpec(mode="noise", rate=1.0, magnitude=5.0),
        )
        for index in range(20):
            policy.select(context(env_sample(time=float(index))))
        for ctx in inner.seen:
            for field in ENV_FEATURE_NAMES:
                assert getattr(ctx.env, field) >= 0.0

    def test_fault_stream_is_deterministic(self):
        def stream():
            inner = Recorder()
            policy = SensorFaultPolicy(
                inner, SensorFaultSpec(mode="nan", rate=0.5, seed=3),
            )
            for index in range(30):
                policy.select(context(env_sample(time=float(index))))
            return [ctx.env.is_finite() for ctx in inner.seen]

        first = stream()
        assert first == stream()
        assert True in first and False in first

    def test_rate_zero_never_faults(self):
        inner = Recorder()
        policy = SensorFaultPolicy(
            inner, SensorFaultSpec(mode="nan", rate=0.0),
        )
        self.consult(policy, [env_sample(time=float(i)) for i in range(5)])
        assert all(ctx.env.is_finite() for ctx in inner.seen)

    def test_reset_restarts_the_fault_stream(self):
        inner = Recorder()
        policy = SensorFaultPolicy(
            inner, SensorFaultSpec(mode="nan", rate=0.5, seed=3),
        )
        self.consult(policy, [env_sample(time=float(i)) for i in range(9)])
        before = [ctx.env.is_finite() for ctx in inner.seen]
        policy.reset()
        inner.seen.clear()
        self.consult(policy, [env_sample(time=float(i)) for i in range(9)])
        assert [ctx.env.is_finite() for ctx in inner.seen] == before

    def test_factory_is_fingerprintable_per_spec(self):
        def spec_of(seed):
            return PolicySpec.of(
                sensor_fault_factory(
                    lambda: FixedPolicy(8),
                    SensorFaultSpec(mode="nan", rate=0.5, seed=seed),
                ),
                label="fixed~nan",
            )

        assert spec_of(0).token is not None
        assert spec_of(0).token != spec_of(1).token


CHAOS_SCENARIO = ChaosScenario(
    base=SMALL_LOW,
    injectors=(
        CollapseInjector(start=5.0, end=25.0, surviving_fraction=0.25),
        FlapInjector(period=7.0, surviving_fraction=0.5, start=30.0,
                     duty=0.4),
    ),
)


def chaos_requests():
    storm = storm_workload(
        ("is", "ft"), PolicySpec.fixed(4),
        bursts=2, interval=40.0, spread=4.0,
    )
    return [
        RunRequest(
            target=target, policy=PolicySpec.fixed(threads),
            scenario=CHAOS_SCENARIO, workload=storm,
            iterations_scale=SCALE,
        )
        for target in ("cg", "ep")
        for threads in (8, 16)
    ]


class TestChaosDeterminism:
    def test_serial_and_parallel_are_bit_identical(self):
        requests = chaos_requests()
        serial = Executor(jobs=1, cache=None).run(
            requests
        )
        parallel = Executor(jobs=4, cache=None).run(
            requests
        )
        assert serial == parallel
        assert all(s.selections for s in serial)

    def test_event_stepping_matches_fixed_under_faults(self):
        requests = chaos_requests()
        event = Executor(jobs=1, cache=None).run(requests)
        fixed = [_simulate(request, "fixed")[0] for request in requests]
        for e, f in zip(event, fixed):
            assert [
                (s.job_id, s.loop_name, s.threads) for s in e.selections
            ] == [
                (s.job_id, s.loop_name, s.threads) for s in f.selections
            ]
            assert e.target_time == pytest.approx(
                f.target_time, rel=1e-6
            )
            assert e.workload_runs == tuple(f.workload_runs.items())
