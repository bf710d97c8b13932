"""Live elastic resharding: planning, migration, crash windows, twins."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.persistence import dump_checked_json
from repro.exec import shm
from repro.serve.fleet import (
    RECOVERED_TIER,
    FleetConfig,
    PolicyFleet,
    ShardRouter,
    stream_dirname,
)
from repro.serve.resize import (
    RESIZE_STEPS,
    FleetTopology,
    plan_resize,
    shard_dirname,
    sweep_state_root,
)
from repro.serve.soak import (
    SoakSpec,
    build_policy,
    make_request,
    run_fleet_soak,
    verify_twin,
)

needs_shm = pytest.mark.skipif(
    not shm.shm_available(), reason="POSIX shared memory unavailable"
)

SPEC = SoakSpec(requests=240, seed=3)

STREAMS = sorted({
    make_request(SPEC, i).ctx.loop_name for i in range(SPEC.requests)
})


def drive(fleet, spec=SPEC, start=0, stop=None):
    for index in range(start, stop if stop is not None else spec.requests):
        fleet.submit(make_request(spec, index))


class TestPlanResize:
    def test_growth_migrates_only_claimed_streams(self):
        plan = plan_resize([0, 1], [0, 1, 2, 3], STREAMS)
        assert plan.added == (2, 3)
        assert plan.removed == ()
        assert plan.unchanged == (0, 1)
        old_router, new_router = ShardRouter([0, 1]), ShardRouter(
            [0, 1, 2, 3])
        for stream in STREAMS:
            src, dst = old_router.route(stream), new_router.route(stream)
            if src != dst:
                # consistent hashing: every move lands on a new member
                assert dst in (2, 3)
                assert plan.migrations[stream] == (src, dst)
            else:
                assert stream not in plan.migrations

    def test_shrink_migrates_only_the_leavers_streams(self):
        plan = plan_resize([0, 1, 2, 3], [0, 1, 2], STREAMS)
        assert plan.removed == (3,)
        for stream, (src, dst) in plan.migrations.items():
            assert src == 3
            assert dst in (0, 1, 2)

    def test_noop_resize_migrates_nothing(self):
        plan = plan_resize([0, 1], [1, 0], STREAMS)
        assert plan.migrations == {}
        assert plan.added == plan.removed == ()

    def test_empty_membership_rejected(self):
        with pytest.raises(ValueError):
            plan_resize([0], [], STREAMS)


class TestFleetTopology:
    def test_round_trips_through_disk(self, tmp_path):
        topology = FleetTopology(
            epoch=3, members=[0, 2, 5],
            generations={0: 1, 5: 2},
            pending={"loop_a": str(tmp_path / "somewhere")},
        )
        topology.save(tmp_path)
        loaded = FleetTopology.load_or_create(tmp_path, [0])
        assert loaded.epoch == 3
        assert loaded.members == [0, 2, 5]
        assert loaded.generations == {0: 1, 5: 2}
        assert loaded.pending == {"loop_a": str(tmp_path / "somewhere")}

    def test_torn_document_quarantined_and_defaulted(self, tmp_path):
        path = tmp_path / FleetTopology.FILENAME
        path.write_text("{not json")
        loaded = FleetTopology.load_or_create(tmp_path, [0, 1])
        assert loaded.epoch == 0
        assert loaded.members == [0, 1]
        assert not path.exists()
        assert list((tmp_path / "quarantine").iterdir())


class TestSweep:
    def test_quarantines_stage_and_misrouted_dirs(self, tmp_path):
        topology = FleetTopology(members=[0, 1])
        router = ShardRouter([0, 1])
        owned = next(s for s in STREAMS if router.route(s) == 0)
        stray = next(s for s in STREAMS if router.route(s) == 1)
        home = tmp_path / shard_dirname(0, 0)
        for stream in (owned, stray):
            directory = home / stream_dirname(stream)
            directory.mkdir(parents=True)
            dump_checked_json({"stream": stream},
                              directory / "stream.json")
        staging = home / (stream_dirname(owned) + ".stage")
        staging.mkdir()

        quarantined = sweep_state_root(tmp_path, topology)
        names = {p.name for p in quarantined}
        assert any("stage" in n for n in names)
        assert any(stream_dirname(stray) in n for n in names)
        # the correctly-routed stream is untouched
        assert (home / stream_dirname(owned)).is_dir()
        assert not staging.exists()


class TestInlineResize:
    def test_resized_run_matches_static_twin(self, tiny_bundle, tmp_path):
        config = FleetConfig(shards=2, batch_max=16)
        _, twin_decisions, twin_states = run_fleet_soak(
            SPEC, tiny_bundle, config=config,
            state_root=tmp_path / "twin",
        )
        report, decisions, states = run_fleet_soak(
            SPEC, tiny_bundle, config=config,
            state_root=tmp_path / "resized",
            resize_at={80: 4, 160: 3},
        )
        assert report.resizes == 2
        assert report.epochs == 2
        assert report.shards == 3
        assert report.streams_migrated >= 1
        key = lambda d: d.index
        assert [
            (d.index, d.threads, d.tier, d.shed)
            for d in sorted(twin_decisions, key=key)
        ] == [
            (d.index, d.threads, d.tier, d.shed)
            for d in sorted(decisions, key=key)
        ]
        assert set(states) == set(twin_states)
        for stream in states:
            assert np.array_equal(states[stream]["selector"]["V"],
                                  twin_states[stream]["selector"]["V"])

    def test_member_replacement(self, tiny_bundle, tmp_path):
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=2, batch_max=16), state_root=tmp_path,
        )
        drive(fleet, stop=120)
        plan = fleet.resize(members=[0, 2])
        assert plan.added == (2,)
        assert plan.removed == (1,)
        assert fleet.members == [0, 2]
        drive(fleet, start=120)
        report = fleet.close()
        assert report.answered == SPEC.requests
        assert report.shard_ids == [0, 2] or set(
            report.shard_ids) == {0, 1, 2}

    def test_resize_requires_state_root(self, tiny_bundle):
        fleet = PolicyFleet(lambda: build_policy(tiny_bundle),
                            FleetConfig(shards=2))
        with pytest.raises(RuntimeError, match="state_root"):
            fleet.resize(4)
        fleet.close()

    def test_topology_survives_restart(self, tiny_bundle, tmp_path):
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=2, batch_max=16), state_root=tmp_path,
        )
        drive(fleet, stop=60)
        fleet.resize(3)
        drive(fleet, start=60)
        fleet.close()

        # a new fleet over the same root adopts the committed shape,
        # not the configured one
        reborn = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=2, batch_max=16), state_root=tmp_path,
        )
        assert reborn.members == [0, 1, 2]
        assert reborn.epoch == 1
        reborn.close()


class InjectedCrash(RuntimeError):
    pass


@pytest.mark.parametrize("step", RESIZE_STEPS)
class TestCrashDuringResize:
    """SIGKILL-equivalent stops at every migration window.

    The fleet dies (``abort``: no flush, no close — disk stays exactly
    as the crash left it) while resizing 3→2; a rebuilt fleet over the
    same root must recover a consistent shape, quarantine any staging
    leftovers, and serve the re-driven stream with zero lost and zero
    duplicated journaled decisions — the journal dedupes everything
    already served, and the end state matches an uninterrupted twin.
    """

    HALF = 120

    def test_crash_is_lossless(self, step, tiny_bundle, tmp_path):
        config = FleetConfig(shards=3, batch_max=16)

        def hook(name):
            if name == step:
                raise InjectedCrash(name)

        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle), config,
            state_root=tmp_path / "crashed",
        )
        drive(fleet, stop=self.HALF)
        with pytest.raises(InjectedCrash):
            fleet.resize(2, crash_hook=hook)
        served_before = {d.index for d in fleet.decisions
                         if d.tier != RECOVERED_TIER}
        fleet.abort()

        reborn = PolicyFleet(
            lambda: build_policy(tiny_bundle), config,
            state_root=tmp_path / "crashed",
        )
        # a crash before the topology commit rolls the resize back; at
        # or after it, the resize fully happened
        if step in ("commit", "retire"):
            assert reborn.members == [0, 1]
            assert reborn.epoch == 1
        else:
            assert reborn.members == [0, 1, 2]
            assert reborn.epoch == 0
        if step == "place":
            # the crash left fully-staged directories behind; recovery
            # must quarantine them, never open them
            quarantine = (tmp_path / "crashed" / "quarantine")
            assert any("stage" in p.name
                       for p in quarantine.iterdir())
        drive(reborn)  # re-drive the whole stream from request 0
        report = reborn.close()

        recovered = [d for d in reborn.decisions
                     if d.tier == RECOVERED_TIER]
        fresh = {d.index for d in reborn.decisions
                 if d.tier != RECOVERED_TIER}
        # zero duplicates: nothing served before the crash is served
        # again; zero losses: together the two runs answer everything
        assert fresh.isdisjoint(served_before)
        assert fresh | served_before == set(range(SPEC.requests))
        assert len(recovered) == len(served_before)
        assert report.answered == SPEC.requests - len(served_before)
        assert report.recovered == len(served_before)

        _, _, twin_states = run_fleet_soak(
            SPEC, tiny_bundle, config=config,
            state_root=tmp_path / "twin",
        )
        assert set(reborn.stream_states) == set(twin_states)
        for stream in twin_states:
            for field in ("V", "b", "norm_mean", "norm_m2"):
                assert np.array_equal(
                    np.asarray(
                        reborn.stream_states[stream]["selector"][field]),
                    np.asarray(twin_states[stream]["selector"][field]),
                ), (stream, field)


@needs_shm
class TestProcessResize:
    def test_grow_and_shrink_mid_soak(self, tiny_bundle, tmp_path):
        config = FleetConfig(shards=2, batch_max=16, ring_slots=2)
        report, _, _ = run_fleet_soak(
            SPEC, tiny_bundle, config=config, state_root=tmp_path,
            processes=True, resize_at={80: 4, 160: 3}, supervise=True,
        )
        assert report.resizes == 2
        assert report.shards == 3
        assert report.answered == SPEC.requests

    def test_verify_resize_with_shard_kill(self, tiny_bundle, tmp_path):
        # the acceptance twin check: 2→4→3 plus one SIGKILL mid-soak,
        # bit-identical to an uninterrupted never-resized inline twin
        outcome = verify_twin(
            SPEC, tiny_bundle, tmp_path, resize_at={80: 4, 160: 3},
            kill_at=120, supervise=True,
            config=FleetConfig(shards=2, batch_max=16, ring_slots=2),
        )
        assert outcome["identical"] is True
        assert outcome["resizes"] == 2
        assert outcome["final_shards"] == 3
        assert outcome["failovers"] >= 1
        assert (outcome["compared_decisions"] + outcome["recovered"]
                + outcome["deadline_missed"]) == SPEC.requests
