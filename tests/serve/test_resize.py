"""Live elastic resharding: planning, migration, crash windows, twins."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.persistence import dump_checked_json, load_checked_json
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


SPEC = SoakSpec(requests=240, seed=3)

STREAMS = sorted({
    make_request(SPEC, i).ctx.loop_name for i in range(SPEC.requests)
})


def drive(fleet, spec=SPEC, start=0, stop=None):
    for index in range(start, stop if stop is not None else spec.requests):
        fleet.submit(make_request(spec, index))


def balanced_table(members, streams):
    """The table a fresh router builds from ``streams`` in order."""
    router = ShardRouter(members)
    for stream in streams:
        router.route(stream)
    return router.placement


def per_member(placement, members):
    counts = dict.fromkeys(members, 0)
    for member in placement.values():
        counts[member] += 1
    return list(counts.values())


class TestPlanResize:
    GROWTHS = [([0, 1], [0, 1, 2, 3]), ([0, 1], [0, 1, 2]),
               ([0, 1, 2], [0, 1, 2, 3]), ([0], [0, 1, 2, 3, 4])]

    def test_growth_migrates_only_claimed_streams(self):
        # From a balanced table, growth moves streams only onto added
        # members and ends with counts within one of each other.
        for (old, new), streams in itertools.product(
                self.GROWTHS,
                (STREAMS, [f"stream-{i}" for i in range(37)])):
            table = balanced_table(old, streams)
            plan = plan_resize(old, new, streams, placement=table)
            assert plan.added == tuple(m for m in new if m not in old)
            assert plan.removed == ()
            assert plan.unchanged == tuple(old)
            for stream in streams:
                src, dst = table[stream], plan.placement[stream]
                if src != dst:
                    # every move lands on an added member
                    assert dst in plan.added
                    assert plan.migrations[stream] == (src, dst)
                else:
                    assert stream not in plan.migrations
            counts = per_member(plan.placement, new)
            assert max(counts) - min(counts) <= 1

    def test_shrink_migrates_only_the_leavers_streams(self):
        plan = plan_resize([0, 1, 2, 3], [0, 1, 2], STREAMS)
        assert plan.removed == (3,)
        assert plan.migrations
        for stream, (src, dst) in plan.migrations.items():
            assert src == 3
            assert dst in (0, 1, 2)
        counts = per_member(plan.placement, [0, 1, 2])
        assert max(counts) - min(counts) <= 1

    def test_unbalanced_table_is_rebalanced_with_fewest_moves(self):
        # A hash-only (adopted) layout: three streams on member 0.
        table = {"a": 0, "b": 0, "c": 0, "d": 1}
        plan = plan_resize([0, 1], [0, 1], sorted(table), placement=table)
        assert per_member(plan.placement, [0, 1]) == [2, 2]
        assert plan.migrations == {"c": (0, 1)}

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
            placement={"loop_a": 2, "loop_b": 5},
        )
        topology.save(tmp_path)
        loaded = FleetTopology.load_or_create(tmp_path, [0])
        assert loaded.epoch == 3
        assert loaded.members == [0, 2, 5]
        assert loaded.generations == {0: 1, 5: 2}
        assert loaded.placement == {"loop_a": 2, "loop_b": 5}

    def test_torn_document_quarantined_and_defaulted(self, tmp_path):
        path = tmp_path / FleetTopology.FILENAME
        path.write_text("{not json")
        loaded = FleetTopology.load_or_create(tmp_path, [0, 1])
        assert loaded.epoch == 0
        assert loaded.members == [0, 1]
        assert not path.exists()
        assert list((tmp_path / "quarantine").iterdir())


def ring_owner(router, stream):
    return next(router.ring_order(stream))


class TestSweep:
    def test_quarantines_stage_and_misrouted_dirs(self, tmp_path):
        # No placement table: the sweep adopts a stream its ring owner
        # hosts and quarantines one hosted anywhere else.
        topology = FleetTopology(members=[0, 1])
        router = ShardRouter([0, 1])
        owned = next(s for s in STREAMS if ring_owner(router, s) == 0)
        stray = next(s for s in STREAMS if ring_owner(router, s) == 1)
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
        # the correctly-routed stream is untouched, and adopted
        assert (home / stream_dirname(owned)).is_dir()
        assert not staging.exists()
        assert topology.placement == {owned: 0}

    def test_placement_table_overrides_the_ring(self, tmp_path):
        router = ShardRouter([0, 1])
        stream = next(s for s in STREAMS if ring_owner(router, s) == 1)
        topology = FleetTopology(members=[0, 1], placement={stream: 0})
        for member in (0, 1):
            directory = (tmp_path / shard_dirname(member, 0)
                         / stream_dirname(stream))
            directory.mkdir(parents=True)
            dump_checked_json({"stream": stream},
                              directory / "stream.json")
        (moved,) = sweep_state_root(tmp_path, topology)
        assert "superseded" in moved.name
        assert (tmp_path / shard_dirname(0, 0)
                / stream_dirname(stream)).is_dir()
        assert not (tmp_path / shard_dirname(1, 0)
                    / stream_dirname(stream)).exists()


def assert_matches_twin(fleet, tiny_bundle, config, root):
    _, _, twin_states = run_fleet_soak(SPEC, tiny_bundle, config=config,
                                       state_root=root)
    assert set(fleet.stream_states) == set(twin_states)
    for stream in twin_states:
        for name in ("V", "b", "norm_mean", "norm_m2"):
            assert np.array_equal(
                np.asarray(fleet.stream_states[stream]["selector"][name]),
                np.asarray(twin_states[stream]["selector"][name]),
            ), (stream, name)


def assert_lossless(reborn, served_before):
    fresh = {d.index for d in reborn.decisions
             if d.tier != RECOVERED_TIER}
    assert fresh.isdisjoint(served_before)
    assert fresh | served_before == set(range(SPEC.requests))


class TestPlacementRecovery:
    HALF = 120

    def crash_half_way(self, tiny_bundle, config, root, placement=None):
        fleet = PolicyFleet(lambda: build_policy(tiny_bundle), config,
                            state_root=root)
        if placement is not None:
            fleet.router = ShardRouter(fleet.members, config.replicas,
                                       placement)
        drive(fleet, stop=self.HALF)
        table = dict(fleet.router.placement)
        served = {d.index for d in fleet.decisions
                  if d.tier != RECOVERED_TIER}
        fleet.abort()
        return table, served

    def test_aborted_fleet_reopens_with_its_table(self, tiny_bundle,
                                                  tmp_path):
        config = FleetConfig(shards=2, batch_max=16)
        root = tmp_path / "crashed"
        table, served = self.crash_half_way(tiny_bundle, config, root)
        ring = ShardRouter(2)
        assert any(ring_owner(ring, s) != m for s, m in table.items())

        reborn = PolicyFleet(lambda: build_policy(tiny_bundle), config,
                             state_root=root)
        assert reborn.router.placement == table
        assert not (root / "quarantine").exists()
        drive(reborn)
        reborn.close()
        assert_lossless(reborn, served)
        assert_matches_twin(reborn, tiny_bundle, config, tmp_path / "twin")

    def test_topology_without_placement_is_adopted(self, tiny_bundle,
                                                   tmp_path):
        # A state root written by hash-only routing: stream dirs at
        # their ring owners and no placement key in topology.json.
        config = FleetConfig(shards=2, batch_max=16)
        root = tmp_path / "legacy"
        ring = ShardRouter(2)
        by_ring = {s: ring_owner(ring, s) for s in STREAMS}
        _, served = self.crash_half_way(tiny_bundle, config, root,
                                        placement=by_ring)
        path = root / FleetTopology.FILENAME
        doc = load_checked_json(path)
        del doc["placement"]
        dump_checked_json(doc, path)
        served_streams = {
            s for s in STREAMS
            if (root / shard_dirname(by_ring[s], 0)
                / stream_dirname(s)).is_dir()
        }
        assert served_streams

        reborn = PolicyFleet(lambda: build_policy(tiny_bundle), config,
                             state_root=root)
        assert reborn.router.placement == {
            s: by_ring[s] for s in served_streams
        }
        assert not (root / "quarantine").exists()
        drive(reborn)
        report = reborn.close()
        assert report.recovered == len(served) > 0
        assert_lossless(reborn, served)
        assert_matches_twin(reborn, tiny_bundle, config, tmp_path / "twin")

    def test_evacuation_replaces_on_least_loaded_and_persists(
            self, tiny_bundle, tmp_path):
        # 4 streams on 3 members sit 2:1:1; losing a 1-stream member
        # must refill the other 1-stream member, not the 2-stream one.
        config = FleetConfig(shards=3, batch_max=16)
        root = tmp_path / "evacuated"
        fleet = PolicyFleet(lambda: build_policy(tiny_bundle), config,
                            state_root=root)
        drive(fleet, stop=self.HALF)
        fleet.drain()
        counts = dict(fleet.router.counts)
        assert sorted(counts.values()) == [1, 1, 2]
        victim = max(m for m in counts if counts[m] == 1)
        (lost,) = [s for s, m in fleet.router.placement.items()
                   if m == victim]
        fleet.kill_shard(victim)
        assert fleet._evacuate(victim) == []
        survivor = next(m for m in fleet.members if counts.get(m) == 1)
        assert fleet.router.placement[lost] == survivor
        assert sorted(fleet.router.counts.values()) == [2, 2]
        on_disk = FleetTopology.load_or_create(root, [0])
        assert on_disk.placement == fleet.router.placement
        assert on_disk.epoch == 1
        assert (root / shard_dirname(survivor, 0)
                / stream_dirname(lost)).is_dir()

        drive(fleet, start=self.HALF)
        report = fleet.close()
        assert report.answered == SPEC.requests
        assert_matches_twin(fleet, tiny_bundle, config, tmp_path / "twin")

    def test_topology_with_pending_ships_is_adopted(self, tiny_bundle,
                                                    tmp_path):
        # A state root written while evacuation shipped lazily: the lost
        # member is gone from topology.json and its streams are placed
        # on survivors, but their state still sits in the lost member's
        # directory, listed under "pending".
        config = FleetConfig(shards=3, batch_max=16)
        root = tmp_path / "lazy"
        table, served = self.crash_half_way(tiny_bundle, config, root)
        victim = 2
        survivors = [0, 1]
        router = ShardRouter(survivors, config.replicas, {
            s: m for s, m in table.items() if m != victim
        })
        lost = sorted(s for s, m in table.items() if m == victim)
        assert lost
        for stream in lost:
            router.route(stream)
        path = root / FleetTopology.FILENAME
        doc = load_checked_json(path)
        doc.update(epoch=1, members=survivors, placement=router.placement,
                   pending={s: str(root / shard_dirname(victim, 0)
                                   / stream_dirname(s)) for s in lost})
        dump_checked_json(doc, path)

        reborn = PolicyFleet(lambda: build_policy(tiny_bundle), config,
                             state_root=root)
        assert reborn.members == survivors
        assert reborn.router.placement == router.placement
        for stream in lost:
            owner = router.placement[stream]
            assert (root / shard_dirname(owner, 0)
                    / stream_dirname(stream)).is_dir()
        assert "pending" not in load_checked_json(path)
        drive(reborn)
        reborn.close()
        assert_lossless(reborn, served)
        assert_matches_twin(reborn, tiny_bundle, config, tmp_path / "twin")


class TestUncommittedGeneration:
    def test_failover_never_reopens_an_uncommitted_generation(
            self, tiny_bundle, tmp_path, monkeypatch):
        # A failover that dies after shipping into shard-0-g1 but before
        # committing it leaves a populated directory behind.  After a
        # resize moves one of member 0's streams away, the next failover
        # of member 0 must not reopen that stream's stale copy there.
        config = FleetConfig(shards=2, batch_max=16)
        root = tmp_path / "root"
        fleet = PolicyFleet(lambda: build_policy(tiny_bundle), config,
                            state_root=root)
        drive(fleet, stop=80)
        fleet.drain()

        def spawn_dies(index, generation):
            raise InjectedCrash("parent died starting the replacement")

        fleet.kill_shard(0)
        monkeypatch.setattr(fleet, "_spawn", spawn_dies)
        with pytest.raises(InjectedCrash):
            drive(fleet, start=80)
        assert list((root / shard_dirname(0, 1)).iterdir())
        served = {d.index for d in fleet.decisions
                  if d.tier != RECOVERED_TIER}
        fleet.abort()

        reborn = PolicyFleet(lambda: build_policy(tiny_bundle), config,
                             state_root=root)
        assert reborn.generations[0] == 0
        drive(reborn, stop=160)
        plan = reborn.resize(3)
        assert any(src == 0 for src, _ in plan.migrations.values())
        reborn.kill_shard(0)
        drive(reborn, start=160)
        reborn.close()
        assert reborn.generations[0] == 1
        assert any("uncommitted" in p.name
                   for p in (root / "quarantine").iterdir())
        assert_lossless(reborn, served)
        assert_matches_twin(reborn, tiny_bundle, config, tmp_path / "twin")

    def test_resize_never_reopens_a_rolled_back_member_dir(
            self, tiny_bundle, tmp_path):
        # A resize that dies before its commit has already placed homes
        # in the added member's directory; re-adding that member later
        # must start it on an empty one.
        config = FleetConfig(shards=2, batch_max=16)
        root = tmp_path / "root"
        fleet = PolicyFleet(lambda: build_policy(tiny_bundle), config,
                            state_root=root)
        drive(fleet, stop=80)

        def hook(step):
            if step == "pre-epoch-swap":
                raise InjectedCrash(step)

        with pytest.raises(InjectedCrash):
            fleet.resize(3, crash_hook=hook)
        assert list((root / shard_dirname(2, 0)).iterdir())
        served = {d.index for d in fleet.decisions
                  if d.tier != RECOVERED_TIER}
        fleet.abort()

        reborn = PolicyFleet(lambda: build_policy(tiny_bundle), config,
                             state_root=root)
        assert reborn.members == [0, 1]
        drive(reborn, stop=160)
        reborn.resize(3)
        drive(reborn, start=160)
        reborn.close()
        assert any("uncommitted" in p.name
                   for p in (root / "quarantine").iterdir())
        assert_lossless(reborn, served)
        assert_matches_twin(reborn, tiny_bundle, config, tmp_path / "twin")


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


@pytest.mark.parametrize("after_commit", [False, True],
                         ids=["before-commit", "after-commit"])
class TestCrashDuringEvacuation:
    """A crash on either side of an evacuation's topology write.

    Before it, the reopened fleet still has the lost member and its
    source homes, and the copies already shipped to survivors are
    quarantined as superseded; after it, every lost stream's home is at
    its new owner.  Either way the re-driven stream loses nothing,
    serves nothing twice and ends bit-equal to the twin.
    """

    HALF = 120

    def test_crash_is_lossless(self, after_commit, tiny_bundle, tmp_path,
                               monkeypatch):
        config = FleetConfig(shards=3, batch_max=16)
        root = tmp_path / "crashed"
        fleet = PolicyFleet(lambda: build_policy(tiny_bundle), config,
                            state_root=root)
        drive(fleet, stop=self.HALF)
        fleet.drain()
        victim = 1
        lost = sorted(s for s, m in fleet.router.placement.items()
                      if m == victim)
        assert lost
        save = fleet._save_topology

        def crash():
            if after_commit:
                save()
            raise InjectedCrash("evacuation")

        monkeypatch.setattr(fleet, "_save_topology", crash)
        fleet.kill_shard(victim)
        with pytest.raises(InjectedCrash):
            fleet._evacuate(victim)
        served_before = {d.index for d in fleet.decisions
                         if d.tier != RECOVERED_TIER}
        fleet.abort()

        reborn = PolicyFleet(lambda: build_policy(tiny_bundle), config,
                             state_root=root)
        if after_commit:
            assert reborn.members == [0, 2]
            assert reborn.epoch == 1
            for stream in lost:
                owner = reborn.router.placement[stream]
                assert (root / shard_dirname(owner, 0)
                        / stream_dirname(stream)).is_dir()
        else:
            assert reborn.members == [0, 1, 2]
            assert reborn.epoch == 0
            quarantined = [p.name for p in (root / "quarantine").iterdir()]
            for stream in lost:
                assert f"{stream_dirname(stream)}.superseded" in quarantined
        drive(reborn)
        report = reborn.close()
        assert_lossless(reborn, served_before)
        assert report.recovered == len(served_before)
        assert_matches_twin(reborn, tiny_bundle, config, tmp_path / "twin")


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
