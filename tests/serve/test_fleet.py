"""The sharded serving fleet: routing, transport, failover, isolation."""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.chaos.sensors import SensorFaultSpec
from repro.core.persistence import dump_checked_json
from repro.serve.fleet import (
    RECOVERED_TIER,
    FleetConfig,
    PolicyFleet,
    ShardRouter,
    ShardWorker,
    decode_decisions,
    decode_requests,
    encode_decisions,
    encode_requests,
    stream_dirname,
)
from repro.serve.journal import SelectorJournal, ship_state
from repro.serve.server import ServeConfig, ServeDecision
from repro.serve.soak import (
    SoakInvariantError,
    SoakSpec,
    _compare_decisions,
    build_policy,
    make_request,
    run_fleet_soak,
    verify_twin,
)


SPEC = SoakSpec(requests=240, seed=3)

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: A process that owns a 2-shard fleet, prints its shard pids, then
#: idles until it is killed.  No request is ever served, so the policy
#: factory is never called.
_FLEET_OWNER = textwrap.dedent("""
    import sys, time
    from repro.serve.fleet import FleetConfig, PolicyFleet
    fleet = PolicyFleet(lambda: None, FleetConfig(shards=2),
                        state_root=sys.argv[1], processes=True)
    print(*(shard.process.pid for shard in fleet._shards.values()),
          flush=True)
    time.sleep(120)
""")

#: A process that runs a 2-shard process fleet through a shard kill and
#: a resize, then prints the resource tracker's pid (``None`` if this
#: process never started one).
_KILL_AND_RESIZE = textwrap.dedent("""
    import pickle, sys
    from multiprocessing import resource_tracker
    from repro.serve.fleet import FleetConfig
    from repro.serve.soak import SoakSpec, run_fleet_soak
    with open(sys.argv[1], "rb") as handle:
        bundle = pickle.load(handle)
    report, _, _ = run_fleet_soak(
        SoakSpec(requests=120, seed=3), bundle,
        config=FleetConfig(shards=2, batch_max=16, ring_slots=2),
        state_root=sys.argv[2], processes=True,
        kill_at=40, resize_at={80: 3},
    )
    assert report.failovers >= 1 and report.resizes == 1, report
    print(resource_tracker._resource_tracker._pid, flush=True)
""")


def _shared_mappings() -> int:
    """Shared file-backed or anonymous mappings this process holds."""
    with open("/proc/self/maps") as maps:
        return sum(1 for line in maps
                   if "/dev/shm/" in line or "/dev/zero" in line)


def _subprocess_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def _exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie (an orphan whose new
    parent has not reaped it yet)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def stream_requests(spec=SPEC):
    return [make_request(spec, i) for i in range(spec.requests)]


def stream_pairs(requests):
    """The wire/worker form: ``(stream, request)`` routing pairs."""
    return [(r.ctx.loop_name, r) for r in requests]


class TestShardRouter:
    def test_routes_are_stable_and_in_range(self):
        # The same arrival order builds the same table in a fresh
        # router (sha256 ring order, not the salted builtin hash), and
        # a placed stream never moves.
        router = ShardRouter(4)
        streams = [f"loop_{i}" for i in range(100)]
        first = [router.route(s) for s in streams]
        fresh = ShardRouter(4)
        again = [fresh.route(s) for s in streams]
        assert first == again
        assert fresh.placement == router.placement
        assert [router.route(s) for s in reversed(streams)] == \
            first[::-1]
        assert all(0 <= shard < 4 for shard in first)
        assert sorted(router.counts.values()) == [25, 25, 25, 25]

    @pytest.mark.parametrize("shards", [2, 3, 4, 5])
    def test_fresh_placement_is_balanced_at_every_step(self, shards):
        router = ShardRouter(shards)
        for i in range(40):
            router.route(f"stream-{i}")
            counts = router.counts.values()
            assert max(counts) - min(counts) <= 1

    def test_seeded_placement_is_kept_and_validated(self):
        router = ShardRouter(2, placement={"a": 1, "b": 1})
        assert router.route("a") == 1
        assert router.counts == {0: 0, 1: 2}
        assert router.route("c") == 0  # the least-loaded member
        with pytest.raises(ValueError, match="not a member"):
            ShardRouter(2, placement={"a": 5})

    def test_replicas_spread_streams(self):
        router = ShardRouter(4, replicas=64)
        owners = {router.route(f"stream-{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_single_shard_owns_everything(self):
        router = ShardRouter(1)
        assert {router.route(f"s{i}") for i in range(20)} == {0}

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(0)
        with pytest.raises(ValueError):
            ShardRouter(2, replicas=0)


class TestFleetConfig:
    def test_batch_max_bounded_by_capacity(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            FleetConfig(batch_max=100,
                        serve=ServeConfig(queue_capacity=64))

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(shards=0)
        with pytest.raises(ValueError):
            FleetConfig(ring_slots=0)
        with pytest.raises(ValueError):
            FleetConfig(slot_bytes=8)
        with pytest.raises(ValueError):
            FleetConfig(batch_linger_s=-1.0)


class TestWireCodec:
    def test_requests_round_trip_bit_exactly(self):
        batch = stream_pairs(stream_requests()[:40])
        meta, arrays = encode_requests(batch, start_position=7)
        position, decoded = decode_requests(meta, arrays)
        assert position == 7
        assert len(decoded) == len(batch)
        for (stream, original), (copied_stream, copy) in zip(batch,
                                                             decoded):
            assert copied_stream == stream
            assert copy.index == original.index
            assert copy.ctx.loop_name == original.ctx.loop_name
            assert copy.ctx.available_processors == \
                original.ctx.available_processors
            assert copy.ctx.max_threads == original.ctx.max_threads
            # the feature vector must survive to the last ulp — this
            # is what makes shard decisions equal to inline decisions
            assert copy.ctx.feature_vector().tobytes() == \
                original.ctx.feature_vector().tobytes()

    def test_decisions_round_trip_exactly(self):
        decisions = [
            ServeDecision(index=1, threads=8, tier="mixture",
                          latency_s=1.25e-4),
            ServeDecision(index=2, threads=None, tier="shed",
                          latency_s=0.0, shed=True),
            ServeDecision(index=3, threads=4, tier="expert",
                          latency_s=3.5e-4, deadline_missed=True,
                          failure="degenerate-features"),
            ServeDecision(index=4, threads=None, tier=RECOVERED_TIER,
                          latency_s=0.0),
        ]
        meta, arrays = encode_decisions(decisions, recovered=1)
        deduped, decoded = decode_decisions(meta, arrays)
        assert deduped == 1
        assert decoded == decisions

    def test_kind_mismatch_rejected(self):
        meta, arrays = encode_requests(stream_pairs(stream_requests()[:2]))
        with pytest.raises(ValueError, match="decision"):
            decode_decisions(meta, arrays)
        meta, arrays = encode_decisions([])
        with pytest.raises(ValueError, match="request"):
            decode_requests(meta, arrays)


class TestInlineFleet:
    def test_serves_everything_deterministically(self, tiny_bundle,
                                                 tmp_path):
        config = FleetConfig(shards=2, batch_max=16)

        def run(root):
            report, decisions, states = run_fleet_soak(
                SPEC, tiny_bundle, config=config, state_root=root,
            )
            return report, decisions, states

        report_a, decisions_a, states_a = run(tmp_path / "a")
        report_b, decisions_b, states_b = run(tmp_path / "b")
        assert report_a.total == SPEC.requests
        assert report_a.answered == SPEC.requests
        key = lambda d: d.index
        assert [
            (d.index, d.threads, d.tier)
            for d in sorted(decisions_a, key=key)
        ] == [
            (d.index, d.threads, d.tier)
            for d in sorted(decisions_b, key=key)
        ]
        assert set(states_a) == set(states_b)
        for stream in states_a:
            assert np.array_equal(states_a[stream]["selector"]["V"],
                                  states_b[stream]["selector"]["V"])

    def test_streams_are_pinned_to_shards(self, tiny_bundle, tmp_path):
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=2, batch_max=16), state_root=tmp_path,
        )
        for request in stream_requests():
            fleet.submit(request)
        report = fleet.close()
        # every shard report covers exactly the requests of its streams
        expected = [0, 0]
        for request in stream_requests():
            expected[fleet.owner(request.ctx.loop_name)] += 1
        assert [r.total for r in report.per_shard] == expected

    @pytest.mark.parametrize("shards", [2, 4])
    def test_soak_loops_load_shards_evenly(self, tiny_bundle, tmp_path,
                                           shards):
        # 4 loops with 60 requests each: equal totals need the loops
        # placed 2:2 on 2 shards and 1:1:1:1 on 4.
        report, _, _ = run_fleet_soak(
            SPEC, tiny_bundle, state_root=tmp_path,
            config=FleetConfig(shards=shards, batch_max=16),
        )
        assert [r.total for r in report.per_shard] == \
            [SPEC.requests // shards] * shards

    def test_batch_max_flushes(self, tiny_bundle, tmp_path):
        config = FleetConfig(shards=1, batch_max=8,
                             batch_linger_s=3600.0)
        report, _, _ = run_fleet_soak(
            SPEC, tiny_bundle, config=config, state_root=tmp_path,
        )
        # with an effectively infinite linger, every full flush is
        # exactly batch_max and only the final drain flush is short
        assert report.batch_sizes["max"] == 8.0
        assert report.total == SPEC.requests
        # A shard serves every flush from position 0, so the report
        # carries batch sizes once and no queue-depth copy of them.
        assert "queue_depth" not in report.to_jsonable()
        assert "queue depth" not in report.format()
        assert "batch size" in report.format()
        assert all(shard.queue_depth == {} for shard in report.per_shard)

    def test_linger_flushes_partial_batches(self, tiny_bundle,
                                            tmp_path):
        ticks = iter(float(i) for i in range(10_000))
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=1, batch_max=32, batch_linger_s=0.5),
            state_root=tmp_path, clock=lambda: next(ticks),
        )
        requests = stream_requests()
        fleet.submit(requests[0])
        # each submit advances the fake clock well past the linger
        # deadline, so the next submit's poll flushes the single
        # pending request instead of waiting for batch_max
        fleet.submit(requests[1])
        assert len(fleet.decisions) >= 1
        fleet.close()

    def test_every_stream_snapshots(self, tiny_bundle, tmp_path):
        # Each of the 4 soak streams sees every 4th request index; the
        # snapshot cadence counts a stream's own records, so all four
        # keep their journals short, not just the one whose indices
        # happen to hit the interval.
        config = FleetConfig(shards=2, batch_max=16,
                             serve=ServeConfig(snapshot_interval=64))
        run_fleet_soak(SoakSpec(requests=2000), tiny_bundle,
                       config=config, state_root=tmp_path)
        journals = list(tmp_path.glob("*/*/journal.jsonl"))
        assert len(journals) == 4
        for journal in journals:
            assert any(journal.parent.glob("snapshot-*.json"))
            assert len(list(SelectorJournal(journal).replay())) < 64

    def test_closed_fleet_rejects_submits(self, tiny_bundle, tmp_path):
        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=1), state_root=tmp_path,
        )
        fleet.close()
        with pytest.raises(RuntimeError):
            fleet.submit(stream_requests()[0])
        with pytest.raises(RuntimeError):
            fleet.close()


class TestShardWorkerDedupe:
    def test_redelivered_prefix_is_marked_recovered(self, tiny_bundle,
                                                    tmp_path):
        pairs = stream_pairs(stream_requests()[:24])
        worker = ShardWorker(lambda: build_policy(tiny_bundle),
                             ServeConfig(), tmp_path / "state")
        first, deduped = worker.serve_batch(0, pairs[:16])
        assert deduped == 0
        assert len(first) == 16
        worker.close()

        # a replacement recovering from the same journals recognises
        # the already-served per-stream prefixes of a re-delivery
        replacement = ShardWorker(lambda: build_policy(tiny_bundle),
                                  ServeConfig(), tmp_path / "state")
        decisions, deduped = replacement.serve_batch(0, pairs[8:24])
        assert deduped == 8
        assert [d.tier for d in decisions[:8]] == [RECOVERED_TIER] * 8
        assert all(d.threads is None for d in decisions[:8])
        assert all(d.tier != RECOVERED_TIER for d in decisions[8:])
        assert replacement.recovered == 8
        replacement.close()


class TestShipState:
    def test_ships_a_stream_dir_losslessly(self, tiny_bundle, tmp_path):
        # Migration's unit of shipment is one stream's directory: the
        # journal + snapshots travel, the destination gets a fresh
        # sidecar, and a worker over the copy resumes exactly where the
        # original stopped.
        source = tmp_path / "source"
        worker = ShardWorker(lambda: build_policy(tiny_bundle),
                             ServeConfig(snapshot_interval=4), source)
        pairs = stream_pairs(stream_requests()[:48])
        worker.serve_batch(0, pairs)
        worker.close()

        # snapshots count the stream's own records — ship a stream
        # that actually crossed a snapshot boundary
        stream = next(
            s for s in dict(pairs)
            if any((source / stream_dirname(s)).glob("snapshot-*.json"))
        )
        copy = tmp_path / "copy"
        destination = copy / stream_dirname(stream)
        shipped = ship_state(source / stream_dirname(stream),
                             destination)
        names = {p.name for p in shipped}
        assert "journal.jsonl" in names
        assert any(n.startswith("snapshot-") for n in names)
        dump_checked_json({"stream": stream},
                          destination / "stream.json")

        twin = ShardWorker(lambda: build_policy(tiny_bundle),
                           ServeConfig(), copy)
        assert twin.resume_map() == {stream: max(
            r.index for s, r in pairs if s == stream) + 1}
        redelivery = [(s, r) for s, r in pairs if s == stream]
        decisions, deduped = twin.serve_batch(0, redelivery)
        assert deduped == len(redelivery)
        twin.close()

    def test_drain_ships_buffered_records(self, tiny_bundle, tmp_path):
        # The migration drain barrier flushes records committed but not
        # yet group-written, so the shipped copy holds all of them.
        source = tmp_path / "source"
        worker = ShardWorker(lambda: build_policy(tiny_bundle),
                             ServeConfig(), source)
        pairs = stream_pairs(stream_requests()[:8])
        worker.serve_batch(0, pairs)
        stream = pairs[0][0]
        server = worker.servers[stream]
        buffered = server.next_index + 100
        server.store.commit(buffered, {"breaker":
                                       server.breaker.export_state()})
        assert worker.drain_streams([stream]) == {
            stream: server.next_index}

        destination = tmp_path / "copy"
        ship_state(source / stream_dirname(stream), destination)
        replayed = SelectorJournal(destination / "journal.jsonl").replay()
        assert [req for req, _, _ in replayed] == [
            r.index for s, r in pairs if s == stream] + [buffered]

    def test_empty_source_ships_nothing(self, tmp_path):
        assert ship_state(tmp_path / "missing", tmp_path / "dest") == []
        assert (tmp_path / "dest").is_dir()


class TestProcessFleet:
    def test_decisions_match_inline_twin(self, tiny_bundle, tmp_path):
        config = FleetConfig(shards=2, batch_max=16, ring_slots=2)
        _, inline_decisions, inline_states = run_fleet_soak(
            SPEC, tiny_bundle, config=config,
            state_root=tmp_path / "inline",
        )
        report, process_decisions, process_states = run_fleet_soak(
            SPEC, tiny_bundle, config=config,
            state_root=tmp_path / "proc", processes=True,
        )
        assert report.total == SPEC.requests
        key = lambda d: d.index
        assert [
            (d.index, d.threads, d.tier, d.shed)
            for d in sorted(inline_decisions, key=key)
        ] == [
            (d.index, d.threads, d.tier, d.shed)
            for d in sorted(process_decisions, key=key)
        ]
        assert set(inline_states) == set(process_states)
        for stream in inline_states:
            for field in ("V", "b", "norm_mean", "norm_m2"):
                assert np.array_equal(
                    np.asarray(inline_states[stream]["selector"][field]),
                    np.asarray(process_states[stream]["selector"][field]),
                ), (stream, field)

    def test_requires_state_root(self, tiny_bundle):
        with pytest.raises(ValueError, match="state_root"):
            PolicyFleet(lambda: build_policy(tiny_bundle),
                        FleetConfig(shards=1), processes=True)

    def test_no_segments_leak(self, tiny_bundle, tmp_path):
        before = set(os.listdir("/dev/shm"))
        run_fleet_soak(
            SPEC, tiny_bundle,
            config=FleetConfig(shards=2, batch_max=16),
            state_root=tmp_path, processes=True,
        )
        assert set(os.listdir("/dev/shm")) == before

    def test_kill_and_resize_touch_no_named_memory(self, tiny_bundle,
                                                   tmp_path):
        # A fresh process, so that no earlier test's resource tracker
        # counts: the rings are anonymous, so neither a segment nor the
        # tracker that would unlink one ever appears.
        import pickle

        bundle_path = tmp_path / "bundle.pkl"
        bundle_path.write_bytes(pickle.dumps(tiny_bundle))
        before = sorted(os.listdir("/dev/shm"))
        done = subprocess.run(
            [sys.executable, "-c", _KILL_AND_RESIZE, str(bundle_path),
             str(tmp_path / "state")],
            capture_output=True, text=True, env=_subprocess_env(),
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["None"]
        assert sorted(os.listdir("/dev/shm")) == before

    @pytest.mark.skipif(not Path("/proc/self/maps").is_file(),
                        reason="needs /proc to list this process's maps")
    def test_parent_unmaps_the_rings_of_every_gone_shard(self, tiny_bundle,
                                                         tmp_path):
        # Three ways a shard goes: a failover after kill_shard, a resize
        # that retires a member, and close().  Each one's rings must be
        # unmapped in the parent at once, not when they are collected.
        before = _shared_mappings()
        fleet = self._fleet(tiny_bundle, tmp_path)
        gone = []
        for index in range(120):
            if index == 40:
                gone.append(fleet._shards[fleet.members[0]])
                fleet.kill_shard(fleet.members[0])
            if index == 80:
                gone.append(fleet._shards[fleet.members[-1]])
                fleet.resize(members=fleet.members[:-1])
            fleet.submit(make_request(SPEC, index))
        gone.extend(fleet._shards.values())
        report = fleet.close()
        assert report.failovers == 1 and report.resizes == 1
        assert len(gone) == 3
        assert _shared_mappings() <= before
        assert [ring._mmap.closed for shard in gone
                for ring in (shard.request_ring, shard.decision_ring)] \
            == [True] * 6


    @pytest.mark.skipif(not Path("/proc").is_dir(),
                        reason="needs /proc to see an orphan's state")
    def test_shards_exit_when_their_owner_is_killed(self, tmp_path):
        owner = subprocess.Popen(
            [sys.executable, "-c", _FLEET_OWNER, str(tmp_path)],
            stdout=subprocess.PIPE, text=True, env=_subprocess_env(),
        )
        pids = []
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 2
            owner.kill()
            owner.wait()
            deadline = time.monotonic() + 10.0
            while (not all(map(_exited, pids))
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert [pid for pid in pids if not _exited(pid)] == []
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
            for pid in pids:
                if not _exited(pid):
                    os.kill(pid, signal.SIGKILL)

    def _fleet(self, tiny_bundle, tmp_path):
        return PolicyFleet(
            lambda: build_policy(tiny_bundle),
            FleetConfig(shards=2, batch_max=16, ring_slots=2),
            state_root=tmp_path, processes=True,
        )

    def test_no_child_outlives_close(self, tiny_bundle, tmp_path):
        fleet = self._fleet(tiny_bundle, tmp_path)
        for index in range(60):
            fleet.submit(make_request(SPEC, index))
        fleet.close()
        assert multiprocessing.active_children() == []

    def test_no_child_outlives_abort(self, tiny_bundle, tmp_path):
        fleet = self._fleet(tiny_bundle, tmp_path)
        for index in range(60):
            fleet.submit(make_request(SPEC, index))
        fleet.abort()
        assert multiprocessing.active_children() == []

    def test_no_child_outlives_close_after_failover(self, tiny_bundle,
                                                    tmp_path):
        fleet = self._fleet(tiny_bundle, tmp_path)
        for index in range(120):
            if index == 60:
                fleet.kill_shard(fleet.members[0])
            fleet.submit(make_request(SPEC, index))
        report = fleet.close()
        assert report.failovers == 1
        assert multiprocessing.active_children() == []


class TestFailover:
    def test_shard_kill_recovers_losslessly(self, tiny_bundle,
                                            tmp_path):
        outcome = verify_twin(
            SPEC, tiny_bundle, tmp_path, kill_at=120,
            config=FleetConfig(shards=2, batch_max=16, ring_slots=2),
        )
        assert outcome["identical"] is True
        assert outcome["failovers"] >= 1
        assert (outcome["compared_decisions"] + outcome["recovered"]
                + outcome["deadline_missed"]) == SPEC.requests

    def test_kill_without_failover_is_an_invariant_error(
            self, tiny_bundle, tmp_path, monkeypatch):
        # sanity on the harness itself: if the kill hook were a no-op
        # the soak must fail loudly, not report a hollow pass
        monkeypatch.setattr(PolicyFleet, "kill_shard",
                            lambda self, index: 0)
        with pytest.raises(SoakInvariantError, match="no failover"):
            run_fleet_soak(
                SPEC, tiny_bundle,
                config=FleetConfig(shards=2, batch_max=16),
                state_root=tmp_path, processes=True, kill_at=120,
            )

    def test_inline_kill_fails_over_losslessly(self, tiny_bundle,
                                               tmp_path):
        # An inline shard's worker is abandoned unclosed; the next
        # dispatch fails over exactly as a dead process's would.
        outcome = verify_twin(
            SPEC, tiny_bundle, tmp_path, kill_at=120, processes=False,
            config=FleetConfig(shards=2, batch_max=16),
        )
        assert outcome["identical"] is True
        assert outcome["failovers"] == 1
        assert outcome["recovered"] == 0  # nothing is in flight inline
        assert (outcome["compared_decisions"]
                + outcome["deadline_missed"]) == SPEC.requests

    def test_per_shard_rows_survive_failover(self, tiny_bundle,
                                             tmp_path):
        # The row counts every generation's decisions, not just the
        # replacement's.
        report, _, _ = run_fleet_soak(
            SPEC, tiny_bundle, config=FleetConfig(shards=1),
            state_root=tmp_path, processes=True, kill_at=100,
        )
        assert report.failovers == 1
        (row,) = report.per_shard
        assert row.total == report.total == SPEC.requests
        assert row.answered == report.answered
        assert sum(row.tier_decisions.values()) == row.answered
        assert row.unanswered == report.recovered

    @pytest.mark.parametrize("supervise", [False, True])
    def test_verify_twin_honours_supervise(self, tiny_bundle, tmp_path,
                                           monkeypatch, supervise):
        from repro.serve import supervisor

        built = []

        class CountingSupervisor(supervisor.FleetSupervisor):
            def __init__(self, fleet, *args, **kwargs):
                built.append(fleet)
                super().__init__(fleet, *args, **kwargs)

        monkeypatch.setattr(supervisor, "FleetSupervisor",
                            CountingSupervisor)
        verify_twin(
            SPEC, tiny_bundle, tmp_path, kill_at=120, processes=False,
            supervise=supervise,
            config=FleetConfig(shards=2, batch_max=16),
        )
        # the twin is never supervised; the disturbed run only on request
        assert len(built) == (1 if supervise else 0)


class TestCompareDecisions:
    """The twin check exempts only recovered markers and deadline
    misses; every other divergence is an invariant error."""

    TWIN = [
        ServeDecision(index=0, threads=8, tier="mixture", latency_s=0.001),
        ServeDecision(index=1, threads=4, tier="mixture", latency_s=0.001),
    ]

    def test_deadline_missed_divergence_is_exempt(self):
        other = [
            self.TWIN[0],
            ServeDecision(index=1, threads=2, tier="analytic",
                          latency_s=0.07, deadline_missed=True,
                          failure="deadline"),
        ]
        assert _compare_decisions(self.TWIN, other, "failover") == (0, 1, 1)

    def test_plain_divergence_raises_with_wall_clock_facts(self):
        other = [
            self.TWIN[0],
            ServeDecision(index=1, threads=2, tier="analytic",
                          latency_s=0.002, failure="exception"),
        ]
        with pytest.raises(SoakInvariantError,
                           match="decision 1 diverged") as caught:
            _compare_decisions(self.TWIN, other, "failover")
        message = str(caught.value)
        assert "deadline_missed=False" in message
        assert "failure=exception" in message
        assert "latency_s=0.002000" in message


class TestBreakerIsolation:
    def test_one_shards_trips_do_not_leak_into_siblings(
            self, tiny_bundle, tmp_path):
        # Poison exactly the streams owned by one shard: a sensor NaN
        # window corrupts every request, but we only *submit* corrupted
        # requests for the victim shard's streams.
        config = FleetConfig(shards=2, batch_max=16)
        clean = SoakSpec(requests=240, seed=3)
        dirty = SoakSpec(requests=240, seed=3,
                         sensor=SensorFaultSpec(mode="nan", rate=1.0,
                                                seed=3),
                         fault_window=(0.0, 1.0))

        fleet = PolicyFleet(
            lambda: build_policy(tiny_bundle), config,
            state_root=tmp_path,
        )
        victim = fleet.owner(make_request(clean, 0).ctx.loop_name)
        for index in range(clean.requests):
            stream = make_request(clean, index).ctx.loop_name
            spec = dirty if fleet.owner(stream) == victim else clean
            fleet.submit(make_request(spec, index))
        report = fleet.close()

        victim_report = report.per_shard[victim]
        sibling = report.per_shard[1 - victim]
        # the poisoned shard degrades...
        assert victim_report.trips >= 1
        assert victim_report.failures.get("degenerate-features", 0) > 0
        # ...and its siblings never notice: no trips, no failures, and
        # their journals carry exactly their own requests
        assert sibling.trips == 0
        assert sibling.failures == {}
        assert sibling.tier_decisions == {"mixture": sibling.total}
        assert sibling.journal["journal_records"] == sibling.total
        assert victim_report.journal["journal_records"] == \
            victim_report.total
