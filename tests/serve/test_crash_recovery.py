"""Crash-safe online learning: kill anywhere, lose nothing.

Two layers of evidence:

* property-style, at the persistence layer — random selector operation
  sequences, a simulated crash after *every* prefix, and the recovered
  selector must be bit-identical (exported state and held-out
  decisions) to one that never crashed;
* end-to-end, at the serving layer — a 1-shard inline fleet killed
  and restarted from its journal, compared against an uninterrupted
  twin at several kill points with chaos active, plus a single server
  killed mid-burst.
"""

from __future__ import annotations

import errno

import numpy as np
import pytest

from repro.chaos import SensorFaultSpec
from repro.core.features import NUM_FEATURES
from repro.serve import (
    FleetConfig,
    PolicyServer,
    ServeConfig,
    ShardWorker,
    SoakSpec,
    build_policy,
    make_request,
    run_fleet_soak,
    verify_twin,
)
from repro.serve.journal import (RECORD_MAGIC, SelectorJournal,
                                 ServeStateStore)
from repro.serve.soak import (_compare_decisions, _compare_stream_states,
                              _state_mismatches)


def random_ops(rng: np.random.Generator, count: int, num_experts: int):
    """A mixed stream of selector operations, reproducibly random."""
    ops = []
    for _ in range(count):
        features = rng.uniform(-2.0, 2.0, NUM_FEATURES)
        if rng.uniform() < 0.35:
            ops.append(("select", features))
        else:
            errors = rng.uniform(0.0, 1.0, num_experts)
            ops.append(("update", features, errors))
    return ops


def apply_op(policy, op) -> None:
    if op[0] == "select":
        policy.selector.select(op[1])
        policy.restore_pending(op[1])
    else:
        policy.selector.update(op[1], op[2])


def held_out_decisions(policy, rng: np.random.Generator, count: int = 16):
    """Decisions on a fresh feature stream (mutates the selector —
    call only after state comparison)."""
    return [
        policy.selector.select(rng.uniform(-2.0, 2.0, NUM_FEATURES))
        for _ in range(count)
    ]


def random_groups(rng: np.random.Generator, count: int):
    """Random group-commit boundaries: ``[0, b1, ..., count]``."""
    bounds = [0]
    while bounds[-1] < count:
        bounds.append(min(count, bounds[-1] + int(rng.integers(1, 6))))
    return bounds


def run_victim(policy, state_dir, ops, bounds, crash_at,
               snapshot_interval):
    """Serve ``ops`` in the groups ``bounds`` describes — commit and
    maybe-snapshot per op, one flush per group, as the server does —
    then "crash" after ``crash_at`` ops (abandon the store without
    flushing, detaching or closing)."""
    store = ServeStateStore(state_dir, policy,
                            snapshot_interval=snapshot_interval)
    store.recover()
    store.attach()
    for req, op in enumerate(ops[:crash_at]):
        apply_op(policy, op)
        store.commit(req)
        store.maybe_snapshot(req)
        if req + 1 in bounds:
            store.flush()


def durable_prefix(bounds, crash_at, snapshot_interval):
    """Ops a crash after ``crash_at`` must not lose: everything up to
    the last flushed group or the last snapshot, whichever is later."""
    flushed = max(b for b in bounds if b <= crash_at)
    snapshotted = crash_at - crash_at % snapshot_interval
    return max(flushed, snapshotted)


class TestCrashAtEveryPrefix:
    """Random op sequences in random group-commit batches, a crash
    after every prefix, bit-identity."""

    OPS = 24
    INTERVAL = 7

    def test_recovered_selector_is_bit_identical(self, tiny_bundle,
                                                 tmp_path):
        rng = np.random.default_rng(20260806)
        ops = random_ops(rng, self.OPS, len(tiny_bundle.experts))
        bounds = random_groups(rng, self.OPS)

        # Reference: the full sequence with no crash.
        reference = build_policy(tiny_bundle)
        for op in ops:
            apply_op(reference, op)
        reference_state = reference.export_online_state()["selector"]

        # Every prefix, so the crash lands on each flush boundary and
        # inside every group (its unflushed records die with it).
        written = 0
        for prefix in range(self.OPS + 1):
            state_dir = tmp_path / f"prefix-{prefix}"
            run_victim(build_policy(tiny_bundle), state_dir, ops, bounds,
                       prefix, self.INTERVAL)
            # The victim's journal holds binary records only.
            journal = state_dir / "journal.jsonl"
            if journal.exists() and journal.stat().st_size:
                assert journal.read_bytes()[0] == RECORD_MAGIC
                written += 1

            # Restart: recover, then the world re-delivers every op
            # past the recovery point.
            revived = build_policy(tiny_bundle)
            resumed = ServeStateStore(state_dir, revived,
                                      snapshot_interval=self.INTERVAL)
            next_req, _ = resumed.recover()
            assert next_req == durable_prefix(bounds, prefix,
                                              self.INTERVAL)
            for op in ops[next_req:]:
                apply_op(revived, op)

            mismatches = _state_mismatches(
                reference_state,
                revived.export_online_state()["selector"],
            )
            assert not mismatches, (
                f"crash after {prefix}/{self.OPS} ops (groups {bounds}) "
                f"diverged on {mismatches}"
            )
        assert written > self.OPS // 2

    def test_unflushed_records_are_not_recovered(self, tiny_bundle,
                                                 tmp_path):
        rng = np.random.default_rng(5)
        ops = random_ops(rng, 6, len(tiny_bundle.experts))
        # One flushed group of 4, then 2 committed-but-unflushed ops.
        run_victim(build_policy(tiny_bundle), tmp_path, ops, [0, 4],
                   crash_at=6, snapshot_interval=64)
        resumed = ServeStateStore(tmp_path, build_policy(tiny_bundle))
        assert resumed.recover()[0] == 4
        assert resumed.replayed_records == 4

    def test_recovered_selector_decides_identically(self, tiny_bundle,
                                                    tmp_path):
        rng = np.random.default_rng(99)
        ops = random_ops(rng, 12, len(tiny_bundle.experts))
        reference = build_policy(tiny_bundle)
        for op in ops:
            apply_op(reference, op)

        # Crash right after the second group's flush.
        run_victim(build_policy(tiny_bundle), tmp_path, ops, [0, 3, 7],
                   crash_at=7, snapshot_interval=5)
        revived = build_policy(tiny_bundle)
        resumed = ServeStateStore(tmp_path, revived, snapshot_interval=5)
        assert resumed.recover()[0] == 7
        for op in ops[7:]:
            apply_op(revived, op)

        # Identical decisions on a held-out stream neither has seen
        # (including tie-breaker phase, which select() advances).
        held_out = np.random.default_rng(7)
        expected = held_out_decisions(reference,
                                      np.random.default_rng(7))
        assert held_out_decisions(revived, held_out) == expected


class TestServingKillRestart:
    """End-to-end kill/restart of a single server (a 1-shard inline
    fleet) against the uninterrupted twin."""

    SPEC = SoakSpec(
        requests=240,
        sensor=SensorFaultSpec(mode="nan", rate=1.0),
        fault_window=(0.25, 0.55),
    )
    CONFIG = FleetConfig(shards=1, serve=ServeConfig(snapshot_interval=32))

    # 37: before the chaos window; 100: mid-window (degraded tier);
    # 203: after the window, while the ladder climbs back.
    @pytest.mark.parametrize("kill_at", [37, 100, 203])
    def test_lossless_recovery(self, tiny_bundle, tmp_path, kill_at):
        outcome = verify_twin(
            self.SPEC, tiny_bundle, tmp_path, config=self.CONFIG,
            kill_at=kill_at, processes=False,
        )
        assert outcome["identical"]
        assert outcome["kill_at"] == kill_at
        assert outcome["failovers"] == 1
        # Inline, nothing is in flight at the kill: every decision is
        # served once and compared (none deduplicated).
        assert outcome["recovered"] == 0
        assert (outcome["compared_decisions"]
                + outcome["deadline_missed"]) == self.SPEC.requests

    def test_kill_actually_interrupts(self, tiny_bundle, tmp_path):
        report, _, _ = run_fleet_soak(
            self.SPEC, tiny_bundle, config=self.CONFIG,
            state_root=tmp_path, kill_at=100,
        )
        assert report.failovers == 1
        # The per-shard row spans both generations ...
        assert report.per_shard[0].total == self.SPEC.requests
        # ... while the killed generation's journals stop before the
        # kill, and the replacement recovered from a shipped copy.
        victim = ShardWorker(lambda: build_policy(tiny_bundle),
                             self.CONFIG.serve, tmp_path / "shard-0")
        frontier = victim.resume_map()
        victim.close()
        assert len(frontier) == 4
        assert max(frontier.values()) <= 100
        assert (tmp_path / "shard-0-g1").is_dir()

    def test_mid_burst_resume_sheds_consistently(self, tiny_bundle,
                                                 tmp_path):
        # A crash *inside* a burst (the victim had served only part of
        # it): the revived server must shed by logical burst position,
        # matching the uninterrupted twin.  Requests 20..29 arrive as
        # one burst; every other request arrives alone.
        spec = SoakSpec(requests=60)
        requests = [make_request(spec, i) for i in range(spec.requests)]

        def arrivals(start):
            """``(start_position, batch)`` pairs from ``start`` on."""
            for index in range(start, spec.requests):
                if 20 <= index < 30:
                    if index == start or index == 20:
                        yield index - 20, requests[index:30]
                else:
                    yield 0, [requests[index]]

        config = ServeConfig(queue_capacity=4, snapshot_interval=16)
        twin = PolicyServer(build_policy(tiny_bundle), config,
                            state_dir=tmp_path / "twin")
        twin_decisions = []
        for position, batch in arrivals(0):
            twin_decisions.extend(
                twin.offer(batch, start_position=position)
            )
        twin.close()

        victim = PolicyServer(build_policy(tiny_bundle), config,
                              state_dir=tmp_path / "crash")
        for position, batch in arrivals(0):
            if batch[0].index == 20:
                # Three requests into the burst, the process dies.
                victim.offer(batch[:3], start_position=position)
                break
            victim.offer(batch, start_position=position)

        revived = PolicyServer(build_policy(tiny_bundle), config,
                               state_dir=tmp_path / "crash")
        assert revived.next_index == 23
        resumed = []
        for position, batch in arrivals(revived.next_index):
            resumed.extend(revived.offer(batch, start_position=position))
        revived.close()

        by_index = {d.index: d for d in twin_decisions}
        for decision in resumed:
            twin_decision = by_index[decision.index]
            assert (decision.threads, decision.tier, decision.shed) == (
                twin_decision.threads, twin_decision.tier,
                twin_decision.shed,
            )
        # The resumed burst tail really was shed (capacity 4 < burst
        # size 10), by position — not re-admitted from scratch.
        assert any(d.shed for d in resumed if 20 <= d.index < 30)

    def test_verify_recovery_validates_kill_point(self, tiny_bundle,
                                                  tmp_path):
        with pytest.raises(ValueError, match="inside the stream"):
            verify_twin(self.SPEC, tiny_bundle, tmp_path, kill_at=0,
                        processes=False)
        with pytest.raises(ValueError, match="kill_at and/or resize_at"):
            verify_twin(self.SPEC, tiny_bundle, tmp_path,
                        processes=False)


class TestFailedJournalWrite:
    """A stream whose group write fails (ENOSPC after a partial write)
    takes its shard down; the fleet fails over, reopens every stream of
    the shard from disk and ends bit-identical to an undisturbed twin."""

    SPEC = SoakSpec(requests=600)

    @pytest.mark.parametrize("processes,shards,fail_at,keep", [
        (False, 1, 40, 0.5), (False, 1, 90, 0.0), (False, 2, 61, 0.99),
        (True, 2, 30, 0.5),
    ])
    def test_fleet_recovers_to_its_twin(
            self, tiny_bundle, tmp_path, monkeypatch, processes, shards,
            fail_at, keep):
        config = FleetConfig(shards=shards, batch_max=16,
                             serve=ServeConfig(snapshot_interval=32))
        _, twin_decisions, twin_states = run_fleet_soak(
            self.SPEC, tiny_bundle, config=config,
            state_root=tmp_path / "twin")

        # Files, not memory: forked shards count and fail in their own
        # processes, and exactly one write fleet-wide may fail.
        counter = tmp_path / "writes"
        failed = tmp_path / "failed"
        real_open = SelectorJournal._open

        class FaultyHandle:
            """The ``fail_at``-th group write of a process keeps a
            ``keep`` share of its bytes, then raises ENOSPC — once."""

            def __init__(self, real):
                self.real = real

            def write(self, data):
                with open(counter, "a") as fh:
                    fh.write(".")
                if (counter.stat().st_size == fail_at
                        and not failed.exists()):
                    failed.touch()
                    self.real.write(data[:int(len(data) * keep)])
                    raise OSError(errno.ENOSPC, "injected: disk full")
                return self.real.write(data)

            def fileno(self):
                return self.real.fileno()

            def close(self):
                self.real.close()

        monkeypatch.setattr(SelectorJournal, "_open",
                            lambda journal: FaultyHandle(real_open(journal)))
        report, decisions, states = run_fleet_soak(
            self.SPEC, tiny_bundle, config=config,
            state_root=tmp_path / "run", processes=processes)

        assert failed.exists()
        assert report.failovers == 1
        # A process shard says why it exited before it does; an inline
        # shard's error reaches the fleet directly.
        assert report.failover_causes == {"journal-write:ENOSPC": 1}
        assert "journal-write:ENOSPC 1" in report.format()
        _compare_stream_states(twin_states, states, "a failed write")
        recovered, missed, compared = _compare_decisions(
            twin_decisions, decisions, "a failed write")
        assert recovered + missed + compared == self.SPEC.requests
        assert compared > self.SPEC.requests // 2
