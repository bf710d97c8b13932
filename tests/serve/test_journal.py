"""Journal and snapshot durability: torn tails, corruption, recovery.

Every failure injected here is a crash artifact the serving runtime
promises to absorb: a torn final journal record, a flipped byte
mid-file, a corrupted snapshot, a failed or short group write.  The
contract is always the same — quarantine the evidence (or refuse to go
on), fall back to the last good state, keep serving.
"""

from __future__ import annotations

import errno
import hashlib
import struct
import zlib

import numpy as np
import pytest

from repro.chaos import SensorFaultSpec
from repro.serve import (PolicyServer, SelectorJournal, ServeConfig,
                         SnapshotStore, SoakSpec, build_policy,
                         make_request)
from repro.serve import journal as journal_module
from repro.serve.journal import (RECORD_MAGIC, SNAPSHOTS_KEPT,
                                 JournalWriteError, ServeStateStore)


def record_ends(data: bytes):
    """End offset of every binary record in ``data`` (whole or not)."""
    ends, pos = [], 0
    while pos < len(data):
        assert data[pos] == RECORD_MAGIC
        pos += 9 + struct.unpack_from("<I", data, pos + 1)[0]
        ends.append(pos)
    return ends


class TestSelectorJournal:
    def test_append_replay_round_trip(self, tmp_path):
        journal = SelectorJournal(tmp_path / "journal.jsonl")
        journal.append(0, [["select", [1.0, 2.0]]], {"breaker": {"tier": 0}})
        journal.append(1, [["update", [1.0], [0.5, 0.25]], ["clear"]])
        journal.close()
        records = list(journal.replay())
        assert records == [
            (0, [["select", [1.0, 2.0]]], {"breaker": {"tier": 0}}),
            (1, [["update", [1.0], [0.5, 0.25]], ["clear"]], {}),
        ]

    def test_replay_filters_by_request_index(self, tmp_path):
        journal = SelectorJournal(tmp_path / "journal.jsonl")
        for req in range(5):
            journal.append(req, [])
        journal.close()
        assert [req for req, _, _ in journal.replay(after_req=2)] == [3, 4]

    def test_torn_tail_quarantined_and_truncated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SelectorJournal(path)
        journal.append(0, [["clear"]])
        journal.append(1, [["clear"]])
        journal.close()
        # The classic crash artifact: a final line cut mid-write.
        with open(path, "a") as fh:
            fh.write('{"req": 2, "ops": [')
        records = list(journal.replay())
        assert [req for req, _, _ in records] == [0, 1]
        assert journal.tails_quarantined == 1
        (tail,) = (path.parent / "quarantine").iterdir()
        assert tail.name.startswith("journal.jsonl.tail-")
        assert tail.read_text() == '{"req": 2, "ops": ['
        # The journal itself is healed: appends continue cleanly.
        journal.append(2, [["clear"]])
        journal.close()
        assert [req for req, _, _ in journal.replay()] == [0, 1, 2]

    def test_checksum_mismatch_stops_replay(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SelectorJournal(path)
        for req in range(3):
            journal.append(req, [["update", [1.0], [2.0]]])
        journal.close()
        data = bytearray(path.read_bytes())
        # Flip a float byte of the second record without fixing its crc.
        first_end = record_ends(bytes(data))[0]
        data[first_end + 20] ^= 0x40
        path.write_bytes(bytes(data))
        records = list(journal.replay())
        # Replay trusts nothing after the first bad record.
        assert [req for req, _, _ in records] == [0]
        assert journal.tails_quarantined == 1

    def test_record_crc_covers_whole_payload(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SelectorJournal(path)
        journal.append(7, [["select", [0.5]]], {"breaker": {"tier": 1}})
        journal.close()
        data = path.read_bytes()
        assert list(journal.replay()) == [
            (7, [["select", [0.5]]], {"breaker": {"tier": 1}})]
        # Any single flipped bit, anywhere in the record, fails it.
        for index in range(len(data)):
            damaged = bytearray(data)
            damaged[index] ^= 0x01
            path.write_bytes(bytes(damaged))
            assert list(SelectorJournal(path).replay()) == [], index

    def test_truncate_empties_the_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SelectorJournal(path)
        journal.append(0, [["clear"]])
        journal.flush()
        # Buffered records are covered by the snapshot too: dropped.
        journal.append(1, [["clear"]])
        journal.truncate()
        journal.close()
        assert path.read_text() == ""
        assert list(journal.replay()) == []

    def test_record_bytes_follow_the_documented_layout(self, tmp_path):
        journal = SelectorJournal(tmp_path / "journal.jsonl")
        journal.append(3, [["update", [0.1, -2.5e-300], [1.0]],
                           ["select", [0.5]], ["clear"]],
                       {"breaker": {"tier": 0, "cooldown": 2}})
        journal.close()
        body = (
            struct.pack("<qB", 3, 3)
            + b"u" + struct.pack("<B2d", 2, 0.1, -2.5e-300)
            + struct.pack("<Bd", 1, 1.0)
            + b"s" + struct.pack("<Bd", 1, 0.5)
            + b"c"
            # breaker block: section + tier + cooldown present, only
            # cooldown non-zero, stored as one int32
            + bytes((0x80 | 0b0101, 0b0100)) + struct.pack("<i", 2)
        )
        head = struct.pack("<BI", 0xB1, len(body)) + body
        expected = head + struct.pack("<I", zlib.crc32(head))
        assert (tmp_path / "journal.jsonl").read_bytes() == expected
        assert list(journal.replay()) == [(
            3, [["update", [0.1, -2.5e-300], [1.0]], ["select", [0.5]],
                ["clear"]],
            {"breaker": {"tier": 0, "cooldown": 2}},
        )]

    def test_every_breaker_state_round_trips(self, tmp_path):
        from repro.serve.breaker import STATE_FIELDS, CircuitBreaker

        breaker = CircuitBreaker(3)
        assert tuple(breaker.export_state()) == STATE_FIELDS
        journal = SelectorJournal(tmp_path / "journal.jsonl")
        states = []
        for req, ok in enumerate([False] * 7 + [True] * 60 + [False] * 3):
            if breaker.wants_probe():
                breaker.record_probe(ok)
            else:
                breaker.record_result(ok)
            states.append({"breaker": breaker.export_state()})
            journal.append(req, [], states[-1])
        journal.close()
        assert any(state["breaker"]["cooldown"] for state in states)
        assert [extra for _, _, extra in journal.replay()] == states

    def test_non_finite_or_non_float_values_fail_loudly(self, tmp_path):
        journal = SelectorJournal(tmp_path / "journal.jsonl")
        for value in (np.int64(1), 1, True, "1.0", None):
            with pytest.raises(TypeError):
                journal.append(0, [["select", [value]]])
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                journal.append(0, [["select", [0.5, value]]])
            with pytest.raises(ValueError):
                journal.append(0, [["update", [0.5], [value]]])
        with pytest.raises(ValueError):
            journal.append(0, [["update", [0.5]]])  # malformed op
        with pytest.raises(TypeError):
            journal.append(0, [], {"breaker": {"tier": 0.5}})
        with pytest.raises(TypeError):
            journal.append(0, [], {"other": {}})
        # Nothing half-encoded was buffered along the way.
        journal.close()
        assert list(journal.replay()) == []


class TestGroupCommit:
    def test_appends_reach_the_file_only_on_flush(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SelectorJournal(path)
        journal.append(0, [["clear"]])
        journal.append(1, [["clear"]])
        assert not path.exists() or path.read_bytes() == b""
        journal.flush()
        assert len(record_ends(path.read_bytes())) == 2
        journal.append(2, [["clear"]])
        journal.close()  # close flushes
        assert [req for req, _, _ in journal.replay()] == [0, 1, 2]

    def test_torn_group_resumes_at_last_whole_record(self, tmp_path):
        source = tmp_path / "source.jsonl"
        journal = SelectorJournal(source)
        for req in range(3):
            journal.append(req, [["select", [float(req), 0.5]]])
        journal.flush()
        group_start = source.stat().st_size
        for req in range(3, 7):
            journal.append(req, [["update", [0.25], [float(req)]]],
                           {"breaker": {"tier": 0}})
        journal.flush()
        journal.close()
        data = source.read_bytes()
        line_ends = set(record_ends(data))

        # A crash mid-group leaves the file cut at any byte of the
        # group write; recovery keeps exactly the whole records.
        for cut in range(group_start, len(data)):
            path = tmp_path / f"cut-{cut}" / "journal.jsonl"
            path.parent.mkdir()
            path.write_bytes(data[:cut])
            torn = SelectorJournal(path)
            whole = sum(1 for end in line_ends if end <= cut)
            assert [req for req, _, _ in torn.replay()] == \
                list(range(whole))
            good = max((end for end in line_ends if end <= cut),
                       default=0)
            assert torn.tails_quarantined == (cut != good)
            assert path.stat().st_size == good
            # The repaired journal takes the re-served records cleanly.
            for req in range(whole, 7):
                torn.append(req, [["clear"]])
            torn.close()
            assert [req for req, _, _ in torn.replay()] == list(range(7))


class _FailingHandle:
    """A journal handle whose next write keeps ``keep`` bytes of the
    group, then fails: a short write, or an error after a partial one."""

    def __init__(self, real, keep: int, mode: str):
        self.real, self.keep, self.mode = real, keep, mode

    def write(self, data):
        self.real.write(data[:self.keep])
        if self.mode == "short":
            return self.keep
        code = errno.ENOSPC if self.mode == "enospc" else errno.EIO
        raise OSError(code, "injected storage fault")

    def fileno(self):
        return self.real.fileno()

    def close(self):
        self.real.close()


def _group_records():
    return [
        (req, [["update", [0.5, float(req)], [1.0, 2.0 + req]],
               ["select", [float(req), -0.5]]],
         {"breaker": {"tier": req % 2, "failures": 0, "cooldown": req,
                      "probe_streak": 0}})
        for req in range(3, 7)
    ]


class TestFailedGroupWrite:
    """A failed or short group write never leaves a gap or a torn
    record that a later group would follow."""

    def _first_group(self, path):
        journal = SelectorJournal(path)
        for req in range(3):
            journal.append(req, [["select", [float(req), 0.5]]])
        journal.flush()
        return journal, path.stat().st_size

    def _group_size(self, tmp_path):
        probe = SelectorJournal(tmp_path / "probe" / "journal.jsonl")
        for record in _group_records():
            probe.append(*record)
        probe.close()
        return probe.path.stat().st_size

    @pytest.mark.parametrize("mode", ["short", "enospc", "eio"])
    def test_failure_cuts_back_to_last_whole_record(self, tmp_path, mode):
        group_size = self._group_size(tmp_path)
        # Every byte offset of the group: before it, inside each
        # record, on each record boundary, and one byte short of whole.
        for keep in range(group_size):
            path = tmp_path / f"{mode}-{keep}" / "journal.jsonl"
            journal, whole = self._first_group(path)
            for record in _group_records():
                journal.append(*record)
            journal._fh = _FailingHandle(journal._fh, keep, mode)
            with pytest.raises(JournalWriteError):
                journal.flush()
            assert path.stat().st_size == whole, keep
            # Poisoned until the stream is reopened from disk.
            with pytest.raises(JournalWriteError):
                journal.append(7, [["clear"]])
            with pytest.raises(JournalWriteError):
                journal.flush()
            with pytest.raises(JournalWriteError):
                journal.truncate()
            journal.close()
            assert path.stat().st_size == whole
            reopened = SelectorJournal(path)
            assert [req for req, _, _ in reopened.replay()] == [0, 1, 2]
            assert reopened.tails_quarantined == 0
            for record in _group_records():
                reopened.append(*record)
            reopened.close()
            assert list(SelectorJournal(path).replay())[3:] == \
                _group_records()

    def test_failed_cut_back_is_repaired_on_reopen(self, tmp_path,
                                                   monkeypatch):
        # If even the cut-back fails, the torn bytes stay on disk — but
        # nothing may follow them: the journal refuses every write, and
        # reopening quarantines the torn tail before the next group.
        group_size = self._group_size(tmp_path)

        def broken_truncate(path, size):
            raise OSError(errno.EIO, "injected truncate fault")

        for keep in (1, group_size // 2, group_size - 1):
            path = tmp_path / f"keep-{keep}" / "journal.jsonl"
            journal, whole = self._first_group(path)
            for record in _group_records():
                journal.append(*record)
            journal._fh = _FailingHandle(journal._fh, keep, "enospc")
            with monkeypatch.context() as patch:
                patch.setattr(journal_module.os, "truncate",
                              broken_truncate)
                with pytest.raises(JournalWriteError):
                    journal.flush()
            assert path.stat().st_size == whole + keep
            with pytest.raises(JournalWriteError):
                journal.append(7, [["clear"]])
            journal.close()
            assert path.stat().st_size == whole + keep
            reopened = SelectorJournal(path)
            survivors = [req for req, _, _ in reopened.replay()]
            whole_in_group = sum(
                1 for end in record_ends(path.read_bytes())
                if end <= whole + keep) - 3
            assert survivors == list(range(3 + whole_in_group))
            reopened.append(9, [["clear"]])
            reopened.close()
            assert [req for req, _, _ in
                    SelectorJournal(path).replay()] == survivors + [9]

    def test_failed_open_leaves_the_file_alone(self, tmp_path,
                                               monkeypatch):
        path = tmp_path / "journal.jsonl"
        journal, whole = self._first_group(path)
        journal.close()

        def refuse(self):
            raise OSError(errno.EMFILE, "injected open fault")

        monkeypatch.setattr(SelectorJournal, "_open", refuse)
        journal.append(3, [["clear"]])
        with pytest.raises(JournalWriteError):
            journal.flush()
        assert path.stat().st_size == whole
        assert [req for req, _, _ in
                SelectorJournal(path).replay()] == [0, 1, 2]


class TestSnapshotStore:
    def test_retention_keeps_newest(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for req in (10, 20, 30, 40):
            store.save(req, {"value": req})
        names = sorted(p.name for p in tmp_path.glob("snapshot-*.json"))
        assert len(names) == SNAPSHOTS_KEPT
        assert store.load_latest() == (40, {"value": 40})

    def test_corrupt_snapshot_falls_back_to_predecessor(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(10, {"value": 10})
        newest = store.save(20, {"value": 20})
        newest.write_text("not json at all")
        assert store.load_latest() == (10, {"value": 10})
        assert store.snapshots_quarantined == 1
        (quarantined,) = (tmp_path / "quarantine").iterdir()
        assert quarantined.name == newest.name

    def test_all_snapshots_corrupt_returns_none(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for req in (10, 20):
            store.save(req, {"value": req}).write_text("garbage")
        assert store.load_latest() is None
        assert store.snapshots_quarantined == 2

    def test_repeated_corruption_keeps_distinct_evidence(self, tmp_path):
        # The same snapshot name torn twice: the second incident must
        # not overwrite the first one's bytes.
        store = SnapshotStore(tmp_path)
        for round_ in range(2):
            store.save(10, {"value": 10}).write_text(f"garbage #{round_}")
            assert store.load_latest() is None
        quarantine = tmp_path / "quarantine"
        name = "snapshot-000000000010.json"
        assert (quarantine / name).read_text() == "garbage #0"
        assert (quarantine / f"{name}.1").read_text() == "garbage #1"
        assert store.snapshots_quarantined == 2


class _RecordingPolicy:
    """Minimal stand-in implementing the store's policy surface."""

    def __init__(self):
        self.selector = self
        self.journal = None
        self.loaded = None
        self.applied = []

    # selector surface
    def attach_journal(self, sink):
        self.sink = sink

    def detach_journal(self):
        self.sink = None

    def update(self, features, errors):
        self.applied.append(("update", list(features), list(errors)))

    def select(self, features):
        self.applied.append(("select", list(features)))
        return 0

    # policy surface
    def restore_pending(self, features):
        self.applied.append(("restore", list(features)))

    def clear_pending(self):
        self.applied.append(("clear",))

    def load_online_state(self, state):
        self.loaded = state

    def export_online_state(self):
        return {"applied": len(self.applied)}


class TestServeStateStore:
    def test_fresh_directory_recovers_to_start(self, tmp_path):
        store = ServeStateStore(tmp_path, _RecordingPolicy())
        assert store.recover() == (0, {})

    def test_recovery_replays_ops_through_the_policy(self, tmp_path):
        journal = SelectorJournal(tmp_path / "journal.jsonl")
        journal.append(0, [["select", [1.0, 2.0]]], {"breaker": {"tier": 0}})
        journal.append(1, [["update", [3.0], [0.5]], ["clear"]],
                       {"breaker": {"tier": 1}})
        journal.close()
        policy = _RecordingPolicy()
        store = ServeStateStore(tmp_path, policy)
        next_req, extra = store.recover()
        assert next_req == 2
        assert extra == {"breaker": {"tier": 1}}
        assert policy.applied == [
            ("select", [1.0, 2.0]), ("restore", [1.0, 2.0]),
            ("update", [3.0], [0.5]), ("clear",),
        ]
        assert store.replayed_records == 2

    def test_snapshot_bounds_replay(self, tmp_path):
        policy = _RecordingPolicy()
        store = ServeStateStore(tmp_path, policy, snapshot_interval=2)
        store.attach()
        for req in range(5):
            store.commit(req, {"breaker": {"tier": 0}})
            store.maybe_snapshot(req, {"breaker": {"tier": 0}})
        store.close()
        # Snapshots landed at reqs 1 and 3; the journal holds only 4.
        restarted = _RecordingPolicy()
        resumed = ServeStateStore(tmp_path, restarted, snapshot_interval=2)
        next_req, _ = resumed.recover()
        assert next_req == 5
        assert restarted.loaded is not None
        assert resumed.replayed_records == 1

    def test_snapshot_cadence_counts_records_not_indices(self, tmp_path):
        # A fleet stream sees every 4th global index; with cadence keyed
        # on the index ((req + 1) % 8), indices 0, 4, 8, ... would never
        # snapshot.  Counting records snapshots every 8th one.
        store = ServeStateStore(tmp_path, _RecordingPolicy(),
                                snapshot_interval=8)
        store.attach()
        snapshotted = []
        for req in range(0, 80, 4):
            store.commit(req)
            if store.maybe_snapshot(req):
                snapshotted.append(req)
        store.close()
        assert snapshotted == [28, 60]
        # Recovery seeds the count from the replayed records: four
        # more records, not eight, complete the next interval.
        resumed = ServeStateStore(tmp_path, _RecordingPolicy(),
                                  snapshot_interval=8)
        assert resumed.recover()[0] == 77
        assert resumed.replayed_records == 4
        resumed.attach()
        snapshotted = []
        for req in range(80, 120, 4):
            resumed.commit(req)
            if resumed.maybe_snapshot(req):
                snapshotted.append(req)
        assert snapshotted == [92]

    def test_snapshot_interval_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ServeStateStore(tmp_path, _RecordingPolicy(),
                            snapshot_interval=0)


class TestSync:
    def test_sync_fsyncs_the_open_journal(self, tmp_path):
        from repro.serve.journal import SelectorJournal

        journal = SelectorJournal(tmp_path / "journal.jsonl")
        journal.append(0, [["update", [1.0], [0.5]]])
        journal.sync()
        # the record is durable before close: a reader sees it now
        twin = SelectorJournal(tmp_path / "journal.jsonl")
        assert [(req, ops) for req, ops, _ in twin.replay()] == [
            (0, [["update", [1.0], [0.5]]])
        ]
        journal.close()


#: sha256 of the journal :class:`TestBreakerExtra` serves, recorded when
#: the server built a new extra dict for every request.
SOAK_JOURNAL_DIGEST = (
    "8bd8cbc5597e56b200f3dee4a4f6ac1a45b54154b91c7e9ab1b15df58cd2f863"
)


class TestBreakerExtra:
    """The server hands the journal one extra dict per breaker state and
    the journal encodes each once; the records are unchanged by it."""

    def test_soak_journal_bytes_are_unchanged(self, tiny_bundle, tmp_path):
        spec = SoakSpec(requests=400,
                        sensor=SensorFaultSpec(mode="nan", rate=1.0),
                        fault_window=(0.2, 0.5))
        server = PolicyServer(
            build_policy(tiny_bundle),
            ServeConfig(snapshot_interval=spec.requests + 1),
            state_dir=tmp_path / "served", clock=lambda: 0.0,
        )
        requests = [make_request(spec, i) for i in range(spec.requests)]
        for start in range(0, spec.requests, 16):
            server.offer_batch(requests[start:start + 16])
        report = server.report()
        server.close()
        assert report.trips > 0 and report.recoveries > 0

        served = tmp_path / "served" / "journal.jsonl"
        data = served.read_bytes()
        # The reference: every record re-encoded from a fresh extra.
        reference = SelectorJournal(tmp_path / "reference.jsonl")
        records = list(SelectorJournal(served).replay())
        assert len(records) == spec.requests
        assert len({repr(extra) for _, _, extra in records}) > 2
        for req, ops, extra in records:
            reference.append(req, ops, {"breaker": dict(extra["breaker"])})
        reference.close()
        assert reference.path.read_bytes() == data
        assert hashlib.sha256(data).hexdigest() == SOAK_JOURNAL_DIGEST
