"""Journal and snapshot durability: torn tails, corruption, recovery.

Every failure injected here is a crash artifact the serving runtime
promises to absorb: a torn final journal line, a flipped byte mid-file,
a corrupted snapshot.  The contract is always the same — quarantine the
evidence, fall back to the last good state, keep serving.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.persistence import payload_checksum
from repro.serve import SelectorJournal, SnapshotStore
from repro.serve.journal import SNAPSHOTS_KEPT, ServeStateStore


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
            journal.append(req, [["clear"]])
        journal.close()
        lines = path.read_text().splitlines()
        # Flip the second record's payload without fixing its crc.
        record = json.loads(lines[1])
        record["ops"] = [["update", [9.0], [9.0]]]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        records = list(journal.replay())
        # Replay trusts nothing after the first bad record.
        assert [req for req, _, _ in records] == [0]
        assert journal.tails_quarantined == 1

    def test_record_crc_covers_whole_payload(self, tmp_path):
        journal = SelectorJournal(tmp_path / "journal.jsonl")
        journal.append(7, [["select", [0.5]]], {"breaker": {"tier": 1}})
        journal.close()
        (line,) = (tmp_path / "journal.jsonl").read_text().splitlines()
        record = json.loads(line)
        assert record["crc"] == payload_checksum({
            "req": 7, "ops": [["select", [0.5]]],
            "extra": {"breaker": {"tier": 1}},
        })

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

    def test_lines_are_the_canonical_encoding(self, tmp_path):
        journal = SelectorJournal(tmp_path / "journal.jsonl")
        journal.append(3, [["update", [0.1, -2.5e-300], [1.0]]],
                       {"breaker": {"tier": 0, "cooldown": 2}})
        journal.close()
        (line,) = (tmp_path / "journal.jsonl").read_text().splitlines()
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True,
                                  separators=(",", ":"))

    def test_non_json_values_fail_loudly(self, tmp_path):
        journal = SelectorJournal(tmp_path / "journal.jsonl")
        with pytest.raises(TypeError):
            journal.append(0, [["select", [np.int64(1)]]])
        with pytest.raises(ValueError):
            journal.append(0, [["select", [float("nan")]]])


class TestGroupCommit:
    def test_appends_reach_the_file_only_on_flush(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SelectorJournal(path)
        journal.append(0, [["clear"]])
        journal.append(1, [["clear"]])
        assert not path.exists() or path.read_text() == ""
        journal.flush()
        assert len(path.read_text().splitlines()) == 2
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
        line_ends = {i + 1 for i, byte in enumerate(data)
                     if byte == ord("\n")}

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

    def test_old_spaced_format_still_replays(self, tmp_path):
        # Journals written before group commit used json.dumps'
        # default separators; replay re-verifies the canonical form.
        path = tmp_path / "journal.jsonl"
        records = [
            (0, [["select", [1.0, 2.0]]], {"breaker": {"tier": 0}}),
            (1, [["update", [1.0], [0.5, 0.25]], ["clear"]], {}),
        ]
        with open(path, "w") as fh:
            for req, ops, extra in records:
                record = {"req": req, "ops": ops, "extra": extra}
                record["crc"] = payload_checksum(dict(record))
                fh.write(json.dumps(record, allow_nan=False,
                                    sort_keys=True) + "\n")
        assert ", " in path.read_text()
        journal = SelectorJournal(path)
        assert list(journal.replay()) == records
        # New compact records continue an old journal.
        journal.append(2, [["clear"]])
        journal.close()
        assert [req for req, _, _ in journal.replay()] == [0, 1, 2]
        assert journal.tails_quarantined == 0


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
        journal.append(0, [["update", 1]])
        journal.sync()
        # the record is durable before close: a reader sees it now
        twin = SelectorJournal(tmp_path / "journal.jsonl")
        assert [(req, ops) for req, ops, _ in twin.replay()] == [
            (0, [["update", 1]])
        ]
        journal.close()
