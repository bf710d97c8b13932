"""Retired on-disk formats are refused whole and left untouched.

Each persisted artefact has one format.  Data in a retired one (a
JSON-line journal, a ``topology.json`` from before placement tables or
one listing lazily shipped evacuations) raises
:class:`~repro.core.persistence.UnsupportedFormatError` before anything
is quarantined, truncated or rewritten: every test here compares the
whole state tree, byte for byte, before and after.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.persistence import (UnsupportedFormatError,
                                    dump_checked_json, load_checked_json,
                                    payload_checksum)
from repro.serve import PolicyServer, SelectorJournal, ServeConfig
from repro.serve.fleet import FleetConfig, PolicyFleet, stream_dirname
from repro.serve.layout import shard_dirname
from repro.serve.resize import FleetTopology
from repro.serve.soak import SoakSpec, build_policy, make_request

SPEC = SoakSpec(requests=60, seed=3)


def json_journal(records, spaced: bool) -> bytes:
    """``records`` as the retired JSON-line writer wrote them."""
    lines = []
    for req, ops, extra in records:
        record = {"req": req, "ops": ops, "extra": extra}
        record["crc"] = payload_checksum(dict(record))
        separators = None if spaced else (",", ":")
        lines.append(json.dumps(record, allow_nan=False, sort_keys=True,
                                separators=separators) + "\n")
    return "".join(lines).encode()


def tree(root: Path) -> dict:
    """Every path under ``root``: file bytes, or None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def assert_untouched(root: Path, before: dict) -> None:
    assert tree(root) == before
    assert not any(Path(name).name == "quarantine" for name in before)


@pytest.fixture
def served_root(tiny_bundle, tmp_path):
    """A state root a closed 2-shard inline fleet left behind."""
    root = tmp_path / "state"
    fleet = PolicyFleet(lambda: build_policy(tiny_bundle),
                        FleetConfig(shards=2, batch_max=8), state_root=root)
    for index in range(SPEC.requests):
        fleet.submit(make_request(SPEC, index))
    fleet.close()
    assert not (root / "quarantine").exists()
    return root


def stream_home(root: Path) -> Path:
    """The home of the first placed stream."""
    placement = FleetTopology.load_or_create(root, [0]).placement
    stream = sorted(placement)[0]
    return (root / shard_dirname(placement[stream], 0)
            / stream_dirname(stream))


def convert_journal(home: Path, spaced: bool) -> None:
    """Rewrite a home's binary journal in the retired JSON-line format."""
    path = home / "journal.jsonl"
    records = list(SelectorJournal(path).replay())
    assert records
    path.write_bytes(json_journal(records, spaced))


@pytest.mark.parametrize("spaced", [False, True])
class TestJsonJournal:
    def test_replay_refuses(self, tmp_path, spaced):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(json_journal(
            [(0, [["select", [1.0, 2.0]]], {"breaker": {"tier": 0}}),
             (1, [["clear"]], {})], spaced))
        before = tree(tmp_path)
        journal = SelectorJournal(path)
        with pytest.raises(UnsupportedFormatError, match="JSON-line"):
            journal.replay()
        assert journal.tails_quarantined == 0
        assert_untouched(tmp_path, before)

    def test_server_refuses(self, tiny_bundle, served_root, spaced):
        home = stream_home(served_root)
        convert_journal(home, spaced)
        before = tree(served_root)
        with pytest.raises(UnsupportedFormatError):
            PolicyServer(build_policy(tiny_bundle), ServeConfig(),
                         state_dir=home)
        assert_untouched(served_root, before)

    def test_inline_fleet_refuses(self, tiny_bundle, served_root, spaced):
        convert_journal(stream_home(served_root), spaced)
        before = tree(served_root)
        with pytest.raises(UnsupportedFormatError):
            PolicyFleet(lambda: build_policy(tiny_bundle),
                        FleetConfig(shards=2), state_root=served_root)
        assert_untouched(served_root, before)


def test_process_fleet_refuses(tiny_bundle, served_root):
    # The shard dies before "ready"; the constructor fails through the
    # spawn path like any shard that dies while recovering.
    convert_journal(stream_home(served_root), spaced=False)
    before = tree(served_root)
    with pytest.raises(EOFError):
        PolicyFleet(lambda: build_policy(tiny_bundle),
                    FleetConfig(shards=2), state_root=served_root,
                    processes=True)
    assert_untouched(served_root, before)


def test_json_line_after_binary_records_is_a_torn_tail(tmp_path):
    # Only a journal that *starts* in the retired format is refused;
    # anything undecodable later is damage, cut away as before.
    path = tmp_path / "journal.jsonl"
    journal = SelectorJournal(path)
    journal.append(0, [["clear"]])
    journal.close()
    good = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(json_journal([(1, [["clear"]], {})], spaced=False))
    torn = SelectorJournal(path)
    assert [req for req, _, _ in torn.replay()] == [0]
    assert torn.tails_quarantined == 1
    assert path.stat().st_size == good


class TestRetiredTopology:
    def rewrite(self, root: Path, edit) -> None:
        path = root / FleetTopology.FILENAME
        doc = load_checked_json(path)
        edit(doc)
        dump_checked_json(doc, path)

    def assert_fleet_refuses(self, tiny_bundle, root: Path) -> None:
        before = tree(root)
        with pytest.raises(UnsupportedFormatError):
            PolicyFleet(lambda: build_policy(tiny_bundle),
                        FleetConfig(shards=2), state_root=root)
        assert_untouched(root, before)

    def test_without_placement(self, tiny_bundle, served_root):
        self.rewrite(served_root, lambda doc: doc.pop("placement"))
        self.assert_fleet_refuses(tiny_bundle, served_root)

    def test_with_pending(self, tiny_bundle, served_root):
        home = stream_home(served_root)
        self.rewrite(served_root, lambda doc: doc.update(
            pending={"lost-stream": str(home)}))
        self.assert_fleet_refuses(tiny_bundle, served_root)

    @pytest.mark.parametrize("doc", [
        ["not", "a", "mapping"],
        {"epoch": "one", "members": [0], "generations": {},
         "placement": {}},
        {"epoch": 0, "members": [0], "generations": [], "placement": {}},
    ])
    def test_wrong_shape_is_refused_not_quarantined(self, tmp_path, doc):
        # Only a document failing its checksum counts as torn.
        dump_checked_json(doc, tmp_path / FleetTopology.FILENAME)
        before = tree(tmp_path)
        with pytest.raises(UnsupportedFormatError):
            FleetTopology.load_or_create(tmp_path, [0, 1])
        assert_untouched(tmp_path, before)
