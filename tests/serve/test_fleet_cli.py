"""The ``repro serve-fleet`` subcommand, end to end through the CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main


@pytest.fixture
def fleet_args(tmp_path):
    """A small but complete fleet run, inline for determinism."""
    return [
        "serve-fleet", "--tiny", "--requests", "200", "--shards", "2",
        "--batch-max", "16", "--inline",
        "--state-root", str(tmp_path),
    ]


@pytest.fixture
def server_args(tmp_path):
    """A single server (1-shard inline fleet): chaos window and
    persistence."""
    return [
        "serve-fleet", "--tiny", "--requests", "200", "--shards", "1",
        "--inline", "--sensor", "nan", "--fault-window", "0.25", "0.55",
        "--state-root", str(tmp_path),
    ]


def shm_segments():
    if not os.path.isdir("/dev/shm"):
        return set()
    return set(os.listdir("/dev/shm"))


def test_text_report(tiny_bundle, fleet_args, capsys):
    assert main(fleet_args) == 0
    out = capsys.readouterr().out
    assert "fleet: 2 shards, 200 requests (answered 200, shed 0" in out
    assert "throughput:" in out
    assert "p99 <=" in out
    assert "shard 0:" in out
    assert "shard 1:" in out


def test_json_report(tiny_bundle, fleet_args, capsys):
    assert main(fleet_args + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shards"] == 2
    assert payload["total"] == 200
    assert payload["answered"] == 200
    assert payload["failovers"] == 0
    assert len(payload["per_shard"]) == 2
    assert sum(r["total"] for r in payload["per_shard"]) == 200


def test_single_server_text_report(tiny_bundle, server_args, capsys):
    assert main(server_args) == 0
    out = capsys.readouterr().out
    assert "fleet: 1 shards, 200 requests (answered 200, shed 0" in out
    assert "latency histogram:" in out
    assert "shard 0: 200 requests, tiers [" in out
    assert "recoveries" in out


def test_single_server_json_report(tiny_bundle, server_args, capsys):
    assert main(server_args + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 200
    assert payload["answered"] + payload["shed"] == 200
    (row,) = payload["per_shard"]
    assert row["trips"] >= 1
    assert row["journal"]["journal_records"] == 200


def test_single_server_kill_and_verify_twin(tiny_bundle, server_args,
                                            capsys):
    before = shm_segments()
    assert main(server_args + ["--kill-at", "90", "--verify-twin"]) == 0
    out = capsys.readouterr().out
    assert "failover: 1 shard deaths" in out
    assert "twin check: shard killed before request 90" in out
    assert "bit-identical to the inline twin" in out
    assert shm_segments() == before  # inline: no segment ever created


def test_sensor_rate_defaults_to_one(tiny_bundle, tmp_path, capsys):
    # Every request inside the window is corrupted, so every stream
    # trips down the ladder (at rate 0.25 none of them did).
    assert main([
        "serve-fleet", "--tiny", "--requests", "400", "--shards", "1",
        "--inline", "--sensor", "nan", "--fault-window", "0.2", "0.5",
        "--state-root", str(tmp_path), "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(row["trips"] for row in payload["per_shard"]) >= 4


def test_kill_and_verify_recovery(tiny_bundle, tmp_path, capsys):
    assert main([
        "serve-fleet", "--tiny", "--requests", "200", "--shards", "2",
        "--batch-max", "16", "--state-root", str(tmp_path),
        "--kill-at", "90", "--verify-twin",
    ]) == 0
    out = capsys.readouterr().out
    assert "twin check: shard killed before request 90" in out
    assert "bit-identical to the inline twin" in out


def test_resize_kill_and_verify_twin(tiny_bundle, tmp_path, capsys):
    assert main([
        "serve-fleet", "--tiny", "--requests", "240", "--shards", "2",
        "--batch-max", "16", "--state-root", str(tmp_path),
        "--resize-at", "80:4,160:3", "--kill-at", "120", "--supervise",
        "--verify-twin", "--format", "json",
    ]) == 0
    twin = json.loads(capsys.readouterr().out)["twin"]
    assert twin["identical"] is True
    assert twin["resizes"] == 2
    assert twin["final_shards"] == 3
    assert twin["failovers"] >= 1
    assert twin["restarts"] >= 1  # the supervisor arbitrated the loss


def test_listed_alongside_experiments(capsys):
    assert main(["list"]) == 0
    assert "serve-fleet" in capsys.readouterr().out


def test_removed_subcommands_are_gone(capsys):
    assert main(["list"]) == 0
    listing = capsys.readouterr().out
    assert "serve-soak" not in listing
    assert "serve-resize" not in listing
    for name in ("serve-soak", "serve-resize"):
        with pytest.raises(SystemExit):
            main([name, "--tiny"])


def test_rejects_bad_arguments(tiny_bundle):
    for argv in (
        ["--requests", "0"],
        ["--verify-twin"],
        ["--requests", "100", "--kill-at", "500"],
        ["--batch-max", "100", "--queue-capacity", "64"],
        ["--sensor-rate", "1.5"],
        ["--resize-at", "50"],
        ["--requests", "100", "--resize-at", "500:3"],
        ["--verify-recovery"],
        ["--no-supervise"],
    ):
        with pytest.raises(SystemExit):
            main(["serve-fleet"] + argv)


def test_single_server_rejects_bad_arguments(tiny_bundle):
    single = ["serve-fleet", "--shards", "1", "--inline"]
    for argv in (
        ["--requests", "0"],
        ["--verify-twin"],
        ["--requests", "100", "--kill-at", "500"],
    ):
        with pytest.raises(SystemExit):
            main(single + argv)
