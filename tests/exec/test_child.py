"""The forked-child lifecycle both process layers share.

A child's pipe reads EOF only when no third process holds a copy of
the other end, so every forked child must close every parent pipe end
it inherited, whichever layer forked the child that end belongs to.
These tests read the socket inodes each process holds in
``/proc/<pid>/fd``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.exec import Executor, PolicySpec, RunRequest
from repro.exec import executor as executor_module
from repro.exec.child import Child
from repro.serve.fleet import FleetConfig, PolicyFleet

pytestmark = pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                                reason="needs /proc to read a process's fds")

#: Directory the fd-recording worker entry point writes into
#: (inherited by forked workers).
_FD_DIR_ENV = "REPRO_TEST_FD_DIR"


def _sockets(pid="self") -> set:
    """Targets of every socket fd ``pid`` holds, e.g. ``socket:[123]``."""
    held = set()
    fd_dir = Path(f"/proc/{pid}/fd")
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(fd_dir / fd)
        except FileNotFoundError:
            continue
        if target.startswith("socket:"):
            held.add(target)
    return held


def _socket(conn) -> str:
    return f"socket:[{os.fstat(conn.fileno()).st_ino}]"


def _exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie not yet reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def _idle_fleet(root: Path) -> PolicyFleet:
    """A 2-shard process fleet that never serves (no policy built)."""
    return PolicyFleet(lambda: None, FleetConfig(shards=2),
                       state_root=root, processes=True)


_real_execute_blob = executor_module._execute_blob


def _recording_blob(blob: bytes):
    """Worker entry point: record this process's sockets, then run."""
    path = Path(os.environ[_FD_DIR_ENV]) / f"{os.getpid()}.txt"
    path.write_text("\n".join(sorted(_sockets())))
    return _real_execute_blob(blob)


def _ends(fleet: PolicyFleet) -> dict:
    """Shard pid -> the socket of the fleet's end of its pipe."""
    return {shard.process.pid: _socket(shard.conn)
            for shard in fleet._shards.values()}


class TestInheritedEnds:
    def test_no_shard_holds_another_childs_parent_end(self, tmp_path):
        fleets = [_idle_fleet(tmp_path / "a"), _idle_fleet(tmp_path / "b")]
        try:
            ends = {}
            for fleet in fleets:
                ends.update(_ends(fleet))
            assert len(set(ends.values())) == 4
            held = {pid: _sockets(pid) & set(ends.values())
                    for pid in ends}
            assert held == {pid: set() for pid in ends}
        finally:
            for fleet in fleets:
                fleet.abort()
        assert multiprocessing.active_children() == []

    def test_shards_exit_when_their_ends_close_beside_another_fleet(
            self, tmp_path):
        first = _idle_fleet(tmp_path / "a")
        second = _idle_fleet(tmp_path / "b")
        try:
            pids = list(_ends(first))
            for shard in first._shards.values():
                shard.conn.close()
            deadline = time.monotonic() + 10.0
            while (not all(map(_exited, pids))
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert [pid for pid in pids if not _exited(pid)] == []
            assert not any(map(_exited, _ends(second)))
        finally:
            first.abort()
            second.abort()
        assert multiprocessing.active_children() == []

    def test_no_executor_worker_holds_a_shard_end(self, tmp_path,
                                                  monkeypatch):
        records = tmp_path / "fds"
        records.mkdir()
        monkeypatch.setenv(_FD_DIR_ENV, str(records))
        monkeypatch.setattr(executor_module, "_execute_blob",
                            _recording_blob)
        fleet = _idle_fleet(tmp_path / "fleet")
        try:
            ends = set(_ends(fleet).values())
            requests = [RunRequest(target="cg", policy=PolicySpec.fixed(8),
                                   iterations_scale=0.05, seed=seed)
                        for seed in range(3)]
            Executor(jobs=2, cache=None, checkpoint=None).run(requests)
        finally:
            fleet.abort()
        held = {path.stem: set(path.read_text().split())
                for path in records.glob("*.txt")}
        assert held
        assert {pid: sockets & ends for pid, sockets in held.items()} == \
            {pid: set() for pid in held}
        assert multiprocessing.active_children() == []


def _exit_with(conn, code: int) -> None:
    os._exit(code)


def _echo_until_eof(conn) -> None:
    while True:
        try:
            conn.send(conn.recv())
        except EOFError:
            return


class TestChild:
    def test_kill_reaps_and_is_idempotent(self):
        child = Child(_echo_until_eof, daemon=True)
        child.conn.send("hi")
        assert child.conn.recv() == "hi"
        assert child.kill() == -9
        assert child.kill() == -9
        assert child.conn.closed
        assert multiprocessing.active_children() == []

    def test_a_dead_child_shows_as_eof(self):
        child = Child(_exit_with, (3,), daemon=False)
        with pytest.raises(EOFError):
            child.conn.recv()
        assert child.kill() == 3
