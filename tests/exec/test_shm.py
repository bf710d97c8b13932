"""Shared-memory rings and segment discipline (`repro.exec.shm`).

Segment naming and cleanup discipline (`ShmLedger` sweeps everything
it issued, crash or not), the `ShmRing` block transport the serving
fleet uses, and the executor's pickle-only result path (a pool run
never makes a segment).
"""

from __future__ import annotations

import pytest

from repro.exec import Executor, ShmLedger
from repro.exec import shm
from tests.exec.test_fault import tiny_request

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="no POSIX shared memory here"
)


def segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


class TestNamingAndCleanup:
    def test_segment_names_are_unique_and_pid_scoped(self):
        import os

        first, second = shm.segment_name(), shm.segment_name()
        assert first != second
        assert str(os.getpid()) in first

    def test_unlink_missing_segment_is_false(self):
        assert shm.unlink(shm.segment_name()) is False

    def test_unlink_removes_torn_zero_byte_segment(self):
        # A worker killed between shm_open and ftruncate leaves a
        # zero-byte segment SharedMemory cannot map; unlink must still
        # remove it or chaos kills leak /dev/shm entries forever.
        import os

        name = shm.segment_name()
        path = f"/dev/shm/{name}"
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        open(path, "wb").close()
        try:
            assert shm.unlink(name) is True
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)

    def test_ledger_sweep_removes_outstanding_segments(self):
        ledger = ShmLedger()
        kept = ledger.issue(shm.segment_name())
        shm.ShmRing(kept, 1, 64, create=True).close()
        issued_unused = ledger.issue(shm.segment_name())  # never created
        assert len(ledger) == 2
        assert ledger.sweep() == 1  # only the materialised one existed
        assert len(ledger) == 0
        assert not segment_exists(kept)
        assert not segment_exists(issued_unused)

    def test_release_forgets_and_unlinks(self):
        ledger = ShmLedger()
        name = ledger.issue(shm.segment_name())
        shm.ShmRing(name, 1, 64, create=True).close()
        ledger.release(name)
        assert len(ledger) == 0
        assert not segment_exists(name)

    def test_executor_pool_run_leaves_no_segments(self, monkeypatch):
        # Summaries come back through the pool's pickle pipe: the
        # parent assigns no segment name, so no worker can create one.
        import glob

        before = set(glob.glob("/dev/shm/repro-*"))
        monkeypatch.setattr(shm, "_COUNTER", 0)
        requests = [tiny_request(seed=seed) for seed in (0, 1, 2, 3)]
        executor = Executor(jobs=2, cache=None, checkpoint=None)
        executor.run(requests)
        assert executor.last_report.serial_fallbacks == 0
        assert shm._COUNTER == 0
        assert set(glob.glob("/dev/shm/repro-*")) == before


class TestPidReuseToken:
    def test_fresh_token_defeats_stale_same_pid_names(self, monkeypatch):
        """Pid reuse must not let a new process collide with leaked
        segments of a dead one that had the same pid.

        Forge the stale world: pretend an earlier process with *our*
        pid (the reuse scenario) had token ``deadbeef``, leak one of
        its segments, then recompute the real token and check the new
        names miss the leaked one entirely.
        """
        import os
        from multiprocessing import shared_memory

        monkeypatch.setattr(shm, "_TOKEN", (os.getpid(), "deadbeef"))
        monkeypatch.setattr(shm, "_COUNTER", 0)
        stale_name = shm.segment_name()
        assert "-deadbeef-" in stale_name
        stale = shared_memory.SharedMemory(
            name=stale_name, create=True, size=64
        )
        stale.close()
        try:
            # the reborn process derives its token from /proc starttime,
            # not the pid alone, so its names cannot alias the leak
            monkeypatch.setattr(shm, "_TOKEN", None)
            monkeypatch.setattr(shm, "_COUNTER", 0)
            fresh_name = shm.segment_name()
            assert fresh_name != stale_name
            assert "-deadbeef-" not in fresh_name

            # exclusive creation under the fresh name succeeds even
            # though the stale segment still occupies the old name
            fresh = shared_memory.SharedMemory(
                name=fresh_name, create=True, size=64
            )
            fresh.close()
            ledger = ShmLedger()
            ledger.issue(fresh_name)
            assert ledger.sweep() == 1
            # the sweep removed only what this ledger issued — the
            # stale segment is another process's to reap
            assert not segment_exists(fresh_name)
            assert segment_exists(stale_name)
        finally:
            shm.unlink(stale_name)

    def test_token_survives_within_process(self):
        assert shm._process_token() == shm._process_token()


class TestShmRing:
    def test_round_trip_is_bit_exact(self):
        import numpy as np

        name = shm.segment_name()
        writer = shm.ShmRing(name, slots=2, slot_bytes=4096, create=True)
        try:
            reader = shm.ShmRing(name, slots=2, slot_bytes=4096)
            meta = {"kind": "request", "position": 3}
            arrays = {
                "idx": np.arange(5, dtype=np.int64),
                "time": np.array([0.1, 0.2, np.nan, -0.0, 1e-300]),
            }
            nbytes = writer.write(1, meta, arrays)
            got_meta, got_arrays = reader.read(1, nbytes)
            assert got_meta == meta
            assert got_arrays["idx"].tobytes() == arrays["idx"].tobytes()
            assert got_arrays["time"].tobytes() == \
                arrays["time"].tobytes()
            reader.close()
        finally:
            writer.close()
            shm.unlink(name)

    def test_slots_are_independent(self):
        import numpy as np

        name = shm.segment_name()
        ring = shm.ShmRing(name, slots=3, slot_bytes=1024, create=True)
        try:
            sizes = [
                ring.write(slot, {"slot": slot},
                           {"v": np.full(4, slot, dtype=np.int64)})
                for slot in range(3)
            ]
            for slot, nbytes in enumerate(sizes):
                meta, arrays = ring.read(slot, nbytes)
                assert meta == {"slot": slot}
                assert list(arrays["v"]) == [slot] * 4
        finally:
            ring.close()
            shm.unlink(name)

    def test_oversized_block_rejected_with_remedy(self):
        import numpy as np

        name = shm.segment_name()
        ring = shm.ShmRing(name, slots=1, slot_bytes=64, create=True)
        try:
            with pytest.raises(ValueError, match="slot_bytes"):
                ring.write(0, {}, {"big": np.zeros(1024)})
        finally:
            ring.close()
            shm.unlink(name)

    def test_bad_slot_and_size_rejected(self):
        name = shm.segment_name()
        ring = shm.ShmRing(name, slots=2, slot_bytes=64, create=True)
        try:
            with pytest.raises(IndexError):
                ring.write(2, {}, {})
            with pytest.raises(IndexError):
                ring.read(-1, 8)
            with pytest.raises(ValueError, match="larger than a slot"):
                ring.read(0, 65)
            with pytest.raises(ValueError):
                shm.ShmRing(name, slots=0, slot_bytes=64)
        finally:
            ring.close()
            shm.unlink(name)

    def test_block_version_mismatch_rejected(self, monkeypatch):
        import numpy as np

        monkeypatch.setattr(shm, "SHM_FORMAT_VERSION", 999)
        block = shm.pack_block({}, {"v": np.zeros(2)})
        monkeypatch.undo()
        with pytest.raises(ValueError, match="format"):
            shm.unpack_block(block)

    def test_attach_checks_segment_size(self):
        name = shm.segment_name()
        ring = shm.ShmRing(name, slots=1, slot_bytes=64, create=True)
        try:
            with pytest.raises(ValueError, match="smaller"):
                shm.ShmRing(name, slots=4, slot_bytes=4096)
        finally:
            ring.close()
            shm.unlink(name)
