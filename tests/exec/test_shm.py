"""Shared-memory rings (`repro.exec.shm`).

The `ShmRing` block transport the serving fleet uses, shared with a
forked child through an anonymous mapping, and the executor's
pickle-only result path (a pool run never touches `/dev/shm`).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exec import Executor
from repro.exec import shm
from tests.exec.test_fault import tiny_request


class TestNamingAndCleanup:
    """Rings are anonymous, so nothing here ever names a segment."""

    def test_executor_pool_run_leaves_no_segments(self):
        # Summaries come back through each worker's pickle pipe, so a
        # pool run creates nothing in /dev/shm.
        before = set(os.listdir("/dev/shm"))
        requests = [tiny_request(seed=seed) for seed in (0, 1, 2, 3)]
        executor = Executor(jobs=2, cache=None)
        executor.run(requests)
        assert executor.last_report.serial_fallbacks == 0
        assert set(os.listdir("/dev/shm")) == before


class TestShmRing:
    def test_round_trip_is_bit_exact(self):
        ring = shm.ShmRing(slots=2, slot_bytes=4096)
        try:
            meta = {"kind": "request", "position": 3}
            arrays = {
                "idx": np.arange(5, dtype=np.int64),
                "time": np.array([0.1, 0.2, np.nan, -0.0, 1e-300]),
            }
            nbytes = ring.write(1, meta, arrays)
            got_meta, got_arrays = ring.read(1, nbytes)
            assert got_meta == meta
            assert got_arrays["idx"].tobytes() == arrays["idx"].tobytes()
            assert got_arrays["time"].tobytes() == \
                arrays["time"].tobytes()
        finally:
            ring.close()

    def test_forked_child_shares_the_ring(self):
        # The parent writes before the fork's child reads it, and the
        # child's reply in another slot is visible to the parent: the
        # mapping is shared, not copied on write.
        ring = shm.ShmRing(slots=2, slot_bytes=4096)
        sent = np.array([0.1, np.nan, -0.0, 5e-324, np.inf])
        reply_r, reply_w = os.pipe()
        try:
            nbytes = ring.write(0, {"n": 5}, {"x": sent})
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                code = 1
                try:
                    meta, arrays = ring.read(0, nbytes)
                    if (meta == {"n": 5}
                            and arrays["x"].tobytes() == sent.tobytes()):
                        reply = ring.write(1, {"ok": True},
                                           {"x": arrays["x"][::-1]})
                        os.write(reply_w, reply.to_bytes(8, "big"))
                        code = 0
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            reply_bytes = int.from_bytes(os.read(reply_r, 8), "big")
            meta, arrays = ring.read(1, reply_bytes)
            assert meta == {"ok": True}
            assert arrays["x"].tobytes() == sent[::-1].tobytes()
        finally:
            os.close(reply_r)
            os.close(reply_w)
            ring.close()

    def test_slots_are_independent(self):
        ring = shm.ShmRing(slots=3, slot_bytes=1024)
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

    def test_oversized_block_rejected_with_remedy(self):
        ring = shm.ShmRing(slots=1, slot_bytes=64)
        try:
            with pytest.raises(ValueError, match="slot_bytes"):
                ring.write(0, {}, {"big": np.zeros(1024)})
        finally:
            ring.close()

    def test_bad_slot_and_size_rejected(self):
        ring = shm.ShmRing(slots=2, slot_bytes=64)
        try:
            with pytest.raises(IndexError):
                ring.write(2, {}, {})
            with pytest.raises(IndexError):
                ring.read(-1, 8)
            with pytest.raises(ValueError, match="larger than a slot"):
                ring.read(0, 65)
            with pytest.raises(ValueError):
                shm.ShmRing(slots=0, slot_bytes=64)
        finally:
            ring.close()

    def test_close_unmaps_and_is_idempotent(self):
        ring = shm.ShmRing(slots=1, slot_bytes=64)
        ring.close()
        ring.close()
        assert ring._mmap.closed
