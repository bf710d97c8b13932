"""Shared-memory SoA rings for the serving fleet.

A fleet's parent and each of its shard workers exchange request and
decision blocks through a pair of :class:`ShmRing` mappings instead of
pickling them through a pipe: the parent packs a request batch's
feature columns into a free slot, rings a doorbell over the shard's
control pipe, and the shard answers with a decision block in the other
ring.  Every block uses one layout (:func:`pack_block`)::

    [8-byte big-endian header length][pickled header][pad to 8][arrays]

The header carries the block's scalars verbatim (pickled, so types
round-trip exactly) and the array descriptors ``(key, dtype, count,
offset)``; ``float64`` columns round-trip every IEEE double
bit-exactly.

Each ring is an anonymous shared mapping.  The parent makes a shard's
two rings before it forks the shard, so the child inherits the same
pages: no ring has a name in ``/dev/shm``, nothing can leak one, and
its pages are freed once every process that maps them has closed them
or died.  Only a parent and the child it forks share a ring, so both
sides always run the same code: a block carries no format version.
The parent closes its mappings when it stops the shard or tears it
down.  A shard or executor worker forked later also inherits the rings
alive at that moment; it never touches them, and they go when it
exits.
"""

from __future__ import annotations

import mmap
import pickle
import struct
from typing import Tuple

import numpy as np

_HEADER_LEN = struct.Struct(">Q")


def pack_block(meta: dict, arrays: dict) -> bytes:
    """Serialize ``(meta, arrays)`` into the segment block layout.

    ``meta`` is any picklable dict of scalars, ``arrays`` a dict of 1-D
    numpy arrays.  ``float64`` columns round-trip IEEE doubles
    bit-exactly, which is what lets the fleet move feature vectors
    through shared memory without perturbing a single ulp.
    """
    descriptors = []
    offset = 0
    chunks = []
    for key, array in arrays.items():
        array = np.ascontiguousarray(array)
        if array.ndim != 1:
            raise ValueError(f"array {key!r} must be 1-D")
        descriptors.append((key, str(array.dtype), int(array.size),
                            offset))
        chunks.append(array.tobytes())
        offset += array.nbytes
    header = pickle.dumps({"meta": meta, "arrays": descriptors},
                          protocol=4)
    prefix = _HEADER_LEN.pack(len(header)) + header
    prefix += b"\0" * ((-len(prefix)) % 8)
    return prefix + b"".join(chunks)


def unpack_block(buffer) -> Tuple[dict, dict]:
    """Inverse of :func:`pack_block`; arrays are copied out."""
    (header_len,) = _HEADER_LEN.unpack_from(buffer, 0)
    header = pickle.loads(bytes(buffer[8:8 + header_len]))
    base = 8 + header_len + ((-(8 + header_len)) % 8)
    arrays = {}
    for key, dtype, count, offset in header["arrays"]:
        view = np.frombuffer(
            buffer, dtype=np.dtype(dtype), count=count,
            offset=base + offset,
        )
        arrays[key] = view.copy()
        del view
    return header["meta"], arrays


class ShmRing:
    """A fixed-slot ring of SoA blocks in an anonymous shared mapping.

    Bulk transport for the serving fleet: the parent writes request
    blocks into free slots and the shard worker writes decision blocks
    back — slot turnover is coordinated entirely out of band (the
    fleet's control pipes carry ``(slot, nbytes)`` doorbells), so the
    ring itself needs no locks or atomics.  Both sides share it by
    fork inheritance (see the module docstring).
    """

    def __init__(self, slots: int, slot_bytes: int):
        if slots < 1 or slot_bytes < 64:
            raise ValueError("need >= 1 slot of >= 64 bytes")
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._mmap = mmap.mmap(-1, slots * slot_bytes)
        self._buf = memoryview(self._mmap)

    def write(self, slot: int, meta: dict, arrays: dict) -> int:
        """Pack a block into ``slot``; returns the byte count to signal."""
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} out of range")
        block = pack_block(meta, arrays)
        if len(block) > self.slot_bytes:
            raise ValueError(
                f"block of {len(block)} bytes exceeds slot capacity "
                f"{self.slot_bytes} (raise slot_bytes or lower "
                f"batch_max)"
            )
        base = slot * self.slot_bytes
        self._buf[base:base + len(block)] = block
        return len(block)

    def read(self, slot: int, nbytes: int) -> Tuple[dict, dict]:
        """Decode the block a doorbell announced for ``slot``."""
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} out of range")
        if nbytes > self.slot_bytes:
            raise ValueError("announced block larger than a slot")
        base = slot * self.slot_bytes
        return unpack_block(self._buf[base:base + nbytes])

    def close(self) -> None:
        """Unmap this process's view of the ring (idempotent)."""
        self._buf.release()
        self._mmap.close()
