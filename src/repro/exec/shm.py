"""Shared-memory SoA rings for the serving fleet.

A fleet's parent and each of its shard workers exchange request and
decision blocks through a pair of :class:`ShmRing` segments instead of
pickling them through a pipe: the parent packs a request batch's
feature columns into a free slot, rings a doorbell over the shard's
control pipe, and the shard answers with a decision block in the other
ring.  Every block uses one layout (:func:`pack_block`)::

    [8-byte big-endian header length][pickled header][pad to 8][arrays]

The header carries the block's scalars verbatim (pickled, so types
round-trip exactly) and the array descriptors ``(key, dtype, count,
offset)``; ``float64`` columns round-trip every IEEE double
bit-exactly.

Naming and cleanup discipline: the **parent** assigns segment names
(:func:`segment_name`) *before* starting a shard and tracks them in a
:class:`ShmLedger`; the shard worker creates its rings and never
unlinks.  Whatever happens to the worker — clean exit, exception,
chaos kill, supervisor failover — the parent can always sweep the names
it issued (:func:`unlink`), so no segment outlives the fleet.
Attach-side resource-tracker registration (a Python < 3.13 quirk that
would otherwise double-unlink) is undone defensively.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from typing import Optional, Tuple

import numpy as np

#: Bump when the segment layout changes; decoders reject other versions.
SHM_FORMAT_VERSION = 1

_HEADER_LEN = struct.Struct(">Q")


def shm_available() -> bool:
    """Whether POSIX shared memory actually works here (memoised).

    Sandboxes without ``/dev/shm`` raise on segment creation; probe
    once with a minimal segment instead of failing per run.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


_AVAILABLE: Optional[bool] = None


_COUNTER = 0

#: ``(pid, token)`` memo — recomputed after fork (pid changes).
_TOKEN: Optional[Tuple[int, str]] = None


def _process_token() -> str:
    """A per-process random-once token, deterministic per process.

    ``repro-<pid>-<n>`` alone collides once pids are reused: a fleet
    parent that inherits the pid of a crashed executor would assign
    names a leaked segment of the dead process already occupies, and
    segment *creation* (exclusive) would fail — or worse, a concurrent
    parent with the same recycled pid would sweep the other's segments.
    Hashing the pid together with the kernel's process start time
    (field 22 of ``/proc/<pid>/stat``, ticks since boot) yields a token
    that is stable within a process, differs across pid reuse, and
    needs no RNG state.  Forked children recompute (their pid differs).
    """
    global _TOKEN
    pid = os.getpid()
    if _TOKEN is not None and _TOKEN[0] == pid:
        return _TOKEN[1]
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
        # Field 2 (comm) is parenthesised and may contain spaces;
        # starttime is the 22nd field overall = 20th after the ')'.
        fields = stat[stat.rindex(b")") + 2:].split()
        starttime = fields[19].decode("ascii")
    except (OSError, ValueError, IndexError):  # pragma: no cover
        # No /proc (non-Linux): fall back to the pid-only discipline,
        # which is exactly the pre-token behaviour.
        starttime = "0"
    token = hashlib.sha256(
        f"{pid}:{starttime}".encode("ascii")
    ).hexdigest()[:8]
    _TOKEN = (pid, token)
    return token


def segment_name() -> str:
    """A fresh parent-assigned name (``repro-<pid>-<token>-<n>``)."""
    global _COUNTER
    _COUNTER += 1
    return f"repro-{os.getpid()}-{_process_token()}-{_COUNTER}"


def _attach(name: str):
    """Attach to an existing segment without tracker double-counting.

    Python 3.13 made attachments register with the resource tracker by
    default (``track=True``), which would double-unlink here — the
    creator's registration, shared through the fork-inherited tracker
    process, is the one :func:`unlink` consumes.  Pass ``track=False``
    where supported; earlier versions never tracked attachments.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        return shared_memory.SharedMemory(name=name)


def _unlink_raw(name: str) -> bool:
    """Remove segment ``name`` at the POSIX level, bypassing mmap.

    A worker killed between ``shm_open`` and ``ftruncate`` leaves a
    *torn* zero-byte segment that :class:`SharedMemory` cannot attach
    to (mapping an empty file raises), so the high-level unlink path
    would mistake it for a missing segment and leak it forever.
    """
    try:
        import _posixshmem
    except ImportError:  # pragma: no cover - non-POSIX platform
        return False
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        return False
    except Exception:  # pragma: no cover - permission races
        return False
    return True


def unlink(name: str) -> bool:
    """Best-effort removal of segment ``name``; True if it existed."""
    try:
        segment = _attach(name)
    except FileNotFoundError:
        return False
    except Exception:
        # Attach failures other than "no such segment" usually mean a
        # torn segment from a killed worker; remove it raw.
        return _unlink_raw(name)
    try:
        segment.unlink()
    except Exception:
        pass
    finally:
        try:
            segment.close()
        except Exception:
            pass
    return True


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
    header = pickle.dumps({
        "version": SHM_FORMAT_VERSION,
        "meta": meta,
        "arrays": descriptors,
    }, protocol=4)
    prefix = _HEADER_LEN.pack(len(header)) + header
    prefix += b"\0" * ((-len(prefix)) % 8)
    return prefix + b"".join(chunks)


def unpack_block(buffer) -> Tuple[dict, dict]:
    """Inverse of :func:`pack_block`; arrays are copied out."""
    (header_len,) = _HEADER_LEN.unpack_from(buffer, 0)
    header = pickle.loads(bytes(buffer[8:8 + header_len]))
    if header.get("version") != SHM_FORMAT_VERSION:
        raise ValueError(
            f"block has format {header.get('version')!r}, expected "
            f"{SHM_FORMAT_VERSION}"
        )
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
    """A fixed-slot shared-memory ring of SoA blocks.

    Bulk transport for the serving fleet: the parent writes request
    blocks into free slots and the shard worker writes decision blocks
    back — slot turnover is coordinated entirely out of band (the
    fleet's control pipes carry ``(slot, nbytes)`` doorbells), so the
    ring itself needs no locks or atomics.

    Lifetime follows the module's naming discipline: the side told to
    ``create`` (the worker, so a worker killed mid-creation leaves at
    most a torn segment the raw unlink path handles) makes the segment
    under a parent-assigned, ledger-tracked name; the parent attaches
    and is the only side that ever unlinks.
    """

    def __init__(self, name: str, slots: int, slot_bytes: int,
                 create: bool = False):
        if slots < 1 or slot_bytes < 64:
            raise ValueError("need >= 1 slot of >= 64 bytes")
        from multiprocessing import shared_memory

        self.name = name
        self.slots = slots
        self.slot_bytes = slot_bytes
        if create:
            self._segment = shared_memory.SharedMemory(
                name=name, create=True, size=slots * slot_bytes
            )
        else:
            self._segment = _attach(name)
            if self._segment.size < slots * slot_bytes:
                self._segment.close()
                raise ValueError(
                    f"segment {name!r} smaller than "
                    f"{slots}x{slot_bytes} bytes"
                )

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
        self._segment.buf[base:base + len(block)] = block
        return len(block)

    def read(self, slot: int, nbytes: int) -> Tuple[dict, dict]:
        """Decode the block a doorbell announced for ``slot``."""
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} out of range")
        if nbytes > self.slot_bytes:
            raise ValueError("announced block larger than a slot")
        base = slot * self.slot_bytes
        return unpack_block(self._segment.buf[base:base + nbytes])

    def close(self) -> None:
        try:
            self._segment.close()
        except Exception:
            pass


class ShmLedger:
    """Tracks every shared-memory segment name a fleet issued.

    Ring names are parent-assigned *before* a shard worker starts, so
    the set of segments that could possibly exist is known here
    regardless of how the worker ends — clean exit, exception, chaos
    kill, failover.  The fleet releases a shard's names when it tears
    the shard down and sweeps the remainder when it closes, which is
    what guarantees no ring outlives the fleet.
    """

    def __init__(self):
        self._outstanding: set = set()
        self._issued: set = set()

    def issue(self, name: str) -> str:
        self._outstanding.add(name)
        self._issued.add(name)
        return name

    def release(self, name: str) -> None:
        """Unlink ``name`` (best effort) and mark it consumed.

        The name stays on the lifetime ``issued`` record: a worker
        killed mid-start can materialise its segment *after* the
        parent released the not-yet-existing name, so the final
        :meth:`sweep` must revisit released names too.
        """
        self._outstanding.discard(name)
        unlink(name)

    def sweep(self) -> int:
        """Unlink every segment ever issued; returns how many existed.

        Called after the workers are gone, so nothing can create
        further segments under these names.
        """
        removed = 0
        for name in list(self._issued):
            if unlink(name):
                removed += 1
        self._issued.clear()
        self._outstanding.clear()
        return removed

    def __len__(self) -> int:
        return len(self._outstanding)
