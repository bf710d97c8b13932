"""Crash-safe online-learning state: write-ahead journal + snapshots.

The serving runtime's durability story has two layers:

* a **journal** (:class:`SelectorJournal`) — one length-framed binary
  record per served request, carrying the selector/mixture operations
  that request performed (captured by an :class:`_OpBuffer` attached
  through :meth:`~repro.core.selector.HyperplaneSelector.attach_journal`)
  plus the circuit breaker's compact state.  Each record ends in a
  crc32; a torn tail (the classic crash artifact) is detected,
  quarantined for post-mortem, and truncated away.  A journal in the
  retired JSON-line format is refused whole
  (:class:`~repro.core.persistence.UnsupportedFormatError`) and left
  as it is;
* periodic **snapshots** (:class:`SnapshotStore`) — checksummed,
  atomically-written documents of the full online state (the
  primitives in :mod:`repro.core.persistence`).  A corrupt
  snapshot is quarantined and recovery falls back to the previous one.

Recovery = newest good snapshot + replay of journal records with a
higher request index, driven through the selector's *real*
``update``/``select`` methods — so the restored hyperplanes, running
normalizer, and tie-breaker phase are bit-identical to the state at the
moment of the crash (see ``tests/serve/test_crash_recovery.py``).

Durability model: group commit.  :meth:`SelectorJournal.append`
encodes a record once and buffers it; :meth:`SelectorJournal.flush`
writes every buffered record in one unbuffered ``write``.  The server
flushes once per served batch, *before* that batch's decisions leave
it, so no answered decision is ever missing from the journal after any
*process* death (kill -9, unhandled exception, OOM).  Records
committed but not yet flushed die with the process, together with the
decisions nobody has seen.  Surviving power loss would additionally
need an fsync per batch, which costs more than the decisions
themselves; a mapping runtime restarted after power loss retrains
cheaply from the last snapshot.  A group write that fails (``ENOSPC``,
``EIO``, a short write) is cut back to the last whole record and
raises :class:`JournalWriteError`; the journal then refuses every write
until its stream is reopened from disk.
"""

from __future__ import annotations

import errno
import math
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.persistence import (
    ChecksumError,
    UnsupportedFormatError,
    atomic_copy,
    dump_checked_json,
    load_checked_json,
    move_aside,
    prune_quarantine,
)
from .breaker import STATE_FIELDS

#: Snapshots retained on disk.  Two, not one: the newest may be the
#: crash victim, and then its predecessor is the recovery point.
SNAPSHOTS_KEPT = 2

#: First byte of a binary journal record, format version 1.  A journal
#: of the retired JSON-line format starts with ``{``, and 0xB1 is a
#: UTF-8 continuation byte, so no text line can start with it: replay
#: refuses such a journal by its first byte.
RECORD_MAGIC = 0xB1

# Record layout, all little-endian (docs/robustness.md):
#   magic u8 | body length u32 | body | crc32 of everything before it u32
# body:
#   req i64 | op count u8 | ops | breaker presence u8 | non-zero mask u8
#   | each non-zero breaker field as i32, in STATE_FIELDS order
# op: kind u8, then per float vector a count u8 and that many f64s;
#   "u" (update) carries features then errors, "s" (select) features,
#   "c" (clear) nothing.
_HEAD = struct.Struct("<BI")
_BODY_HEAD = struct.Struct("<qB")
_CRC = struct.Struct("<I")
_INT32 = struct.Struct("<i")
_UPDATE, _SELECT, _CLEAR = b"u", b"s", b"c"
_OP_NAMES = {_UPDATE[0]: "update", _SELECT[0]: "select", _CLEAR[0]: "clear"}
#: Breaker-presence bit of the extra block (the low bits flag fields).
_BREAKER_SECTION = 0x80
_COUNT = [bytes((n,)) for n in range(256)]
_LE_FLOAT64 = np.dtype("<f8")
_FLOATS: Dict[int, struct.Struct] = {}


def _floats_struct(count: int) -> struct.Struct:
    packer = _FLOATS.get(count)
    if packer is None:
        packer = _FLOATS[count] = struct.Struct(f"<{count}d")
    return packer


def _raw_vector(values) -> bytes:
    """Count byte + raw float64s of a vector the selector consumed."""
    if type(values) is list:
        return _COUNT[len(values)] + _floats_struct(len(values)).pack(*values)
    array = np.asarray(values, dtype=_LE_FLOAT64)
    return _COUNT[array.size] + array.tobytes()


def _checked_vector(values) -> bytes:
    """:func:`_raw_vector` for caller-built ops: every value must be a
    finite float, as the selector guarantees for what it records."""
    values = list(values)
    for value in values:
        if not isinstance(value, float):
            raise TypeError(
                f"journal op values must be floats, got "
                f"{type(value).__name__}"
            )
        if not math.isfinite(value):
            raise ValueError(f"journal op value {value!r} is not finite")
    if len(values) > 255:
        raise ValueError("a journal op vector holds at most 255 values")
    return _raw_vector([float(value) for value in values])


def _encode_op(op) -> bytes:
    """One op given as a list (``["update", features, errors]``,
    ``["select", features]`` or ``["clear"]``)."""
    kind = op[0]
    if kind == "update":
        _, features, errors = op
        return _UPDATE + _checked_vector(features) + _checked_vector(errors)
    if kind == "select":
        _, features = op
        return _SELECT + _checked_vector(features)
    if kind == "clear" and len(op) == 1:
        return _CLEAR
    raise ValueError(f"malformed journal op {op!r}")


def _pack_breaker(breaker: dict) -> bytes:
    """Presence byte, non-zero mask, then each non-zero field as i32.

    Values must be integers; an integral float is stored as the equal
    integer.
    """
    unknown = set(breaker) - set(STATE_FIELDS)
    if unknown:
        raise TypeError(f"unknown breaker fields {sorted(unknown)}")
    present, nonzero, values = _BREAKER_SECTION, 0, []
    for bit, name in enumerate(STATE_FIELDS):
        if name in breaker:
            raw = breaker[name]
            try:
                value = int(raw)
            except (TypeError, ValueError, OverflowError):
                value = None
            if value is None or value != raw:
                raise TypeError(f"breaker field {name}={raw!r} is not "
                                "an integer")
            present |= 1 << bit
            if value:
                nonzero |= 1 << bit
                values.append(_INT32.pack(value))
    return bytes((present, nonzero)) + b"".join(values)


def _encode_extra(extra: Optional[dict]) -> bytes:
    """The extra block: nothing but the breaker state, or nothing."""
    if not extra:
        return b"\x00\x00"
    breaker = extra.get("breaker")
    if len(extra) != 1 or not isinstance(breaker, dict):
        raise TypeError(
            f"journal extra holds only the breaker state, got {extra!r}"
        )
    return _pack_breaker(breaker)


def _decode_body(body: memoryview) -> Tuple[int, list, dict]:
    """Inverse of the body encoding; ValueError on any inconsistency."""
    req, count = _BODY_HEAD.unpack_from(body, 0)
    offset = _BODY_HEAD.size
    ops: list = []

    def vector() -> list:
        nonlocal offset
        size = body[offset]
        values = _floats_struct(size).unpack_from(body, offset + 1)
        offset += 1 + 8 * size
        return list(values)

    for _ in range(count):
        name = _OP_NAMES.get(body[offset])
        offset += 1
        if name == "update":
            ops.append([name, vector(), vector()])
        elif name == "select":
            ops.append([name, vector()])
        elif name == "clear":
            ops.append([name])
        else:
            raise ValueError(f"unknown op kind {body[offset - 1]}")
    present, nonzero = body[offset], body[offset + 1]
    offset += 2
    extra: dict = {}
    if present:
        fields = (1 << len(STATE_FIELDS)) - 1
        if (present & ~(_BREAKER_SECTION | fields) or nonzero & ~present
                or not present & _BREAKER_SECTION):
            raise ValueError("malformed breaker block")
        breaker = {}
        for bit, name in enumerate(STATE_FIELDS):
            if present >> bit & 1:
                value = 0
                if nonzero >> bit & 1:
                    (value,) = _INT32.unpack_from(body, offset)
                    offset += _INT32.size
                breaker[name] = value
        extra = {"breaker": breaker}
    if offset != len(body):
        raise ValueError("record body length mismatch")
    return req, ops, extra


class JournalWriteError(OSError):
    """A group write failed (``ENOSPC``, ``EIO``, a short write).

    The file was cut back to its last whole record, and the journal
    refuses every later write: the in-memory state has run ahead of
    the disk, so the stream must be reopened (recovered) from disk.
    A fleet shard sets ``stream`` to the stream it was serving.
    """

    stream: Optional[str] = None


class _OpBuffer:
    """Collects one request's state-mutating operations, in order.

    Implements both sink protocols
    (:class:`~repro.core.selector.SelectorJournalSink` and
    :class:`~repro.core.policies.mixture.MixtureJournalSink`); the
    server drains it into one journal record per request.  Each op is
    kept already encoded — raw float64 bytes, no per-value checks: the
    selector records only finite, sanitized features and finite errors.
    """

    def __init__(self) -> None:
        self.ops: List[bytes] = []

    def record_update(self, features, errors) -> None:
        self.ops.append(_UPDATE + _raw_vector(features) + _raw_vector(errors))

    def record_select(self, features) -> None:
        self.ops.append(_SELECT + _raw_vector(features))

    def record_clear(self) -> None:
        self.ops.append(_CLEAR)

    def drain(self) -> List[bytes]:
        ops, self.ops = self.ops, []
        return ops


class SelectorJournal:
    """Append-only, per-record-checksummed journal of served requests.

    One binary record per request (layout in docs/robustness.md):
    ``req``, the ops, the breaker state and a crc32 over the record.
    :meth:`append` buffers records and :meth:`flush` writes them whole
    in one group; a crash can therefore only damage the final group,
    which :meth:`replay` cuts back to its last whole record,
    quarantining and truncating the rest.  The file keeps its
    historical name ``journal.jsonl``.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = None
        self._pending: List[bytes] = []
        #: File size up to the last whole record, while the file is open.
        self._size: Optional[int] = None
        #: The failure that poisoned this journal (see JournalWriteError).
        self._failed: Optional[OSError] = None
        self.records_written = 0
        self.tails_quarantined = 0
        #: The last ``extra`` appended and its encoded block.
        self._extra: Optional[dict] = None
        self._extra_block = _encode_extra(None)

    # -- writing ----------------------------------------------------------

    def _refuse_if_failed(self) -> None:
        if self._failed is not None:
            raise JournalWriteError(
                errno.EIO,
                f"journal {self.path} refused a write after a failed "
                "group write; reopen its stream from disk",
            ) from self._failed

    def append(self, req: int, ops: Sequence,
               extra: Optional[dict] = None) -> None:
        """Encode one record and buffer it until the next :meth:`flush`.

        ``ops`` are :class:`_OpBuffer` ops or lists
        (``["update", features, errors]``, ``["select", features]``,
        ``["clear"]``) whose values must be finite floats, and
        ``extra`` is empty or ``{"breaker": <breaker state>}``;
        anything else raises ``TypeError``/``ValueError`` here rather
        than writing a record that cannot replay.  An ``extra`` that is
        the very object of the previous append is not encoded again, so
        a caller must not mutate one it has passed.
        """
        self._refuse_if_failed()
        encoded = [op if type(op) is bytes else _encode_op(op)
                   for op in ops]
        try:
            if extra is not self._extra:
                self._extra_block = _encode_extra(extra)
                self._extra = extra
            body = b"".join((_BODY_HEAD.pack(req, len(encoded)),
                             *encoded, self._extra_block))
        except struct.error as exc:
            raise ValueError(f"unencodable journal record: {exc}") from exc
        record = _HEAD.pack(RECORD_MAGIC, len(body)) + body
        self._pending.append(record + _CRC.pack(zlib.crc32(record)))
        self.records_written += 1

    def _open(self):
        """The append handle: unbuffered, so one ``write`` is one
        syscall and its count says exactly how much reached the OS."""
        return open(self.path, "ab", buffering=0)

    def flush(self) -> None:
        """Write every buffered record in one group to the OS — the
        durability point against process death.

        A failed or short write cuts the file back to the last whole
        record, poisons the journal and raises :class:`JournalWriteError`,
        so no later group can follow a torn record.
        """
        self._refuse_if_failed()
        if not self._pending:
            return
        group = b"".join(self._pending)
        self._pending = []
        try:
            if self._fh is None:
                self._fh = self._open()
                self._size = os.fstat(self._fh.fileno()).st_size
            written = self._fh.write(group)
            if written != len(group):
                raise OSError(
                    errno.EIO,
                    f"short journal write: {written} of {len(group)} bytes",
                )
        except OSError as exc:
            self._fail(exc)
        self._size += len(group)

    def _fail(self, cause: OSError) -> None:
        self._failed = cause
        if self._size is not None:
            try:
                # None of the group's records counted as written, so
                # whatever part of it reached the file is cut away.
                os.truncate(self.path, self._size)
            except OSError:
                pass  # the torn tail stays; replay quarantines it
        self._close_handle()
        raise JournalWriteError(
            cause.errno or errno.EIO,
            f"journal group write to {self.path} failed ({cause}); "
            "reopen its stream from disk",
        ) from cause

    def sync(self) -> None:
        """Flush, then fsync the journal file (the migration drain
        barrier).

        Steady-state flushes reach the OS only (see the module
        docstring's durability model); a stream about to be *shipped*
        to another shard is different — the copy must observe every
        record, so the drain barrier pays one explicit fsync per
        migrating stream before the hand-off.
        """
        self.flush()
        if self._fh is not None:
            os.fsync(self._fh.fileno())

    def truncate(self) -> None:
        """Empty the journal (its contents, buffered records included,
        are covered by a snapshot)."""
        self._refuse_if_failed()
        self._pending = []
        self.close()
        # Truncation IS the committed state here: the snapshot written
        # just before covers every record, so a crash mid-truncate only
        # leaves records that replay filters out by request index.
        with open(self.path, "w"):  # sanitize: ok S003
            pass

    def _close_handle(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
            self._size = None

    def close(self) -> None:
        """Flush and release the file (a failed journal has nothing
        left to flush and only releases it)."""
        if self._failed is None:
            self.flush()
        self._close_handle()

    # -- reading ----------------------------------------------------------

    def _quarantine_tail(self, good_bytes: int) -> None:
        """Move the undecodable tail aside and truncate to the good
        prefix, so the next append continues a clean journal."""
        quarantine = self.path.parent / "quarantine"
        quarantine.mkdir(parents=True, exist_ok=True)
        with open(self.path, "rb") as fh:
            fh.seek(good_bytes)
            tail = fh.read()
        target = quarantine / f"{self.path.name}.tail-{good_bytes}"
        # Quarantine evidence is best-effort post-mortem material, not
        # recovery state; a torn quarantine file loses nothing.
        with open(target, "wb") as fh:  # sanitize: ok S003
            fh.write(tail)
        with open(self.path, "rb+") as fh:
            fh.truncate(good_bytes)
        self.tails_quarantined += 1
        prune_quarantine(quarantine)

    @staticmethod
    def _next_record(data: bytes, start: int):
        """``((req, ops, extra), end)`` for the record at ``start``, or
        None when it is torn or fails its check."""
        if data[start] != RECORD_MAGIC or start + _HEAD.size > len(data):
            return None
        _, size = _HEAD.unpack_from(data, start)
        body_end = start + _HEAD.size + size
        end = body_end + _CRC.size
        if end > len(data):
            return None
        view = memoryview(data)
        (crc,) = _CRC.unpack_from(data, body_end)
        if zlib.crc32(view[start:body_end]) != crc:
            return None
        try:
            return _decode_body(view[start + _HEAD.size:body_end]), end
        except (IndexError, ValueError, struct.error):
            return None

    def replay(self, after_req: int = -1) -> Iterator[Tuple[int, list, dict]]:
        """Yield ``(req, ops, extra)`` for good records with
        ``req > after_req``; stops at (and repairs) a torn tail.

        A journal whose first byte is ``{`` is in the retired JSON-line
        format: it raises
        :class:`~repro.core.persistence.UnsupportedFormatError` before
        anything is quarantined or truncated.  Materialised eagerly so
        the tail repair happens even if the caller stops consuming
        early.
        """
        if not self.path.exists():
            return iter(())
        data = self.path.read_bytes()
        if data[:1] == b"{":
            raise UnsupportedFormatError(
                f"{self.path} is a JSON-line journal, a retired format; "
                "it was left untouched"
            )
        records: List[Tuple[int, list, dict]] = []
        good_bytes = 0
        while good_bytes < len(data):
            found = self._next_record(data, good_bytes)
            if found is None:
                self._quarantine_tail(good_bytes)
                break
            record, good_bytes = found
            if record[0] > after_req:
                records.append(record)
        return iter(records)


class SnapshotStore:
    """Checksummed full-state snapshots with bounded retention.

    Snapshot files are named by request index
    (``snapshot-<req>.json``), written atomically; the newest
    :data:`SNAPSHOTS_KEPT` are retained.  :meth:`load_latest` verifies
    checksums newest-first, quarantining any corrupt snapshot and
    falling back to its predecessor.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshots_written = 0
        self.snapshots_quarantined = 0

    def _snapshot_paths(self) -> List[Path]:
        return sorted(self.directory.glob("snapshot-*.json"), reverse=True)

    def save(self, req: int, state: dict) -> Path:
        path = self.directory / f"snapshot-{req:012d}.json"
        dump_checked_json({"req": int(req), "state": state}, path)
        self.snapshots_written += 1
        for stale in self._snapshot_paths()[SNAPSHOTS_KEPT:]:
            try:
                stale.unlink()
            except OSError:
                pass
        return path

    def _quarantine(self, path: Path) -> None:
        try:
            moved = move_aside(path, self.directory / "quarantine")
        except OSError:
            return
        if moved is not None:
            self.snapshots_quarantined += 1

    def load_latest(self) -> Optional[Tuple[int, dict]]:
        """Newest verifiable snapshot as ``(req, state)``, or None."""
        for path in self._snapshot_paths():
            try:
                payload = load_checked_json(path)
                return int(payload["req"]), payload["state"]
            except (ChecksumError, KeyError, TypeError, ValueError):
                self._quarantine(path)
        return None


def ship_state(source: Union[str, Path],
               destination: Union[str, Path]) -> List[Path]:
    """Ship a serve-state directory to ``destination`` (atomic copy).

    The fleet's failover primitive: the replacement shard recovers
    from a *copy* of the dead generation's state, exactly as a standby
    on another machine would, and the original survives for
    post-mortem.  Ships the retained snapshots plus the journal —
    each file lands via temp + ``os.replace``, so a crash mid-shipping
    leaves no observably partial file.  A torn journal tail (the
    expected artifact of a SIGKILLed shard) is copied byte-for-byte;
    replay on the receiving side quarantines and truncates it, which
    is precisely the recovery path an in-place restart takes.

    Returns the shipped destination paths.  Shipping from a directory
    that never materialised (a shard killed before its first commit)
    yields an empty destination, from which recovery correctly starts
    at request 0.
    """
    source = Path(source)
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    shipped: List[Path] = []
    if source.is_dir():
        for path in sorted(source.glob("snapshot-*.json")):
            shipped.append(atomic_copy(path, destination / path.name))
        journal = source / "journal.jsonl"
        if journal.exists():
            shipped.append(
                atomic_copy(journal, destination / journal.name)
            )
    return shipped


class ServeStateStore:
    """Everything the server needs to forget nothing across a crash.

    Composes the op buffer, journal and snapshot store around one
    :class:`~repro.core.policies.mixture.MixturePolicy`:

    * :meth:`recover` — restore policy state (snapshot + journal
      replay) *before* journaling is attached, returning the index of
      the next request to serve and any persisted extra state;
    * :meth:`attach` — wire the op buffer into the selector and the
      mixture, from which point every mutation is captured;
    * :meth:`commit` — one journal record per served request (written
      even when no ops happened, so the resume point and extra state
      always advance), buffered until :meth:`flush`;
    * :meth:`flush` — write the buffered records as one group (the
      server calls it once per served batch, before answering);
    * :meth:`maybe_snapshot` — once ``snapshot_interval`` records have
      been committed since the last snapshot, write a full snapshot and
      truncate the journal it covers.  Counting records, not request
      indices, matters for a fleet stream: its indices are a sparse
      subsequence of the global stream.
    """

    def __init__(self, directory: Union[str, Path], policy,
                 snapshot_interval: int = 256):
        if snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        self.directory = Path(directory)
        self.policy = policy
        self.snapshot_interval = snapshot_interval
        self.journal = SelectorJournal(self.directory / "journal.jsonl")
        self.snapshots = SnapshotStore(self.directory)
        self._buffer = _OpBuffer()
        self.recovered_req = -1
        self.replayed_records = 0
        #: Records committed since the newest snapshot.
        self._since_snapshot = 0

    # -- recovery ---------------------------------------------------------

    def _apply_ops(self, ops: Sequence[list]) -> None:
        selector = self.policy.selector
        for op in ops:
            kind = op[0]
            if kind == "update":
                selector.update(np.asarray(op[1], dtype=float), op[2])
            elif kind == "select":
                features = np.asarray(op[1], dtype=float)
                selector.select(features)
                # mixture.select() pairs every selector consult with a
                # fresh pending prediction for the same features.
                self.policy.restore_pending(features)
            elif kind == "clear":
                self.policy.clear_pending()
            else:
                raise ChecksumError(
                    f"journal contains unknown op {kind!r}"
                )

    def recover(self) -> Tuple[int, dict]:
        """Restore the policy; returns ``(next_req, extra_state)``.

        Must run before :meth:`attach` — replayed operations would
        otherwise be journaled a second time.
        """
        last_req = -1
        extra: dict = {}
        snapshot = self.snapshots.load_latest()
        if snapshot is not None:
            last_req, state = snapshot
            self.policy.load_online_state(state["policy"])
            extra = state.get("extra", {})
        for req, ops, record_extra in self.journal.replay(last_req):
            self._apply_ops(ops)
            last_req = req
            extra = record_extra
            self.replayed_records += 1
        self.recovered_req = last_req
        self._since_snapshot = self.replayed_records
        return last_req + 1, extra

    # -- steady state -----------------------------------------------------

    def attach(self) -> None:
        self.policy.selector.attach_journal(self._buffer)
        self.policy.journal = self._buffer

    def detach(self) -> None:
        self.policy.selector.detach_journal()
        self.policy.journal = None

    def commit(self, req: int, extra: Optional[dict] = None) -> None:
        self.journal.append(req, self._buffer.drain(), extra)
        self._since_snapshot += 1

    def flush(self) -> None:
        """Group-write the committed records
        (see :meth:`SelectorJournal.flush`)."""
        self.journal.flush()

    def maybe_snapshot(self, req: int,
                       extra: Optional[dict] = None) -> bool:
        if self._since_snapshot < self.snapshot_interval:
            return False
        self.snapshot(req, extra)
        return True

    def snapshot(self, req: int, extra: Optional[dict] = None) -> None:
        state = {
            "policy": self.policy.export_online_state(),
            "extra": extra or {},
        }
        # Snapshot first, then truncate: a crash in between leaves the
        # snapshot plus a journal whose records it already covers —
        # replay filters them out by request index.
        self.snapshots.save(req, state)
        self.journal.truncate()
        self._since_snapshot = 0

    def sync(self) -> None:
        """Journal-barrier fsync (see :meth:`SelectorJournal.sync`)."""
        self.journal.sync()

    def close(self) -> None:
        self.journal.close()

    def stats(self) -> dict:
        return {
            "journal_records": self.journal.records_written,
            "journal_tails_quarantined": self.journal.tails_quarantined,
            "snapshots_written": self.snapshots.snapshots_written,
            "snapshots_quarantined": self.snapshots.snapshots_quarantined,
            "replayed_records": self.replayed_records,
            "recovered_req": self.recovered_req,
        }
