"""Crash-safe online-learning state: write-ahead journal + snapshots.

The serving runtime's durability story has two layers, both built on
the checksummed-document primitives in :mod:`repro.core.persistence`:

* a **journal** (:class:`SelectorJournal`) — one JSON line per served
  request, carrying the selector/mixture operations that request
  performed (captured by an :class:`_OpBuffer` attached through
  :meth:`~repro.core.selector.HyperplaneSelector.attach_journal`) plus
  the circuit breaker's compact state.  Each line embeds a checksum; a
  torn tail (the classic crash artifact) is detected, quarantined for
  post-mortem, and truncated away;
* periodic **snapshots** (:class:`SnapshotStore`) — checksummed,
  atomically-written documents of the full online state.  A corrupt
  snapshot is quarantined and recovery falls back to the previous one.

Recovery = newest good snapshot + replay of journal records with a
higher request index, driven through the selector's *real*
``update``/``select`` methods — so the restored hyperplanes, running
normalizer, and tie-breaker phase are bit-identical to the state at the
moment of the crash (see ``tests/serve/test_crash_recovery.py``).

Durability model: group commit.  :meth:`SelectorJournal.append`
encodes a record once and buffers the line; :meth:`SelectorJournal.flush`
writes every buffered line in one ``write`` and flushes it to the OS.
The server flushes once per served batch, *before* that batch's
decisions leave it, so no answered decision is ever missing from the
journal after any *process* death (kill -9, unhandled exception, OOM).
Records committed but not yet flushed die with the process, together
with the decisions nobody has seen.  Surviving power loss would
additionally need an fsync per batch, which costs more than the
decisions themselves; a mapping runtime restarted after power loss
retrains cheaply from the last snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.persistence import (
    ChecksumError,
    atomic_copy,
    dump_checked_json,
    load_checked_json,
    move_aside,
    payload_checksum,
    prune_quarantine,
)

#: Snapshots retained on disk.  Two, not one: the newest may be the
#: crash victim, and then its predecessor is the recovery point.
SNAPSHOTS_KEPT = 2


class _OpBuffer:
    """Collects one request's state-mutating operations, in order.

    Implements both sink protocols
    (:class:`~repro.core.selector.SelectorJournalSink` and
    :class:`~repro.core.policies.mixture.MixtureJournalSink`); the
    server drains it into one journal record per request.
    """

    def __init__(self) -> None:
        self.ops: List[list] = []

    def record_update(self, features, errors) -> None:
        self.ops.append([
            "update",
            np.asarray(features, dtype=float).tolist(),
            np.asarray(errors, dtype=float).tolist(),
        ])

    def record_select(self, features) -> None:
        self.ops.append([
            "select", np.asarray(features, dtype=float).tolist(),
        ])

    def record_clear(self) -> None:
        self.ops.append(["clear"])

    def drain(self) -> List[list]:
        ops, self.ops = self.ops, []
        return ops


class SelectorJournal:
    """Append-only, per-record-checksummed journal of served requests.

    One line per record: ``{"crc": "...", "extra": {...}, "ops": [...],
    "req": k}`` where ``crc`` covers everything else.  :meth:`append`
    buffers lines and :meth:`flush` writes them whole in one group; a
    crash can therefore only damage the final group, which
    :meth:`replay` cuts back to its last whole record, quarantining and
    truncating the rest.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = None
        self._pending: List[str] = []
        self.records_written = 0
        self.tails_quarantined = 0

    # -- writing ----------------------------------------------------------

    def append(self, req: int, ops: Sequence[list],
               extra: Optional[dict] = None) -> None:
        """Encode one record and buffer it until the next :meth:`flush`.

        The payload is encoded once, in exactly the canonical form
        :func:`~repro.core.persistence.payload_checksum` hashes, so the
        records must already be plain JSON (Python floats, ints, strings
        — what :class:`_OpBuffer` and the breaker emit); anything else
        raises ``TypeError`` here rather than writing an unverifiable
        line.
        """
        canonical = json.dumps(
            {"req": int(req), "ops": list(ops), "extra": extra or {}},
            sort_keys=True, separators=(",", ":"), allow_nan=False,
        )
        crc = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        # "crc" sorts before every payload key, so the spliced line is
        # itself the sorted-key encoding of the whole record.
        self._pending.append(f'{{"crc":"{crc}",{canonical[1:]}\n')
        self.records_written += 1

    def flush(self) -> None:
        """Write every buffered record in one group and flush it to the
        OS — the durability point against process death."""
        if not self._pending:
            return
        if self._fh is None:
            self._fh = open(self.path, "a")
        lines, self._pending = self._pending, []
        self._fh.write("".join(lines))
        self._fh.flush()

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
        self._pending = []
        self.close()
        # Truncation IS the committed state here: the snapshot written
        # just before covers every record, so a crash mid-truncate only
        # leaves records that replay filters out by request index.
        with open(self.path, "w"):  # sanitize: ok S003
            pass

    def close(self) -> None:
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

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

    def replay(self, after_req: int = -1) -> Iterator[Tuple[int, list, dict]]:
        """Yield ``(req, ops, extra)`` for good records with
        ``req > after_req``; stops at (and repairs) a torn tail.
        Records in either encoding verify: the compact one
        :meth:`append` writes and the spaced one older journals hold.

        Materialised eagerly so the tail repair happens even if the
        caller stops consuming early.
        """
        if not self.path.exists():
            return iter(())
        records: List[Tuple[int, list, dict]] = []
        good_bytes = 0
        damaged = False
        with open(self.path, "rb") as fh:
            for raw in fh:
                if not raw.endswith(b"\n"):
                    # A group write cut just before its last newline:
                    # keeping that record would glue the next append
                    # onto its line, so it is a torn tail too.
                    damaged = True
                    break
                try:
                    line = raw.decode("utf-8")
                    record = json.loads(line)
                    payload = {"req": record["req"], "ops": record["ops"],
                               "extra": record.get("extra", {})}
                    if record.get("crc") != payload_checksum(payload):
                        raise ValueError("crc mismatch")
                except (KeyError, TypeError, ValueError,
                        UnicodeDecodeError):
                    damaged = True
                    break
                good_bytes += len(raw)
                if payload["req"] > after_req:
                    records.append((payload["req"], payload["ops"],
                                    payload["extra"]))
        if damaged:
            self._quarantine_tail(good_bytes)
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
