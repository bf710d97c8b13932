"""Sharded policy-serving fleet: balanced stream placement,
micro-batching, shared-memory transport, and lossless shard failover.

One :class:`~repro.serve.server.PolicyServer` saturates one core — the
decision loop is pure Python around small numpy kernels.  The fleet
scales the serving runtime across cores the way the executor scales
simulations: shard-per-process, with the parent doing nothing per
decision but routing, batching and bookkeeping.

* **Routing** (:class:`ShardRouter`) — a placement table keyed on the
  request's *stream id* (the loop name by default), persisted in
  ``topology.json``.  A stream is placed once, on the least-loaded
  member in its sha256 ring order, and all its requests land on that
  shard, so each shard's online learner sees a coherent substream and
  a stream's state is a pure function of its substream — the property
  the failover twin check relies on.
* **Micro-batching** — per-shard bounded queues flush on ``batch_max``
  or a ``batch_linger`` deadline, feeding the vectorized
  :meth:`~repro.serve.server.PolicyServer.offer_batch` path.  Batch
  boundaries are wall-clock-dependent; batching itself never changes a
  decision: the batch plan is bit-identical to the scalar loop, every
  flush starts at arrival position 0, and ``batch_max <=
  queue_capacity`` is enforced so admission never depends on where a
  linger deadline happened to fall.  One wall-clock input does reach a
  served decision: the per-decision deadline check can demote a slow
  answer to a lower tier after tier 0 has already updated the
  selector.  Selector state is unaffected, but the served
  ``threads@tier`` is not, so twin checks exempt deadline-missed
  decisions.
* **Transport** — request and decision blocks travel through
  :class:`~repro.exec.shm.ShmRing` shared-memory rings as
  structure-of-arrays columns (``float64`` round-trips every IEEE
  double bit-exactly); the control pipes carry only tiny
  ``(slot, nbytes)`` doorbells.  The parent maps a shard's two rings
  anonymously before it forks the shard, which inherits them, so no
  ring has a name that a SIGKILLed shard or parent could leak; the
  parent closes its mappings when the shard stops or is torn down.
* **Receiving** — each process shard's control pipe has one reader,
  :meth:`_ProcessShard._recv`.  :meth:`PolicyFleet.poll` waits on
  every shard's pipe in one ``multiprocessing.connection.wait`` call,
  idle shards included, and :meth:`PolicyFleet.drain` waits on every
  shard with batches in flight at once.  A blocking receive waits
  until one deadline: the supervisor's liveness timeout when a
  :class:`~repro.serve.supervisor.FleetSupervisor` is attached, else
  :attr:`FleetConfig.doorbell_timeout_s`.
* **Failover** — a dead shard is detected at the pipe (``EOFError`` /
  ``BrokenPipeError``; each shard is a
  :class:`~repro.exec.child.Child`, as an executor worker is, and that
  module says why), each of its stream homes is *shipped* (copied into
  a ``*.stage`` directory, torn tails tolerated, then renamed into
  place) to a fresh generation directory, and a replacement
  worker recovers from the copy: newest snapshot + journal replay,
  bit-identical state.  In-flight batches are re-dispatched; the
  replacement recognises already-journaled requests by index and
  answers them with a ``"recovered"`` marker instead of serving them
  twice.  An inline shard can be killed too (its worker is abandoned
  unclosed), and takes the same failover path.  ``verify_twin`` (in
  :mod:`repro.serve.soak`) asserts the whole dance against an
  uninterrupted inline twin.
* **Evacuation** — a supervised member out of restart budget leaves
  the fleet: its streams are re-placed on survivors and their homes
  shipped there the same way, before the new placement is committed.
  Failover, evacuation and resize all move state through the one
  staged ship in :mod:`repro.serve.layout`.
"""

from __future__ import annotations

import bisect
import errno
import hashlib
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..compiler.features import CodeFeatures
from ..core.persistence import move_aside
from ..core.policies.base import PolicyContext, ThreadPolicy
from ..exec.child import Child
from ..exec.fault import RetryPolicy
from ..exec.shm import ShmRing
from ..runtime.metrics import (Counter, FixedBucketHistogram, Gauge,
                               LatencyLedger)
from ..sched.stats import EnvironmentSample
from .layout import (SIDECAR, publish_home, quarantine_dir,
                     shard_dirname, stage_home, stream_dirname,
                     stream_homes)
from .journal import JournalWriteError
from .report import FleetReport, ServeReport, merge_serve_reports
from .server import PolicyServer, ServeConfig, ServeDecision, ServeRequest

#: Tier name of a failover re-delivery the replacement shard recognised
#: as already journaled (answered with no threads, never served twice).
RECOVERED_TIER = "recovered"

#: One (stream id, request) routing unit — the fleet's unit of work.
StreamRequest = Tuple[str, ServeRequest]


class ShardLostError(ConnectionError):
    """A shard process failed or went silent past its deadline.

    Raised by the shard's one pipe reader: ``"unresponsive"`` when no
    message came before the fleet's deadline, ``"journal-write:<ERRNO>"``
    when the worker's last words were a failed journal write.
    Subclasses ``ConnectionError`` (hence ``OSError``) so every
    pipe-error failover path catches it without special-casing.
    ``cause`` is the loss's key in :attr:`FleetReport.failover_causes`.
    """

    def __init__(self, message: str, cause: str = "died"):
        super().__init__(message)
        self.cause = cause


def _journal_cause(code: Optional[int]) -> str:
    """The failover cause of a failed journal write with ``errno`` code,
    e.g. ``"journal-write:ENOSPC"``."""
    return f"journal-write:{errno.errorcode.get(code or 0, code)}"


class ShardRouter:
    """Stream -> shard member placement table over a consistent-hash ring.

    ``replicas`` virtual nodes per member on a sha256 ring (stable
    across processes, unlike the salted builtin ``hash()``) give each
    stream a deterministic *ring order* of members.  A stream is placed
    once, on the first member in its ring order holding the fewest
    streams — consistent hashing with bounded loads at ε = 0, so a
    fresh router keeps every member within one stream of the others —
    and :attr:`placement` remembers it.

    ``members`` is a shard *count* (members ``0..n-1``) or an explicit
    list of member ids; ``placement`` seeds the table.
    """

    def __init__(self, members: Union[int, Sequence[int]],
                 replicas: int = 64,
                 placement: Optional[Dict[str, int]] = None):
        if isinstance(members, int):
            if members < 1:
                raise ValueError("shards and replicas must be >= 1")
            members = range(members)
        member_ids = [int(m) for m in members]
        if not member_ids or replicas < 1:
            raise ValueError("shards and replicas must be >= 1")
        if len(set(member_ids)) != len(member_ids):
            raise ValueError("duplicate shard member ids")
        if any(m < 0 for m in member_ids):
            raise ValueError("shard member ids must be >= 0")
        self.members = tuple(sorted(member_ids))
        self.shards = len(self.members)
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in self.members:
            for replica in range(replicas):
                digest = hashlib.sha256(
                    f"shard-{shard}:{replica}".encode("ascii")
                ).digest()
                points.append((int.from_bytes(digest[:8], "big"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]
        #: Stream id -> member id, for every stream placed so far.
        self.placement: Dict[str, int] = {}
        #: Member id -> number of streams placed on it.
        self.counts: Dict[int, int] = dict.fromkeys(self.members, 0)
        for stream, member in (placement or {}).items():
            if member not in self.counts:
                raise ValueError(
                    f"stream {stream!r} is placed on {member}, which is "
                    "not a member"
                )
            self.placement[stream] = member
            self.counts[member] += 1

    def ring_order(self, stream: str) -> Iterator[int]:
        """Every member once, clockwise from ``stream``'s ring point."""
        digest = hashlib.sha256(stream.encode("utf-8")).digest()
        point = int.from_bytes(digest[:8], "big")
        start = bisect.bisect_right(self._points, point)
        seen = set()
        for step in range(len(self._owners)):
            member = self._owners[(start + step) % len(self._owners)]
            if member not in seen:
                seen.add(member)
                yield member

    def route(self, stream: str) -> int:
        """The member serving ``stream``, placing it on first sight."""
        member = self.placement.get(stream)
        if member is None:
            fewest = min(self.counts.values())
            member = next(m for m in self.ring_order(stream)
                          if self.counts[m] == fewest)
            self.placement[stream] = member
            self.counts[member] += 1
        return member


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the sharded serving fleet."""

    shards: int = 2
    #: Micro-batch flush threshold (requests per shard batch).
    batch_max: int = 32
    #: Flush deadline for a partially-filled batch, seconds.
    batch_linger_s: float = 0.002
    #: Shared-memory ring slots per direction (in-flight window).
    ring_slots: int = 4
    #: Bytes per ring slot; must hold one encoded ``batch_max`` block.
    slot_bytes: int = 1 << 16
    #: Virtual nodes per shard on the consistent-hash ring.
    replicas: int = 64
    #: Longest the parent waits on a shard's control pipe before
    #: declaring it lost (:class:`ShardLostError`), e.g. a worker that
    #: wedged with a batch in flight.  A supervised fleet waits the
    #: supervisor's ``liveness_timeout_s`` instead.
    doorbell_timeout_s: float = 30.0
    serve: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.batch_max > self.serve.queue_capacity:
            # Every flush starts at arrival position 0, so a batch
            # bounded by the queue capacity is never shed — which is
            # what makes decisions independent of linger timing.
            raise ValueError(
                "batch_max must not exceed serve.queue_capacity "
                "(linger-timed batch boundaries would otherwise "
                "change admission)"
            )
        if self.batch_linger_s < 0:
            raise ValueError("batch_linger_s cannot be negative")
        if self.ring_slots < 1:
            raise ValueError("ring_slots must be >= 1")
        if self.slot_bytes < 64:
            raise ValueError("slot_bytes must be >= 64")
        if self.doorbell_timeout_s <= 0:
            raise ValueError("doorbell_timeout_s must be positive")


# -- request/decision wire codec -------------------------------------------

#: EnvironmentSample scalar fields, in declaration order.
_ENV_FIELDS = (
    "time", "workload_threads", "processors", "runq_sz",
    "ldavg_1", "ldavg_5", "cached_memory", "pages_free_rate",
)


def _interner(vocab: List[str]) -> Callable[[str], int]:
    """``intern(text)``: its index in ``vocab``, appended on first sight."""
    slots: Dict[str, int] = {}

    def intern(text: str) -> int:
        slot = slots.get(text)
        if slot is None:
            slot = slots[text] = len(vocab)
            vocab.append(text)
        return slot

    return intern


def encode_requests(
    batch: Sequence[StreamRequest], start_position: int = 0
) -> Tuple[dict, dict]:
    """Flatten ``(stream, request)`` pairs into SoA ring columns.

    Every float field travels as ``float64`` and therefore round-trips
    bit-exactly: the feature vector a shard rebuilds is the feature
    vector the parent held, to the last ulp.  The stream id travels as
    a vocab-interned column — the shard needs it to pick the stream's
    server, because per-stream serving state is what makes a single
    stream migratable during live resharding.
    """
    vocab: List[str] = []
    intern = _interner(vocab)
    n = len(batch)
    idx = np.empty(n, dtype=np.int64)
    times = np.empty(n, dtype=np.float64)
    stream_col = np.empty(n, dtype=np.int64)
    loop = np.empty(n, dtype=np.int64)
    available = np.empty(n, dtype=np.int64)
    max_threads = np.empty(n, dtype=np.int64)
    code = np.empty(3 * n, dtype=np.float64)
    env = np.empty(len(_ENV_FIELDS) * n, dtype=np.float64)
    for i, (stream, request) in enumerate(batch):
        ctx = request.ctx
        idx[i] = request.index
        times[i] = ctx.time
        stream_col[i] = intern(stream)
        loop[i] = intern(ctx.loop_name)
        available[i] = ctx.available_processors
        max_threads[i] = ctx.max_threads
        code[3 * i:3 * i + 3] = ctx.code.as_tuple()
        base = len(_ENV_FIELDS) * i
        for j, name in enumerate(_ENV_FIELDS):
            env[base + j] = getattr(ctx.env, name)
    meta = {"kind": "requests", "n": n, "vocab": vocab,
            "start_position": int(start_position)}
    arrays = {"idx": idx, "time": times, "stream": stream_col,
              "loop": loop, "available": available,
              "max_threads": max_threads, "code": code, "env": env}
    return meta, arrays


def decode_requests(
    meta: dict, arrays: dict
) -> Tuple[int, List[StreamRequest]]:
    """Inverse of :func:`encode_requests`.

    Column by column: each ring column becomes Python values with one
    ``tolist()``, so no field pays a NumPy scalar index.
    """
    if meta.get("kind") != "requests":
        raise ValueError(f"expected a request block, got {meta.get('kind')!r}")
    vocab = meta["vocab"]
    n = int(meta["n"])
    envs = arrays["env"].reshape(n, len(_ENV_FIELDS)).tolist()
    codes = arrays["code"].reshape(n, 3).tolist()
    batch: List[StreamRequest] = []
    for index, time_, stream, loop, available, max_threads, code, env in zip(
        arrays["idx"].tolist(), arrays["time"].tolist(),
        arrays["stream"].tolist(), arrays["loop"].tolist(),
        arrays["available"].tolist(), arrays["max_threads"].tolist(),
        codes, envs,
    ):
        ctx = PolicyContext(
            time=time_,
            loop_name=vocab[loop],
            code=CodeFeatures(*code),
            env=EnvironmentSample(*env),
            available_processors=available,
            max_threads=max_threads,
        )
        batch.append((vocab[stream], ServeRequest(index=index, ctx=ctx)))
    return int(meta["start_position"]), batch


def encode_decisions(
    decisions: Sequence[ServeDecision], recovered: int = 0
) -> Tuple[dict, dict]:
    """Flatten decisions into SoA columns for the return ring."""
    vocab: List[str] = []
    intern = _interner(vocab)
    n = len(decisions)
    idx = np.empty(n, dtype=np.int64)
    threads = np.empty(n, dtype=np.int64)
    tier = np.empty(n, dtype=np.int64)
    latency = np.empty(n, dtype=np.float64)
    flags = np.empty(n, dtype=np.int64)
    failure = np.empty(n, dtype=np.int64)
    for i, decision in enumerate(decisions):
        idx[i] = decision.index
        threads[i] = -1 if decision.threads is None else decision.threads
        tier[i] = intern(decision.tier)
        latency[i] = decision.latency_s
        flags[i] = (1 if decision.shed else 0) | (
            2 if decision.deadline_missed else 0
        )
        failure[i] = (
            -1 if decision.failure is None else intern(decision.failure)
        )
    meta = {"kind": "decisions", "n": n, "vocab": vocab,
            "recovered": int(recovered)}
    arrays = {"idx": idx, "threads": threads, "tier": tier,
              "latency": latency, "flags": flags, "failure": failure}
    return meta, arrays


def decode_decisions(meta: dict, arrays: dict) -> Tuple[int, List[ServeDecision]]:
    """Inverse of :func:`encode_decisions`: ``(recovered, decisions)``,
    decoded column by column like :func:`decode_requests`."""
    if meta.get("kind") != "decisions":
        raise ValueError(f"expected a decision block, got {meta.get('kind')!r}")
    vocab = meta["vocab"]
    columns = [arrays[key].tolist() for key in
               ("idx", "threads", "tier", "latency", "flags", "failure")]
    decisions = [
        ServeDecision(
            index=index, threads=None if threads < 0 else threads,
            tier=vocab[tier], latency_s=latency, shed=bool(flags & 1),
            deadline_missed=bool(flags & 2),
            failure=None if failure < 0 else vocab[failure])
        for index, threads, tier, latency, flags, failure in zip(*columns)
    ]
    return int(meta.get("recovered", 0)), decisions


# -- the shard-side serving core -------------------------------------------


class ShardWorker:
    """One shard's serving core: per-stream servers + the dedupe rule.

    Used both inline (deterministic tests, the resize/failover twin)
    and as the body of a shard process.  Each stream gets its *own*
    :class:`~repro.serve.server.PolicyServer` with its own journal +
    snapshot directory, so a stream's decisions are a pure function of
    that stream's request prefix — independent of which shard hosts it.
    That placement-independence is what live resharding rests on: one
    stream's directory can be drained, shipped and re-opened elsewhere
    without touching its neighbours, and a resized fleet stays
    bit-identical to a never-resized twin.

    The dedupe rule makes re-dispatch after failover or migration
    lossless instead of double-serving: every request — served or shed
    — advances its stream's journal, so after recovery
    ``server.next_index`` is exactly the first index that stream had
    *not* durably processed.  Re-delivered requests below it are
    answered with a :data:`RECOVERED_TIER` marker.
    """

    def __init__(self, policy_factory: Callable[[], ThreadPolicy],
                 config: ServeConfig,
                 state_dir: Optional[Union[str, Path]] = None):
        self.policy_factory = policy_factory
        self.config = config
        self.state_dir = None if state_dir is None else Path(state_dir)
        self.servers: Dict[str, PolicyServer] = {}
        self.recovered = 0
        #: One latency ledger shared by every stream server, so the
        #: shard-level latency summary is exact (raw samples), not a
        #: lossy merge of per-stream percentiles.
        self.latency = LatencyLedger()
        #: Flush-level gauge: size of whole micro-batches as
        #: dispatched, regardless of how they split across streams.
        self.batch_sizes = Gauge()
        #: Reports of servers drained away by a migration — their
        #: served requests still belong in this shard's totals.
        self._retired_reports: List[ServeReport] = []
        if self.state_dir is not None:
            # Eagerly re-open every stream home; staging leftovers and
            # torn sidecars are quarantined, never opened.
            for stream, home in stream_homes(self.state_dir).items():
                self._open(stream, home)

    # -- stream lifecycle --------------------------------------------------

    def _open(self, stream: str, directory: Optional[Path]) -> PolicyServer:
        server = PolicyServer(self.policy_factory(), self.config,
                              state_dir=directory)
        # Share the shard ledger: per-stream percentiles merge lossily,
        # raw samples don't.
        server.latency = self.latency
        self.servers[stream] = server
        return server

    def server_for(self, stream: str) -> PolicyServer:
        """The stream's server, created (and recovered) on first use.

        Creation is lazy so a stream whose home was shipped in *after*
        this worker started (an evacuation or resize target) recovers
        from the shipped journal the moment its first request arrives;
        a stream with no home gets a new, empty one.
        """
        server = self.servers.get(stream)
        if server is not None:
            return server
        directory = None
        if self.state_dir is not None:
            directory = self.state_dir / stream_dirname(stream)
            if not (directory / SIDECAR).exists():
                publish_home(stage_home(stream, directory))
        return self._open(stream, directory)

    def resume_map(self) -> Dict[str, int]:
        """Per-stream first-unjournaled index (the recovery frontier)."""
        return {stream: server.next_index
                for stream, server in self.servers.items()}

    def drain_streams(self, streams: Sequence[str]) -> Dict[str, int]:
        """Migration drain barrier: fsync, close and retire streams.

        Returns each drained stream's resume index.  After this the
        stream's directory is quiescent on disk — safe to ship — and
        this worker will never touch it again (the server object is
        dropped; a stray later request would open a *fresh* server,
        which the epoch-swap protocol prevents by rerouting first).
        """
        resumed: Dict[str, int] = {}
        for stream in streams:
            server = self.servers.pop(stream, None)
            if server is None:
                continue
            if server.store is not None:
                server.store.sync()
            self._retired_reports.append(server.report())
            server.close()
            resumed[stream] = server.next_index
        return resumed

    # -- serving -----------------------------------------------------------

    def serve_batch(
        self, position: int, batch: Sequence[StreamRequest]
    ) -> Tuple[List[ServeDecision], int]:
        """Serve one micro-batch of pairs; returns ``(decisions, deduped)``.

        The batch is split by stream; each stream's sub-batch is served
        by that stream's server from arrival position 0 — so admission
        and decisions depend only on (stream, prefix), never on which
        other streams happened to share the flush or the shard.
        """
        batch = list(batch)
        groups: Dict[str, List[ServeRequest]] = {}
        order: List[Tuple[str, int]] = []
        for stream, request in batch:
            groups.setdefault(stream, []).append(request)
            order.append((stream, request.index))
        answered: Dict[Tuple[str, int], ServeDecision] = {}
        deduped = 0
        for stream, requests in groups.items():
            server = self.server_for(stream)
            # A stream's substream has strictly increasing indices, so
            # the already-journaled part of a re-delivery is a prefix.
            skip = 0
            while (skip < len(requests)
                   and requests[skip].index < server.next_index):
                skip += 1
            for request in requests[:skip]:
                answered[(stream, request.index)] = ServeDecision(
                    index=request.index, threads=None,
                    tier=RECOVERED_TIER, latency_s=0.0,
                )
            deduped += skip
            if skip < len(requests):
                try:
                    decisions = server.offer_batch(
                        requests[skip:], start_position=position + skip
                    )
                except JournalWriteError as exc:
                    exc.stream = stream
                    raise
                for request, decision in zip(requests[skip:], decisions):
                    answered[(stream, request.index)] = decision
        self.recovered += deduped
        self.batch_sizes.record(float(len(batch)))
        return [answered[key] for key in order], deduped

    # -- bookkeeping -------------------------------------------------------

    def report(self) -> ServeReport:
        reports = [server.report() for server in self.servers.values()]
        reports.extend(self._retired_reports)
        return merge_serve_reports(
            reports,
            latency=self.latency.snapshot(),
            latency_histogram=self.latency.histogram.snapshot(),
            batch_sizes=self.batch_sizes.snapshot(),
        )

    def states(self) -> Dict[str, dict]:
        """Per-stream online learner state (live streams only —
        migrated-away streams export wherever they now live)."""
        return {stream: server.policy.export_online_state()
                for stream, server in self.servers.items()}

    def close(self) -> None:
        for server in self.servers.values():
            server.close()


def _shard_worker_main(conn, policy_factory, state_dir, serve_config,
                       request_ring: ShmRing,
                       decision_ring: ShmRing) -> None:
    """Shard process body: recover, announce readiness, serve doorbells.

    Both rings were mapped by the parent before the fork.  Request
    blocks arrive as ``("req", slot, nbytes)`` doorbells; each is
    answered with a decision block in the same slot of the return
    ring.  The control pipe also carries supervision traffic:
    ``("ping", seq)`` heartbeats (echoed as ``("pong", seq)``) and
    ``("drain", streams)`` migration barriers (answered
    ``("drained", resume indices)``).
    A failed journal write ends the worker after one
    ``("failed", "journal-write", errno, stream)`` message, so the
    parent's failover knows why the shard died.
    """
    try:
        worker = ShardWorker(policy_factory, serve_config, state_dir)
        conn.send(("ready",))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "req":
                _, slot, nbytes = message
                meta, arrays = request_ring.read(slot, nbytes)
                position, batch = decode_requests(meta, arrays)
                decisions, deduped = worker.serve_batch(position, batch)
                reply_meta, reply_arrays = encode_decisions(
                    decisions, recovered=deduped
                )
                written = decision_ring.write(slot, reply_meta,
                                              reply_arrays)
                conn.send(("dec", slot, written))
            elif kind == "ping":
                conn.send(("pong", message[1]))
            elif kind == "drain":
                conn.send(("drained", worker.drain_streams(message[1])))
            elif kind == "stop":
                worker.close()
                conn.send(("stopped", worker.report(), worker.states()))
                break
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown fleet message {kind!r}")
    except JournalWriteError as exc:
        try:
            conn.send(("failed", "journal-write", exc.errno, exc.stream))
        except OSError:
            pass
    except (EOFError, OSError, BrokenPipeError, KeyboardInterrupt):
        # Parent died or tore the pipe down: exit quietly.
        pass
    finally:
        request_ring.close()
        decision_ring.close()
        try:
            conn.close()
        except OSError:
            pass


class _InlineShard:
    """In-process shard: same micro-batching, no transport.

    The deterministic twin for the soak verifiers, the single server
    (a 1-shard inline fleet) and the single-core fallback — decisions
    are bit-identical to the process mode's because both run the same
    :class:`ShardWorker` over the same per-stream substreams.

    :meth:`PolicyFleet.kill_shard` abandons the worker without closing
    it, like a process that just died: its journals hold exactly what was flushed, and
    every later call raises the pipe error a dead process raises, so
    the fleet's failover path runs unchanged.
    """

    def __init__(self, index: int, generation: int, policy_factory,
                 serve_config, state_dir):
        self.index = index
        self.generation = generation
        self.state_dir = state_dir
        self.worker = ShardWorker(policy_factory, serve_config,
                                  state_dir)
        self.pending: List[StreamRequest] = []
        self.deadline: Optional[float] = None
        #: Always empty: an inline batch is answered as it is dispatched.
        self.inflight: Dict[int, Tuple[int, List[StreamRequest]]] = {}
        self.killed = False

    def _live_worker(self) -> ShardWorker:
        if self.killed:
            raise BrokenPipeError(
                f"inline shard {self.index} (gen {self.generation}) "
                "was killed"
            )
        return self.worker

    def dispatch(self, batch: List[StreamRequest], sink) -> None:
        decisions, deduped = self._live_worker().serve_batch(0, batch)
        sink(self.index, decisions, deduped)

    def drain_streams(self, streams: Sequence[str]) -> Dict[str, int]:
        return self._live_worker().drain_streams(streams)

    def stop(self, sink) -> Tuple[ServeReport, Dict[str, dict]]:
        worker = self._live_worker()
        worker.close()
        return worker.report(), worker.states()

    def teardown(self) -> List[Tuple[int, List[StreamRequest]]]:
        return []  # nothing is ever in flight inline


class _ProcessShard(Child):
    """One shard process plus its rings, pipe and in-flight window.

    :meth:`_recv` is the only parent code that reads the control pipe,
    and :meth:`~repro.exec.child.Child.kill` ends the process.  Shards
    are daemonic, so a fleet left unclosed cannot hang interpreter exit.
    """

    def __init__(self, index: int, generation: int, policy_factory,
                 serve_config, state_dir, fleet_config: FleetConfig,
                 receive_by: Callable[[], float],
                 clock: Callable[[], float], events: Counter):
        self.index = index
        self.generation = generation
        self.state_dir = state_dir
        self.pending: List[StreamRequest] = []
        self.deadline: Optional[float] = None
        #: slot -> (position, batch), oldest first (dict is ordered).
        self.inflight: Dict[int, Tuple[int, List[StreamRequest]]] = {}
        self.free_slots = list(range(fleet_config.ring_slots))
        #: The fleet's deadline rule: the clock time by which a
        #: blocking receive begun now must be answered.
        self._receive_by = receive_by
        self._clock = clock
        self._events = events
        #: Clock time of the first ping sent since the worker's last
        #: message; ``None`` while it owes no pong.
        self.owes_since: Optional[float] = None
        self.request_ring, self.decision_ring = (
            ShmRing(fleet_config.ring_slots, fleet_config.slot_bytes)
            for _ in range(2))
        try:
            super().__init__(_shard_worker_main, (
                policy_factory, state_dir, serve_config,
                self.request_ring, self.decision_ring,
            ), daemon=True)
            # Waits until the worker has finished recovery; a death
            # here surfaces as ShardLostError/EOFError for the
            # spawn-retry loop.
            message = self._recv(self._receive_by())
            if message[0] != "ready":  # pragma: no cover - protocol error
                raise RuntimeError(
                    f"shard sent {message[0]!r} before ready"
                )
        except BaseException:
            # Transient fork failures are retried by the fleet's spawn
            # loop; leave nothing behind for the next attempt.
            self.teardown()
            raise

    # -- transport ---------------------------------------------------------

    def _recv(self, deadline: Optional[float] = None):
        """Read the control pipe: the next message that is not a pong.

        With a ``deadline`` (a clock time) this waits until then, and
        raises :class:`ShardLostError` ``"unresponsive"`` if nothing
        but pongs came.  Without one, the pipe is known to be ready and
        exactly one message is read; a pong then returns ``None``.  A
        ``("failed", ...)`` message raises the typed loss it names, and
        a dead worker raises ``EOFError`` (see :mod:`repro.exec.child`).
        """
        while deadline is None or wait(
                [self.conn], max(0.0, deadline - self._clock())):
            message = self.conn.recv()
            self.owes_since = None
            if message[0] == "failed":
                _, kind, code, stream = message
                raise ShardLostError(
                    f"shard {self.index} (gen {self.generation}) exited "
                    f"after a failed {kind} (errno {code}) on stream "
                    f"{stream!r}",
                    cause=_journal_cause(code),
                )
            if message[0] != "pong":
                return message
            if deadline is None:
                return None
        self._events.bump("heartbeat_timeouts")
        raise ShardLostError(
            f"shard {self.index} (gen {self.generation}) unresponsive "
            "past its deadline",
            cause="unresponsive",
        )

    def _send(self, message) -> None:
        """Send one control message.

        A torn pipe means the worker is gone, but its last words (a
        failed journal write, say) may still wait unread: the pipe is
        read to EOF, so the error raised names the loss's cause.
        """
        try:
            self.conn.send(message)
        except OSError:
            while True:
                self._recv(self._receive_by())

    def ping(self, seq: int) -> None:
        """Send one heartbeat; the fleet's next receive reads the pong."""
        self._send(("ping", seq))
        if self.owes_since is None:
            self.owes_since = self._clock()

    def dispatch(self, batch: List[StreamRequest], sink) -> None:
        """Ship one micro-batch; blocks for a free slot when the
        in-flight window is full (ring slots are the backpressure).

        The in-flight record is written only after a successful send:
        a batch that fails *here* is still owned by the caller (which
        re-dispatches it after failover), while a batch that fails
        *after* the send is owned by the in-flight window (which the
        failover teardown returns for re-dispatch) — each failed batch
        has exactly one owner, so none is lost or served twice.
        """
        while not self.free_slots:
            self.collect(sink, self._receive_by())
        slot = self.free_slots.pop()
        meta, arrays = encode_requests(batch, start_position=0)
        nbytes = self.request_ring.write(slot, meta, arrays)
        self._send(("req", slot, nbytes))
        self.inflight[slot] = (0, batch)

    def collect(self, sink, deadline: Optional[float] = None) -> None:
        """Hand the next decision block to ``sink`` and free its slot;
        ``deadline`` is :meth:`_recv`'s (a pong read alone is a no-op)."""
        message = self._recv(deadline)
        if message is None:
            return
        if message[0] != "dec":  # pragma: no cover - protocol error
            raise RuntimeError(f"unexpected fleet message {message[0]!r}")
        _, slot, nbytes = message
        meta, arrays = self.decision_ring.read(slot, nbytes)
        deduped, decisions = decode_decisions(meta, arrays)
        self.inflight.pop(slot, None)
        self.free_slots.append(slot)
        sink(self.index, decisions, deduped)

    def _ask(self, message, reply: str):
        """Send a request the worker answers with ``reply``; its body."""
        self._send(message)
        answer = self._recv(self._receive_by())
        if answer[0] != reply:  # pragma: no cover - protocol error
            raise RuntimeError(f"expected {reply} reply, got {answer[0]!r}")
        return answer[1:]

    def drain_streams(self, streams: Sequence[str]) -> Dict[str, int]:
        """Send the migration drain barrier (caller quiesced first)."""
        (resumed,) = self._ask(("drain", list(streams)), "drained")
        return dict(resumed)

    def stop(self, sink) -> Tuple[ServeReport, Dict[str, dict]]:
        while self.inflight:
            self.collect(sink, self._receive_by())
        report, states = self._ask(("stop",), "stopped")
        # The worker closed every journal before it replied.
        self.teardown()
        return report, states

    # -- failover ----------------------------------------------------------

    def teardown(self) -> List[Tuple[int, List[StreamRequest]]]:
        """End the process and unmap its rings; returns unacked batches."""
        self.kill()
        self.request_ring.close()
        self.decision_ring.close()
        return list(self.inflight.values())


class PolicyFleet:
    """A sharded serving fleet behind one ``submit``/``drain`` surface.

    ``policy_factory`` builds a fresh policy per stream server (and per
    shard *generation* after failover).  With ``processes=True`` each
    shard runs in its own forked process behind shared-memory rings and
    a ``state_root`` is mandatory — failover needs a journal to replay.
    Inline mode serves on the caller's thread with identical decisions.

    The fleet's shape is *elastic*: membership is a list of shard ids,
    persisted with the routing epoch, per-member generations and the
    stream placement table in ``state_root/topology.json``.
    :meth:`resize` adds/removes/replaces members live via
    :mod:`repro.serve.resize`; a :class:`~repro.serve.supervisor.
    FleetSupervisor` can layer heartbeats, restart budgets and
    evacuation on top.
    """

    def __init__(
        self,
        policy_factory: Callable[[], ThreadPolicy],
        config: Optional[FleetConfig] = None,
        *,
        state_root: Optional[Union[str, Path]] = None,
        processes: bool = False,
        clock: Callable[[], float] = time.monotonic,
        spawn_retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config or FleetConfig()
        self.decisions: List[ServeDecision] = []
        self.shard_reports: List[ServeReport] = []
        #: Stream id -> exported online-learner state, filled at close.
        self.stream_states: Dict[str, dict] = {}
        #: Fleet lifecycle event counts (resizes, restarts, ...).
        self.events = Counter()
        #: Seconds each committed resize kept migrating streams paused.
        self.drain_pause = FixedBucketHistogram()
        self._policy_factory = policy_factory
        self._state_root = None if state_root is None else Path(state_root)
        self._processes = processes
        self._clock = clock
        self._sleep = sleep
        self._spawn_retry = (spawn_retry if spawn_retry is not None
                             else RetryPolicy())
        self._recovered = 0
        self._failovers = 0
        self._failover_causes: Dict[str, int] = {}
        self._started: Optional[float] = None
        self._closed = False
        #: (member id, report) of shards retired by a resize or an
        #: evacuation.
        self._retired: List[Tuple[int, ServeReport]] = []
        #: Member id -> ``(start, end)`` slices of :attr:`decisions`
        #: the member delivered since it joined, across failover
        #: generations (the source of each per-shard report row).
        self._delivered: Dict[int, List[Tuple[int, int]]] = {}
        self._report_ids: List[int] = []
        self._supervisor: Optional[Any] = None
        if processes:
            if self._state_root is None:
                raise ValueError(
                    "process mode requires state_root (failover "
                    "replays the shard journal)"
                )
        self.epoch = 0
        self.generations: Dict[int, int] = {}
        members = list(range(self.config.shards))
        placement: Dict[str, int] = {}
        if self._state_root is not None:
            from .resize import FleetTopology, sweep_state_root

            topology = FleetTopology.load_or_create(
                self._state_root, members
            )
            self.epoch = topology.epoch
            members = list(topology.members)
            self.generations = {int(k): int(v)
                                for k, v in topology.generations.items()}
            # One reclamation path for planned drains *and* crashes:
            # quarantine staging leftovers and stream dirs the topology
            # does not place where they are.
            sweep_state_root(self._state_root, topology)
            placement = topology.placement
        self.members: List[int] = sorted(members)
        self.router = ShardRouter(self.members, self.config.replicas,
                                  placement)
        self._save_topology()
        self._shards: Dict[int, Any] = {}
        for member in self.members:
            self._shards[member] = self._spawn(
                member, self.generations.get(member, 0)
            )

    # -- topology ----------------------------------------------------------

    def _save_topology(self) -> None:
        """Persist the routing epoch, membership, generations and
        stream placement.

        ``topology.json`` is the resize protocol's atomic commit point:
        a crash *before* the write recovers into the old shape (staged
        copies quarantined), a crash *after* recovers into the new one
        (superseded sources quarantined by the ownership sweep).
        """
        if self._state_root is None:
            return
        from .resize import FleetTopology

        FleetTopology(
            epoch=self.epoch,
            members=list(self.members),
            generations=dict(self.generations),
            placement=dict(self.router.placement),
        ).save(self._state_root)

    # -- shard lifecycle ---------------------------------------------------

    def _shard_dir(self, index: int, generation: int) -> Optional[Path]:
        if self._state_root is None:
            return None
        return self._state_root / shard_dirname(index, generation)

    _SPAWN_ERRORS = (EOFError, OSError)

    def _spawn(self, index: int, generation: int):
        """Start one shard, retrying transient fork failures.

        Backoff comes from the executor's :class:`RetryPolicy` with
        deterministic jitter keyed on the shard's id + generation, so
        reruns sleep the same amounts.  Each attempt starts clean: the
        shard constructor tears down its own partial state on failure.
        """
        state_dir = self._shard_dir(index, generation)
        self.generations[index] = generation
        if not self._processes:
            return _InlineShard(index, generation, self._policy_factory,
                                self.config.serve, state_dir)
        key = f"shard-{index}-g{generation}"
        attempt = 0
        while True:
            try:
                return _ProcessShard(
                    index, generation, self._policy_factory,
                    self.config.serve, state_dir, self.config,
                    self._receive_by,
                    clock=self._clock, events=self.events,
                )
            except self._SPAWN_ERRORS:
                attempt += 1
                if attempt > self._spawn_retry.max_retries:
                    raise
                self.events.bump("spawn_retries")
                self._sleep(self._spawn_retry.delay(attempt, key))

    def _receive_by(self) -> float:
        """The clock time by which a shard must answer a blocking
        receive begun now: the supervisor's liveness timeout when one
        is attached, else the config's doorbell timeout."""
        if self._supervisor is not None:
            return self._clock() + self._supervisor.config.liveness_timeout_s
        return self._clock() + self.config.doorbell_timeout_s

    @staticmethod
    def _ship_homes(source: Path, targets: Dict[str, Path]) -> None:
        """Ship each stream home in the shard directory ``source`` whose
        stream ``targets`` names into that stream's target shard
        directory, staged and then published.

        Callers name only the streams the placement table put on the
        source member: a stream that migrated away earlier may have
        left a superseded home behind, and shipping it would resurrect
        old state.
        """
        for stream, home in stream_homes(source).items():
            if stream in targets:
                publish_home(stage_home(
                    stream, targets[stream] / stream_dirname(stream), home))

    def _fresh_generation_dir(self, member: int, generation: int) -> Path:
        """The directory of a generation ``topology.json`` does not
        record yet, emptied: a directory already there was left by a
        failover or resize that died before its commit, and a worker
        must not reopen its stale homes."""
        directory = self._shard_dir(member, generation)
        move_aside(directory, quarantine_dir(directory), "uncommitted")
        directory.mkdir(parents=True)
        return directory

    def _failover(self, index: int,
                  cause: str) -> List[List[StreamRequest]]:
        """Replace a dead shard; returns its unacked batches, in order.

        The replacement recovers from a staged, shipped copy of the
        dead generation's homes in a new generation directory (exactly
        as a standby on another machine would); the dead directory
        survives for post-mortem.  The caller owns re-dispatching the
        returned batches — the replacement's dedupe rule answers the
        already-journaled prefix with :data:`RECOVERED_TIER` markers.
        """
        dead = self._shards[index]
        self._failovers += 1
        self._failover_causes[cause] = (
            self._failover_causes.get(cause, 0) + 1)
        unacked = dead.teardown()
        generation = dead.generation + 1
        if self._state_root is not None:
            target = self._fresh_generation_dir(index, generation)
            self._ship_homes(dead.state_dir, {
                s: target for s, m in self.router.placement.items()
                if m == index
            })
        replacement = self._spawn(index, generation)
        replacement.pending = dead.pending
        replacement.deadline = dead.deadline
        self._shards[index] = replacement
        self._save_topology()
        return [batch for _, batch in unacked]

    def _evacuate(self, index: int) -> List[List[StreamRequest]]:
        """Remove a lost shard from the fleet; survivors absorb it.

        Graceful degradation: the lost member's streams are re-placed
        at once, in sorted order, each on the least-loaded survivor in
        its ring order, and each stream's home is shipped to its new
        owner before the new placement is committed — the same staged
        ship a resize uses.  A crash before the commit reopens the old
        shape (the shipped copies are superseded); one after it finds
        every home at its new owner.  A later :meth:`resize` re-adding
        the member shrinks the overflow back.
        """
        if len(self.members) <= 1:
            raise RuntimeError("cannot evacuate the last shard")
        dead = self._shards.pop(index)
        unacked = dead.teardown()
        # The dead worker's own report died with it.
        self._retire(index, ServeReport())
        batches = [batch for _, batch in unacked]
        if dead.pending:
            batches.append(dead.pending)
        self.members = [m for m in self.members if m != index]
        placement = self.router.placement
        self.router = ShardRouter(
            self.members, self.config.replicas,
            {s: m for s, m in placement.items() if m != index},
        )
        lost = sorted(s for s, m in placement.items() if m == index)
        for stream in lost:
            self.router.route(stream)
        if dead.state_dir is not None:
            self._ship_homes(dead.state_dir, {
                s: self._shards[self.router.placement[s]].state_dir
                for s in lost
            })
        self.epoch += 1
        self.events.bump("evacuations")
        self.events.bump("streams_migrated", len(lost))
        self._save_topology()
        return batches

    _PIPE_ERRORS = (EOFError, BrokenPipeError, OSError)

    @staticmethod
    def _loss_cause(exc: BaseException) -> str:
        """Why a shard was lost, given the error that showed it:
        ``"journal-write:<ERRNO>"`` (its journal refused a write),
        ``"unresponsive"`` (past its deadline), else ``"died"`` (it went
        away without saying why)."""
        if isinstance(exc, JournalWriteError):
            return _journal_cause(exc.errno)
        return getattr(exc, "cause", "died")

    def _handle_loss(self, index: int,
                     cause: str) -> List[List[StreamRequest]]:
        """A shard is gone: restart it or evacuate it, per verdict.

        Without a supervisor every loss restarts in place (the PR 8
        behaviour).  With one, the restart budget decides — and an
        exhausted budget degrades gracefully instead of flapping.
        """
        if self._supervisor is not None:
            if self._supervisor.verdict(index) == "evacuate":
                return self._evacuate(index)
        return self._failover(index, cause)

    def _redeliver(self, batches: List[List[StreamRequest]],
                   deaths: int) -> None:
        """Re-dispatch orphaned pairs under the *current* routing.

        After a restart the owner is unchanged; after an evacuation the
        lost member's streams are placed anew — grouping by ``route()``
        covers both, so the loss-handling path is one code path, not
        two.
        """
        for batch in batches:
            groups: Dict[int, List[StreamRequest]] = {}
            for stream, request in batch:
                owner = self.router.route(stream)
                groups.setdefault(owner, []).append((stream, request))
            for owner, pairs in groups.items():
                self._dispatch(owner, pairs, deaths)

    def _dispatch(self, index: int, batch: List[StreamRequest],
                  deaths: int = 0) -> None:
        """Dispatch with failover: a torn pipe replaces (or evacuates)
        the shard and re-delivers every orphaned pair ahead of this
        batch, under whatever routing the loss produced."""
        if deaths > 3:
            raise RuntimeError(
                f"shards died {deaths} times while dispatching one "
                "batch; giving up"
            )
        shard = self._shards.get(index)
        if shard is None:
            # Owner vanished between routing and dispatch (evacuated).
            self._redeliver([batch], deaths)
            return
        try:
            shard.dispatch(batch, self._sink)
        except self._PIPE_ERRORS as exc:
            orphans = self._handle_loss(index, self._loss_cause(exc))
            self._redeliver(orphans + [batch], deaths + 1)

    def _collect(self, shards: List[Any],
                 deadline: Optional[float] = None) -> None:
        """Read one message from each pipe among ``shards`` that is
        ready, waiting on all of them in one call until ``deadline``
        (``None``: do not wait).  If none is ready by the deadline,
        each shard's reader is asked once more and judges it
        unresponsive if it is still silent.

        Losses are handled as they are read, so a shard may be replaced
        (failed over, or evacuated) while ``ready`` is still being
        walked: a pipe whose shard no longer holds its member is stale
        and is never read.
        """
        if not self._processes or not shards:
            return
        pipes = {shard.conn: shard for shard in shards}
        ready = wait(list(pipes), 0.0 if deadline is None
                     else max(0.0, deadline - self._clock()))
        expired = not ready and deadline is not None
        for conn in list(pipes) if expired else ready:
            shard = pipes[conn]
            if self._shards.get(shard.index) is not shard:
                continue
            try:
                shard.collect(self._sink, deadline if expired else None)
            except self._PIPE_ERRORS as exc:
                self._redeliver(
                    self._handle_loss(shard.index, self._loss_cause(exc)),
                    deaths=1)

    # -- decision collection -----------------------------------------------

    def _sink(self, shard_index: int, decisions: List[ServeDecision],
              deduped: int) -> None:
        start = len(self.decisions)
        self.decisions.extend(decisions)
        self._delivered.setdefault(shard_index, []).append(
            (start, len(self.decisions)))
        self._recovered += deduped

    def _delivered_row(self, member: int,
                       report: ServeReport) -> ServeReport:
        """``report`` with its request counts replaced by the decisions
        ``member`` delivered since it joined.

        A failover replaces the worker, whose own report then counts
        only the live generation; the parent saw every generation's
        decisions, so the row's ``total``, ``answered``, ``shed``,
        ``deadline_misses`` and ``tier_decisions`` span them all.
        """
        report.total = report.answered = report.shed = 0
        report.deadline_misses = 0
        report.tier_decisions = {}
        for start, end in self._delivered.pop(member, ()):
            for decision in self.decisions[start:end]:
                report.total += 1
                report.deadline_misses += decision.deadline_missed
                if decision.shed:
                    report.shed += 1
                elif decision.threads is not None:
                    report.answered += 1
                    report.tier_decisions[decision.tier] = (
                        report.tier_decisions.get(decision.tier, 0) + 1
                    )
        return report

    def _retire(self, member: int, report: ServeReport) -> None:
        """Close ``member``'s report row (resize removal, evacuation)."""
        self._retired.append((member, self._delivered_row(member, report)))

    # -- public API --------------------------------------------------------

    def submit(self, request: ServeRequest,
               stream: Optional[str] = None) -> None:
        """Route one request to its stream's shard and micro-batch it.

        ``stream`` defaults to the loop name — the natural stream id of
        a mapping service, where each parallel region is a recurring
        decision stream.
        """
        if self._closed:
            raise RuntimeError("fleet is closed")
        if self._started is None:
            self._started = self._clock()
        key = stream if stream is not None else request.ctx.loop_name
        owner = self.owner(key)
        shard = self._shards[owner]
        shard.pending.append((key, request))
        if len(shard.pending) == 1:
            shard.deadline = self._clock() + self.config.batch_linger_s
        if len(shard.pending) >= self.config.batch_max:
            self._flush(owner)
        else:
            self.poll()

    def _flush(self, index: int) -> None:
        shard = self._shards.get(index)
        if shard is None or not shard.pending:
            return
        batch, shard.pending = shard.pending, []
        shard.deadline = None
        self._dispatch(index, batch)

    def poll(self) -> None:
        """Opportunistic progress: expired lingers, ready decisions,
        and (when supervised) heartbeats + liveness verdicts."""
        now = self._clock()
        for index in list(self._shards):
            shard = self._shards.get(index)
            if shard is not None and shard.pending \
                    and shard.deadline is not None \
                    and now >= shard.deadline:
                self._flush(index)
        self._collect(list(self._shards.values()))
        if self._supervisor is not None:
            self._supervisor.tick()

    def drain(self) -> List[ServeDecision]:
        """Flush everything and wait for every in-flight decision."""
        while True:
            for index in list(self._shards):
                self._flush(index)
            busy = [shard for shard in self._shards.values()
                    if shard.inflight]
            if busy:
                self._collect(busy, self._receive_by())
            elif not any(shard.pending for shard in self._shards.values()):
                return self.decisions

    def resize(self, shards: Optional[int] = None, *,
               members: Optional[Sequence[int]] = None,
               crash_hook: Optional[Callable[[str], None]] = None):
        """Live-reshard the fleet to a new shard count or member list.

        ``shards=n`` grows by appending fresh member ids (``max+1``
        upward) or shrinks by dropping the highest ids; ``members=``
        names the target membership explicitly (replace = remove one id
        and add another in a single swap).  Returns the executed
        :class:`~repro.serve.resize.ResizePlan`.
        """
        from .resize import execute_resize

        if members is None:
            if shards is None:
                raise ValueError("pass shards or members")
            members = self._members_for_count(int(shards))
        return execute_resize(self, list(members), crash_hook=crash_hook)

    def _members_for_count(self, count: int) -> List[int]:
        if count < 1:
            raise ValueError("shards must be >= 1")
        current = sorted(self.members)
        if count <= len(current):
            return current[:count]
        members = list(current)
        next_id = max(current) + 1
        while len(members) < count:
            members.append(next_id)
            next_id += 1
        return members

    def kill_shard(self, index: int) -> None:
        """Kill one shard (chaos hook): SIGKILL a shard process, or
        abandon an inline shard's worker unclosed.  The next call that
        reaches the shard fails over."""
        shard = self._shards[index]
        if isinstance(shard, _InlineShard):
            shard.killed = True
        else:  # pipe left open: the fleet finds this death like any other
            shard.process.kill()
            shard.process.join()

    def owner(self, stream: str) -> int:
        """The member serving ``stream``, placing it on first sight.

        A new placement is persisted before the caller can dispatch
        anything for the stream, so no stream directory ever exists
        whose owner ``topology.json`` does not record.
        """
        placed = len(self.router.placement)
        member = self.router.route(stream)
        if len(self.router.placement) != placed:
            self._save_topology()
        return member

    def abort(self) -> None:
        """Kill everything without draining (crash-injection helper).

        Leaves the on-disk state exactly as the crash left it — the
        next fleet constructed over the same ``state_root`` exercises
        the recovery path.
        """
        if self._closed:
            return
        for shard in self._shards.values():
            shard.teardown()
        self._shards = {}
        self._closed = True

    def close(self) -> FleetReport:
        """Drain, stop every shard, aggregate."""
        if self._closed:
            raise RuntimeError("fleet is already closed")
        self.drain()
        ended = self._clock()
        reports: List[Tuple[int, ServeReport]] = list(self._retired)
        for index in sorted(self._shards):
            while True:
                try:
                    report, states = self._shards[index].stop(self._sink)
                    break
                except self._PIPE_ERRORS as exc:
                    # Died at the finish line: recover one last time so
                    # the aggregate still reflects the journal.  Always
                    # restart (never evacuate) — the shard must yield
                    # its report and per-stream states.
                    self._redeliver(
                        self._failover(index, self._loss_cause(exc)),
                        deaths=1)
            reports.append((index, self._delivered_row(index, report)))
            self._merge_states(states)
        self._closed = True
        self._report_ids = [member for member, _ in reports]
        self.shard_reports = [report for _, report in reports]
        wall = 0.0
        if self._started is not None:
            wall = max(0.0, ended - self._started)
        return self._aggregate(wall)

    def _merge_states(self, states: Dict[str, dict]) -> None:
        for stream, state in states.items():
            if stream in self.stream_states:
                raise RuntimeError(
                    f"stream {stream!r} exported state from two shards "
                    "(epoch-swap invariant violated)"
                )
            self.stream_states[stream] = state

    def _aggregate(self, wall_s: float) -> FleetReport:
        histogram = FixedBucketHistogram()
        batch_sizes = Gauge()
        for report in self.shard_reports:
            if report.latency_histogram.get("counts"):
                histogram.merge(report.latency_histogram)
            if report.batch_sizes.get("count"):
                batch_sizes.merge(report.batch_sizes)
        answered = sum(
            1 for d in self.decisions if d.threads is not None
        )
        shed = sum(1 for d in self.decisions if d.shed)
        misses = sum(1 for d in self.decisions if d.deadline_missed)
        return FleetReport(
            shards=len(self.members),
            total=len(self.decisions),
            answered=answered,
            shed=shed,
            deadline_misses=misses,
            recovered=self._recovered,
            failovers=self._failovers,
            failover_causes=dict(sorted(self._failover_causes.items())),
            wall_s=wall_s,
            epochs=self.epoch,
            resizes=self.events.get("resizes"),
            streams_migrated=self.events.get("streams_migrated"),
            restarts=self.events.get("restarts"),
            evacuations=self.events.get("evacuations"),
            reinstatements=self.events.get("reinstatements"),
            heartbeat_timeouts=self.events.get("heartbeat_timeouts"),
            spawn_retries=self.events.get("spawn_retries"),
            drain_pause=self.drain_pause.snapshot(),
            shard_ids=list(self._report_ids),
            per_shard=list(self.shard_reports),
            latency_histogram=histogram.snapshot(),
            batch_sizes=batch_sizes.snapshot(),
        )
