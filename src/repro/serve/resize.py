"""Live elastic resharding: ring-delta planning, lossless migration,
and the atomic epoch swap.

The fleet's shape is a list of member ids on the consistent-hash ring.
Resizing walks the *ring delta* — only streams whose owning vnode moves
between the old and new rings migrate (the consistent-hash minimality
property), everything else keeps serving untouched.  Each migrating
stream crosses in four steps:

1. **Quiesce** — flush every pending micro-batch and collect every
   in-flight decision, so no request is mid-air during the swap.
2. **Drain barrier** — the owning shard fsyncs the stream's journal
   and closes its server (``("drain", streams)`` over the control
   pipe); the stream's directory is now quiescent on disk.
3. **Ship** — snapshot + journal are atomically copied into a
   ``*.stage`` directory under the new owner, then renamed into place
   (``os.replace``); a crash mid-copy leaves only a staging dir the
   recovery sweep quarantines.
4. **Epoch swap** — one atomic ``topology.json`` write commits the new
   membership, epoch and generations.  Everything before it is
   provisional (crash ⇒ the resize never happened; sources stay
   authoritative); everything after is repair (crash ⇒ the resize
   fully happened; the ownership sweep retires superseded sources).

Requests are never dropped and never double-applied: the quiesce means
nothing is in flight across the swap, and a re-delivered prefix after
any crash dedupes against the stream's journal with ``"recovered"``
markers exactly as shard failover does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.persistence import (ChecksumError, dump_checked_json,
                                load_checked_json, move_aside)
from .fleet import ShardRouter, _InlineShard, shard_dirname, stream_dirname
from .journal import ship_state

#: Step names, in order, at which :func:`execute_resize` calls its
#: ``crash_hook`` — the crash-at-every-step suite injects faults here.
#: Steps through ``pre-epoch-swap`` precede the topology commit (a
#: crash rolls the resize back); ``commit`` and later follow it (a
#: crash completes during recovery).
RESIZE_STEPS = (
    "quiesce",
    "drain",
    "post-drain",
    "mid-copy",
    "place",
    "pre-epoch-swap",
    "commit",
    "retire",
)


@dataclass
class FleetTopology:
    """The fleet's persisted shape: the resize protocol's commit point.

    One checksummed, atomically-replaced JSON document holding the
    routing epoch, ring membership, per-member generation counters and
    the pending ship-on-arrival map.  Whatever this document says at
    recovery time *is* the fleet — everything on disk that disagrees
    with it is quarantined by :func:`sweep_state_root`.
    """

    epoch: int = 0
    members: List[int] = field(default_factory=list)
    generations: Dict[int, int] = field(default_factory=dict)
    #: Stream id -> source directory of state evacuated from a lost
    #: shard, awaiting ship-on-arrival to the stream's new owner.
    pending: Dict[str, str] = field(default_factory=dict)

    FILENAME = "topology.json"

    def to_jsonable(self) -> dict:
        return {
            "epoch": int(self.epoch),
            "members": sorted(int(m) for m in self.members),
            "generations": {
                str(member): int(generation)
                for member, generation in sorted(self.generations.items())
            },
            "pending": {str(k): str(v)
                        for k, v in sorted(self.pending.items())},
        }

    @classmethod
    def from_jsonable(cls, doc: dict) -> "FleetTopology":
        return cls(
            epoch=int(doc["epoch"]),
            members=[int(m) for m in doc["members"]],
            generations={int(k): int(v)
                         for k, v in doc.get("generations", {}).items()},
            pending={str(k): str(v)
                     for k, v in doc.get("pending", {}).items()},
        )

    def save(self, state_root: Union[str, Path]) -> Path:
        path = Path(state_root) / self.FILENAME
        path.parent.mkdir(parents=True, exist_ok=True)
        return dump_checked_json(self.to_jsonable(), path)

    @classmethod
    def load_or_create(
        cls, state_root: Union[str, Path], default_members: Sequence[int]
    ) -> "FleetTopology":
        path = Path(state_root) / cls.FILENAME
        if path.exists():
            try:
                return cls.from_jsonable(load_checked_json(path))
            except (ChecksumError, KeyError, TypeError, ValueError):
                # dump_checked_json is atomic, so a torn topology means
                # outside interference; quarantine it and start from
                # the configured shape rather than guessing.
                move_aside(path, Path(state_root) / "quarantine",
                           "torn")
        return cls(epoch=0, members=sorted(int(m) for m in default_members))


def sweep_state_root(
    state_root: Union[str, Path], topology: FleetTopology,
    replicas: int = 64,
) -> List[Path]:
    """Reconcile on-disk state with the committed topology.

    The single reclamation path shared by planned drains and crash
    failovers: quarantine every ``*.stage`` leftover (a crash mid-copy)
    and every stream directory whose sidecar says the current ring no
    longer routes it to the member hosting it (a crash between place
    and retire, or a superseded source after a committed resize).
    Returns the quarantined paths.
    """
    state_root = Path(state_root)
    quarantine = state_root / "quarantine"
    if not topology.members:
        return []
    router = ShardRouter(topology.members, replicas)
    quarantined: List[Path] = []
    for member in topology.members:
        generation = topology.generations.get(member, 0)
        directory = state_root / shard_dirname(member, generation)
        if not directory.exists():
            continue
        for entry in sorted(directory.iterdir()):
            if not entry.is_dir() or entry.name == "quarantine":
                continue
            if entry.name.endswith(".stage"):
                moved = move_aside(entry, quarantine, "stage")
                if moved is not None:
                    quarantined.append(moved)
                continue
            sidecar = entry / "stream.json"
            if not sidecar.exists():
                continue
            try:
                doc = load_checked_json(sidecar)
            except ChecksumError:
                continue  # the worker quarantines torn sidecars itself
            stream = str(doc["stream"])
            if router.route(stream) != member:
                moved = move_aside(entry, quarantine, "superseded")
                if moved is not None:
                    quarantined.append(moved)
    return quarantined


@dataclass(frozen=True)
class ResizePlan:
    """The ring delta of one resize: who joins, who leaves, what moves."""

    old_members: Tuple[int, ...]
    new_members: Tuple[int, ...]
    added: Tuple[int, ...]
    removed: Tuple[int, ...]
    #: Stream id -> (old owner, new owner); only streams whose owning
    #: vnode moves — the consistent-hash minimal-migration set.
    migrations: Dict[str, Tuple[int, int]]

    @property
    def unchanged(self) -> Tuple[int, ...]:
        return tuple(m for m in self.old_members if m in self.new_members)


def plan_resize(
    old_members: Sequence[int], new_members: Sequence[int],
    streams: Sequence[str], replicas: int = 64,
) -> ResizePlan:
    """Walk the ring delta: which streams change owners.

    Pure function of the two memberships and the stream set — the
    parent, the crash-recovery path and the tests all derive the same
    plan.
    """
    old_sorted = tuple(sorted(set(int(m) for m in old_members)))
    new_sorted = tuple(sorted(set(int(m) for m in new_members)))
    if not new_sorted:
        raise ValueError("a fleet needs at least one shard")
    old_router = ShardRouter(old_sorted, replicas)
    new_router = ShardRouter(new_sorted, replicas)
    migrations: Dict[str, Tuple[int, int]] = {}
    for stream in sorted(set(streams)):
        src = old_router.route(stream)
        dst = new_router.route(stream)
        if src != dst:
            migrations[stream] = (src, dst)
    return ResizePlan(
        old_members=old_sorted,
        new_members=new_sorted,
        added=tuple(m for m in new_sorted if m not in old_sorted),
        removed=tuple(m for m in old_sorted if m not in new_sorted),
        migrations=migrations,
    )


def _hosted_streams(shard) -> Set[str]:
    """Streams a shard is known to hold serving state for."""
    if isinstance(shard, _InlineShard):
        return set(shard.worker.servers)
    return set(getattr(shard, "resume_map", {}) or {})


def execute_resize(
    fleet, new_members: Sequence[int], *,
    crash_hook: Optional[Callable[[str], None]] = None,
) -> ResizePlan:
    """Reshard a live fleet to ``new_members``, losslessly.

    Implements the four-step protocol in the module docstring against
    a running :class:`~repro.serve.fleet.PolicyFleet`.  ``crash_hook``
    is called with each :data:`RESIZE_STEPS` name as that step begins —
    the crash suite raises from it to stop the world at every window
    and assert recovery.
    """
    hook = crash_hook if crash_hook is not None else (lambda step: None)
    if fleet._closed:
        raise RuntimeError("cannot resize a closed fleet")
    if fleet._state_root is None:
        raise RuntimeError(
            "resize requires state_root (migration ships journaled "
            "per-stream state)"
        )
    members = sorted(set(int(m) for m in new_members))
    if not members:
        raise ValueError("a fleet needs at least one shard")
    pause_started = fleet._clock()

    # 1. Quiesce: nothing pending, nothing in flight.
    hook("quiesce")
    fleet.drain()

    # Plan over every stream with live or on-disk state.
    streams: Set[str] = set(fleet._streams_seen)
    streams.update(fleet._pending_ship)
    for shard in fleet._shards.values():
        streams.update(_hosted_streams(shard))
    plan = plan_resize(fleet.members, members, streams,
                       fleet.config.replicas)

    # 2. Drain barrier: fsync + close every migrating stream at its
    #    current owner (streams awaiting ship-on-arrival have no live
    #    server — their state is already quiescent at the source).
    hook("drain")
    by_source: Dict[int, List[str]] = {}
    for stream, (src, _) in plan.migrations.items():
        if stream in fleet._pending_ship:
            continue
        by_source.setdefault(src, []).append(stream)
    for src in sorted(by_source):
        fleet._shards[src].drain_streams(sorted(by_source[src]))
    hook("post-drain")

    # 3. Ship: copy each migrating stream into a staging dir under its
    #    new owner, then rename into place.  Added members get a fresh
    #    generation directory (never inherit a stale one).
    next_generation = {m: fleet.generations.get(m, -1) + 1
                       for m in plan.added}

    def target_dir(member: int) -> Path:
        if member in next_generation:
            return Path(fleet._shard_dir(member, next_generation[member]))
        return Path(fleet._shards[member].state_dir)

    staged: List[Tuple[Path, Path, Path]] = []
    first_copy = True
    for stream in sorted(plan.migrations):
        src_member, dst_member = plan.migrations[stream]
        if stream in fleet._pending_ship:
            source = Path(fleet._pending_ship[stream])
        else:
            source = (Path(fleet._shards[src_member].state_dir)
                      / stream_dirname(stream))
        destination = target_dir(dst_member) / stream_dirname(stream)
        stage = destination.with_name(destination.name + ".stage")
        ship_state(source, stage)
        dump_checked_json({"stream": stream}, stage / "stream.json")
        staged.append((stage, destination, source))
        if first_copy:
            hook("mid-copy")
            first_copy = False
    hook("place")
    for stage, destination, _ in staged:
        if destination.exists():
            move_aside(destination, fleet.quarantine_dir, "superseded")
        os.replace(stage, destination)

    # Retire leaving members (their streams are all drained and
    # shipped; a clean stop collects their lifetime report) and spawn
    # joining members (which eagerly recover the placed state).  Both
    # precede the commit: a crash anywhere here still recovers into
    # the *old* shape with every source directory authoritative.
    for member in plan.removed:
        shard = fleet._shards.pop(member)
        report, states = shard.stop(fleet._sink)
        fleet._retire(member, report)
        fleet._merge_states(states)
    for member in plan.added:
        fleet._shards[member] = fleet._spawn(member,
                                             next_generation[member])

    # 4. Epoch swap: one atomic topology write commits everything.
    hook("pre-epoch-swap")
    fleet.members = list(plan.new_members)
    fleet.router = ShardRouter(fleet.members, fleet.config.replicas)
    fleet.epoch += 1
    fleet.events.bump("resizes")
    fleet.events.bump("streams_migrated", len(plan.migrations))
    for stream in plan.migrations:
        fleet._pending_ship.pop(stream, None)
    fleet._save_topology()
    hook("commit")

    # Post-commit repair: retire superseded sources so a later
    # failover can never resurrect a migrated-away stream.  A crash
    # in this window is finished by the recovery sweep — same
    # reclamation path.
    for _, destination, source in staged:
        if source != destination and source.exists():
            move_aside(source, fleet.quarantine_dir, "migrated")
    hook("retire")

    fleet.drain_pause.record(max(0.0, fleet._clock() - pause_started))
    return plan
