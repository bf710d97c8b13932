"""Live elastic resharding: placement-delta planning, lossless
migration, and the atomic epoch swap.

The fleet's shape is a list of member ids plus a stream placement table
(:class:`~repro.serve.fleet.ShardRouter`).  Resizing plans a new table
that keeps every stream it can where it is and rebalances the rest, then
walks the *placement delta* — only streams whose owner changes migrate;
everything else keeps serving untouched.  Each migrating stream crosses
in four steps:

1. **Quiesce** — flush every pending micro-batch and collect every
   in-flight decision, so no request is mid-air during the swap.
2. **Drain barrier** — the owning shard fsyncs the stream's journal
   and closes its server (``("drain", streams)`` over the control
   pipe); the stream's directory is now quiescent on disk.
3. **Ship** — the fleet's one staged ship
   (:mod:`repro.serve.layout`): snapshot + journal are copied into a
   ``*.stage`` home under the new owner, then renamed into place; a
   crash mid-copy leaves only a staging dir the recovery sweep
   quarantines.  Failover and evacuation ship the same way.
4. **Epoch swap** — one atomic ``topology.json`` write commits the new
   membership, placement, epoch and generations.  Everything before it
   is provisional (crash ⇒ the resize never happened; sources stay
   authoritative); everything after is repair (crash ⇒ the resize
   fully happened; the ownership sweep retires superseded sources).

Requests are never dropped and never double-applied: the quiesce means
nothing is in flight across the swap, and a re-delivered prefix after
any crash dedupes against the stream's journal with ``"recovered"``
markers exactly as shard failover does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.persistence import (ChecksumError, UnsupportedFormatError,
                                dump_checked_json, load_checked_json,
                                move_aside)
from .fleet import ShardRouter
from .layout import (publish_home, quarantine_dir, shard_dirname,
                     stage_home, stream_dirname, stream_homes)

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
    routing epoch, membership, per-member generation counters and the
    stream placement table.
    Whatever this document says at recovery time *is* the fleet —
    everything on disk that disagrees with it is quarantined by
    :func:`sweep_state_root`.  A document holding other keys than
    :meth:`to_jsonable` writes (one from before placement tables, or
    one listing lazily shipped evacuations) is refused with
    :class:`~repro.core.persistence.UnsupportedFormatError`.
    """

    epoch: int = 0
    members: List[int] = field(default_factory=list)
    generations: Dict[int, int] = field(default_factory=dict)
    #: Stream id -> member id serving it.
    placement: Dict[str, int] = field(default_factory=dict)

    FILENAME = "topology.json"
    KEYS = frozenset(("epoch", "members", "generations", "placement"))

    def to_jsonable(self) -> dict:
        return {
            "epoch": int(self.epoch),
            "members": sorted(int(m) for m in self.members),
            "generations": {
                str(member): int(generation)
                for member, generation in sorted(self.generations.items())
            },
            "placement": {str(k): int(v)
                          for k, v in sorted(self.placement.items())},
        }

    @classmethod
    def from_jsonable(cls, doc: dict) -> "FleetTopology":
        try:
            if set(doc) != cls.KEYS:
                raise ValueError(f"keys {sorted(map(str, doc))}")
            return cls(
                epoch=int(doc["epoch"]),
                members=[int(m) for m in doc["members"]],
                generations={int(k): int(v)
                             for k, v in doc["generations"].items()},
                placement={str(k): int(v)
                           for k, v in doc["placement"].items()},
            )
        except (AttributeError, TypeError, ValueError) as error:
            raise UnsupportedFormatError(
                f"unsupported topology document ({error})"
            ) from error

    def save(self, state_root: Union[str, Path]) -> Path:
        path = Path(state_root) / self.FILENAME
        path.parent.mkdir(parents=True, exist_ok=True)
        return dump_checked_json(self.to_jsonable(), path)

    @classmethod
    def load_or_create(
        cls, state_root: Union[str, Path], default_members: Sequence[int]
    ) -> "FleetTopology":
        """The committed topology, or the configured shape when there
        is none.  A document of the wrong shape raises
        :class:`~repro.core.persistence.UnsupportedFormatError` and
        stays where it is."""
        path = Path(state_root) / cls.FILENAME
        if path.exists():
            try:
                doc = load_checked_json(path)
            except ChecksumError:
                # dump_checked_json is atomic, so a torn topology means
                # outside interference; quarantine it and start from
                # the configured shape rather than guessing.
                move_aside(path, Path(state_root) / "quarantine",
                           "torn")
            else:
                return cls.from_jsonable(doc)
        return cls(epoch=0, members=sorted(int(m) for m in default_members))


def sweep_state_root(
    state_root: Union[str, Path], topology: FleetTopology,
) -> List[Path]:
    """Reconcile on-disk state with the committed topology.

    The single reclamation path shared by planned drains and crash
    failovers: quarantine every ``*.stage`` leftover (a crash mid-copy)
    or home with a torn sidecar, and every stream home whose sidecar
    names a stream the topology does not place on its member (a crash
    between place and retire, or a superseded source after a committed
    resize).  The sweep never places a stream.  Returns the
    quarantined paths.
    """
    state_root = Path(state_root)
    quarantined: List[Path] = []
    for member in topology.members:
        generation = topology.generations.get(member, 0)
        directory = state_root / shard_dirname(member, generation)
        for stream, home in stream_homes(directory, quarantined).items():
            if topology.placement.get(stream) != member:
                moved = move_aside(home, quarantine_dir(directory),
                                   "superseded")
                if moved is not None:
                    quarantined.append(moved)
    return quarantined


@dataclass(frozen=True)
class ResizePlan:
    """The placement delta of one resize: who joins, who leaves, what
    moves."""

    old_members: Tuple[int, ...]
    new_members: Tuple[int, ...]
    added: Tuple[int, ...]
    removed: Tuple[int, ...]
    #: Stream id -> (old owner, new owner); exactly the streams whose
    #: owner changes.
    migrations: Dict[str, Tuple[int, int]]
    #: Stream id -> new owner, for every planned stream.
    placement: Dict[str, int]

    @property
    def unchanged(self) -> Tuple[int, ...]:
        return tuple(m for m in self.old_members if m in self.new_members)


def plan_resize(
    old_members: Sequence[int], new_members: Sequence[int],
    streams: Sequence[str], replicas: int = 64,
    placement: Optional[Dict[str, int]] = None,
) -> ResizePlan:
    """Plan the new placement and its delta: which streams change owner.

    ``placement`` is the current table (a stream it lacks is placed over
    ``old_members`` first, in sorted order).  Of ``n`` streams on ``m``
    new members, each member keeps, in sorted stream order, up to
    ``floor(n/m)`` of its streams, and ``n mod m`` members one more;
    every other stream goes to the least-loaded new member in its ring
    order.  So the new table is balanced to within one stream, and a
    stream moves only if its owner leaves or holds more than its share.
    Pure function of its arguments.
    """
    old_sorted = tuple(sorted(set(int(m) for m in old_members)))
    new_sorted = tuple(sorted(set(int(m) for m in new_members)))
    if not new_sorted:
        raise ValueError("a fleet needs at least one shard")
    old_router = ShardRouter(old_sorted, replicas, placement)
    owners = {stream: old_router.route(stream)
              for stream in sorted(set(streams))}
    share, extra = divmod(len(owners), len(new_sorted))
    kept: Dict[str, int] = {}
    held = dict.fromkeys(new_sorted, 0)
    for stream, owner in owners.items():
        if owner not in held or held[owner] > share:
            continue
        if held[owner] == share:
            if not extra:
                continue
            extra -= 1
        held[owner] += 1
        kept[stream] = owner
    new_router = ShardRouter(new_sorted, replicas, kept)
    migrations: Dict[str, Tuple[int, int]] = {}
    for stream, src in owners.items():
        dst = new_router.route(stream)
        if src != dst:
            migrations[stream] = (src, dst)
    return ResizePlan(
        old_members=old_sorted,
        new_members=new_sorted,
        added=tuple(m for m in new_sorted if m not in old_sorted),
        removed=tuple(m for m in old_sorted if m not in new_sorted),
        migrations=migrations,
        placement=new_router.placement,
    )


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

    # Plan over every placed stream: a stream is placed, and the
    # placement persisted, before it has a home anywhere.
    plan = plan_resize(fleet.members, members, list(fleet.router.placement),
                       fleet.config.replicas, fleet.router.placement)

    # 2. Drain barrier: fsync + close every migrating stream at its
    #    current owner.
    hook("drain")
    by_source: Dict[int, List[str]] = {}
    for stream, (src, _) in plan.migrations.items():
        by_source.setdefault(src, []).append(stream)
    for src in sorted(by_source):
        fleet._shards[src].drain_streams(sorted(by_source[src]))
    hook("post-drain")

    # 3. Ship: stage each migrating stream's home under its new owner,
    #    then publish every stage.  Added members get a fresh
    #    generation directory (never inherit a stale one).
    next_generation = {m: fleet.generations.get(m, -1) + 1
                       for m in plan.added}
    shard_dirs = {m: fleet._fresh_generation_dir(m, g)
                  for m, g in next_generation.items()}
    shard_dirs.update((m, shard.state_dir)
                      for m, shard in fleet._shards.items())

    staged: List[Tuple[Path, Path]] = []
    for stream in sorted(plan.migrations):
        src_member, dst_member = plan.migrations[stream]
        source = shard_dirs[src_member] / stream_dirname(stream)
        home = shard_dirs[dst_member] / stream_dirname(stream)
        staged.append((stage_home(stream, home, source), source))
        if len(staged) == 1:
            hook("mid-copy")
    hook("place")
    for stage, _ in staged:
        publish_home(stage)

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
    fleet.router = ShardRouter(fleet.members, fleet.config.replicas,
                               plan.placement)
    fleet.epoch += 1
    fleet.events.bump("resizes")
    fleet.events.bump("streams_migrated", len(plan.migrations))
    fleet._save_topology()
    hook("commit")

    # Post-commit repair: retire superseded sources so a later
    # failover can never resurrect a migrated-away stream.  A crash
    # in this window is finished by the recovery sweep — same
    # reclamation path.
    for _, source in staged:
        move_aside(source, quarantine_dir(source.parent), "migrated")
    hook("retire")

    fleet.drain_pause.record(max(0.0, fleet._clock() - pause_started))
    return plan
