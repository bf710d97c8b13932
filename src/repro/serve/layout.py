"""The on-disk layout of the fleet's serving state, and its one mover.

A state root holds one directory per shard generation
(:func:`shard_dirname`), a ``topology.json`` commit point and a
``quarantine/``.  Each shard directory holds one *home* per stream it
serves: ``stream-<name>-<hash>`` (:func:`stream_dirname`) with the
stream's journal, snapshots and a ``stream.json`` sidecar naming the
stream (the directory name is a hash, the sidecar is the authoritative
reverse mapping).

Every stream home is published the same way, whether it is new,
shipped to a failover generation, evacuated to a survivor or migrated
by a resize: :func:`stage_home` copies the state into
``<home>.stage`` and writes the sidecar, then :func:`publish_home`
moves any existing home aside and renames the stage into place.  A
crash therefore leaves either the old home or the new one, plus at
most a ``*.stage`` leftover that :func:`stream_homes`, the one reader
of a shard directory, quarantines instead of opening.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, List, Optional

from ..core.persistence import (ChecksumError, dump_checked_json,
                                load_checked_json, move_aside)
from .journal import ship_state

SIDECAR = "stream.json"
STAGE_SUFFIX = ".stage"


def stream_dirname(stream: str) -> str:
    """Directory name for one stream's serving state.

    Human-readable prefix for operators, sha256 suffix for uniqueness
    (stream ids are arbitrary strings; two may sanitise identically).
    Pure function of the stream id: the parent, every worker
    generation, and the resize planner all derive the same name.
    """
    safe = "".join(
        ch if ch.isalnum() or ch in "-_" else "-" for ch in stream
    )
    digest = hashlib.sha256(stream.encode("utf-8")).hexdigest()[:10]
    return f"stream-{safe[:24]}-{digest}"


def shard_dirname(member: int, generation: int) -> str:
    """Directory name of one shard generation under the state root."""
    if generation == 0:
        return f"shard-{member}"
    return f"shard-{member}-g{generation}"


def quarantine_dir(shard_dir: Path) -> Path:
    """Where a shard directory, or a home in it, goes when rejected:
    the state root's ``quarantine/``, shared by every shard and the
    topology."""
    return Path(shard_dir).parent / "quarantine"


def stream_homes(shard_dir: Path,
                 moved: Optional[List[Path]] = None) -> Dict[str, Path]:
    """Every stream home under ``shard_dir``, keyed by stream id.

    A directory is a home iff it carries a readable sidecar.  Staging
    leftovers (a crash mid-ship) and homes with a torn sidecar are
    quarantined, never returned, so nothing half-shipped is opened;
    their new paths are appended to ``moved``.
    """
    shard_dir = Path(shard_dir)
    homes: Dict[str, Path] = {}
    if not shard_dir.is_dir():
        return homes
    quarantine = quarantine_dir(shard_dir)
    for entry in sorted(shard_dir.iterdir()):
        if not entry.is_dir():
            continue
        sidecar = entry / SIDECAR
        label = None
        if entry.name.endswith(STAGE_SUFFIX):
            label = "stage"
        elif sidecar.exists():
            try:
                homes[str(load_checked_json(sidecar)["stream"])] = entry
            except ChecksumError:
                label = "torn-sidecar"
        if label is not None:
            target = move_aside(entry, quarantine, label)
            if moved is not None and target is not None:
                moved.append(target)
    return homes


def stage_home(stream: str, home: Path,
               source: Optional[Path] = None) -> Path:
    """Copy ``source``'s journal and snapshots (none for a new stream)
    into ``<home>.stage`` and write the sidecar; returns the stage."""
    home = Path(home)
    stage = home.with_name(home.name + STAGE_SUFFIX)
    move_aside(stage, quarantine_dir(home.parent), "stage")
    if source is None:
        stage.mkdir(parents=True)
    else:
        ship_state(source, stage)
    dump_checked_json({"stream": stream}, stage / SIDECAR)
    return stage


def publish_home(stage: Path) -> None:
    """Rename a staged home into place, moving any existing home aside
    as superseded."""
    stage = Path(stage)
    home = stage.with_name(stage.name[:-len(STAGE_SUFFIX)])
    move_aside(home, quarantine_dir(home.parent), "superseded")
    os.replace(stage, home)
