"""Soak harness: drive the fleet through composed chaos, then assert.

The harness synthesizes a long request stream — flapping processor
availability, a window of sensor faults — and runs a
:class:`~repro.serve.fleet.PolicyFleet` over it, checking the
invariants the serving contract promises:

* no unhandled exception escapes the decision loop;
* every request yields exactly one decision, nothing vanishes;
* every answered thread count lies in ``[1, available]`` for that
  request's availability;
* after a shard kill and/or live resizes, every stream's learning
  state and every served decision are *bit-identical* to an
  uninterrupted, never-resized inline twin (:func:`verify_twin`).

There is one harness.  A single server is a 1-shard fleet:
``run_fleet_soak(spec, bundle, config=FleetConfig(shards=1))`` serves
every stream on the caller's thread, and :func:`verify_twin` with
``processes=False`` kills and restarts that inline shard with no
processes and no shared memory.

Everything about the stream is a pure function of ``(spec, index)`` —
environment values, availability, and sensor corruption (via the
stateless :func:`~repro.chaos.sensors.corrupt_sample`) — so the stream
a restarted shard sees from request ``k`` onward is exactly the stream
the dead shard would have seen.  That property is what makes the twin
comparison meaningful.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..chaos.availability import AvailabilityFlap
from ..chaos.sensors import SensorFaultSpec, corrupt_sample
from ..compiler.features import CodeFeatures
from ..core.features import NUM_FEATURES
from ..core.policies.base import PolicyContext
from ..core.policies.mixture import MixturePolicy
from ..core.selector import HyperplaneSelector
from ..core.training import ExpertBundle, TrainingConfig
from ..machine.availability import StaticAvailability
from ..sched.stats import EnvironmentSample
from .fleet import RECOVERED_TIER, FleetConfig, PolicyFleet
from .report import FleetReport
from .server import ServeDecision, ServeRequest

#: Simulated seconds between consecutive request indices.
REQUEST_DT = 0.25

#: Synthetic parallel regions the stream cycles through (name, code
#: features) — a few distinct loops so the feature space has structure.
_LOOPS: Tuple[Tuple[str, CodeFeatures], ...] = (
    ("stream_triad", CodeFeatures(0.42, 0.31, 0.02)),
    ("stencil", CodeFeatures(0.18, 0.44, 0.09)),
    ("reduction", CodeFeatures(0.07, 0.22, 0.15)),
    ("spmv", CodeFeatures(0.33, 0.27, 0.05)),
)


def tiny_training_config() -> TrainingConfig:
    """The miniature training configuration used by ``--tiny`` soaks.

    Mirrors the test suite's tiny fixture: two targets, one
    single-program workload, shallow sweeps — trains in seconds and is
    disk-cached by the training pipeline.
    """
    return TrainingConfig(
        target_names=("cg", "ep"),
        workload_names=("is",),
        workload_bundles=((), ("is", "ft")),
        workload_fractions=(0.5,),
        availability_levels=(0.5, 1.0),
        iterations_scale=0.05,
        max_samples_per_run=6,
    )


@dataclass(frozen=True)
class SoakSpec:
    """Deterministic description of one soak run's request stream."""

    requests: int = 10_000
    seed: int = 0
    #: Machine size and per-decision thread ceiling.
    processors: int = 16
    max_threads: int = 32
    #: Availability flapping (None = static full machine).
    flap_period: float = 40.0
    flap_fraction: float = 0.5
    #: Sensor faults, active only inside the fault window (fractions of
    #: the stream, so the ladder can degrade *and* recover).
    sensor: Optional[SensorFaultSpec] = None
    fault_window: Tuple[float, float] = (0.3, 0.6)

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.processors < 1 or self.max_threads < 1:
            raise ValueError("processors/max_threads must be >= 1")
        low, high = self.fault_window
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError("fault_window must satisfy 0 <= lo <= hi <= 1")

    def availability(self) -> AvailabilityFlap:
        return AvailabilityFlap(
            base=StaticAvailability(self.processors),
            period=self.flap_period,
            surviving_fraction=self.flap_fraction,
            duty=0.4,
        )

    def fault_active(self, index: int) -> bool:
        low, high = self.fault_window
        return low * self.requests <= index < high * self.requests


def _clean_env(spec: SoakSpec, index: int,
               available: int) -> EnvironmentSample:
    """The uncorrupted environment sample for one request index."""
    rng = np.random.default_rng([spec.seed, index, 1])
    workload = float(rng.uniform(0.0, spec.processors / 2))
    return EnvironmentSample(
        time=index * REQUEST_DT,
        workload_threads=workload,
        processors=float(available),
        runq_sz=float(rng.uniform(0.0, spec.processors / 4)),
        ldavg_1=workload * float(rng.uniform(0.6, 1.1)),
        ldavg_5=workload * float(rng.uniform(0.5, 1.0)),
        cached_memory=float(rng.uniform(0.1, 2.0)),
        pages_free_rate=float(rng.uniform(0.0, 1.0)),
    )


def make_request(spec: SoakSpec, index: int) -> ServeRequest:
    """The request at stream position ``index`` — a pure function."""
    schedule = spec.availability()
    available = schedule.available(index * REQUEST_DT)
    env = _clean_env(spec, index, available)
    if spec.sensor is not None and spec.fault_active(index):
        previous = _clean_env(
            spec, index - 1,
            schedule.available((index - 1) * REQUEST_DT),
        ) if index > 0 else None
        env = corrupt_sample(spec.sensor, index, env, previous)
    name, code = _LOOPS[index % len(_LOOPS)]
    ctx = PolicyContext(
        time=index * REQUEST_DT,
        loop_name=name,
        code=code,
        env=env,
        available_processors=available,
        max_threads=spec.max_threads,
    )
    return ServeRequest(index=index, ctx=ctx)


def build_policy(bundle: ExpertBundle) -> MixturePolicy:
    """The served policy: the paper's mixture over ``bundle``."""
    return MixturePolicy(
        bundle.experts,
        selector=HyperplaneSelector(
            num_experts=len(bundle.experts), dim=NUM_FEATURES,
        ),
    )


class SoakInvariantError(AssertionError):
    """A serving invariant was violated during the soak."""


def _fleet_policy_factory(bundle: ExpertBundle):
    """A picklable zero-arg policy factory over ``bundle``."""
    return functools.partial(build_policy, bundle)


def _check_fleet_decisions(
    spec: SoakSpec, decisions: List[ServeDecision]
) -> None:
    """Fleet-level invariants: nothing vanishes, every answer is legal.

    ``RECOVERED_TIER`` markers (failover re-deliveries the replacement
    shard recognised as already journaled) are legitimate non-answers:
    the original decision was already delivered before the crash or is
    unrecoverable by design, and the marker proves the request was not
    silently dropped.
    """
    seen = {}
    for decision in decisions:
        seen[decision.index] = seen.get(decision.index, 0) + 1
    schedule = spec.availability()
    for index in range(spec.requests):
        if seen.get(index, 0) != 1:
            raise SoakInvariantError(
                f"request {index} yielded {seen.get(index, 0)} "
                "decisions (expected exactly 1)"
            )
    for decision in decisions:
        if decision.shed or decision.tier == RECOVERED_TIER:
            continue
        available = schedule.available(decision.index * REQUEST_DT)
        if decision.threads is None or not (
                1 <= decision.threads <= available):
            raise SoakInvariantError(
                f"request {decision.index}: threads {decision.threads} "
                f"outside [1, {available}]"
            )


def run_fleet_soak(
    spec: SoakSpec,
    bundle: ExpertBundle,
    *,
    config: Optional[FleetConfig] = None,
    state_root: Optional[Union[str, Path]] = None,
    processes: bool = False,
    kill_at: Optional[int] = None,
    resize_at: Optional[Mapping[int, Union[int, Sequence[int]]]] = None,
    supervise: bool = False,
) -> Tuple[FleetReport, List[ServeDecision], Dict[str, dict]]:
    """Drive a sharded fleet over the spec's stream, checking invariants.

    The fleet consumes the stream one request at a time and
    micro-batches it per shard; routing keys on the loop name, so each
    synthetic parallel region is a stream with its own server, pinned
    to one shard.  With ``kill_at``, the shard owning the request at
    that index is killed just before it is submitted (SIGKILL in
    process mode; inline, its worker is abandoned unclosed) — the
    failover machinery must recover and finish the stream.  With
    ``resize_at`` (request index -> shard count or member list), the
    fleet is live-resized just before that index is submitted; with
    ``supervise``, a :class:`FleetSupervisor` arbitrates losses
    (heartbeats, restart budgets, evacuation).
    """
    config = config or FleetConfig()
    # Built before the fleet starts, so the fleet's wall clock times
    # serving, not request generation.
    requests = [make_request(spec, index) for index in range(spec.requests)]
    fleet = PolicyFleet(
        _fleet_policy_factory(bundle), config,
        state_root=state_root, processes=processes,
    )
    if supervise:
        from .supervisor import FleetSupervisor
        FleetSupervisor(fleet)
    pending_resizes = dict(resize_at or {})
    killed_shard: Optional[int] = None
    for index, request in enumerate(requests):
        target = pending_resizes.pop(index, None)
        if target is not None:
            if isinstance(target, int):
                fleet.resize(target)
            else:
                fleet.resize(members=list(target))
        if kill_at is not None and index == kill_at:
            killed_shard = fleet.owner(request.ctx.loop_name)
            fleet.kill_shard(killed_shard)
        fleet.submit(request)
    report = fleet.close()
    _check_fleet_decisions(spec, fleet.decisions)
    if kill_at is not None and report.failovers < 1:
        raise SoakInvariantError(
            f"shard {killed_shard} was killed at request {kill_at} "
            "but no failover was recorded"
        )
    if resize_at and report.resizes < len(dict(resize_at)):
        raise SoakInvariantError(
            f"{len(dict(resize_at))} resizes were scheduled but only "
            f"{report.resizes} were recorded"
        )
    return report, list(fleet.decisions), dict(fleet.stream_states)


def verify_twin(
    spec: SoakSpec,
    bundle: ExpertBundle,
    state_root: Union[str, Path],
    *,
    config: Optional[FleetConfig] = None,
    kill_at: Optional[int] = None,
    resize_at: Optional[Mapping[int, Union[int, Sequence[int]]]] = None,
    processes: bool = True,
    supervise: bool = False,
) -> dict:
    """A disturbed run against its uninterrupted twin: lossless check.

    Twin A runs the stream through an *inline* fleet of the same
    configuration that is never killed and never resized.  Run B serves
    it with ``processes`` and ``supervise`` as given, a shard kill at
    ``kill_at`` and/or live resizes at every index in ``resize_at``
    (e.g. ``{100: 4, 200: 3}`` for a 2→4→3 walk).  Each stream's
    decisions depend only on that stream's own request prefix — never
    on fleet shape, placement or process boundaries — so B must end
    with every stream's selector state bit-identical to A's, and every
    decision B actually served (everything except its ``recovered``
    re-delivery markers and deadline-missed decisions, see
    :func:`_compare_decisions`) must equal A's.

    Returns the outcome counts plus B's :class:`FleetReport` under
    ``"report"``; raises :class:`SoakInvariantError` on any divergence.
    """
    if kill_at is None and not resize_at:
        raise ValueError("verify_twin needs kill_at and/or resize_at")
    if kill_at is not None and not 0 < kill_at < spec.requests:
        raise ValueError("kill_at must fall inside the stream")
    for index in resize_at or {}:
        if not 0 <= index < spec.requests:
            raise ValueError(
                f"resize at {index} falls outside the stream")
    config = config or FleetConfig()
    state_root = Path(state_root)
    what = " and ".join(
        name for name, active in (("failover", kill_at is not None),
                                  ("resharding", bool(resize_at)))
        if active
    )

    _, twin_decisions, twin_states = run_fleet_soak(
        spec, bundle, config=config, state_root=state_root / "twin",
    )
    report, decisions, states = run_fleet_soak(
        spec, bundle, config=config, state_root=state_root / "run",
        processes=processes, kill_at=kill_at, resize_at=resize_at,
        supervise=supervise,
    )

    _compare_stream_states(twin_states, states, what)
    recovered, missed, compared = _compare_decisions(
        twin_decisions, decisions, what)
    return {
        "kill_at": kill_at,
        "resize_at": dict(sorted((resize_at or {}).items())),
        "shards": config.shards,
        "final_shards": report.shards,
        "failovers": report.failovers,
        "restarts": report.restarts,
        "resizes": report.resizes,
        "epochs": report.epochs,
        "streams_migrated": report.streams_migrated,
        "recovered": recovered,
        "deadline_missed": missed,
        "compared_decisions": compared,
        "streams": len(twin_states),
        "identical": True,
        "report": report,
    }


def _compare_stream_states(twin_states: Dict[str, dict],
                           other_states: Dict[str, dict],
                           what: str) -> None:
    """Per-stream bit-identity of exported selector state."""
    if set(twin_states) != set(other_states):
        raise SoakInvariantError(
            f"stream sets diverged after {what}: twin "
            f"{sorted(twin_states)} vs {sorted(other_states)}"
        )
    for stream in sorted(twin_states):
        mismatches = _state_mismatches(
            twin_states[stream]["selector"],
            other_states[stream]["selector"],
        )
        if mismatches:
            raise SoakInvariantError(
                f"stream {stream!r} selector state diverged after "
                f"{what}: " + ", ".join(mismatches)
            )


def _compare_decisions(twin_decisions: List[ServeDecision],
                       other_decisions: List[ServeDecision],
                       what: str) -> Tuple[int, int, int]:
    """Bit-identical served decisions, two kinds of decision exempt.

    The interrupted run's ``recovered`` markers stand in for answers
    that were journaled but whose delivery died with a shard.  A
    decision that missed its wall-clock deadline (on either side) may
    have been demoted to a lower tier after tier 0 already updated the
    selector, so its ``threads@tier`` can differ from the twin's while
    the selector state stays twin-equal; the deadline check is the only
    wall-clock input to a served decision.  Everything else must match
    the twin.  Returns the (recovered, deadline_missed, compared)
    counts.
    """
    by_index = {d.index: d for d in twin_decisions}
    compared = 0
    recovered = 0
    missed = 0
    for decision in other_decisions:
        if decision.tier == RECOVERED_TIER:
            recovered += 1
            continue
        twin_decision = by_index[decision.index]
        if decision.deadline_missed or twin_decision.deadline_missed:
            missed += 1
            continue
        if (decision.threads, decision.tier, decision.shed) != (
                twin_decision.threads, twin_decision.tier,
                twin_decision.shed):
            raise SoakInvariantError(
                f"decision {decision.index} diverged after {what}: "
                f"{_describe(decision)} vs twin "
                f"{_describe(twin_decision)}"
            )
        compared += 1
    return recovered, missed, compared


def _describe(decision: ServeDecision) -> str:
    """One decision's answer plus the wall-clock facts behind it."""
    return (
        f"{decision.threads}@{decision.tier} "
        f"(deadline_missed={decision.deadline_missed}, "
        f"failure={decision.failure}, "
        f"latency_s={decision.latency_s:.6f})"
    )


def _state_mismatches(left: dict, right: dict) -> List[str]:
    """Field names on which two selector states differ at all."""
    mismatches = []
    for key in sorted(set(left) | set(right)):
        a, b = left.get(key), right.get(key)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if not np.array_equal(np.asarray(a), np.asarray(b)):
                mismatches.append(key)
        elif a != b:
            mismatches.append(key)
    return mismatches
