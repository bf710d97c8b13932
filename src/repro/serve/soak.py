"""Soak harness: drive the server through composed chaos, then assert.

The harness synthesizes a long request stream — bursty arrivals,
flapping processor availability, a window of sensor faults — and runs a
:class:`~repro.serve.server.PolicyServer` over it, checking the
invariants the serving contract promises:

* no unhandled exception escapes the decision loop;
* every request is answered or explicitly shed, nothing vanishes;
* every answered thread count lies in ``[1, available]`` for that
  request's availability;
* after a mid-run kill, a restarted server resumes from its journal
  and snapshot with *bit-identical* learning state (verified against
  an uninterrupted twin run).

Everything about the stream is a pure function of ``(spec, index)`` —
environment values, burst boundaries, availability, and sensor
corruption (via the stateless
:func:`~repro.chaos.sensors.corrupt_sample`) — so the stream a
restarted server sees from request ``k`` onward is exactly the stream
the dead server would have seen.  That property is what makes the
kill/restart comparison meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

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
from .report import FleetReport, ServeReport
from .server import (
    PolicyServer,
    ServeConfig,
    ServeDecision,
    ServeRequest,
)

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
    #: Every ``burst_period``-th index arrives in a batch of
    #: ``burst_size`` requests (storm arrivals exercising admission).
    burst_period: int = 97
    burst_size: int = 12

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.processors < 1 or self.max_threads < 1:
            raise ValueError("processors/max_threads must be >= 1")
        low, high = self.fault_window
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError("fault_window must satisfy 0 <= lo <= hi <= 1")
        if self.burst_period < 1 or self.burst_size < 1:
            raise ValueError("burst_period/burst_size must be >= 1")
        if self.burst_size > self.burst_period:
            raise ValueError("bursts may not overlap "
                             "(burst_size > burst_period)")

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


def request_batches(
    spec: SoakSpec, start_index: int = 0
) -> Iterator[Tuple[int, List[ServeRequest]]]:
    """``(start_position, batch)`` pairs from ``start_index`` onward.

    Most indices arrive alone; every ``burst_period``-th index opens a
    storm batch of ``burst_size`` requests.  Burst membership is a pure
    function of the absolute index, and ``start_position`` says where
    the batch's first request sits inside its logical burst — so a
    stream resumed mid-burst sheds exactly the members the
    uninterrupted stream would have shed (admission is by position in
    the arrival batch, and positions must survive a restart).
    """
    index = start_index
    while index < spec.requests:
        burst = (index // spec.burst_period) * spec.burst_period
        if burst > 0 and index < burst + spec.burst_size:
            end = min(burst + spec.burst_size, spec.requests)
            position = index - burst
        else:
            end = index + 1
            position = 0
        yield position, [
            make_request(spec, i) for i in range(index, end)
        ]
        index = end


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


def _check_decisions(
    batch: List[ServeRequest], decisions: List[ServeDecision]
) -> None:
    if len(decisions) != len(batch):
        raise SoakInvariantError(
            f"batch of {len(batch)} produced {len(decisions)} decisions"
        )
    for request, decision in zip(batch, decisions):
        if decision.shed:
            continue
        available = request.ctx.available_processors
        if decision.threads is None or not (
                1 <= decision.threads <= available):
            raise SoakInvariantError(
                f"request {request.index}: threads {decision.threads} "
                f"outside [1, {available}]"
            )


def run_soak(
    spec: SoakSpec,
    bundle: ExpertBundle,
    *,
    state_dir: Optional[Union[str, Path]] = None,
    config: Optional[ServeConfig] = None,
    kill_at: Optional[int] = None,
    collect: bool = False,
) -> Tuple[ServeReport, List[ServeDecision]]:
    """Drive a server over the spec's stream, checking invariants.

    With ``state_dir``, serving is stateful and resumes from whatever
    the directory holds.  ``kill_at`` stops the loop the moment the
    next batch would start at or beyond that index — the server is
    *abandoned*, not closed, like a process that just died.  Rerunning
    with the same ``state_dir`` finishes the stream.
    """
    policy = build_policy(bundle)
    server = PolicyServer(policy, config, state_dir=state_dir)
    decisions: List[ServeDecision] = []
    killed = False
    for position, batch in request_batches(spec, server.next_index):
        if kill_at is not None and batch[0].index >= kill_at:
            killed = True
            break
        batch_decisions = server.offer(batch, start_position=position)
        _check_decisions(batch, batch_decisions)
        if collect:
            decisions.extend(batch_decisions)
    report = server.report()
    if not killed:
        server.close()
    return report, decisions


def verify_recovery(
    spec: SoakSpec,
    bundle: ExpertBundle,
    kill_at: int,
    state_dir: Union[str, Path],
    *,
    config: Optional[ServeConfig] = None,
) -> dict:
    """Kill/restart vs uninterrupted twin: lossless-recovery check.

    Runs the stream twice: once straight through (stateless), once
    with a kill at ``kill_at`` followed by a restart that resumes from
    ``state_dir``.  Returns a comparison dict; raises
    :class:`SoakInvariantError` when the restarted run's selector
    state or post-kill decisions differ from the twin's.
    """
    if not 0 < kill_at < spec.requests:
        raise ValueError("kill_at must fall inside the stream")
    # Twin A: never crashes.  Serve it statefully too (in a scratch
    # subdirectory) so both runs pay the same code paths.
    twin_dir = Path(state_dir) / "twin"
    twin_policy = build_policy(bundle)
    twin = PolicyServer(twin_policy, config, state_dir=twin_dir)
    twin_decisions: List[ServeDecision] = []
    for position, batch in request_batches(spec, 0):
        twin_decisions.extend(twin.offer(batch, start_position=position))
    twin.close()

    # Twin B: killed mid-run, restarted, finishes the stream.
    crash_dir = Path(state_dir) / "crashed"
    run_soak(spec, bundle, state_dir=crash_dir, config=config,
             kill_at=kill_at)
    resumed_policy = build_policy(bundle)
    resumed = PolicyServer(resumed_policy, config, state_dir=crash_dir)
    resumed_from = resumed.next_index
    resumed_decisions: List[ServeDecision] = []
    for position, batch in request_batches(spec, resumed.next_index):
        resumed_decisions.extend(
            resumed.offer(batch, start_position=position)
        )
    resumed.close()

    # Bit-identical learning state ...
    twin_state = twin_policy.export_online_state()["selector"]
    resumed_state = resumed_policy.export_online_state()["selector"]
    mismatches = _state_mismatches(twin_state, resumed_state)
    if mismatches:
        raise SoakInvariantError(
            "selector state diverged after recovery: "
            + ", ".join(mismatches)
        )
    # ... and bit-identical post-restart decisions.
    by_index = {d.index: d for d in twin_decisions}
    for decision in resumed_decisions:
        twin_decision = by_index[decision.index]
        if (decision.threads, decision.tier, decision.shed) != (
                twin_decision.threads, twin_decision.tier,
                twin_decision.shed):
            raise SoakInvariantError(
                f"decision {decision.index} diverged after recovery: "
                f"{decision.threads}@{decision.tier} vs twin "
                f"{twin_decision.threads}@{twin_decision.tier}"
            )
    return {
        "kill_at": kill_at,
        "resumed_from": resumed_from,
        "compared_decisions": len(resumed_decisions),
        "identical": True,
    }


# -- fleet mode -------------------------------------------------------------


def _fleet_policy_factory(bundle: ExpertBundle):
    """A picklable zero-arg policy factory over ``bundle``."""
    import functools

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

    The fleet consumes the stream one request at a time (micro-batching
    replaces the single-server burst batches); routing keys on the loop
    name, so each synthetic parallel region is a stream pinned to one
    shard.  With ``kill_at`` (process mode only), the shard owning the
    request at that index is SIGKILLed just before it is submitted —
    the failover machinery must recover and finish the stream.  With
    ``resize_at`` (request index -> shard count or member list), the
    fleet is live-resized just before that index is submitted; with
    ``supervise``, a :class:`FleetSupervisor` arbitrates losses
    (heartbeats, restart budgets, evacuation).
    """
    config = config or FleetConfig()
    fleet = PolicyFleet(
        _fleet_policy_factory(bundle), config,
        state_root=state_root, processes=processes,
    )
    if supervise:
        from .supervisor import FleetSupervisor
        FleetSupervisor(fleet)
    pending_resizes = dict(resize_at or {})
    killed_shard: Optional[int] = None
    for index in range(spec.requests):
        target = pending_resizes.pop(index, None)
        if target is not None:
            if isinstance(target, int):
                fleet.resize(target)
            else:
                fleet.resize(members=list(target))
        request = make_request(spec, index)
        if kill_at is not None and index == kill_at:
            if not processes:
                raise ValueError("kill_at requires process mode")
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


def verify_fleet_recovery(
    spec: SoakSpec,
    bundle: ExpertBundle,
    kill_at: int,
    state_root: Union[str, Path],
    *,
    config: Optional[FleetConfig] = None,
) -> dict:
    """Shard-kill vs uninterrupted twin: lossless fleet failover check.

    Twin A runs the stream through an *inline* fleet (same sharding,
    same micro-batch code path, no processes, nothing to kill).  Twin B
    runs it through a process fleet whose owning shard is SIGKILLed at
    ``kill_at``.  Afterwards every stream's online-learning state must
    be bit-identical between the twins, and every decision B actually
    served (everything except its ``recovered`` re-delivery markers
    and deadline-missed decisions, see :func:`_compare_decisions`)
    must equal A's decision for the same request.
    """
    if not 0 < kill_at < spec.requests:
        raise ValueError("kill_at must fall inside the stream")
    config = config or FleetConfig()
    state_root = Path(state_root)

    twin_report, twin_decisions, twin_states = run_fleet_soak(
        spec, bundle, config=config, state_root=state_root / "twin",
        processes=False,
    )
    crash_report, crash_decisions, crash_states = run_fleet_soak(
        spec, bundle, config=config, state_root=state_root / "crashed",
        processes=True, kill_at=kill_at,
    )

    _compare_stream_states(twin_states, crash_states, "failover")
    recovered, missed, compared = _compare_decisions(
        twin_decisions, crash_decisions, "failover")
    return {
        "kill_at": kill_at,
        "shards": config.shards,
        "failovers": crash_report.failovers,
        "recovered": recovered,
        "deadline_missed": missed,
        "compared_decisions": compared,
        "identical": True,
    }


def verify_resize(
    spec: SoakSpec,
    bundle: ExpertBundle,
    resize_at: Mapping[int, Union[int, Sequence[int]]],
    state_root: Union[str, Path],
    *,
    kill_at: Optional[int] = None,
    config: Optional[FleetConfig] = None,
) -> dict:
    """Live resharding vs uninterrupted twin: lossless migration check.

    Twin A runs the stream through an *inline* fleet that never
    changes shape — no resizes, no processes, nothing to kill.  Twin B
    runs it through a supervised process fleet that is live-resized at
    every index in ``resize_at`` (e.g. ``{100: 4, 200: 3}`` for the
    canonical 2→4→3 walk) and, with ``kill_at``, additionally loses a
    shard to SIGKILL mid-soak.  Because each stream's decisions depend
    only on the stream's own request prefix — never on fleet shape or
    placement — B must end with every stream's selector state
    bit-identical to A's, and every decision B actually served
    (excluding ``recovered`` re-delivery markers and deadline-missed
    decisions) must equal A's.
    """
    if not resize_at:
        raise ValueError("resize_at must schedule at least one resize")
    for index in resize_at:
        if not 0 <= index < spec.requests:
            raise ValueError(
                f"resize at {index} falls outside the stream")
    config = config or FleetConfig()
    state_root = Path(state_root)

    twin_report, twin_decisions, twin_states = run_fleet_soak(
        spec, bundle, config=config, state_root=state_root / "twin",
        processes=False,
    )
    resized_report, resized_decisions, resized_states = run_fleet_soak(
        spec, bundle, config=config, state_root=state_root / "resized",
        processes=True, kill_at=kill_at, resize_at=resize_at,
        supervise=True,
    )

    _compare_stream_states(twin_states, resized_states, "resharding")
    recovered, missed, compared = _compare_decisions(
        twin_decisions, resized_decisions, "resharding")
    return {
        "resize_at": {int(k): v for k, v in sorted(resize_at.items())},
        "kill_at": kill_at,
        "resizes": resized_report.resizes,
        "epochs": resized_report.epochs,
        "final_shards": resized_report.shards,
        "streams_migrated": resized_report.streams_migrated,
        "failovers": resized_report.failovers,
        "restarts": resized_report.restarts,
        "recovered": recovered,
        "deadline_missed": missed,
        "compared_decisions": compared,
        "streams": len(twin_states),
        "identical": True,
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
