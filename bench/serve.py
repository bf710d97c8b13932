"""Serving-path workloads: an open-loop schedule and a saturating client.

Both drive a journaled 2-shard process :class:`PolicyFleet` (default
:class:`FleetConfig`) serving the standard 4-expert mixture.

* ``serve-steady`` is an open loop: Poisson arrivals at 500 req/s for
  the first half of the run and 1000 req/s for the second, spread over
  64 streams (16 programs x the 4 soak loops).  Each request is timed
  from when it was *due* to when its decision appears in
  ``fleet.decisions``, so a stall delays every later request too.
* ``serve-saturate`` is one client submitting the stock soak stream as
  fast as ``submit`` returns, in trials of ``SATURATE_TRIAL`` requests,
  each on a fresh fleet.

Decisions do not depend on timing (admission is lossless), so each
stream's ``(index, threads, tier)`` sequence is checked against a
recorded digest or against an inline-fleet twin.
"""

from __future__ import annotations

import functools
import hashlib
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

import hostspeed
from stats import median

PROGRAMS = 16
#: (arrival rate in req/s, share of the run) of each steady phase.
PHASES = ((500.0, 0.5), (1000.0, 0.5))
SATURATE_TRIAL = 5000
MIN_TRIALS = 3
#: Generator sleep between polls: it must not spin a core away from
#: the shards on a 2-core host.
POLL_SLEEP_S = 0.0001
#: Head start between building the schedule and its first due time.
LEAD_S = 0.05
#: The ladder's first tier: the mixture policy itself.
FIRST_TIER = "mixture"


def policy_factory(bundle):
    from repro.serve.soak import build_policy

    return functools.partial(build_policy, bundle)


def spawn_fleet(bundle, state_root):
    from repro.serve.fleet import FleetConfig, PolicyFleet

    return PolicyFleet(policy_factory(bundle), FleetConfig(),
                       state_root=state_root, processes=True)


# -- inputs -------------------------------------------------------------------


def steady_schedule(seed: int, seconds: float):
    """Due times (s from start) and phase labels: a pure function of
    ``(seed, seconds)``."""
    rng = np.random.default_rng([seed, 11])
    dues: List[float] = []
    phases: List[int] = []
    start = 0.0
    for label, (rate, share) in enumerate(PHASES):
        end = start + seconds * share
        t = start
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= end:
                break
            dues.append(t)
            phases.append(label)
        start = end
    return dues, phases


def steady_inputs(seed: int, seconds: float):
    """``(dues, phases, requests, streams)`` for ``serve-steady``."""
    from repro.serve.soak import SoakSpec, make_request

    dues, phases = steady_schedule(seed, seconds)
    spec = SoakSpec(requests=max(1, len(dues)), seed=seed)
    programs = np.random.default_rng([seed, 13]).integers(
        0, PROGRAMS, size=len(dues))
    requests = [make_request(spec, i) for i in range(len(dues))]
    streams = [f"prog{int(p):02d}/{r.ctx.loop_name}"
               for p, r in zip(programs, requests)]
    return dues, phases, requests, streams


def saturate_inputs(seed: int):
    """The stock soak stream; each stream is its loop name."""
    from repro.serve.soak import SoakSpec, make_request

    spec = SoakSpec(requests=SATURATE_TRIAL, seed=seed)
    requests = [make_request(spec, i) for i in range(SATURATE_TRIAL)]
    return requests, [r.ctx.loop_name for r in requests]


# -- driving ------------------------------------------------------------------


def drive_open_loop(fleet, requests: Sequence, streams: Sequence[str],
                    dues: Sequence[float]):
    """Submit each request when due; stamp each decision when seen.

    Returns ``(latencies_s, lag_s, observed)``: latency from the due
    time to the decision's appearance (``None`` if none appeared), how
    late each submission ran, and the per-index decision count.
    """
    n = len(requests)
    latencies: List[Optional[float]] = [None] * n
    observed = [0] * n
    lag: List[float] = []
    seen = 0
    t0 = time.perf_counter() + LEAD_S

    def harvest() -> None:
        nonlocal seen
        decisions = fleet.decisions
        if seen == len(decisions):
            return
        now = time.perf_counter()
        for decision in decisions[seen:]:
            index = decision.index
            observed[index] += 1
            if latencies[index] is None:
                latencies[index] = now - (t0 + dues[index])
        seen = len(decisions)

    i = 0
    while i < n:
        now = time.perf_counter()
        while i < n and t0 + dues[i] <= now:
            lag.append(now - (t0 + dues[i]))
            fleet.submit(requests[i], stream=streams[i])
            i += 1
            harvest()
            now = time.perf_counter()
        fleet.poll()
        harvest()
        time.sleep(POLL_SLEEP_S)
    fleet.drain()
    harvest()
    return latencies, lag, observed


def drive_saturate(fleet, requests: Sequence):
    """Submit back to back; returns ``(wall_s, latencies_s, observed)``
    with latency from each submit call to the decision's appearance."""
    n = len(requests)
    submitted = [0.0] * n
    latencies: List[Optional[float]] = [None] * n
    observed = [0] * n
    seen = 0
    t0 = time.perf_counter()
    for i, request in enumerate(requests):
        submitted[i] = time.perf_counter()
        fleet.submit(request)
        decisions = fleet.decisions
        if seen < len(decisions):
            now = time.perf_counter()
            for decision in decisions[seen:]:
                observed[decision.index] += 1
                if latencies[decision.index] is None:
                    latencies[decision.index] = now - submitted[
                        decision.index]
            seen = len(decisions)
    fleet.drain()
    now = time.perf_counter()
    for decision in fleet.decisions[seen:]:
        observed[decision.index] += 1
        if latencies[decision.index] is None:
            latencies[decision.index] = now - submitted[decision.index]
    return now - t0, latencies, observed


# -- correctness --------------------------------------------------------------


def stream_digests(decisions, streams: Sequence[str]) -> Dict[str, str]:
    """Per-stream digest of ``(index, threads, tier)`` in index order."""
    per_stream: Dict[str, list] = {}
    for decision in sorted(decisions, key=lambda d: d.index):
        per_stream.setdefault(streams[decision.index], []).append(
            f"{decision.index}:{decision.threads}:{decision.tier}")
    return {
        stream: hashlib.sha256(";".join(rows).encode()).hexdigest()[:16]
        for stream, rows in sorted(per_stream.items())
    }


def twin_digests(bundle, requests, streams) -> Dict[str, str]:
    """Digests from an inline fleet: same shards and batching code, no
    processes, no journal."""
    from repro.serve.fleet import FleetConfig, PolicyFleet

    fleet = PolicyFleet(policy_factory(bundle), FleetConfig())
    for request, stream in zip(requests, streams):
        fleet.submit(request, stream=stream)
    fleet.close()
    return stream_digests(fleet.decisions, streams)


def audit(decisions, requests, streams, observed, expected) -> dict:
    """Failures and correctness checks of one fleet session.

    A failure is a request shed, past its deadline, answered below the
    first tier, lost or duplicated.  Streams whose decisions a missed
    deadline changed are timing-driven by definition; they count as
    failures and are left out of the digest comparison.
    """
    first = {}
    for decision in decisions:
        first.setdefault(decision.index, decision)
    lost = sum(1 for count in observed if count == 0)
    duplicated = sum(1 for count in observed if count > 1)
    failing = set()
    illegal = 0
    timing_streams = set()
    for index, decision in first.items():
        request = requests[index]
        if decision.shed or decision.deadline_missed or \
                decision.tier != FIRST_TIER:
            failing.add(index)
        if decision.deadline_missed or decision.failure == "deadline":
            timing_streams.add(streams[index])
        if not decision.shed and not (
                decision.threads is not None
                and 1 <= decision.threads
                <= request.ctx.available_processors):
            illegal += 1
    digests = stream_digests(list(first.values()), streams)
    mismatched = [
        stream for stream, digest in digests.items()
        if stream not in timing_streams and expected.get(stream) != digest
    ]
    missing = set(expected) - set(digests)
    checks = [
        ("every request got exactly one decision",
         lost == 0 and duplicated == 0,
         f"lost {lost}, duplicated {duplicated}"),
        ("answered thread counts within [1, available]", illegal == 0,
         f"{illegal} illegal"),
        ("per-stream decision digests match",
         not mismatched and not missing,
         f"{len(mismatched)} mismatched, {len(missing)} missing, "
         f"{len(timing_streams)} deadline-affected skipped"),
    ]
    return {"failed": len(failing) + lost + duplicated, "checks": checks}


def service_facts(decisions, report) -> dict:
    """Shard-side service times and tier health, from the fleet's own
    decisions and report."""
    service = [d.latency_s * 1e6 for d in decisions if not d.shed]
    first_tier = sum(1 for d in decisions if d.tier == FIRST_TIER)
    return {
        "serve.decision.service_p50_us":
            float(np.percentile(service, 50)) if service else 0.0,
        "serve.decision.service_p99_us":
            float(np.percentile(service, 99)) if service else 0.0,
        "serve.tier.first_share":
            first_tier / len(decisions) if decisions else 0.0,
        "serve.breaker.trips": sum(r.trips for r in report.per_shard),
    }


def shard_requests(report) -> int:
    """Requests the shards' own reports counted in one fleet session."""
    return sum(shard.total for shard in report.per_shard)


# -- workloads ----------------------------------------------------------------


def steady_latency_ms(raw_s: float, speed: float, linger_s: float) -> float:
    """A due-to-decision latency at reference host speed.

    Its first ``linger_s`` is the fleet's batch linger, a wall-clock
    wait that host speed does not change (the traced run measures it at
    about 2.04 ms at p50); the rest is CPU-bound work (submit, transport,
    shard service, journaling, polling), scaled like every other time
    (see ``hostspeed.py``).
    """
    wait = min(raw_s, linger_s)
    return (wait + (raw_s - wait) * speed) * 1000.0


def run_steady(ctx, seconds: float) -> dict:
    from repro.serve.fleet import FleetConfig

    dues, phases, requests, streams = steady_inputs(ctx.seed, seconds)
    fleet = spawn_fleet(ctx.bundle, ctx.scratch / "steady")
    try:
        (latencies, lag, observed), _elapsed, speed = hostspeed.timed(
            drive_open_loop, fleet, requests, streams, dues)
        decisions = list(fleet.decisions)
    finally:
        report = fleet.close()
    linger_s = FleetConfig().batch_linger_s
    scaled = [None if v is None else steady_latency_ms(v, speed, linger_s)
              for v in latencies]
    measured = [v for v in scaled if v is not None]
    per_phase = []
    for label, (rate, _share) in enumerate(PHASES):
        values = [scaled[i] for i in range(len(requests))
                  if phases[i] == label and scaled[i] is not None]
        per_phase.append((rate, values))
    # From the first due time to the last decision seen.
    wall = max(due + lat for due, lat in zip(dues, latencies)
               if lat is not None) - dues[0]
    return {
        "attempted": len(requests),
        "ops_per_s": len(measured) / wall,
        "rate_samples": 1,
        "latencies_ms": measured,
        "latency_op": "request (due to decision; the first "
                      f"{linger_s * 1000:g} ms, the batch linger, unscaled)",
        "timed_s": wall,
        "speed": speed,
        "per_phase_ms": per_phase,
        "sessions": [(decisions, observed)],
        "shard_requests": shard_requests(report),
        "inputs": (requests, streams),
        "expected_key": ("serve-steady", seconds),
        "facts": {
            **service_facts(decisions, report),
            "bench.gen_lag_p99_ms": (
                float(np.percentile(lag, 99)) * 1000.0 if lag else 0.0),
        },
        "details": [("requests", len(requests)),
                    ("streams", len(set(streams)))],
    }


def run_saturate(ctx, seconds: float) -> dict:
    requests, streams = saturate_inputs(ctx.seed)
    rates, latencies, sessions, speeds = [], [], [], []
    timed = 0.0
    served = 0
    facts: dict = {}
    started = time.perf_counter()
    while (len(sessions) < MIN_TRIALS
           or time.perf_counter() - started < seconds):
        fleet = spawn_fleet(ctx.bundle,
                            ctx.scratch / f"saturate-{len(sessions)}")
        try:
            (wall, lat, observed), _elapsed, speed = hostspeed.timed(
                drive_saturate, fleet, requests)
            decisions = list(fleet.decisions)
        finally:
            report = fleet.close()
        speeds.append(speed)
        sessions.append((decisions, observed))
        served += shard_requests(report)
        timed += wall
        rates.append(len(requests) / (wall * speed))
        latencies.extend(v * 1000.0 * speed for v in lat if v is not None)
        for key, value in service_facts(decisions, report).items():
            facts.setdefault(key, []).append(value)
    return {
        "attempted": len(requests) * len(sessions),
        "ops_per_s": median(rates),
        "rate_samples": len(rates),
        "latencies_ms": latencies,
        "latency_op": "request (submit to decision)",
        "timed_s": timed,
        "speed": median(speeds),
        "sessions": sessions,
        "shard_requests": served,
        "inputs": (requests, streams),
        "expected_key": ("serve-saturate", SATURATE_TRIAL),
        "facts": {key: median(values) for key, values in facts.items()},
        "details": [("trials", len(sessions)),
                    ("requests per trial", len(requests))],
    }


def verify(ctx, result: dict) -> None:
    """Audit every fleet session of ``result`` in place (failures and
    checks).  Runs after the timed and traced phase: an unrecorded seed
    needs the inline twin, whose calls must not count as the fleet's."""
    requests, streams = result["inputs"]
    expected = ctx.expected_serve(*result["expected_key"])
    if expected is None:
        expected = twin_digests(ctx.bundle, requests, streams)
    result["failed"] = 0
    result["checks"] = []
    sessions = result["sessions"]
    for number, (decisions, observed) in enumerate(sessions, start=1):
        audited = audit(decisions, requests, streams, observed, expected)
        result["failed"] += audited["failed"]
        label = f"session {number}: " if len(sessions) > 1 else ""
        result["checks"].extend((label + name, ok, detail)
                                for name, ok, detail in audited["checks"])
