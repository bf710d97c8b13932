"""Run requests: the full configuration of one co-execution simulation.

A :class:`RunRequest` captures everything a single simulated run depends
on — target program, policy factory spec, scenario, workload set, seed,
topology, iteration scale, tick size, time limit — as a picklable value.
That buys two things at once:

* **parallelism** — requests can be shipped to worker processes and
  executed concurrently (:mod:`repro.exec.executor`), because every run
  is independent given its request;
* **memoisation** — a request has a content fingerprint
  (:meth:`RunRequest.fingerprint`) combining its own configuration with
  the simulator calibration fingerprint from
  :func:`repro.core.training.simulator_fingerprint`, so completed runs
  can be cached on disk and replayed instantly
  (:mod:`repro.exec.cache`).

The result of executing a request is a slim :class:`RunSummary` — the
headline numbers plus the selection log, *not* the full tick timeline —
small enough to cache by the thousand and to send back over a pipe.
The selection log is a :class:`SelectionLog`: four columns (float64
times, u16 indexes into interned job and loop tables, u16 threads) that
pickle as a handful of ``bytes`` and ``tuple`` values and decode into
:class:`~repro.runtime.engine.Selection` objects only when read.  A
replayed run that nobody inspects therefore never builds its thousands
of decision objects.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
import warnings
import zlib
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..core import training
from ..machine.topology import XEON_L7555
from ..runtime.engine import Selection

#: Bump whenever the semantics of executing a request change in a way
#: the simulator calibration fingerprint does not capture (e.g. job
#: naming, summary contents).  Part of every run fingerprint.
#: Version 2: requests gained the ``stepping`` mode and summaries are
#: produced without timeline sampling (they never stored timelines).
#: Version 3: workload specs carry ``start_times``/``restart`` (burst
#: storms) and summaries carry ``policy_fallbacks``; old entries lack
#: the new fields, so their fingerprints must never hit.
#: Version 4: summaries could come from the cross-run batched path
#: and travel through shared-memory SoA blocks (:mod:`repro.exec.shm`).
#: Version 5: requests lost the ``stepping`` field (every run is event-
#: stepped) and the batched path was removed, so the fingerprint tuple
#: changed shape.
RUN_FORMAT_VERSION = 5


#: id(object) -> (object, repr) for the frozen-dataclass configuration
#: objects a fingerprint reprs: the grid's few scenarios, topologies and
#: affinities, each repr'd once instead of once per request.  Keyed by
#: identity, never by value: equal objects may repr differently
#: (``-0.0 == 0.0``).  Holding the object keeps its id from being
#: reused; the memo empties when it reaches ``_REPRS_MAX`` entries.
_REPRS: Dict[int, Tuple[object, str]] = {}
_REPRS_MAX = 256


def _config_repr(value: object) -> str:
    """``repr(value)``, memoised by identity for ``None`` and frozen
    dataclasses."""
    memo = _REPRS.get(id(value))
    if memo is not None and memo[0] is value:
        return memo[1]
    text = repr(value)
    params = getattr(type(value), "__dataclass_params__", None)
    if value is None or (params is not None and params.frozen):
        if len(_REPRS) >= _REPRS_MAX:
            _REPRS.clear()
        _REPRS[id(value)] = (value, text)
    return text


def _stable_token(factory: Callable) -> Optional[str]:
    """Content digest of a policy factory, or ``None`` if unpicklable.

    cloudpickle serialises closures by value (code + captured cells), so
    the digest changes whenever the factory's behaviour-defining state
    changes — e.g. a retrained selector — and run-cache entries keyed on
    it go stale exactly when they should.
    """
    blob: Optional[bytes] = None
    try:
        import cloudpickle

        blob = cloudpickle.dumps(factory, protocol=4)
    except Exception:
        try:
            blob = pickle.dumps(factory, protocol=4)
        except Exception:
            return None
    return hashlib.sha256(blob).hexdigest()[:24]


#: (label, factory-name) pairs already warned about — one warning per
#: distinct unpicklable factory, not one per request.
_WARNED_UNTOKENED: set = set()


def _warn_untokened(label: str, factory: Callable) -> None:
    """Tell the user their runs silently skip memoisation, once."""
    name = (
        getattr(factory, "__qualname__", None)
        or getattr(factory, "__name__", None)
        or repr(factory)
    )
    key = (label, name)
    if key in _WARNED_UNTOKENED:
        return
    _WARNED_UNTOKENED.add(key)
    warnings.warn(
        f"repro.exec: policy factory {name!r} (label {label!r}) cannot "
        f"be pickled, so runs built from it get no content fingerprint "
        f"— they will execute but never be memoised (no run cache, so "
        f"an interrupted grid reruns them)",
        stacklevel=3,
    )


@dataclass(frozen=True)
class PolicySpec:
    """A picklable recipe for building fresh :class:`ThreadPolicy` objects.

    ``factory`` is invoked once per run (in the worker process for
    parallel execution); ``token`` is the content digest used in run
    fingerprints.  A spec with ``token=None`` still executes but is
    never memoised.
    """

    label: str
    factory: Callable = field(compare=False, repr=False)
    token: Optional[str] = None

    @classmethod
    def of(cls, factory: Callable, label: str = "") -> "PolicySpec":
        if isinstance(factory, PolicySpec):
            return factory if not label or factory.label == label else cls(
                label=label, factory=factory.factory, token=factory.token,
            )
        resolved_label = label or getattr(factory, "__name__", "policy")
        token = _stable_token(factory)
        if token is None:
            _warn_untokened(resolved_label, factory)
        return cls(
            label=resolved_label,
            factory=factory,
            token=token,
        )

    @classmethod
    def fixed(cls, threads: int) -> "PolicySpec":
        """Spec for a :class:`FixedPolicy` with a stable token."""
        from ..core.policies.fixed import FixedPolicy
        from functools import partial

        return cls(
            label=f"fixed-{threads}",
            factory=partial(FixedPolicy, threads),
            token=f"fixed:{threads}",
        )

    def build(self):
        return self.factory()


@dataclass(frozen=True)
class WorkloadSpec:
    """The co-running workload half of a request.

    ``program_names`` resolve through the program registry in the
    executing process; by default every workload job restarts until the
    target finishes (the paper's protocol) and runs a fresh policy
    built from ``policy``.  ``start_times`` staggers job arrivals (one
    entry per program, missing entries arrive at 0.0) and ``restart``
    can be disabled so a job runs once and leaves — together these
    express burst-storm workloads (:mod:`repro.chaos.workload`).
    """

    program_names: Tuple[str, ...]
    policy: PolicySpec
    name: str = ""
    start_times: Tuple[float, ...] = ()
    restart: bool = True

    @classmethod
    def from_set(cls, workload_set, policy: PolicySpec) -> "WorkloadSpec":
        """Adapt a :class:`repro.workload.spec.WorkloadSet`."""
        return cls(
            program_names=tuple(workload_set.program_names),
            policy=policy,
            name=workload_set.name,
        )

    def fingerprint_parts(self) -> tuple:
        return (
            self.program_names,
            self.policy.token,
            self.start_times,
            self.restart,
        )


@dataclass(frozen=True)
class RecordedSelection:
    """One recorded consultation of the target policy (``record`` runs).

    The feature vector is stored as a plain tuple so summaries compare
    and pickle deterministically; :mod:`repro.core.training` converts
    back to an array when harvesting samples.
    """

    time: float
    loop_name: str
    features: Tuple[float, ...]
    threads: int


#: Largest value a u16 column holds: the most entries a job or loop
#: table may have, and the most threads one decision may select.
U16_MAX = 0xFFFF


def _column(typecode: str, values: Iterable, what: str) -> bytes:
    """``values`` as little-endian ``typecode`` bytes; a value that does
    not fit raises rather than wrapping."""
    try:
        column = array(typecode, values)
    except OverflowError as exc:
        raise ValueError(
            f"selection log {what} out of range for {typecode!r}"
        ) from exc
    if sys.byteorder == "big":
        column.byteswap()
    return column.tobytes()


def _unpack(typecode: str, raw: bytes) -> list:
    column = array(typecode)
    column.frombytes(raw)
    if sys.byteorder == "big":
        column.byteswap()
    return column.tolist()


class SelectionLog(Sequence):
    """A run's :class:`~repro.runtime.engine.Selection` log, as columns.

    ``times`` holds one float64 per decision, ``job_index`` and
    ``loop_index`` one u16 each into the interned ``jobs`` and ``loops``
    name tables (first-appearance order), and ``threads`` one u16.  As
    a sequence it is the tuple of ``Selection`` objects it encodes,
    decoded once on first read; ``repr`` is that tuple's ``repr``.  Two
    logs compare (and hash) by their columns without decoding, and a
    pickled log carries only the columns.  Compare a log with a tuple
    through ``tuple(log)``.
    """

    __slots__ = ("times", "jobs", "loops", "job_index", "loop_index",
                 "threads", "_decoded")

    def __init__(self, times: bytes = b"", jobs: Tuple[str, ...] = (),
                 loops: Tuple[str, ...] = (), job_index: bytes = b"",
                 loop_index: bytes = b"", threads: bytes = b""):
        count = len(threads) // 2
        if (len(times) != 8 * count or len(job_index) != 2 * count
                or len(loop_index) != 2 * count or len(threads) % 2):
            raise ValueError("selection log columns differ in length")
        self.times = times
        self.jobs = jobs
        self.loops = loops
        self.job_index = job_index
        self.loop_index = loop_index
        self.threads = threads
        self._decoded: Optional[Tuple[Selection, ...]] = None

    @classmethod
    def of(cls, selections: Iterable[Selection]) -> "SelectionLog":
        """Encode ``selections``; a table with more than
        :data:`U16_MAX` entries or a thread count above it raises
        ``ValueError``."""
        jobs: Dict[str, int] = {}
        loops: Dict[str, int] = {}
        times, job_index, loop_index, threads = [], [], [], []
        for selection in selections:
            times.append(selection.time)
            job_index.append(jobs.setdefault(selection.job_id, len(jobs)))
            loop_index.append(
                loops.setdefault(selection.loop_name, len(loops)))
            threads.append(selection.threads)
        if len(jobs) > U16_MAX or len(loops) > U16_MAX:
            raise ValueError(
                f"selection log tables hold {len(jobs)} jobs and "
                f"{len(loops)} loops; at most {U16_MAX} fit u16"
            )
        return cls(
            _column("d", times, "times"),
            tuple(jobs), tuple(loops),
            _column("H", job_index, "job indexes"),
            _column("H", loop_index, "loop indexes"),
            _column("H", threads, "thread counts"),
        )

    def _columns(self) -> tuple:
        return (self.times, self.jobs, self.loops, self.job_index,
                self.loop_index, self.threads)

    def decoded(self) -> Tuple[Selection, ...]:
        """The log as a tuple of ``Selection`` objects (built once)."""
        if self._decoded is None:
            jobs, loops = self.jobs, self.loops
            self._decoded = tuple(
                Selection(time=time, job_id=jobs[job],
                          loop_name=loops[loop], threads=threads)
                for time, job, loop, threads in zip(
                    _unpack("d", self.times),
                    _unpack("H", self.job_index),
                    _unpack("H", self.loop_index),
                    _unpack("H", self.threads),
                )
            )
        return self._decoded

    def __len__(self) -> int:
        return len(self.threads) // 2

    def __getitem__(self, index):
        return self.decoded()[index]

    def __iter__(self):
        return iter(self.decoded())

    def __repr__(self) -> str:
        return repr(self.decoded())

    def __eq__(self, other) -> bool:
        if isinstance(other, SelectionLog):
            return self._columns() == other._columns()
        return NotImplemented

    def __hash__(self) -> int:
        # Over the index and value columns only (equal logs have equal
        # tables); crc32 is stable across processes, unlike str hashes.
        return zlib.crc32(self.times + self.job_index + self.loop_index
                          + self.threads)

    def __reduce__(self):
        return (SelectionLog, self._columns())


@dataclass(frozen=True)
class RunSummary:
    """Slim outcome of one run: headline numbers + the selection log.

    Deliberately excludes the tick timeline and the policy object —
    experiments that interrogate those (Figure 2 timelines, the mixture
    decision-log analyses) keep using
    :func:`repro.experiments.runner.run_target` directly.
    ``selections`` accepts any sequence of ``Selection`` objects and is
    stored as a :class:`SelectionLog`.
    """

    target: str
    policy: str
    target_time: float
    workload_throughput: float
    duration: float
    workload_runs: Tuple[Tuple[str, int], ...]
    selections: SelectionLog
    records: Tuple[RecordedSelection, ...] = ()
    #: Times the target policy hit its degraded-input safe fallback
    #: (NaN/degenerate features — see ``docs/robustness.md``).  Zero on
    #: healthy runs; non-zero makes chaos-induced degradation visible
    #: without digging through selection logs.
    policy_fallbacks: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.selections, SelectionLog):
            object.__setattr__(self, "selections",
                               SelectionLog.of(self.selections))


@dataclass(frozen=True)
class RunRequest:
    """Full configuration of one co-execution simulation.

    ``scenario`` is any object with ``name`` and
    ``availability(topology, seed=...)`` (duck-typed to avoid importing
    the experiments layer); ``None`` means a static machine, optionally
    restricted to ``processors`` cores — the training-run setting.
    ``record`` wraps the target policy in a
    :class:`~repro.core.policies.fixed.RecordingPolicy` and returns the
    recorded feature vectors in the summary.
    """

    target: str
    policy: PolicySpec
    scenario: Optional[object] = None
    workload: Optional[WorkloadSpec] = None
    seed: int = 0
    topology: Optional[object] = None  # Topology; None = XEON_L7555
    iterations_scale: float = 1.0
    dt: float = 0.1
    max_time: float = 3600.0
    processors: Optional[int] = None
    target_affinity: Optional[object] = None
    workload_affinity: Optional[object] = None
    record: bool = False

    def resolved_topology(self):
        if self.topology is not None:
            return self.topology
        return XEON_L7555

    def fingerprint(self) -> Optional[str]:
        """Content hash of this request, or ``None`` if unfingerprintable.

        Includes the simulator calibration fingerprint so cached results
        are never replayed after the simulated physics change, and the
        policy/workload factory tokens so retrained or reconfigured
        policies miss the cache.
        """
        if self.policy.token is None:
            return None
        workload = self.workload
        if workload is not None and workload.policy.token is None:
            return None
        parts = (
            RUN_FORMAT_VERSION,
            self.target,
            self.policy.token,
            _config_repr(self.scenario),
            workload.fingerprint_parts() if workload else None,
            self.seed,
            _config_repr(self.resolved_topology()),
            self.iterations_scale,
            self.dt,
            self.max_time,
            self.processors,
            _config_repr(self.target_affinity),
            _config_repr(self.workload_affinity),
            self.record,
            # Looked up per call, so a patched calibration takes effect.
            training.simulator_fingerprint(),
        )
        return hashlib.sha256(repr(parts).encode()).hexdigest()


def _availability(request: RunRequest, topology):
    from ..machine.availability import StaticAvailability

    if request.scenario is not None:
        return request.scenario.availability(topology, seed=request.seed)
    return StaticAvailability(request.processors or topology.cores)


def _simulate(request: RunRequest, stepping: str):
    """Build and run one engine for ``request`` with fresh policies.

    Returns ``(result, engine, recorder, base_policy)``; separate from
    :func:`execute_request` so the determinism cross-check and the
    stepping tests can re-run the identical scenario under the
    fixed-tick reference with their own freshly-built (stateful) policy
    objects.
    """
    from ..core.policies.fixed import RecordingPolicy
    from ..core.training import scale_program
    from ..machine.machine import SimMachine
    from ..programs import registry
    from ..runtime.engine import CoExecutionEngine, JobSpec

    topology = request.resolved_topology()
    target = registry.get(request.target)
    if request.iterations_scale != 1.0:
        target = scale_program(target, request.iterations_scale)
    machine = SimMachine(
        topology=topology,
        availability=_availability(request, topology),
    )
    policy = request.policy.build()
    recorder: Optional["RecordingPolicy"] = None
    if request.record:
        recorder = RecordingPolicy(policy)
        policy = recorder
    jobs = [JobSpec(
        program=target,
        policy=policy,
        job_id="target",
        is_target=True,
        affinity=request.target_affinity,
    )]
    if request.workload is not None:
        starts = request.workload.start_times
        for index, name in enumerate(request.workload.program_names):
            program = registry.get(name)
            if request.iterations_scale != 1.0:
                program = scale_program(program, request.iterations_scale)
            jobs.append(JobSpec(
                program=program,
                policy=request.workload.policy.build(),
                job_id=f"w{index}-{program.name}",
                restart=request.workload.restart,
                start_time=starts[index] if index < len(starts) else 0.0,
                affinity=request.workload_affinity,
            ))
    # RunSummary never stores the timeline, and timeline sampling is
    # read-only physics-wise, so it is disabled outright — in event mode
    # the sampling grid would otherwise cap every fast-forward span at
    # one timeline period.
    engine = CoExecutionEngine(
        machine=machine, jobs=jobs,
        dt=request.dt, max_time=request.max_time,
        timeline_period=None,
        stepping=stepping,
    )
    result = engine.run()
    base_policy = recorder.inner if recorder is not None else policy
    return result, engine, recorder, base_policy


def _sanitize_cross_check(request: RunRequest, engine) -> None:
    """Replay the run under fixed stepping and compare state digests.

    Under ``REPRO_SANITIZE=1`` every engine folds its decision-relevant
    event stream (consultations, completions, the final result) into a
    rolling state digest.  The event-driven and fixed-tick interleavings
    are specified to make identical decisions at identical simulated
    times, so differing digests mean hidden nondeterminism — unseeded
    state, iteration-order dependence, or a stepping-equivalence bug —
    and the run fails loudly instead of contaminating cached results.
    """
    from ..analysis.determinism import DeterminismError

    if engine.state_digest is None:
        return
    _result, shadow, _recorder, _policy = _simulate(request, "fixed")
    ours = engine.state_digest.hexdigest()
    theirs = shadow.state_digest.hexdigest()
    if ours != theirs:
        raise DeterminismError(
            f"stepping interleavings diverged for {request.target!r} "
            f"(seed={request.seed}): event-mode digest "
            f"{ours} != fixed-mode digest {theirs} after "
            f"{engine.state_digest.events} vs "
            f"{shadow.state_digest.events} events"
        )


def execute_request(request: RunRequest) -> RunSummary:
    """Run one simulation described by ``request`` in this process.

    Deterministic: the same request always yields an identical summary,
    which is what makes both memoisation and the serial/parallel
    equivalence guarantee of :class:`repro.exec.executor.Executor` hold.
    The run is event-stepped.  Under ``REPRO_SANITIZE=1`` it is
    additionally replayed under fixed stepping and the two engines'
    state digests are cross-checked (see :func:`_sanitize_cross_check`).
    """
    result, engine, recorder, base_policy = _simulate(request, "event")
    _sanitize_cross_check(request, engine)
    if result.target_time is None:
        scenario = getattr(request.scenario, "name", "static")
        raise RuntimeError(
            f"run timed out: {request.target} / {request.policy.label} / "
            f"{scenario} (seed={request.seed})"
        )
    records: Tuple[RecordedSelection, ...] = ()
    if recorder is not None:
        records = tuple(
            RecordedSelection(
                time=rec.time,
                loop_name=rec.loop_name,
                features=tuple(float(v) for v in rec.features),
                threads=rec.threads,
            )
            for rec in recorder.records
        )
    return RunSummary(
        target=request.target,
        policy=getattr(base_policy, "name", request.policy.label),
        target_time=result.target_time,
        workload_throughput=result.workload_throughput,
        duration=result.duration,
        workload_runs=tuple(result.workload_runs.items()),
        selections=SelectionLog.of(result.selections),
        records=records,
        policy_fallbacks=int(
            getattr(base_policy, "fallback_count", 0) or 0
        ),
    )
