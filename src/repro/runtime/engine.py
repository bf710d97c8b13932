"""The discrete-time co-execution engine.

Runs one *target* program together with workload programs on a simulated
machine.  Matches the paper's experimental protocol (Section 6):

* target and workloads start together;
* workload programs restart when they finish, so contention persists
  until the target completes ("each program runs until the other
  finishes");
* every job consults its thread-selection policy at each parallel-region
  entry, observing the environment through the OS statistics sampler;
* completed regions are reported back to the policy (reactive policies
  feed on these observations).

The engine advances on a fixed tick grid of ``dt`` simulated seconds.
Policy consultations see statistics from the *previous* tick — exactly
the one-sample lag a real runtime reading ``/proc`` would have.

Two stepping modes share that tick-grid semantics:

* ``stepping="fixed"`` — the reference implementation: one loop
  iteration per tick, every statistic updated incrementally.  It is a
  test oracle, not a production mode: the equivalence tests and the
  ``REPRO_SANITIZE=1`` digest cross-check replay runs under it.
* ``stepping="event"`` (default) — event-driven: between *events*
  (phase completions, availability transitions, job arrivals, timeline
  samples) the system's dynamics are piecewise-constant, so the engine
  computes the next event horizon and advances all jobs across the
  whole span at once — closed-form exponential decay for the OS
  statistics (:meth:`repro.sched.stats.SystemStatsSampler.advance_span`)
  and one multiply per job for work accrual
  (:mod:`repro.runtime.kernels`).  Event ticks themselves run through
  the identical per-tick code path, so selection logs match the
  fixed-tick reference decision for decision and all statistics agree
  to floating-point accumulation order (``tests/runtime/test_stepping.py``
  proves this over every scenario).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import math

from ..analysis.determinism import StateDigest, sanitize_active
from ..compiler.features import CodeFeatures, extract_code_features
from ..compiler.passes import analyze_module
from ..core.policies.base import PolicyContext, RegionReport, ThreadPolicy
from ..machine.affinity import AffinityPolicy
from ..machine.machine import SimMachine
from ..programs.model import ProgramInstance, ProgramModel, Region
from ..sched.scheduler import JobDemand, ProportionalShareScheduler
from ..sched.stats import SystemStatsSampler
from ..workload.arrivals import next_start_time
from . import kernels

#: Supported stepping modes (see module docstring).
STEPPING_MODES = ("event", "fixed")

#: Memory intensity attributed to serial glue (I/O, convergence checks).
SERIAL_MEMORY_INTENSITY = 0.05

#: Spin-waiting waste at synchronisation points.  OpenMP barriers busy-
#: wait by default: on an oversubscribed machine a thread that reaches a
#: barrier spins — consuming its CPU share — until the last descheduled
#: peer arrives.  The wasted fraction grows with the number of threads
#: (more peers to wait for) and with the oversubscription ratio (each
#: peer's turnaround is that much longer).  This is the physical reason
#: "spawning many threads slows down the program" for barrier-heavy
#: codes under load, while costing nothing on an idle machine (r = 1).
SPIN_WASTE_COEFF = 6.0

#: Upper bound on the fraction of granted CPU lost to spinning.  Real
#: runtimes eventually yield (passive waiting, sched_yield in the spin
#: loop), so waste saturates instead of starving the job completely.
MAX_SPIN_WASTE = 0.8

#: Precomputed ``1 - MAX_SPIN_WASTE`` (hot-path constant folding).
_SPIN_BASE = 1.0 - MAX_SPIN_WASTE

def _grid_horizon(limit: float, time: float, dt: float) -> float:
    """Whole ticks from ``time`` that stay safely short of ``limit``.

    Conservative by one tick: the ``- 1`` absorbs float rounding in the
    ``(limit - time) / dt`` division so a span never swallows the tick
    at which a grid predicate (``time >= limit``-style) would first
    fire.  The event tick itself then runs through the per-tick path.
    """
    if math.isinf(limit):
        return math.inf
    return max(0.0, math.floor((limit - time) / dt) - 1.0)


@dataclass
class JobSpec:
    """One program to run: model + policy + role.

    ``start_time`` delays the job's arrival: it consumes no resources
    and is invisible to the statistics until then (job churn — new work
    arriving mid-run — is how real shared systems behave, Figure 1).
    """

    program: ProgramModel
    policy: ThreadPolicy
    job_id: str = ""
    is_target: bool = False
    restart: bool = False
    affinity: Optional[AffinityPolicy] = None
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.job_id:
            self.job_id = self.program.name
        if self.start_time < 0:
            raise ValueError(
                f"job {self.job_id!r}: start_time cannot be negative"
            )


@dataclass(frozen=True)
class TimelinePoint:
    """Periodic sample of system state (feeds the Figure 2 plots)."""

    time: float
    available: int
    target_threads: int
    workload_threads: int
    env_norm: float


@dataclass(frozen=True)
class Selection:
    """One policy decision at a region entry."""

    time: float
    job_id: str
    loop_name: str
    threads: int


@dataclass
class SimulationResult:
    """Outcome of one co-execution run."""

    target_id: Optional[str]
    target_time: Optional[float]
    duration: float
    job_times: Dict[str, float]
    workload_runs: Dict[str, int]
    workload_work: Dict[str, float]
    #: CPU-seconds each job consumed (granted processor time).  Useful
    #: work retired is in ``workload_work`` / per-program totals; the
    #: ratio is the job's efficiency (spinning and contention burn CPU
    #: without retiring work).
    cpu_time: Dict[str, float] = field(default_factory=dict)
    timeline: List[TimelinePoint] = field(default_factory=list)
    selections: List[Selection] = field(default_factory=list)
    timed_out: bool = False

    @property
    def workload_throughput(self) -> float:
        """Aggregate workload core-seconds retired per simulated second."""
        if self.duration <= 0:
            return 0.0
        return sum(self.workload_work.values()) / self.duration

    def target_selections(self) -> List[Selection]:
        return [s for s in self.selections
                if s.job_id == self.target_id]

    def efficiency(self, job_id: str, work_done: float) -> float:
        """Useful work per CPU-second for one job (0 when unknown)."""
        cpu = self.cpu_time.get(job_id, 0.0)
        if cpu <= 0:
            return 0.0
        return work_done / cpu


#: Per-module memo of static analysis + code features, keyed by module
#: identity.  Static analysis depends only on the IR, which is immutable
#: in practice and shared across every scaled copy of a program
#: (``scale_program`` only replaces the iteration count), so a grid of
#: runs pays the analysis cost once per program instead of once per job
#: per run.  Entries are evicted when their module is garbage collected.
_CODE_FEATURE_MEMO: Dict[int, Dict[str, CodeFeatures]] = {}


def module_code_features(module) -> Dict[str, CodeFeatures]:
    """Code features of every parallel loop in ``module``, memoised."""
    key = id(module)
    cached = _CODE_FEATURE_MEMO.get(key)
    if cached is None:
        analysis = analyze_module(module)
        cached = {
            loop_name: extract_code_features(module, loop_name, analysis)
            for loop_name in analysis.loops
        }
        _CODE_FEATURE_MEMO[key] = cached
        weakref.finalize(module, _CODE_FEATURE_MEMO.pop, key, None)
    return cached


class _JobState:
    """Mutable per-job runtime bookkeeping."""

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.instance: ProgramInstance = spec.program.instantiate(
            job_id=spec.job_id
        )
        self.threads = 1
        self.consult_pending = False
        self.region_elapsed = 0.0
        self.completed_runs = 0
        self.run_counted = False
        self.work_done = 0.0
        self.cpu_time = 0.0
        self.finish_time: Optional[float] = None
        self.code_features: Dict[str, CodeFeatures] = (
            module_code_features(spec.program.module)
        )
        #: Reusable demand per (loop_name, threads) phase; demands are
        #: immutable and identical across revisits of the same phase.
        self._demand_memo: Dict[tuple, JobDemand] = {}
        #: Mirror of ``instance.current_region``, refreshed at every
        #: phase transition (advance, restart) so hot-path readers skip
        #: the property chain.
        self.region: Optional[Region] = self.instance.current_region
        #: Progress rate from this job's latest ``_rate`` evaluation
        #: this tick; valid for the span pre-pass whenever the tick
        #: ended clean (no phase change ⇒ the last evaluation used
        #: exactly the pre-pass inputs).
        self._tick_rate = 0.0
        #: ``_rate`` memo: the rate is a pure function of (allocation,
        #: region, threads) — ``share`` derives from the allocation —
        #: and those recur identically across long stretches of ticks
        #: (allocations are memoised objects), so three identity checks
        #: replace the arithmetic.
        self._rc_alloc: object = None
        self._rc_region: Optional[Region] = None
        self._rc_threads = -1
        self._rc_value = 0.0
        #: Second memo slot (the previous entry): within one tick the
        #: rate is queried for the serial region and the active parallel
        #: region alternately, so two slots make both queries hit.
        self._rc2_alloc: object = None
        self._rc2_region: Optional[Region] = None
        self._rc2_threads = -1
        self._rc2_value = 0.0

    started = False

    @property
    def active(self) -> bool:
        return self.started and not self.instance.finished


class CoExecutionEngine:
    """Runs a set of jobs on a machine until the target finishes."""

    def __init__(
        self,
        machine: SimMachine,
        jobs: Sequence[JobSpec],
        dt: float = 0.1,
        max_time: float = 3600.0,
        timeline_period: Optional[float] = 1.0,
        tracer=None,
        stepping: str = "event",
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if max_time <= 0:
            raise ValueError("max_time must be positive")
        if timeline_period is not None and timeline_period <= 0:
            raise ValueError("timeline_period must be positive or None")
        if stepping not in STEPPING_MODES:
            raise ValueError(
                f"unknown stepping mode {stepping!r}; "
                f"expected one of {STEPPING_MODES}"
            )
        ids = [spec.job_id for spec in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate job ids: {ids}")
        targets = [spec for spec in jobs if spec.is_target]
        if len(targets) > 1:
            raise ValueError("at most one target job is supported")
        self._machine = machine
        self._specs = list(jobs)
        self._dt = dt
        self._max_time = max_time
        self._timeline_period = timeline_period
        self._scheduler = ProportionalShareScheduler(machine.topology)
        self._target_id = targets[0].job_id if targets else None
        self._tracer = tracer
        self._stepping = stepping
        self._dirty = True
        #: Rolling hash over the decision-relevant event stream (policy
        #: consultations, run completions, the final result), active
        #: only under ``REPRO_SANITIZE=1``.  Two runs of the same
        #: scenario — in particular the event-driven and fixed-tick
        #: interleavings — must produce identical digests; the executor
        #: cross-checks them (see ``repro.exec.request``).
        self.state_digest: Optional[StateDigest] = (
            StateDigest() if sanitize_active() else None
        )

    def run(self) -> SimulationResult:
        """Execute the co-execution scenario and collect results."""
        return self._run_loop(event=self._stepping == "event")

    def _run_loop(self, event: bool) -> SimulationResult:
        """The tick loop; ``event=True`` adds event-free fast-forwards.

        Every tick that *executes* runs the identical code path in both
        modes — arrivals, consults, scheduling, statistics, advance,
        completions.  Event mode merely replaces runs of ticks in which
        provably nothing decision-relevant happens (no phase completes,
        availability and demands hold, no arrival, no timeline sample)
        with one closed-form span update, so both modes make the same
        decisions at the same simulated times.
        """
        dt = self._dt
        states = {spec.job_id: _JobState(spec) for spec in self._specs}
        for state in states.values():
            state.spec.policy.reset()
            state.started = state.spec.start_time <= 0.0
            state.consult_pending = state.started
        stats = SystemStatsSampler(self._machine.topology)
        stats.prime(float(len(states)))

        timeline: List[TimelinePoint] = []
        selections: List[Selection] = []
        time = 0.0
        # ``timeline_period=None`` disables sampling entirely (the
        # executor does this: RunSummary discards the timeline, and
        # sampling would otherwise cap event-mode spans at one period).
        next_timeline = (
            0.0 if self._timeline_period is not None else math.inf
        )
        timed_out = False
        # The tracer needs one record per tick, which fast-forwarding
        # would elide; fall back to per-tick stepping under a tracer.
        fast_forward = event and self._tracer is None
        # Demand-dirty flag: set by arrivals, consults, phase boundaries
        # and restarts — the only operations that can change the demand
        # mix.  While it stays clear, the previous tick's demands and
        # allocation are provably still current, which both licenses the
        # event-mode fast-forward and lets event mode skip rebuilding
        # and re-hashing them every tick.
        self._dirty = True
        # Tick allocations are pure functions of (demands, available);
        # co-execution spends long stretches in the same demand mix, so
        # memoising them skips most scheduler work.  Demands hash by
        # value, so reused demand objects and rebuilt equals both hit.
        alloc_memo: Dict[tuple, object] = {}

        def allocate(demands: List[JobDemand], available: int):
            key = (available, tuple(demands))
            allocation = alloc_memo.get(key)
            if allocation is None:
                allocation = self._scheduler.allocate(demands, available)
                alloc_memo[key] = allocation
            return allocation

        # Priming tick so the first consultation has statistics to read.
        all_states = list(states.values())
        available = self._machine.available(time)
        active = [s for s in all_states if s.active]
        demands = self._demands(active)
        allocation = allocate(demands, available)
        stats.update(time, 0.0, demands, allocation)

        last_available = available
        # Availability probe memo (event mode): the schedule is constant
        # until ``avail_next``, so most ticks replace the probe with one
        # float compare.  ``-inf`` forces the first real probe.
        avail_next = -math.inf
        # After a failed span attempt, every later attempt must fail too
        # until some event shifts a horizon (on event-free ticks all of
        # them shrink monotonically), so the arithmetic is skipped until
        # the dirty flag, an availability edge or a timeline sample
        # reopens the window.
        span_blocked = False

        while True:
            if event:
                if time >= avail_next:
                    available = self._machine.available(time)
                    avail_next = self._machine.next_change(time)
                    span_blocked = False
            else:
                available = self._machine.available(time)

            # 0. Job arrivals.
            for state in all_states:
                if not state.started and state.spec.start_time <= time:
                    state.started = True
                    state.consult_pending = True
                    self._dirty = True

            # The tick's active set: arrivals are in; only _advance can
            # deactivate a job, and it re-checks per job.
            active = [
                s for s in all_states
                if s.started and not s.instance.finished
            ]

            # 1. Policy consultations (using last tick's statistics).
            for state in active:
                if state.consult_pending:
                    self._consult(state, stats, available, time, selections)

            # 2. Schedule this tick.  When nothing demand-relevant
            # happened since the last tick and availability held, the
            # previous allocation is still exact — event mode skips the
            # rebuild + memo hash; fixed mode always recomputes (it is
            # the reference implementation).
            if event and not self._dirty and available == last_available:
                pass  # `demands` and `allocation` carry over unchanged.
            else:
                demands = self._demands(active)
                allocation = allocate(demands, available)
            last_available = available
            self._dirty = False
            stats.update(time, dt, demands, allocation)
            if self._tracer is not None:
                self._tracer.record(time, available, demands, allocation)

            # 3. Timeline sampling.
            if time >= next_timeline:
                timeline.append(self._timeline_point(
                    time, available, states, stats
                ))
                next_timeline += self._timeline_period
                span_blocked = False

            # 4. Advance every job by one tick.  Phase boundaries inside
            # the tick are handled exactly (work conservation), with
            # policies consulted the moment a region is entered.  CPU
            # time is charged at tick granularity: what the scheduler
            # granted is what the job occupied (spinning included).
            allocs = allocation.allocations
            for state in active:
                self._advance(
                    state, allocs[state.spec.job_id], dt, time, stats,
                    available, selections,
                )

            time += dt

            # 5. Handle completions (finish times were recorded exactly
            # by _advance; here we count the run and restart workloads).
            for state in states.values():
                if state.instance.finished and not state.run_counted:
                    state.run_counted = True
                    if state.finish_time is None:
                        state.finish_time = time
                    state.completed_runs += 1
                    if self.state_digest is not None:
                        self.state_digest.fold("complete", {
                            "job": state.spec.job_id,
                            "runs": state.completed_runs,
                        })
                    if state.spec.restart and not self._target_done(states):
                        state.instance.restart()
                        state.region = state.instance.current_region
                        state.finish_time = None
                        state.run_counted = False
                        state.consult_pending = True
                        state.threads = 1
                        state.region_elapsed = 0.0
                        self._dirty = True

            if self._target_done(states):
                break
            if self._target_id is None and all(
                s.started and s.instance.finished
                for s in states.values()
            ):
                break
            if time >= self._max_time:
                timed_out = True
                break

            # 6. Event-driven fast-forward: if nothing decision-relevant
            # can happen for a while, advance the whole event-free span
            # in closed form (see module docstring).  The span reuses
            # this tick's allocation, which the clear dirty flag proves
            # the next tick would recompute identically; every other
            # event source becomes a horizon on the span length.
            if not fast_forward:
                continue
            if self._dirty:
                span_blocked = False
                continue
            if span_blocked:
                continue
            # Cheap scalar pre-pass: the earliest phase completion in
            # tick units.  A clean tick means no phase changed, so every
            # active job's final ``_rate`` evaluation this tick (cached
            # in ``_tick_rate``) used exactly the current (region,
            # threads, allocation) — no recomputation, and no job can
            # have finished (``active`` needs no re-filtering).  The
            # rows double as the span working set.
            allocs = allocation.allocations
            span_rows = [
                (state, state.instance, allocs[state.spec.job_id],
                 state._tick_rate, state.region is None)
                for state in active
            ]
            horizon = kernels.completion_horizon(span_rows, dt)
            if horizon >= 1:
                # `time` already points at the *next* tick; the last
                # executed tick was one dt ago, which is what the
                # arrival probe measures against.  ``avail_next`` is the
                # first instant the cached availability stops holding.
                t_last = time - dt
                horizon = min(
                    horizon,
                    _grid_horizon(avail_next, time, dt),
                    _grid_horizon(
                        next_start_time(
                            [s.spec.start_time for s in all_states
                             if not s.started],
                            t_last,
                        ),
                        time, dt,
                    ),
                    _grid_horizon(next_timeline, time, dt),
                    _grid_horizon(self._max_time, time, dt),
                )
            if horizon < 1:
                span_blocked = True
                continue
            ticks = int(horizon)
            kernels.SpanPlan(rows=span_rows, ticks=ticks, dt=dt).apply()
            # Accumulate `time` tick by tick: span ticks must leave the
            # float trajectory bit-identical to fixed stepping, or grid
            # predicates (availability periods, arrival comparisons)
            # could flip on later ticks.
            last_tick = time
            for _ in range(ticks):
                last_tick = time
                time += dt
            stats.advance_span(last_tick, dt, ticks)

        job_times = {
            job_id: (state.finish_time if state.finish_time is not None
                     else time)
            for job_id, state in states.items()
        }
        target_time = (
            job_times[self._target_id]
            if self._target_id is not None and not timed_out
            else None
        )
        if self.state_digest is not None:
            self.state_digest.fold("result", {
                "timed_out": timed_out,
                "completed_runs": {
                    job_id: state.completed_runs
                    for job_id, state in states.items()
                },
                "selections": len(selections),
            })
        return SimulationResult(
            target_id=self._target_id,
            target_time=target_time,
            duration=time,
            job_times=job_times,
            workload_runs={
                job_id: state.completed_runs
                for job_id, state in states.items()
                if job_id != self._target_id
            },
            workload_work={
                job_id: state.work_done
                for job_id, state in states.items()
                if job_id != self._target_id
            },
            cpu_time={
                job_id: state.cpu_time
                for job_id, state in states.items()
            },
            timeline=timeline,
            selections=selections,
            timed_out=timed_out,
        )

    # -- helpers ----------------------------------------------------------

    def _target_done(self, states: Dict[str, "_JobState"]) -> bool:
        if self._target_id is None:
            return False
        return states[self._target_id].instance.finished

    def _consult(
        self,
        state: _JobState,
        stats: SystemStatsSampler,
        available: int,
        time: float,
        selections: List[Selection],
    ) -> None:
        region = state.region
        if region is None:
            # Still in serial glue; consult when the region actually starts.
            return
        env = stats.sample(perspective_job_id=state.spec.job_id)
        ctx = PolicyContext(
            time=time,
            loop_name=region.loop_name,
            code=state.code_features[region.loop_name],
            env=env,
            available_processors=available,
            max_threads=self._machine.topology.cores,
        )
        threads = state.spec.policy.select(ctx)
        if not 1 <= threads <= self._machine.topology.cores:
            raise ValueError(
                f"policy {state.spec.policy.name!r} selected illegal "
                f"thread count {threads}"
            )
        state.threads = threads
        state.consult_pending = False
        state.region_elapsed = 0.0
        self._dirty = True
        selections.append(Selection(
            time=time,
            job_id=state.spec.job_id,
            loop_name=region.loop_name,
            threads=threads,
        ))
        if self.state_digest is not None:
            # Decision stream only — no simulated times or float state:
            # the two stepping modes guarantee identical decisions in
            # identical order, while continuous quantities agree only up
            # to span accumulation order (see tests/runtime/
            # test_stepping.py), which would make the digest flaky.
            self.state_digest.fold("consult", {
                "job": state.spec.job_id,
                "loop": region.loop_name,
                "threads": threads,
            })

    def _demands(self, active: List["_JobState"]) -> List[JobDemand]:
        """Demands for the tick's active set (a pre-filtered list)."""
        demands = []
        for state in active:
            region = state.region
            # Jobs spend many consecutive ticks in the same phase with
            # the same thread count; reuse the (immutable) demand built
            # the first time that phase/thread pair was seen instead of
            # re-running affinity locality and demand validation.
            key = (
                (None, 1) if region is None
                else (region.loop_name, state.threads)
            )
            demand = state._demand_memo.get(key)
            if demand is None:
                if region is None:
                    demand = JobDemand(
                        job_id=state.spec.job_id,
                        threads=1,
                        memory_intensity=SERIAL_MEMORY_INTENSITY,
                        locality=1.0,
                    )
                else:
                    affinity = (
                        state.spec.affinity or self._machine.affinity
                    )
                    demand = JobDemand(
                        job_id=state.spec.job_id,
                        threads=state.threads,
                        memory_intensity=region.memory_intensity,
                        locality=affinity.locality(
                            state.threads, self._machine.topology
                        ),
                    )
                state._demand_memo[key] = demand
            demands.append(demand)
        return demands

    def _rate(
        self, state: _JobState, alloc, region: Optional[Region],
        share: float,
    ) -> float:
        """Progress rate (core-seconds of work per second) right now.

        ``share`` is the per-thread CPU fraction granted by this tick's
        allocation; it stays fixed within the tick even if the job's
        thread count changes at a mid-tick region entry (the scheduler
        only re-divides the machine on the next tick).
        """
        state_threads = state.threads
        if (
            alloc is state._rc_alloc
            and region is state._rc_region
            and state_threads == state._rc_threads
        ):
            return state._rc_value
        if (
            alloc is state._rc2_alloc
            and region is state._rc2_region
            and state_threads == state._rc2_threads
        ):
            return state._rc2_value
        rate = self._rate_uncached(state, alloc, region, share)
        # Two slots, newest first: a tick typically alternates between
        # the serial region and one parallel region under the same
        # allocation, so a single slot would thrash on every call.
        state._rc2_alloc = state._rc_alloc
        state._rc2_region = state._rc_region
        state._rc2_threads = state._rc_threads
        state._rc2_value = state._rc_value
        state._rc_alloc = alloc
        state._rc_region = region
        state._rc_threads = state_threads
        state._rc_value = rate
        return rate

    def _rate_uncached(
        self, state: _JobState, alloc, region: Optional[Region],
        share: float,
    ) -> float:
        if region is None:
            if share < 1.0:
                return share * alloc.switch_factor
            return alloc.switch_factor
        threads = state.threads
        granted = share * threads
        if granted < 1e-9:
            granted = 1e-9
        oversub = threads / granted - 1.0
        if oversub > 0.0:
            spin = (
                SPIN_WASTE_COEFF * region.sync_intensity
                * threads * oversub
            )
            spin_factor = _SPIN_BASE + MAX_SPIN_WASTE / (1.0 + spin)
        else:
            # No oversubscription: the formula collapses to exactly 1.0
            # ((1 - w) + w/(1 + 0) is exact in IEEE for w = 0.8).
            spin_factor = 1.0
        return (
            granted * alloc.switch_factor * alloc.memory_factor
            * region.scaling.efficiency(threads) * spin_factor
        )

    def _advance(
        self,
        state: _JobState,
        alloc,
        dt: float,
        time: float,
        stats: SystemStatsSampler,
        available: int,
        selections: List[Selection],
    ) -> None:
        # CPU time is charged at tick granularity: what the scheduler
        # granted is what the job occupied (spinning included).
        state.cpu_time += alloc.granted_cpus * dt
        share = alloc.thread_share
        instance = state.instance
        remaining_dt = dt
        while remaining_dt > 1e-12 and not instance.finished:
            region = state.region
            rate = self._rate(state, alloc, region, share)
            state._tick_rate = rate
            if rate <= 1e-12:
                break
            time_to_finish = instance.remaining / rate
            if time_to_finish > remaining_dt:
                # Phase outlives the tick: consume the rest of the tick.
                work = rate * remaining_dt
                # Inlined ProgramInstance.advance for its hot common
                # case; the full call handles the borderline where the
                # division-compare above and the subtraction disagree
                # about crossing the phase boundary.
                if instance.remaining - work > 1e-12:
                    instance.remaining -= work
                else:
                    instance.advance(work)
                    state.region = instance.current_region
                state.work_done += work
                if region is not None:
                    state.region_elapsed += remaining_dt
                return
            # Phase completes inside the tick.
            self._dirty = True
            work = instance.remaining
            state.work_done += work
            if region is not None:
                state.region_elapsed += time_to_finish
            instance.advance(work)
            state.region = instance.current_region
            remaining_dt -= time_to_finish
            now = time + (dt - remaining_dt)
            if instance.finished and state.finish_time is None:
                state.finish_time = now
            if region is not None:
                state.spec.policy.observe(RegionReport(
                    time=now,
                    loop_name=region.loop_name,
                    threads=state.threads,
                    elapsed=max(state.region_elapsed, 1e-9),
                    work=region.work,
                ))
                state.region_elapsed = 0.0
            new_region = state.region
            if new_region is not None and new_region is not region:
                # Entering a parallel region: consult the policy now.
                self._consult(state, stats, available, now, selections)

    def _timeline_point(
        self,
        time: float,
        available: int,
        states: Dict[str, "_JobState"],
        stats: SystemStatsSampler,
    ) -> TimelinePoint:
        target_threads = 0
        workload_threads = 0
        for state in states.values():
            if not state.active:
                continue
            threads = 1 if state.region is None else state.threads
            if state.spec.job_id == self._target_id:
                target_threads = threads
            else:
                workload_threads += threads
        env_norm = stats.sample_norm(self._target_id)
        return TimelinePoint(
            time=time,
            available=available,
            target_threads=target_threads,
            workload_threads=workload_threads,
            env_norm=env_norm,
        )
