"""System-statistics sampling: the environment features.

Produces the environment half of the paper's feature vector
(Section 5.2.2, Table 1):

====  =======================  ==============================
f^4   workload threads         threads of co-running jobs
f^5   processors               currently available processors
f^6   runq-sz                  runnable tasks (``sar -q``)
f^7   ldavg-1                  1-minute load average
f^8   ldavg-5                  5-minute load average
f^9   cached memory            page cache, GB
f^10  pages free list rate     ``pgfree/s``-style churn, kpages/s
====  =======================  ==============================

The paper "use[s] *environment* to describe dynamic workloads/hardware
resources" — the world *external* to the program being mapped.  Samples
are therefore taken from a perspective: the observer's own threads are
excluded from the run-queue length and subtracted from the load
averages (per-job load averages are tracked alongside the system-wide
ones).  This matters for the mixture-of-experts proxy: if the
environment included the observer's own threads, an expert would score
well merely by being in control (its own thread choice dominating the
signal it is judged on), and the selector would reward incumbency
instead of insight.

"In this paper, the environment is formalized as the norm of the runtime
features in this feature set (f^4 to f^10)."  We use the RMS norm
(L2 / sqrt(dim)) so the magnitude is comparable to individual features.

The sampler also exposes a *raw* environment feature dictionary — the
candidate pool the information-gain selection draws from, together with
the raw code features of :mod:`repro.compiler.features`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..machine.topology import Topology
from .loadavg import LoadAverages
from .memory import PageCacheModel
from .runqueue import RunQueueStats
from .scheduler import JobDemand, TickAllocation

#: Canonical environment feature names, order matching Table 1 (f^4..f^10).
ENV_FEATURE_NAMES = (
    "workload_threads",
    "processors",
    "runq_sz",
    "ldavg_1",
    "ldavg_5",
    "cached_memory",
    "pages_free_rate",
)


def environment_norm(vector: Sequence[float]) -> float:
    """RMS norm of an environment vector (see module docstring)."""
    arr = np.asarray(vector, dtype=float)
    if arr.size == 0:
        raise ValueError("environment vector is empty")
    # np.add.reduce over the size is the arithmetic np.mean performs,
    # and IEEE-754 sqrt is correctly rounded in both math and numpy, so
    # this is bit-identical to sqrt(mean(...)) while skipping mean's
    # dispatch layers — this runs on every mixture decision.
    return math.sqrt(float(np.add.reduce(arr * arr)) / arr.size)


@dataclass(frozen=True)
class EnvironmentSample:
    """One observation of the environment, from one job's perspective."""

    time: float
    workload_threads: float
    processors: float
    runq_sz: float
    ldavg_1: float
    ldavg_5: float
    cached_memory: float
    pages_free_rate: float
    #: Thunk producing the raw feature dictionary.  The raw pool is only
    #: read by offline feature selection and tests — never on the
    #: engine's consult path — so it is materialised lazily on first
    #: :attr:`raw` access.  The sampler captures every input eagerly, so
    #: the dictionary reflects sampler state *at sampling time* no
    #: matter when it is built.
    raw_factory: Optional[Callable[[], Dict[str, float]]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def raw(self) -> Dict[str, float]:
        """Raw environment candidate features (lazily built, cached)."""
        cached = self.__dict__.get("_raw_cache")
        if cached is None:
            factory = self.raw_factory
            cached = {} if factory is None else factory()
            self.__dict__["_raw_cache"] = cached
        return cached

    def as_vector(self) -> np.ndarray:
        """The 7-dimensional environment vector e (order of Table 1)."""
        return np.array(
            [
                self.workload_threads,
                self.processors,
                self.runq_sz,
                self.ldavg_1,
                self.ldavg_5,
                self.cached_memory,
                self.pages_free_rate,
            ],
            dtype=float,
        )

    @property
    def norm(self) -> float:
        """The scalar ‖e‖ the expert selector compares against."""
        return environment_norm(self.as_vector())

    def is_finite(self) -> bool:
        """Whether every environment reading is a finite number.

        False for samples corrupted by sensor faults (NaN/inf
        injection, :mod:`repro.chaos.sensors`); the policy hardening
        treats such samples as unobservable rather than learnable.
        """
        return bool(np.isfinite(self.as_vector()).all())


class SystemStatsSampler:
    """Accumulates OS statistics across ticks and produces samples.

    Usage: call :meth:`update` once per scheduler tick with the demands
    and the tick allocation, then :meth:`sample` from the perspective of
    any job.  The perspective job's own threads are excluded from the
    run queue and subtracted from the load averages (see module
    docstring).
    """

    def __init__(self, topology: Topology):
        self._topology = topology
        self._loadavg = LoadAverages()
        self._job_loadavg: Dict[str, LoadAverages] = {}
        self._memory = PageCacheModel(ram_gb=topology.ram_gb)
        self._time = 0.0
        self._last_threads: Dict[str, int] = {}
        self._last_runqueue: Optional[RunQueueStats] = None
        self._last_saturation = 0.0
        self._last_traffic = 0.0
        self._ticks = 0
        # Identity of the last demands sequence, plus the matching
        # (tracker, threads) pairs: the engine passes the *same* list
        # object for as long as the demand mix holds, so the per-job
        # dict lookups collapse to one `is` check on those ticks.
        self._last_demands: Optional[Sequence[JobDemand]] = None
        self._tracker_pairs: list = []

    @property
    def time(self) -> float:
        return self._time

    def prime(self, active_load: float) -> None:
        """Warm-start the system load averages (systems are rarely cold)."""
        self._loadavg.prime(active_load)

    def update(
        self,
        time: float,
        dt: float,
        demands: Sequence[JobDemand],
        allocation: TickAllocation,
    ) -> None:
        """Advance all statistics by one tick."""
        self._time = time
        if demands is not self._last_demands:
            self._last_demands = demands
            self._last_threads = {d.job_id: d.threads for d in demands}
            pairs = []
            for demand in demands:
                tracker = self._job_loadavg.get(demand.job_id)
                if tracker is None:
                    tracker = LoadAverages()
                    self._job_loadavg[demand.job_id] = tracker
                pairs.append((tracker, float(demand.threads)))
            self._tracker_pairs = pairs
        self._last_runqueue = allocation.runqueue
        self._last_saturation = allocation.bandwidth_saturation
        self._last_traffic = allocation.memory_traffic
        self._loadavg.update(float(allocation.runqueue.runnable), dt)
        # Per-job EMA pair, inlined one level deeper than
        # LoadAverages.update (this loop runs once per job per executed
        # tick); the slow path delegates to keep the decay memos right.
        for tracker, threads in self._tracker_pairs:
            one = tracker.one
            five = tracker.five
            if dt != one._decay_dt or dt != five._decay_dt:
                tracker.update(threads, dt)
                continue
            decay = one._decay
            one.value = one.value * decay + threads * (1.0 - decay)
            decay = five._decay
            five.value = five.value * decay + threads * (1.0 - decay)
        self._memory.update(allocation.memory_traffic, dt)
        self._ticks += 1

    def advance_span(self, time: float, dt: float, ticks: int) -> None:
        """Closed-form equivalent of ``ticks`` consecutive :meth:`update`
        calls with the *same* demands and allocation as the last one.

        The event-driven engine calls this for event-free spans: while
        no job changes phase and availability holds, the runnable count,
        per-job thread counts and memory traffic are all constant, so
        every damped average has a one-``pow`` closed form
        (:meth:`LoadAverage.advance`, :meth:`PageCacheModel.advance`).
        ``time`` is the tick timestamp the final iterated update would
        have carried.  The caller must not have changed demands or the
        allocation since the last :meth:`update`.
        """
        if self._last_runqueue is None:
            raise RuntimeError("advance_span() before the first update()")
        if ticks < 1:
            return
        self._time = time
        runnable = float(self._last_runqueue.runnable)
        one = self._loadavg.one
        five = self._loadavg.five
        pairs = self._tracker_pairs
        if (
            ticks < 2 or dt != one._decay_dt or dt != five._decay_dt
            or any(
                dt != t.one._decay_dt or dt != t.five._decay_dt
                for t, _ in pairs
            )
        ):
            # Slow path (first span, or a dt change): delegate so every
            # decay memo is validated and refreshed.
            self._loadavg.advance(runnable, dt, ticks)
            for tracker, threads in pairs:
                tracker.advance(threads, dt, ticks)
        else:
            # Every tracker shares the same two windows, so the two
            # ``pow``s are computed once and reused for the whole fleet
            # (each tracker's own ``_decay`` holds identical bits — it
            # is ``exp(-dt/period)`` of the same dt and period).
            decay1 = one._decay ** ticks
            decay5 = five._decay ** ticks
            gain1 = 1.0 - decay1
            gain5 = 1.0 - decay5
            one.value = one.value * decay1 + runnable * gain1
            five.value = five.value * decay5 + runnable * gain5
            for tracker, threads in pairs:
                t_one = tracker.one
                t_five = tracker.five
                t_one.value = t_one.value * decay1 + threads * gain1
                t_five.value = t_five.value * decay5 + threads * gain5
        self._memory.advance(self._last_traffic, dt, ticks)
        self._ticks += ticks

    def sample(
        self, perspective_job_id: Optional[str] = None
    ) -> EnvironmentSample:
        """Current environment from ``perspective_job_id``'s viewpoint."""
        if self._last_runqueue is None:
            raise RuntimeError("sample() before the first update()")
        own = self._last_threads.get(perspective_job_id, 0)
        total = sum(self._last_threads.values())
        own_load = self._job_loadavg.get(perspective_job_id)
        own_ld1 = own_load.ldavg_1 if own_load is not None else 0.0
        own_ld5 = own_load.ldavg_5 if own_load is not None else 0.0
        runqueue = self._last_runqueue
        external = max(0, total - own)
        memory = self._memory
        # Bind every raw-feature input *now* (default arguments) so the
        # lazily built dictionary is identical to one built eagerly,
        # even if the sampler has advanced since.
        raw_factory = (
            lambda ext=external, o=own, rq=runqueue,
            ld1=self._loadavg.ldavg_1, ld5=self._loadavg.ldavg_5,
            cached_gb=memory.cached_gb,
            pages_free=memory.pages_free_rate,
            cached_fraction=memory.cached_fraction,
            saturation=self._last_saturation, traffic=self._last_traffic:
            self._raw_features(
                ext, o, rq, ld1, ld5, cached_gb, pages_free,
                cached_fraction, saturation, traffic,
            )
        )
        return EnvironmentSample(
            time=self._time,
            workload_threads=float(external),
            processors=float(runqueue.processors),
            runq_sz=float(max(0, runqueue.runq_sz - own)),
            ldavg_1=max(0.0, self._loadavg.ldavg_1 - own_ld1),
            ldavg_5=max(0.0, self._loadavg.ldavg_5 - own_ld5),
            cached_memory=memory.cached_gb,
            pages_free_rate=memory.pages_free_rate,
            raw_factory=raw_factory,
        )

    def sample_norm(
        self, perspective_job_id: Optional[str] = None
    ) -> float:
        """``sample(...).norm`` without building the full sample.

        Timeline bookkeeping only needs the scalar ‖e‖ once per
        timeline period; this computes exactly the seven values
        :meth:`sample` would put in the vector (same expressions, same
        order) and skips the raw-feature dictionary.
        """
        if self._last_runqueue is None:
            raise RuntimeError("sample() before the first update()")
        own = self._last_threads.get(perspective_job_id, 0)
        total = sum(self._last_threads.values())
        own_load = self._job_loadavg.get(perspective_job_id)
        own_ld1 = own_load.ldavg_1 if own_load is not None else 0.0
        own_ld5 = own_load.ldavg_5 if own_load is not None else 0.0
        runqueue = self._last_runqueue
        return environment_norm((
            float(max(0, total - own)),
            float(runqueue.processors),
            float(max(0, runqueue.runq_sz - own)),
            max(0.0, self._loadavg.ldavg_1 - own_ld1),
            max(0.0, self._loadavg.ldavg_5 - own_ld5),
            self._memory.cached_gb,
            self._memory.pages_free_rate,
        ))

    def _raw_features(
        self,
        workload_threads: int,
        own: int,
        runqueue: RunQueueStats,
        ld1: float,
        ld5: float,
        cached_gb: float,
        pages_free: float,
        cached_fraction: float,
        saturation: float,
        traffic: float,
    ) -> Dict[str, float]:
        """The raw environment candidate pool (env side of the 134).

        All mutable sampler state is passed in explicitly so the caller
        (:meth:`sample`) can snapshot it at sampling time and defer the
        dictionary construction until someone actually reads it.
        """
        utilization = runqueue.utilization
        oversub = runqueue.oversubscription
        raw = {
            "env.workload_threads": float(workload_threads),
            "env.processors": float(runqueue.processors),
            "env.runq_sz": float(max(0, runqueue.runq_sz - own)),
            "env.ldavg_1": max(0.0, ld1 - own),
            "env.ldavg_5": ld5,
            "env.cached_memory": cached_gb,
            "env.pages_free_rate": pages_free,
            "env.runq_sz_total": float(runqueue.runq_sz),
            "env.own_threads": float(own),
            "env.waiting_tasks": float(runqueue.waiting),
            "env.utilization": utilization,
            "env.idle_pct": 100.0 * (1.0 - utilization),
            "env.oversubscription": oversub,
            "env.bandwidth_saturation": saturation,
            "env.memory_traffic": traffic,
            "env.cached_fraction": cached_fraction,
            "env.free_memory": self._topology.ram_gb - cached_gb,
            "env.total_cores": float(self._topology.cores),
            "env.offline_cores": float(
                self._topology.cores - runqueue.processors
            ),
            "env.ctx_switch_rate": 1000.0 * max(0.0, oversub - 1.0),
            "env.load_trend": ld1 - ld5,
            "env.threads_per_core": (
                float(runqueue.runq_sz) / runqueue.processors
            ),
        }
        # Simple nonlinear expansions, as a profiler exporting derived
        # counters would provide.
        for name in ("env.ldavg_1", "env.runq_sz", "env.workload_threads"):
            raw[f"{name}.sq"] = raw[name] ** 2
            raw[f"{name}.log1p"] = math.log1p(max(0.0, raw[name]))
        return raw
