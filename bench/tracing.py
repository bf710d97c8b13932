"""Outside-in per-layer tracing for the benchmark's ``--trace`` run.

The benchmark never edits the program under test.  Instead it installs
timing wrappers on public functions — on the attribute each caller
looks up, e.g. ``repro.exec.executor.execute_request`` rather than
``repro.exec.request.execute_request`` — runs the workload, and puts
every original back.

Each process keeps, in memory:

* exact per-layer counts, busy time (outermost calls of a name) and
  self time (a span's duration minus the part its child spans cover);
* full spans for a bounded window: name, start, end, parent name and
  the id of the request they serve (a run or a serve request index).

Forked children inherit the wrappers.  They report at public
boundaries: a pool worker appends one line of totals to its part file
after each ``execute_request``; a shard writes its totals when
``ShardWorker.close`` runs.  The parent merges the parts into
``layers.json`` and a Chrome trace-event ``trace.json`` (open it in
Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from stats import percentile

#: Spans kept per process; counts and times stay exact beyond it.
SPAN_WINDOW = 4000

#: Largest gap :func:`reconcile` accepts between a traced total and the
#: same quantity measured without the tracer.
RECONCILE_MAX = 0.05

#: The tracer forked children must reset, if any (fork handlers cannot
#: be unregistered, so one process-wide hook consults this slot).
_ACTIVE: List[Optional["Tracer"]] = [None]
_FORK_HOOK_INSTALLED = [False]


def _after_fork_in_child() -> None:
    tracer = _ACTIVE[0]
    if tracer is not None:
        tracer._reset()


def group_of(name: str) -> str:
    """Layer group of a span name: its first two components."""
    return ".".join(name.split(".")[:2])


class Tracer:
    """Per-process span accounting plus the patch list that feeds it."""

    def __init__(self, parts_dir: Path):
        self.parts_dir = Path(parts_dir)
        self.parent_pid = os.getpid()
        self.active = False
        self._patches: List[Tuple[object, str, object]] = []
        self._reset()

    # -- per-process state ---------------------------------------------------

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.born_ns = time.perf_counter_ns()
        #: name -> [calls, busy_ns (outermost calls), self_ns]
        self.stats: Dict[str, List[int]] = {}
        self.group_busy: Dict[str, int] = defaultdict(int)
        self.root_ns = 0
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.spans: list = []
        self.req_id = None
        #: Submit instant per serve request index (linger = encode -
        #: submit), and last seen size per journal file.
        self.submitted_ns: Dict[int, int] = {}
        self.journal_sizes: Dict[Path, int] = {}
        self._depth: Dict[str, int] = defaultdict(int)
        self._group_depth: Dict[str, int] = defaultdict(int)
        self._stack: list = []
        self._flushed_spans = 0
        self._flushed_samples: Dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> list:
        group = group_of(name)
        self._depth[name] += 1
        self._group_depth[group] += 1
        slot = -1
        if len(self.spans) < SPAN_WINDOW:
            slot = len(self.spans)
            self.spans.append(None)
        # [name, group, start, child_ns, span slot, end]
        frame = [name, group, time.perf_counter_ns(), 0, slot, 0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        frame[5] = end
        self._stack.pop()
        name, group, start = frame[0], frame[1], frame[2]
        duration = end - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0]
        entry[0] += 1
        entry[2] += duration - frame[3]
        self._depth[name] -= 1
        if self._depth[name] == 0:
            entry[1] += duration
        self._group_depth[group] -= 1
        if self._group_depth[group] == 0:
            self.group_busy[group] += duration
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        else:
            self.root_ns += duration
        if frame[4] >= 0:
            self.spans[frame[4]] = (name, start, end, parent, self.req_id)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self.enter(name)
        try:
            yield frame
        finally:
            self.exit(frame)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *,
             ident: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``owner`` must define ``attr`` itself (a module global or a
        class attribute), so the patch lands where callers look it up.
        ``ident(args)`` names the request a call serves; ``after(tracer,
        args, result, frame)`` records counts once the call returned.
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod,
                                            staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or threading.get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            saved = tracer.req_id
            if ident is not None:
                tracer.req_id = ident(args)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
                tracer.req_id = saved
            if after is not None:
                after(tracer, args, result, frame)
            return result

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        if not _FORK_HOOK_INSTALLED[0]:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK_INSTALLED[0] = True
        if not self._patches:
            install_layers(self)
        _ACTIVE[0] = self
        self.active = True

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        self.active = False
        _ACTIVE[0] = None
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- child reports -------------------------------------------------------

    def part(self, family: str) -> dict:
        """This process's totals, plus spans and samples not yet sent."""
        spans = [s for s in self.spans[self._flushed_spans:]
                 if s is not None]
        self._flushed_spans = len(self.spans)
        samples = {}
        for name, values in self.samples.items():
            start = self._flushed_samples[name]
            samples[name] = values[start:]
            self._flushed_samples[name] = len(values)
        return {
            "family": family,
            "pid": self.pid,
            "born_ns": self.born_ns,
            "now_ns": time.perf_counter_ns(),
            "stats": self.stats,
            "group_busy": dict(self.group_busy),
            "root_ns": self.root_ns,
            "counters": dict(self.counters),
            "samples": samples,
            "spans": spans,
        }

    def flush_child(self, family: str) -> None:
        """Append this child's report line to its part file."""
        if os.getpid() == self.parent_pid:
            return
        self.parts_dir.mkdir(parents=True, exist_ok=True)
        path = self.parts_dir / f"{family}-{self.pid}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps(self.part(family)) + "\n")


def read_parts(parts_dir: Path) -> Dict[str, List[dict]]:
    """Merge child part files: the last line's totals, every line's
    spans and samples.  Returns family -> per-process documents."""
    families: Dict[str, List[dict]] = defaultdict(list)
    if not parts_dir.exists():
        return families
    for path in sorted(parts_dir.glob("*.jsonl")):
        docs = [json.loads(line) for line in path.read_text().splitlines()
                if line.strip()]
        if not docs:
            continue
        merged = dict(docs[-1])
        merged["spans"] = [s for d in docs for s in d["spans"]]
        samples: Dict[str, list] = defaultdict(list)
        for doc in docs:
            for name, values in doc["samples"].items():
                samples[name].extend(values)
        merged["samples"] = dict(samples)
        families[merged["family"]].append(merged)
    return families


# -- the instrumented layers --------------------------------------------------


def _run_id(args) -> str:
    request = args[0]
    scenario = getattr(request.scenario, "name", "-")
    workload = request.workload.name if request.workload else "-"
    return (f"{request.target}/{request.policy.label}/{scenario}/"
            f"{workload}/s{request.seed}")


def _after_execute(tracer, args, result, frame) -> None:
    tracer.samples["exec.request.execute"].append(
        (frame[5] - frame[2]) / 1e6)
    tracer.flush_child("worker")


def _after_cache_get(tracer, args, result, frame) -> None:
    if result is not None:
        tracer.counters["exec.cache.hits"] += 1


def _after_cache_put(tracer, args, result, frame) -> None:
    cache, fingerprint = args[0], args[1]
    try:
        tracer.counters["exec.cache.bytes_written"] += os.path.getsize(
            cache.path(fingerprint))
    except OSError:
        pass


def _after_span_apply(tracer, args, result, frame) -> None:
    from repro.runtime.kernels import SCALAR_SPAN_MAX

    plan = args[0]
    tracer.counters["runtime.kernels.span.ticks"] += plan.ticks
    if len(plan.rows) > SCALAR_SPAN_MAX:
        tracer.counters["runtime.kernels.span.vector"] += 1


def _after_advance_span(tracer, args, result, frame) -> None:
    tracer.counters["sched.stats.span_ticks"] += args[3]


def _after_submit(tracer, args, result, frame) -> None:
    tracer.submitted_ns[args[1].index] = frame[2]


def _after_encode(tracer, args, result, frame) -> None:
    batch = args[0]
    for _stream, request in batch:
        at = tracer.submitted_ns.pop(request.index, None)
        if at is not None:
            tracer.samples["serve.linger.wait"].append(
                (frame[2] - at) / 1e6)
    tracer.samples["serve.batch.size"].append(float(len(batch)))


def _after_ring_write(tracer, args, result, frame) -> None:
    tracer.counters["serve.ring.bytes"] += result


def _after_offer_batch(tracer, args, result, frame) -> None:
    from repro.core.selector import SCALAR_BATCH_MAX

    server, batch = args[0], args[1]
    # The fleet serves every flush from arrival position 0 and never
    # sheds, so a sub-batch is admitted whole up to the queue capacity.
    admitted = min(len(batch), server.config.queue_capacity)
    tracer.samples["serve.server.subbatch"].append(float(len(batch)))
    if admitted > SCALAR_BATCH_MAX:
        tracer.counters["serve.server.vector"] += 1


def _after_plan_batch(tracer, args, result, frame) -> None:
    if result is not None:
        tracer.counters["core.mixture.plan_batch.rows"] += len(args[1])


def _after_journal_append(tracer, args, result, frame) -> None:
    journal = args[0]
    sizes = tracer.journal_sizes
    try:
        size = os.path.getsize(journal.path)
    except OSError:
        return
    last = sizes.get(journal.path, 0)
    # A snapshot truncates the journal; growth restarts from zero.
    tracer.counters["serve.journal.bytes"] += (
        size - last if size >= last else size)
    sizes[journal.path] = size


def _after_snapshot(tracer, args, result, frame) -> None:
    tracer.samples["serve.journal.snapshot"].append(
        (frame[5] - frame[2]) / 1e6)


def _after_serve_batch(tracer, args, result, frame) -> None:
    tracer.counters["serve.shard.requests"] += len(args[2])


def _after_shard_close(tracer, args, result, frame) -> None:
    tracer.flush_child("shard")


def install_layers(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics are built on."""
    import concurrent.futures

    from repro.core.policies.analytic import AnalyticPolicy
    from repro.core.policies.base import ThreadPolicy
    from repro.core.policies.default import DefaultPolicy
    from repro.core.policies.mixture import MixturePolicy
    from repro.core.policies.offline import SingleExpertPolicy
    from repro.core.policies.online import OnlineHillClimbPolicy
    from repro.exec import executor as executor_module
    from repro.exec.cache import RunCache
    from repro.exec.request import PolicySpec, RunRequest
    from repro.exec.shm import ShmRing
    from repro.experiments import runner
    from repro.machine.machine import SimMachine
    from repro.runtime.engine import CoExecutionEngine
    from repro.runtime.kernels import SpanPlan
    from repro.sched.scheduler import ProportionalShareScheduler
    from repro.sched.stats import SystemStatsSampler
    from repro.serve import fleet as fleet_module
    from repro.serve.journal import SelectorJournal, ServeStateStore
    from repro.serve.server import PolicyServer

    from repro.core import training

    wrap = tracer.wrap
    # Set-up (the sim path reaches training through the runner's own
    # binding) and the parent side of exec.
    wrap(runner, "default_experts", "core.training.default_experts")
    wrap(training, "default_experts", "core.training.default_experts")
    wrap(executor_module.Executor, "run", "exec.executor.run")
    wrap(RunRequest, "fingerprint", "exec.request.fingerprint")
    wrap(PolicySpec, "of", "exec.request.policy_token")
    wrap(RunCache, "get", "exec.cache.get", after=_after_cache_get)
    wrap(RunCache, "put", "exec.cache.put", after=_after_cache_put)
    wrap(concurrent.futures, "wait", "exec.parent.wait")
    # Worker side: exec, runtime, sched, machine, core.
    wrap(executor_module, "execute_request", "exec.request.execute",
         ident=_run_id, after=_after_execute)
    wrap(CoExecutionEngine, "run", "runtime.engine.run")
    wrap(SpanPlan, "apply", "runtime.kernels.span", after=_after_span_apply)
    wrap(ProportionalShareScheduler, "allocate", "sched.allocate")
    wrap(SystemStatsSampler, "update", "sched.stats.update")
    wrap(SystemStatsSampler, "advance_span", "sched.stats.advance_span",
         after=_after_advance_span)
    wrap(SimMachine, "available", "machine.available")
    for cls, label in ((DefaultPolicy, "default"),
                       (OnlineHillClimbPolicy, "online"),
                       (SingleExpertPolicy, "offline"),
                       (AnalyticPolicy, "analytic"),
                       (MixturePolicy, "mixture")):
        wrap(cls, "select", f"core.policy.{label}.select")
    for cls in (ThreadPolicy, OnlineHillClimbPolicy, AnalyticPolicy):
        wrap(cls, "observe", "core.policy.observe")
    # Parent side of serve.
    wrap(fleet_module.PolicyFleet, "submit", "serve.fleet.submit",
         ident=lambda args: args[1].index, after=_after_submit)
    wrap(fleet_module.PolicyFleet, "poll", "serve.fleet.poll")
    wrap(fleet_module.PolicyFleet, "drain", "serve.fleet.drain")
    wrap(fleet_module.ShardRouter, "route", "serve.router.route")
    wrap(fleet_module, "encode_requests", "serve.codec.encode_requests",
         after=_after_encode)
    wrap(fleet_module, "decode_decisions", "serve.codec.decode_decisions")
    wrap(ShmRing, "write", "serve.ring.write", after=_after_ring_write)
    wrap(ShmRing, "read", "serve.ring.read")
    # Shard side of serve.
    wrap(fleet_module, "decode_requests", "serve.codec.decode_requests")
    wrap(fleet_module, "encode_decisions", "serve.codec.encode_decisions")
    wrap(fleet_module.ShardWorker, "serve_batch", "serve.shard.serve_batch",
         ident=lambda args: args[2][0][1].index if args[2] else None,
         after=_after_serve_batch)
    wrap(fleet_module.ShardWorker, "close", "serve.shard.close",
         after=_after_shard_close)
    wrap(PolicyServer, "__init__", "serve.server.open")
    wrap(PolicyServer, "offer_batch", "serve.server.offer_batch",
         after=_after_offer_batch)
    wrap(MixturePolicy, "plan_batch", "core.mixture.plan_batch",
         after=_after_plan_batch)
    wrap(ServeStateStore, "commit", "serve.journal.commit")
    wrap(SelectorJournal, "append", "serve.journal.append",
         after=_after_journal_append)
    wrap(ServeStateStore, "snapshot", "serve.journal.snapshot",
         after=_after_snapshot)


# -- per-layer metrics --------------------------------------------------------

#: Every per-layer metric, in report order: (name, unit, which
#: direction is better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.training.default_experts.busy_s", "s", "lower"),
    ("core.training.runs", "count", "lower"),
    ("exec.executor.run.busy_s", "s", "lower"),
    ("exec.request.fingerprint.calls", "count", "lower"),
    ("exec.request.fingerprint.busy_s", "s", "lower"),
    ("exec.request.policy_token.busy_s", "s", "lower"),
    ("exec.cache.get.calls", "count", "lower"),
    ("exec.cache.get.busy_s", "s", "lower"),
    ("exec.cache.hit_ratio", "ratio", "higher"),
    ("exec.cache.put.calls", "count", "lower"),
    ("exec.cache.put.busy_s", "s", "lower"),
    ("exec.cache.bytes_written", "bytes", "lower"),
    ("exec.transport.pickled_bytes", "bytes", "lower"),
    ("exec.transport.shm_bytes", "bytes", "lower"),
    ("exec.transport.serialize_s", "s", "lower"),
    ("exec.parent.wait_s", "s", "lower"),
    ("exec.retries", "count", "lower"),
    ("exec.timeouts", "count", "lower"),
    ("exec.pool_rebuilds", "count", "lower"),
    ("exec.serial_fallbacks", "count", "lower"),
    ("exec.request.execute.calls", "count", "lower"),
    ("exec.request.execute.busy_s", "s", "lower"),
    ("exec.request.execute.p50_ms", "ms", "lower"),
    ("exec.request.execute.p99_ms", "ms", "lower"),
    ("exec.worker.busy_frac", "ratio", "higher"),
    ("runtime.engine.self_s", "s", "lower"),
    ("runtime.engine.ticks_executed", "count", "lower"),
    ("runtime.engine.ff_ratio", "ratio", "higher"),
    ("runtime.kernels.span.calls", "count", "lower"),
    ("runtime.kernels.span.busy_s", "s", "lower"),
    ("runtime.kernels.span.ticks", "count", "lower"),
    ("runtime.kernels.span.vector_share", "ratio", "higher"),
    ("sched.allocate.calls", "count", "lower"),
    ("sched.allocate.busy_s", "s", "lower"),
    ("sched.stats.update.calls", "count", "lower"),
    ("sched.stats.update.busy_s", "s", "lower"),
    ("sched.stats.advance_span.calls", "count", "lower"),
    ("sched.stats.advance_span.busy_s", "s", "lower"),
    ("machine.available.calls", "count", "lower"),
    ("machine.available.busy_s", "s", "lower"),
    ("core.policy.default.select.calls", "count", "lower"),
    ("core.policy.default.select.busy_s", "s", "lower"),
    ("core.policy.online.select.calls", "count", "lower"),
    ("core.policy.online.select.busy_s", "s", "lower"),
    ("core.policy.offline.select.calls", "count", "lower"),
    ("core.policy.offline.select.busy_s", "s", "lower"),
    ("core.policy.analytic.select.calls", "count", "lower"),
    ("core.policy.analytic.select.busy_s", "s", "lower"),
    ("core.policy.mixture.select.calls", "count", "lower"),
    ("core.policy.mixture.select.busy_s", "s", "lower"),
    ("core.policy.observe.busy_s", "s", "lower"),
    ("serve.fleet.submit.calls", "count", "lower"),
    ("serve.fleet.submit.busy_s", "s", "lower"),
    ("serve.fleet.poll.calls", "count", "lower"),
    ("serve.fleet.poll.busy_s", "s", "lower"),
    ("serve.fleet.drain.busy_s", "s", "lower"),
    ("serve.router.route.busy_s", "s", "lower"),
    ("serve.codec.encode_requests.busy_s", "s", "lower"),
    ("serve.codec.decode_decisions.busy_s", "s", "lower"),
    ("serve.ring.write.busy_s", "s", "lower"),
    ("serve.ring.read.busy_s", "s", "lower"),
    ("serve.ring.bytes", "bytes", "lower"),
    ("serve.parent.busy_frac", "ratio", "lower"),
    ("serve.linger.wait_p50_ms", "ms", "lower"),
    ("serve.linger.wait_p99_ms", "ms", "lower"),
    ("serve.batch.size_mean", "count", "higher"),
    ("serve.batch.fill_ratio", "ratio", "higher"),
    ("serve.shard.serve_batch.calls", "count", "lower"),
    ("serve.shard.serve_batch.busy_s", "s", "lower"),
    ("serve.shard.busy_frac_max", "ratio", "lower"),
    ("serve.shard.imbalance", "ratio", "lower"),
    ("serve.server.offer_batch.calls", "count", "lower"),
    ("serve.server.offer_batch.busy_s", "s", "lower"),
    ("serve.server.subbatch_mean", "count", "higher"),
    ("serve.server.vector_share", "ratio", "higher"),
    ("core.mixture.plan_batch.calls", "count", "lower"),
    ("core.mixture.plan_batch.busy_s", "s", "lower"),
    ("core.mixture.plan_batch.rows_mean", "count", "higher"),
    ("serve.journal.commit.calls", "count", "lower"),
    ("serve.journal.commit.busy_s", "s", "lower"),
    ("serve.journal.bytes", "bytes", "lower"),
    ("serve.journal.snapshot.calls", "count", "lower"),
    ("serve.journal.snapshot.busy_s", "s", "lower"),
    ("serve.journal.snapshot.max_ms", "ms", "lower"),
    ("serve.server.open.calls", "count", "lower"),
    ("serve.server.open.busy_s", "s", "lower"),
    ("serve.codec.decode_requests.busy_s", "s", "lower"),
    ("serve.codec.encode_decisions.busy_s", "s", "lower"),
    ("serve.decision.service_p50_us", "us", "lower"),
    ("serve.decision.service_p99_us", "us", "lower"),
    ("serve.tier.first_share", "ratio", "higher"),
    ("serve.breaker.trips", "count", "lower"),
    ("bench.latency_tail_ms", "ms", "lower"),
    ("bench.gen_lag_p99_ms", "ms", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.reconcile_gap_frac", "ratio", "lower"),
)


class Family:
    """Totals of one process family (parent, pool workers or shards)."""

    def __init__(self, docs: List[dict]):
        self.docs = docs
        self.stats: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.group_busy: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        for doc in docs:
            for name, (calls, busy, own) in doc["stats"].items():
                entry = self.stats[name]
                entry[0] += calls
                entry[1] += busy
                entry[2] += own
            for group, busy in doc["group_busy"].items():
                self.group_busy[group] += busy
            for name, value in doc["counters"].items():
                self.counters[name] += value
            for name, values in doc["samples"].items():
                self.samples[name].extend(values)

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def busy_s(self, name: str) -> float:
        return self.stats[name][1] / 1e9 if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name][2] / 1e9 if name in self.stats else 0.0

    def walls_s(self) -> List[float]:
        return [(d["now_ns"] - d["born_ns"]) / 1e9 for d in self.docs]

    def covered_s(self) -> float:
        """Time inside outermost spans, summed over the processes."""
        return sum(d["root_ns"] for d in self.docs) / 1e9


def _gap(traced: float, independent: float) -> float:
    if independent == 0:
        return 0.0 if traced == 0 else 1.0
    return abs(traced - independent) / independent


def reconcile(parent: Family, workers: Family, shards: Family,
              facts: dict) -> Dict[str, List[Tuple[str, float, float,
                                                   float]]]:
    """Per process family, ``(quantity, traced, independent, gap)``
    rows: a total the tracer recorded beside the same quantity measured
    without it, and their relative gap.

    * parent: the time its outermost spans cover against the wall clock
      the benchmark read around the traced calls; its ``RunCache.get``
      calls against the executor's ``STATS`` hits plus executed runs;
      its ``submit`` calls against the requests the benchmark sent.
    * workers: ``execute_request`` calls (a run too small for the pool
      executes in the parent) against ``STATS.executed``.
    * shards: requests in ``serve_batch`` calls against the requests the
      shards' own reports (``FleetReport.per_shard``) counted.

    A lost or unflushed child report, a layer whose wrapper callers no
    longer reach, or span time lost or counted twice shows as a gap.
    """
    executed = (workers.calls("exec.request.execute")
                + parent.calls("exec.request.execute"))
    rows = {
        "parent": [
            ("covered_s", parent.covered_s(), facts["parent_wall_s"]),
            ("cache_lookups", parent.calls("exec.cache.get"),
             facts["cache_lookups"]),
            ("requests_submitted", parent.calls("serve.fleet.submit"),
             facts["requests_submitted"]),
        ],
        "worker": [("runs_executed", executed, facts["runs_executed"])],
        "shard": [("shard_requests", shards.counters["serve.shard.requests"],
                   facts["shard_requests"])],
    }
    return {family: [(label, traced, independent, _gap(traced, independent))
                     for label, traced, independent in pairs]
            for family, pairs in rows.items()}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _pct(values: List[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def per_layer_metrics(parent: Family, workers: Family, shards: Family,
                      facts: dict, gaps: dict) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from the three families plus the
    workload's own ``facts`` (STATS deltas, decisions, timings) and the
    :func:`reconcile` rows ``gaps``."""
    children = Family(workers.docs + shards.docs)
    p, w, s = parent, workers, shards
    values: Dict[str, float] = {
        "core.training.default_experts.busy_s":
            p.busy_s("core.training.default_experts"),
        "core.training.runs": facts.get("training_runs", 0),
        "exec.executor.run.busy_s": p.busy_s("exec.executor.run"),
        "exec.request.fingerprint.calls": p.calls("exec.request.fingerprint"),
        "exec.request.fingerprint.busy_s":
            p.busy_s("exec.request.fingerprint"),
        "exec.request.policy_token.busy_s":
            p.busy_s("exec.request.policy_token"),
        "exec.cache.get.calls": p.calls("exec.cache.get"),
        "exec.cache.get.busy_s": p.busy_s("exec.cache.get"),
        "exec.cache.hit_ratio": (
            p.counters["exec.cache.hits"] / p.calls("exec.cache.get")
            if p.calls("exec.cache.get") else 0.0),
        "exec.cache.put.calls": p.calls("exec.cache.put"),
        "exec.cache.put.busy_s": p.busy_s("exec.cache.put"),
        "exec.cache.bytes_written": p.counters["exec.cache.bytes_written"],
        "exec.parent.wait_s": p.busy_s("exec.parent.wait"),
        "exec.request.execute.calls": w.calls("exec.request.execute"),
        "exec.request.execute.busy_s": w.busy_s("exec.request.execute"),
        "exec.request.execute.p50_ms":
            _pct(w.samples["exec.request.execute"], 50),
        "exec.request.execute.p99_ms":
            _pct(w.samples["exec.request.execute"], 99),
        "runtime.engine.self_s": w.self_s("runtime.engine.run"),
        "runtime.engine.ticks_executed": w.calls("sched.stats.update"),
        "runtime.kernels.span.calls": w.calls("runtime.kernels.span"),
        "runtime.kernels.span.busy_s": w.busy_s("runtime.kernels.span"),
        "runtime.kernels.span.ticks":
            w.counters["runtime.kernels.span.ticks"],
        "sched.allocate.calls": w.calls("sched.allocate"),
        "sched.allocate.busy_s": w.busy_s("sched.allocate"),
        "sched.stats.update.calls": w.calls("sched.stats.update"),
        "sched.stats.update.busy_s": w.busy_s("sched.stats.update"),
        "sched.stats.advance_span.calls": w.calls("sched.stats.advance_span"),
        "sched.stats.advance_span.busy_s":
            w.busy_s("sched.stats.advance_span"),
        "machine.available.calls": w.calls("machine.available"),
        "machine.available.busy_s": w.busy_s("machine.available"),
        "core.policy.observe.busy_s": children.busy_s("core.policy.observe"),
        "serve.fleet.submit.calls": p.calls("serve.fleet.submit"),
        "serve.fleet.submit.busy_s": p.busy_s("serve.fleet.submit"),
        "serve.fleet.poll.calls": p.calls("serve.fleet.poll"),
        "serve.fleet.poll.busy_s": p.busy_s("serve.fleet.poll"),
        "serve.fleet.drain.busy_s": p.busy_s("serve.fleet.drain"),
        "serve.router.route.busy_s": p.busy_s("serve.router.route"),
        "serve.codec.encode_requests.busy_s":
            p.busy_s("serve.codec.encode_requests"),
        "serve.codec.decode_decisions.busy_s":
            p.busy_s("serve.codec.decode_decisions"),
        "serve.ring.write.busy_s": p.busy_s("serve.ring.write"),
        "serve.ring.read.busy_s": p.busy_s("serve.ring.read"),
        "serve.ring.bytes": (p.counters["serve.ring.bytes"]
                             + s.counters["serve.ring.bytes"]),
        "serve.linger.wait_p50_ms": _pct(p.samples["serve.linger.wait"], 50),
        "serve.linger.wait_p99_ms": _pct(p.samples["serve.linger.wait"], 99),
        "serve.batch.size_mean": _mean(p.samples["serve.batch.size"]),
        "serve.shard.serve_batch.calls": s.calls("serve.shard.serve_batch"),
        "serve.shard.serve_batch.busy_s": s.busy_s("serve.shard.serve_batch"),
        "serve.server.offer_batch.calls": s.calls("serve.server.offer_batch"),
        "serve.server.offer_batch.busy_s":
            s.busy_s("serve.server.offer_batch"),
        "serve.server.subbatch_mean":
            _mean(s.samples["serve.server.subbatch"]),
        "core.mixture.plan_batch.calls": s.calls("core.mixture.plan_batch"),
        "core.mixture.plan_batch.busy_s": s.busy_s("core.mixture.plan_batch"),
        "serve.journal.commit.calls": s.calls("serve.journal.commit"),
        "serve.journal.commit.busy_s": s.busy_s("serve.journal.commit"),
        "serve.journal.bytes": s.counters["serve.journal.bytes"],
        "serve.journal.snapshot.calls": s.calls("serve.journal.snapshot"),
        "serve.journal.snapshot.busy_s": s.busy_s("serve.journal.snapshot"),
        "serve.journal.snapshot.max_ms":
            max(s.samples["serve.journal.snapshot"], default=0.0),
        "serve.server.open.calls": s.calls("serve.server.open"),
        "serve.server.open.busy_s": s.busy_s("serve.server.open"),
        "serve.codec.decode_requests.busy_s":
            s.busy_s("serve.codec.decode_requests"),
        "serve.codec.encode_decisions.busy_s":
            s.busy_s("serve.codec.encode_decisions"),
    }
    for label in ("default", "online", "offline", "analytic", "mixture"):
        name = f"core.policy.{label}.select"
        values[f"{name}.calls"] = children.calls(name)
        values[f"{name}.busy_s"] = children.busy_s(name)
    for key in ("pickled_bytes", "shm_bytes"):
        values[f"exec.transport.{key}"] = facts.get(key, 0)
    values["exec.transport.serialize_s"] = facts.get("serialize_seconds", 0.0)
    for key in ("retries", "timeouts", "pool_rebuilds", "serial_fallbacks"):
        values[f"exec.{key}"] = facts.get(key, 0)

    jobs_wall = facts.get("jobs", 1) * values["exec.executor.run.busy_s"]
    values["exec.worker.busy_frac"] = (
        values["exec.request.execute.busy_s"] / jobs_wall
        if jobs_wall else 0.0)
    span_ticks = w.counters["sched.stats.span_ticks"]
    all_ticks = span_ticks + values["runtime.engine.ticks_executed"]
    values["runtime.engine.ff_ratio"] = (
        span_ticks / all_ticks if all_ticks else 0.0)
    span_calls = values["runtime.kernels.span.calls"]
    values["runtime.kernels.span.vector_share"] = (
        w.counters["runtime.kernels.span.vector"] / span_calls
        if span_calls else 0.0)
    serve_wall = facts.get("serve_wall_s", 0.0)
    values["serve.parent.busy_frac"] = (
        p.group_busy.get("serve.fleet", 0) / 1e9 / serve_wall
        if serve_wall else 0.0)
    values["serve.batch.fill_ratio"] = (
        values["serve.batch.size_mean"] / facts["batch_max"]
        if facts.get("batch_max") else 0.0)
    shard_busy = [d["stats"].get("serve.shard.serve_batch", [0, 0, 0])[1]
                  / 1e9 for d in s.docs]
    shard_walls = s.walls_s()
    values["serve.shard.busy_frac_max"] = max(
        (busy / wall for busy, wall in zip(shard_busy, shard_walls)
         if wall > 0), default=0.0)
    values["serve.shard.imbalance"] = (
        max(shard_busy) / _mean(shard_busy)
        if shard_busy and _mean(shard_busy) > 0 else 0.0)
    offers = values["serve.server.offer_batch.calls"]
    values["serve.server.vector_share"] = (
        s.counters["serve.server.vector"] / offers if offers else 0.0)
    plans = values["core.mixture.plan_batch.calls"]
    values["core.mixture.plan_batch.rows_mean"] = (
        s.counters["core.mixture.plan_batch.rows"] / plans if plans else 0.0)
    for key in ("serve.decision.service_p50_us",
                "serve.decision.service_p99_us", "serve.tier.first_share",
                "serve.breaker.trips", "bench.gen_lag_p99_ms",
                "bench.latency_tail_ms",
                "bench.trace_overhead_frac"):
        values[key] = facts.get(key, 0.0)
    values["bench.reconcile_gap_frac"] = max(
        gap for rows in gaps.values() for *_row, gap in rows)
    return {name: values[name] for name, _unit, _better in PER_LAYER}


def chrome_trace(families: Dict[str, List[dict]]) -> List[dict]:
    """Spans of every process as Chrome trace events."""
    events = []
    starts = [span[1] for docs in families.values() for doc in docs
              for span in doc["spans"]]
    base = min(starts, default=0)
    for family, docs in families.items():
        for doc in docs:
            pid = doc["pid"]
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": pid, "args": {"name": f"{family} {pid}"}})
            for name, start, end, parent, req in doc["spans"]:
                events.append({
                    "name": name, "cat": group_of(name), "ph": "X",
                    "ts": (start - base) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": pid, "tid": pid,
                    "args": {"id": req, "parent": parent},
                })
    return events
