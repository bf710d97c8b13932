"""Span accounting, child reports and patch removal of the tracer."""

import json
import os
from types import SimpleNamespace

import pytest

import tracing
from tracing import (PER_LAYER, RECONCILE_MAX, Family, Tracer, read_parts,
                     reconcile)


@pytest.fixture
def fake_clock(monkeypatch):
    """perf_counter_ns advancing 10 ns per reading."""
    state = {"now": 0}

    def tick():
        state["now"] += 10
        return state["now"]

    monkeypatch.setattr(tracing.time, "perf_counter_ns", tick)
    return state


def _program():
    module = SimpleNamespace()

    def inner(depth=0):
        if depth:
            return module.inner(depth - 1)
        return 1

    def outer():
        return module.inner() + module.inner(2)

    module.inner = inner
    module.outer = outer
    return module


def test_self_time_of_nested_spans(tmp_path, fake_clock):
    module = _program()
    tracer = Tracer(tmp_path)
    tracer.wrap(module, "outer", "app.outer")
    tracer.wrap(module, "inner", "app.inner")
    tracer.active = True
    with tracer.span("bench.phase"):
        assert module.outer() == 2
    tracer.uninstall()

    calls = {name: entry[0] for name, entry in tracer.stats.items()}
    assert calls == {"app.outer": 1, "app.inner": 4, "bench.phase": 1}
    spans = {s[0]: [] for s in tracer.spans}
    for name, start, end, parent, _req in tracer.spans:
        spans[name].append((end - start, parent))
    (phase_dur, phase_parent), = spans["bench.phase"]
    (outer_dur, outer_parent), = spans["app.outer"]
    assert phase_parent is None and outer_parent == "bench.phase"
    inner_top = [d for d, parent in spans["app.inner"]
                 if parent == "app.outer"]
    # Self time is the duration minus what the children cover.
    assert tracer.stats["app.outer"][2] == outer_dur - sum(inner_top)
    assert tracer.stats["bench.phase"][2] == phase_dur - outer_dur
    # Busy time counts only outermost calls of a name: the recursive
    # inner calls are inside the two top-level ones.
    assert tracer.stats["app.inner"][1] == sum(inner_top)
    # Self times telescope to the root span's duration.
    assert sum(e[2] for e in tracer.stats.values()) == phase_dur
    assert tracer.root_ns == phase_dur
    assert tracer.group_busy["app.outer"] == outer_dur
    assert Family([tracer.part("parent")]).covered_s() == phase_dur / 1e9


def _doc(family, stats=None, root_ns=0, counters=None):
    return {"family": family, "pid": 1, "born_ns": 0, "now_ns": root_ns,
            "stats": stats or {}, "group_busy": {}, "root_ns": root_ns,
            "counters": counters or {}, "samples": {}, "spans": []}


def _worst(gaps):
    return max(gap for rows in gaps.values() for *_row, gap in rows)


def test_reconcile_catches_a_lost_child_report_and_lost_time():
    parent = Family([_doc("parent", root_ns=2 * 10**9)])
    workers = [_doc("worker", {"exec.request.execute": [3, 30, 30]})
               for _ in range(2)]
    shards = [_doc("shard", counters={"serve.shard.requests": 40})]
    facts = {"parent_wall_s": 2.0, "cache_lookups": 0,
             "requests_submitted": 0, "runs_executed": 6,
             "shard_requests": 40}
    assert _worst(reconcile(parent, Family(workers), Family(shards),
                            facts)) == 0.0
    # One pool worker's part file never arrived: half the runs missing.
    gaps = reconcile(parent, Family(workers[:1]), Family(shards), facts)
    assert gaps["worker"] == [("runs_executed", 3, 6, 0.5)]
    # A shard reported nothing although the fleet's report counted 40.
    gaps = reconcile(parent, Family(workers), Family([]), facts)
    assert gaps["shard"] == [("shard_requests", 0.0, 40, 1.0)]
    # The parent's spans cover less than the wall clock measured
    # around them.
    gaps = reconcile(parent, Family(workers), Family(shards),
                     dict(facts, parent_wall_s=2.5))
    assert gaps["parent"][0] == ("covered_s", 2.0, 2.5, 0.2)
    assert _worst(gaps) > RECONCILE_MAX


def test_inactive_wrapper_records_nothing(tmp_path):
    module = _program()
    tracer = Tracer(tmp_path)
    tracer.wrap(module, "outer", "app.outer")
    assert module.outer() == 2
    assert tracer.stats == {}


def test_forked_child_reports_only_its_own_calls(tmp_path):
    module = _program()
    tracer = Tracer(tmp_path / "parts")
    tracer.wrap(module, "inner", "app.inner")
    tracer.install()
    try:
        module.inner()
        pid = os.fork()
        if pid == 0:
            try:
                module.inner(1)
                tracer.flush_child("worker")
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert status == 0
    finally:
        tracer.uninstall()
    families = read_parts(tmp_path / "parts")
    (child,) = families["worker"]
    assert child["pid"] == pid
    assert child["stats"]["app.inner"][0] == 2
    assert tracer.stats["app.inner"][0] == 1
    assert [s[0] for s in child["spans"]] == ["app.inner", "app.inner"]
    json.dumps(child)


def test_install_wraps_and_uninstall_restores_every_layer(tmp_path):
    from repro.exec import executor
    from repro.serve.fleet import PolicyFleet

    original_run = vars(executor.Executor)["run"]
    original_submit = vars(PolicyFleet)["submit"]
    tracer = Tracer(tmp_path)
    tracer.install()
    patched = list(tracer._patches)
    try:
        assert len(patched) > 30
        for owner, attr, raw in patched:
            assert vars(owner)[attr] is not raw
        assert vars(executor.Executor)["run"] is not original_run
    finally:
        tracer.uninstall()
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is raw
    assert vars(executor.Executor)["run"] is original_run
    assert vars(PolicyFleet)["submit"] is original_submit
    assert tracer._patches == []
    # Classmethods come back as the same classmethod object.
    from repro.exec.request import PolicySpec
    assert isinstance(vars(PolicySpec)["of"], classmethod)


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((tracing.Path(tracing.__file__).parents[1]
                       / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(PER_LAYER)
