"""The run summary's columnar selection log (`SelectionLog`)."""

from __future__ import annotations

import copy
import gc
import pickle
import struct
import warnings

import pytest

from repro.exec import PolicySpec, RunCache, RunRequest, execute_request
from repro.exec.cache import CACHE_ENTRY_VERSION
from repro.exec.request import U16_MAX, RunSummary, SelectionLog
from repro.runtime.engine import Selection


def live_selections() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Selection)


def summary_of(selections) -> RunSummary:
    return RunSummary(
        target="cg", policy="fixed-8", target_time=1.5,
        workload_throughput=2.0, duration=3.0,
        workload_runs=(("w0-ep", 2),), selections=selections,
    )


def awkward_selections():
    """Times no short decimal holds, names that repeat out of order."""
    times = (0.0, -0.0, 0.1, 1e-310, 5e-324, 1.7976931348623157e308,
             2.0 / 3.0, 12345.678901234567)
    jobs = ("target", "w0-ep", "target", "w1-cg")
    loops = ("cg.l0", "ep.l0", "cg.l1", "cg.l0", "cg.l2")
    return tuple(
        Selection(time=time, job_id=jobs[i % len(jobs)],
                  loop_name=loops[i % len(loops)], threads=1 + i % 32)
        for i, time in enumerate(times)
    )


@pytest.fixture(scope="module")
def run_summary() -> RunSummary:
    return execute_request(RunRequest(
        target="cg", policy=PolicySpec.fixed(8), iterations_scale=0.05,
    ))


class TestSelectionLog:
    @pytest.mark.parametrize("selections", [(), awkward_selections()],
                             ids=["empty", "full"])
    def test_round_trips_through_pickle(self, selections):
        summary = summary_of(selections)
        loaded = pickle.loads(pickle.dumps(summary, protocol=4))
        assert loaded == summary
        assert tuple(loaded.selections) == selections
        assert len(loaded.selections) == len(selections)
        assert bool(loaded.selections) == bool(selections)

    def test_real_run_round_trips(self, run_summary):
        assert len(run_summary.selections) > 0
        loaded = pickle.loads(pickle.dumps(run_summary))
        assert loaded == run_summary
        assert hash(loaded) == hash(run_summary)
        assert tuple(loaded.selections) == tuple(run_summary.selections)

    def test_times_round_trip_bit_for_bit(self):
        selections = awkward_selections()
        loaded = pickle.loads(pickle.dumps(summary_of(selections)))
        for before, after in zip(selections, loaded.selections):
            assert (struct.pack("<d", after.time)
                    == struct.pack("<d", before.time))

    def test_repr_is_the_tuple_repr(self, run_summary):
        selections = awkward_selections()
        assert repr(summary_of(selections).selections) == repr(selections)
        assert repr(summary_of(()).selections) == repr(())
        decoded = tuple(run_summary.selections)
        assert repr(run_summary.selections) == repr(decoded)

    def test_interning_is_first_appearance_order(self):
        log = SelectionLog.of(awkward_selections())
        assert log.jobs == ("target", "w0-ep", "w1-cg")
        assert log.loops == ("cg.l0", "ep.l0", "cg.l1", "cg.l2")
        assert len(log.times) == 8 * len(log)

    def test_equal_logs_compare_without_decoding(self):
        left = SelectionLog.of(awkward_selections())
        right = pickle.loads(pickle.dumps(left))
        assert left == right and hash(left) == hash(right)
        assert right._decoded is None
        changed = list(awkward_selections())
        changed[3] = Selection(time=changed[3].time, job_id="target",
                               loop_name=changed[3].loop_name,
                               threads=changed[3].threads + 1)
        assert left != SelectionLog.of(changed)

    def test_thread_count_above_u16_raises(self):
        SelectionLog.of([Selection(0.0, "target", "l", U16_MAX)])
        with pytest.raises(ValueError, match="thread counts"):
            SelectionLog.of([Selection(0.0, "target", "l", U16_MAX + 1)])
        with pytest.raises(ValueError, match="thread counts"):
            SelectionLog.of([Selection(0.0, "target", "l", -1)])

    @pytest.mark.parametrize("table", ["job_id", "loop_name"])
    def test_table_above_u16_raises(self, table):
        def names(count):
            for i in range(count):
                fields = {"job_id": "target", "loop_name": "l"}
                fields[table] = f"n{i}"
                yield Selection(time=float(i), threads=1, **fields)

        SelectionLog.of(names(U16_MAX))
        with pytest.raises(ValueError, match="at most 65535"):
            SelectionLog.of(names(U16_MAX + 1))

    def test_torn_columns_raise(self):
        log = SelectionLog.of(awkward_selections())
        with pytest.raises(ValueError, match="differ in length"):
            SelectionLog(log.times[:-8], log.jobs, log.loops,
                         log.job_index, log.loop_index, log.threads)

    def test_unpickling_builds_no_selection(self, run_summary):
        blob = pickle.dumps(run_summary)
        before = live_selections()
        loaded = pickle.loads(blob)
        assert loaded == run_summary
        assert live_selections() == before
        # Reading the log is what decodes it, once.
        assert loaded.selections[0] == run_summary.selections[0]
        assert live_selections() == before + len(run_summary.selections)
        tuple(loaded.selections)
        assert live_selections() == before + len(run_summary.selections)


class TestCacheEntryVersion:
    def test_tuple_log_entry_is_a_silent_miss(self, run_summary, tmp_path):
        assert CACHE_ENTRY_VERSION == 2
        cache = RunCache(root=tmp_path / "runs")
        # A version-1 entry: the summary's log is a tuple of Selection
        # objects, as it was pickled before the columnar log.
        old = copy.copy(run_summary)
        object.__setattr__(old, "selections",
                           tuple(run_summary.selections))
        fingerprint = "ab" + "0" * 62
        path = cache.path(fingerprint)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(
            {"version": 1, "summary": old}, protocol=4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(fingerprint) is None
        assert not path.exists()
        assert (cache.misses, cache.quarantined) == (1, 0)
        cache.put(fingerprint, run_summary)
        assert cache.get(fingerprint) == run_summary
