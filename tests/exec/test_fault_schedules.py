"""Model-based fault schedules for the executor.

Hypothesis draws, per request, a fault and how many attempts it spoils:
none, a raise, a hard ``os._exit``, a hang past ``run_timeout``, or an
error the worker cannot pickle.  It also draws ``jobs`` and the retry
and restart budgets.  Faults are injected through the worker entry
point ``_execute_blob``, so none fires on the in-process serial path:
a request that runs serially always succeeds, and its summary is the
reference every other run is compared with.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
import warnings
from pathlib import Path

import cloudpickle
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.exec import (
    Executor,
    PolicySpec,
    RetryPolicy,
    RunRequest,
    RunTimeoutError,
    SerialFallbackWarning,
)
from repro.exec.request import execute_request

#: Seconds a drawn hang may run before the executor kills it; tiny
#: requests take a few milliseconds.
RUN_TIMEOUT = 1.0

FAULTS = ("ok", "raise", "exit", "hang", "unpicklable")

#: The attempt kind each fault leaves in the failure report.
FAULT_KIND = {"raise": "error", "exit": "pool-crash", "hang": "timeout",
              "unpicklable": "error"}

#: What ``run`` raises once a fault has spent its request's budget.
FAULT_ERROR = {
    "raise": (ValueError, "injected fault"),
    "exit": (RuntimeError, "crashed its worker"),
    "hang": (RunTimeoutError, "timed out"),
    "unpicklable": (RuntimeError, "could not be pickled"),
}

#: Request seed -> (fault, attempts it spoils), and the directory of
#: per-attempt marker files.  Set before each run, so the forked
#: workers inherit them.
_SCHEDULE: dict = {}
_MARKERS: list = []

#: Request seed -> its serial summary.
_SERIAL: dict = {}


def _request(seed_: int) -> RunRequest:
    return RunRequest(target="cg", policy=PolicySpec.fixed(8),
                      iterations_scale=0.05, seed=seed_)


def _serial(seed_: int):
    if seed_ not in _SERIAL:
        (_SERIAL[seed_],) = Executor(
            jobs=1, cache=None).run([_request(seed_)])
    return _SERIAL[seed_]


def _faulty_blob(blob: bytes):
    """Worker entry point: spoil the request's first attempts as drawn."""
    request = cloudpickle.loads(blob)
    fault, spoils = _SCHEDULE[request.seed]
    markers = Path(_MARKERS[0])
    attempt = len(list(markers.glob(f"{request.seed}-*")))
    (markers / f"{request.seed}-{attempt}").touch()
    if attempt < spoils:
        if fault == "raise":
            raise ValueError(f"injected fault in request {request.seed}")
        if fault == "exit":
            os._exit(23)
        if fault == "hang":
            time.sleep(60.0)
        if fault == "unpicklable":
            raise RuntimeError(lambda: None)
    return execute_request(request)


schedules = st.lists(
    st.tuples(st.sampled_from(FAULTS), st.integers(1, 3)),
    min_size=2, max_size=4,
)


@given(
    schedule=schedules,
    jobs=st.integers(1, 3),
    max_retries=st.integers(0, 2),
    max_pool_rebuilds=st.integers(0, 3),
)
@seed(33)
@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_executor_under_drawn_fault_schedules(
        schedule, jobs, max_retries, max_pool_rebuilds):
    requests = [_request(index) for index in range(len(schedule))]
    hangs = any(fault == "hang" for fault, _ in schedule)
    executor = Executor(
        jobs=jobs, cache=None,
        retry=RetryPolicy(max_retries=max_retries, base_delay=0.0),
        run_timeout=RUN_TIMEOUT if hangs else None,
        max_pool_rebuilds=max_pool_rebuilds,
    )
    _SCHEDULE.clear()
    _SCHEDULE.update(enumerate(schedule))
    with tempfile.TemporaryDirectory() as markers, \
            pytest.MonkeyPatch.context() as patch, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SerialFallbackWarning)
        _MARKERS[:] = [markers]
        patch.setattr("repro.exec.executor._execute_blob", _faulty_blob)
        try:
            summaries = executor.run(requests)
        except Exception as error:
            raised = error
        else:
            raised = None
    assert multiprocessing.active_children() == []
    report = executor.last_report
    budget = max_retries + 1

    # Serial fallback only after more than max_pool_rebuilds restarts.
    assert report.pool_rebuilds <= max_pool_rebuilds + 1
    assert report.serial_fallbacks == (
        report.pool_rebuilds > max_pool_rebuilds)
    assert report.serial_fallbacks == sum(
        issubclass(w.category, SerialFallbackWarning) for w in caught)

    for (fault, _), request_report in zip(schedule, report.requests):
        kinds = [attempt.kind for attempt in request_report.attempts]
        assert len(kinds) <= budget + report.serial_fallbacks
        assert kinds.count("ok") <= 1
        assert "ok" not in kinds[:-1]
        if fault == "ok" or jobs == 1:
            # Nothing fires on the serial path, and a healthy run is
            # never charged for another run's fault.
            assert kinds == ["ok"] or (raised is not None and kinds == [])
        else:
            assert set(kinds) <= {FAULT_KIND[fault], "ok"}

    if raised is None:
        assert [r.ok for r in report.requests] == [True] * len(requests)
        assert summaries == [_serial(index) for index in range(len(requests))]
        return
    # The error raised is the fault of a request that spent its budget.
    spent = [fault for (fault, _), request_report
             in zip(schedule, report.requests)
             if fault != "ok"
             and len(request_report.attempts) == budget
             and all(a.kind == FAULT_KIND[fault]
                     for a in request_report.attempts)]
    assert any(isinstance(raised, FAULT_ERROR[fault][0])
               and FAULT_ERROR[fault][1] in str(raised)
               for fault in spent), (raised, spent)
