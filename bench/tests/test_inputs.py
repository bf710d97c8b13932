"""The benchmark's inputs are a pure function of ``--seed``."""

from repro.core.policies import DefaultPolicy, OnlineHillClimbPolicy

import serve
import sim


def _requests_key(requests):
    return [(r.index, r.ctx.loop_name, r.ctx.available_processors,
             r.ctx.env) for r in requests]


def test_steady_schedule_depends_only_on_seed_and_length():
    first = serve.steady_schedule(3, 2.0)
    assert first == serve.steady_schedule(3, 2.0)
    assert first != serve.steady_schedule(4, 2.0)
    dues, phases = first
    assert dues == sorted(dues)
    assert 0.0 < dues[0] and dues[-1] < 2.0
    # Twice the rate in the second half.
    assert phases.count(1) > 1.5 * phases.count(0)


def test_steady_requests_and_streams_are_pure():
    a = serve.steady_inputs(5, 1.0)
    b = serve.steady_inputs(5, 1.0)
    assert a[0] == b[0] and a[3] == b[3]
    assert _requests_key(a[2]) == _requests_key(b[2])
    assert serve.steady_inputs(6, 1.0)[3] != a[3]
    assert len(set(a[3])) <= serve.PROGRAMS * 4


def test_saturate_stream_is_pure():
    a_requests, a_streams = serve.saturate_inputs(1)
    b_requests, b_streams = serve.saturate_inputs(1)
    assert a_streams == b_streams
    assert _requests_key(a_requests) == _requests_key(b_requests)
    assert _requests_key(serve.saturate_inputs(2)[0]) != \
        _requests_key(a_requests)


def test_sim_grid_is_pure_in_seed():
    policies = {"default": DefaultPolicy, "online": OnlineHillClimbPolicy}
    first = [r.fingerprint() for r in sim.grid_requests(policies, 0)]
    assert first == [r.fingerprint() for r in sim.grid_requests(policies, 0)]
    assert first != [r.fingerprint() for r in sim.grid_requests(policies, 1)]
    # 4 scenarios x 6 targets x 2 policies x 2 sets x 2 seeds.
    assert len(first) == 4 * 6 * 2 * 2 * 2
    slices = sim.slices_of(list(range(len(first))))
    assert sorted(i for part in slices for i in part) == list(
        range(len(first)))
