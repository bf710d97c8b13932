"""Open-loop latency is measured from the due time, so a stall shows."""

import time
from types import SimpleNamespace

import serve


class StallingFleet:
    """Answers each request on submit, but stalls once."""

    def __init__(self, stall_index: int, stall_s: float):
        self.decisions = []
        self.stall_index = stall_index
        self.stall_s = stall_s

    def submit(self, request, stream=None):
        if request.index == self.stall_index:
            time.sleep(self.stall_s)
        self.decisions.append(SimpleNamespace(index=request.index))

    def poll(self):
        pass

    def drain(self):
        return self.decisions


def test_stall_delays_every_later_request():
    n, gap, stall_at, stall_s = 30, 0.01, 10, 0.15
    requests = [SimpleNamespace(index=i) for i in range(n)]
    dues = [i * gap for i in range(n)]
    fleet = StallingFleet(stall_at, stall_s)
    latencies, lag, observed = serve.drive_open_loop(
        fleet, requests, ["s"] * n, dues)
    assert observed == [1] * n
    assert max(latencies[:stall_at]) < 0.05
    # Requests due during the stall wait for it, from their due time;
    # a submit-to-answer timer would have reported ~0 for them.
    assert latencies[stall_at] >= stall_s
    assert latencies[stall_at + 1] >= stall_s - gap - 0.005
    assert latencies[stall_at + 5] >= stall_s - 5 * gap - 0.005
    assert latencies[stall_at + 1] > latencies[stall_at + 5]
    assert max(lag) >= stall_s - gap - 0.005


def test_host_speed_scales_only_the_part_after_the_linger():
    # 2 ms linger + 3 ms of work on a host at half the reference speed:
    # the work would take 1.5 ms at reference speed.
    assert serve.steady_latency_ms(0.005, 0.5, 0.002) == 3.5
    # A request answered within the linger is left as measured.
    assert serve.steady_latency_ms(0.0015, 0.5, 0.002) == 1.5
