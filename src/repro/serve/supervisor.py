"""Fleet supervision: heartbeats, liveness verdicts, restart budgets.

The fleet's dispatch path only notices a dead shard when it *talks* to
it — a shard that dies (or wedges) while idle would sit undetected, and
one that crash-loops would restart forever.  The supervisor closes both
gaps from the parent's event loop (:meth:`tick` rides on
``PolicyFleet.poll``), with no extra threads:

* **Heartbeats** — periodic ``("ping", seq)`` over each shard's
  control pipe; the worker echoes ``("pong", seq)`` from its message
  loop, so a pong also proves the serving loop is draining, not just
  that the process exists.  Replies are skimmed by whichever receive
  path runs next and refresh the shard's ``last_activity``.
* **Liveness verdicts** — a shard silent past ``liveness_timeout_s``
  is declared lost (the same deadline bounds every blocking control
  receive, so a worker dying between claiming a ring slot and posting
  its doorbell raises :class:`~repro.serve.fleet.ShardLostError`
  instead of hanging the parent).
* **Restart budgets** — each loss spends one restart from the
  member's budget, with exponential backoff and deterministic jitter
  (the executor's :class:`~repro.exec.fault.RetryPolicy`).  An
  exhausted budget flips the verdict to *evacuate*: the member's
  streams are re-placed on survivors and their state is shipped there
  before the new placement is committed, and :meth:`reinstate` shrinks
  the overflow back later via a normal resize.  Failover, evacuation
  and resize move state through one staged ship, and planned drains
  and crashes share one reclamation path — the topology-driven
  ownership sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..exec.fault import RetryPolicy
from .fleet import _ProcessShard


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervising fleet controller."""

    #: Seconds between heartbeats to each shard.
    heartbeat_interval_s: float = 1.0
    #: Silence (no message of any kind) after which a shard is lost.
    liveness_timeout_s: float = 10.0
    #: Crash-failover restarts granted per member before evacuation.
    max_restarts: int = 3
    #: Backoff between restarts of the same member (deterministic
    #: jitter: reruns sleep the same amounts).
    restart_backoff: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_retries=3, base_delay=0.05, max_delay=2.0
        )
    )

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.liveness_timeout_s <= self.heartbeat_interval_s:
            raise ValueError(
                "liveness_timeout_s must exceed heartbeat_interval_s "
                "(a shard must get at least one ping per deadline)"
            )
        if self.max_restarts < 0:
            raise ValueError("max_restarts cannot be negative")


class FleetSupervisor:
    """Health layer over a :class:`~repro.serve.fleet.PolicyFleet`.

    Attaching registers the supervisor as the fleet's loss arbiter:
    every shard loss — torn pipe, doorbell timeout, or heartbeat
    deadline — flows through :meth:`verdict`, which spends restart
    budget or orders evacuation.  Construct after the fleet, before
    serving.
    """

    def __init__(self, fleet, config: Optional[SupervisorConfig] = None,
                 *, clock: Optional[Callable[[], float]] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.fleet = fleet
        self.config = config or SupervisorConfig()
        self._clock = clock if clock is not None else fleet._clock
        self._sleep = sleep
        self._seq = 0
        self._last_ping: Dict[int, float] = {}
        #: Restarts spent per member id (the budget ledger).
        self.restarts: Dict[int, int] = {}
        #: Members currently evacuated (budget exhausted).
        self.evacuated: List[int] = []
        fleet._supervisor = self
        for shard in fleet._shards.values():
            self._adopt(shard)

    def _adopt(self, shard) -> None:
        """Tie the shard's control-pipe deadline to the liveness
        verdict — a hang and a heartbeat miss become the same event."""
        if isinstance(shard, _ProcessShard):
            shard.recv_timeout_s = self.config.liveness_timeout_s

    # -- the event-loop hook -----------------------------------------------

    def tick(self) -> None:
        """One supervision pass: ping, skim replies, judge deadlines.

        Called from ``PolicyFleet.poll()`` so supervision advances
        exactly as often as serving does.
        """
        for index in list(self.fleet._shards):
            shard = self.fleet._shards.get(index)
            if not isinstance(shard, _ProcessShard):
                continue
            self._adopt(shard)  # covers failover replacements
            now = self._clock()
            try:
                if (now - self._last_ping.get(index, 0.0)
                        >= self.config.heartbeat_interval_s):
                    self._seq += 1
                    shard.ping(self._seq)
                    self._last_ping[index] = now
                # Skim pongs only while nothing is in flight — when
                # decisions are outstanding the collect path reads the
                # pipe (and refreshes last_activity) itself, and tick
                # must not steal a decision doorbell.
                if not shard.inflight:
                    while shard.conn.poll():
                        message = shard.conn.recv()
                        shard.last_activity = self._clock()
                        if message[0] != "pong":  # pragma: no cover
                            raise RuntimeError(
                                f"unexpected idle message {message[0]!r}"
                            )
            except self.fleet._PIPE_ERRORS as exc:
                self._declare_lost(index,
                                   self.fleet._loss_cause(index, exc))
                continue
            if (self._clock() - shard.last_activity
                    > self.config.liveness_timeout_s):
                self.fleet.events.bump("heartbeat_timeouts")
                self._declare_lost(index, "unresponsive")

    def _declare_lost(self, index: int, cause: str) -> None:
        self._last_ping.pop(index, None)
        self.fleet._redeliver(self.fleet._handle_loss(index, cause),
                              deaths=1)

    # -- the loss arbiter --------------------------------------------------

    def verdict(self, index: int) -> str:
        """Restart or evacuate a lost member; spends budget, sleeps
        backoff.  Called by the fleet on every loss, whatever path
        detected it."""
        used = self.restarts.get(index, 0)
        if (used >= self.config.max_restarts
                and len(self.fleet.members) > 1):
            if index not in self.evacuated:
                self.evacuated.append(index)
            return "evacuate"
        self.restarts[index] = used + 1
        self.fleet.events.bump("restarts")
        self._sleep(self.config.restart_backoff.delay(
            min(used + 1, self.config.max_restarts or 1),
            f"shard-{index}",
        ))
        return "restart"

    def reinstate(self, index: int):
        """Bring an evacuated member back: a normal resize re-adds it
        to the ring and migrates its home streams off the survivors
        (shrinking the graceful-degradation overflow back).  Resets
        the member's restart budget.  Returns the executed plan.
        """
        if index not in self.evacuated:
            raise ValueError(f"member {index} is not evacuated")
        plan = self.fleet.resize(
            members=sorted(set(self.fleet.members) | {index})
        )
        self.evacuated.remove(index)
        self.restarts[index] = 0
        self.fleet.events.bump("reinstatements")
        return plan
