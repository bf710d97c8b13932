"""Circuit breaker driving the tiered degradation ladder.

The server arranges its policies as tiers, best first (mixture → best
single expert → OpenMP default); the breaker decides which tier serves.
Repeated failures at the active tier *trip* the breaker one tier down;
after a cooldown it *half-opens* — probe requests are served by the
tier above, and enough consecutive probe successes step back up.

Everything is counted in requests, not wall-clock time: a soak run is
then fully deterministic (same request stream → same transition
sequence, regardless of machine speed), and the breaker state is a
handful of small integers that persist losslessly in the journal (see
:meth:`CircuitBreaker.export_state`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: The fields of :meth:`CircuitBreaker.export_state`, in export order
#: (the journal's binary record stores them by position).
STATE_FIELDS = ("tier", "failures", "cooldown", "probe_streak")


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery thresholds, all in units of requests."""

    #: Consecutive failures at the active tier before stepping down.
    trip_threshold: int = 5
    #: Requests served at the lower tier before probing the upper one.
    cooldown_requests: int = 50
    #: Consecutive successful probes before stepping back up.
    probe_successes: int = 3

    def __post_init__(self) -> None:
        if self.trip_threshold < 1:
            raise ValueError("trip_threshold must be >= 1")
        if self.cooldown_requests < 1:
            raise ValueError("cooldown_requests must be >= 1")
        if self.probe_successes < 1:
            raise ValueError("probe_successes must be >= 1")


class CircuitBreaker:
    """Tracks the active tier of a ``num_tiers``-deep ladder.

    Tier 0 is the best (least degraded) tier.  The server calls exactly
    one of :meth:`record_result` / :meth:`record_probe` per request;
    both return the transition reason (``"trip"``, ``"probe"``,
    ``"probe-failed"``) when the request moved the ladder, else None.
    """

    def __init__(self, num_tiers: int,
                 config: Optional[BreakerConfig] = None):
        if num_tiers < 1:
            raise ValueError("need at least one tier")
        self.num_tiers = num_tiers
        self.config = config or BreakerConfig()
        self.tier = 0
        self._failures = 0
        self._cooldown = 0
        self._probe_streak = 0
        self.trips = 0
        self.recoveries = 0
        self.probe_failures = 0

    def wants_probe(self) -> bool:
        """Should this request half-open the tier above?"""
        return self.tier > 0 and self._cooldown == 0

    def record_result(self, success: bool) -> Optional[str]:
        """Outcome of serving at the active tier."""
        if success:
            self._failures = 0
        else:
            self._failures += 1
            if (self._failures >= self.config.trip_threshold
                    and self.tier < self.num_tiers - 1):
                self.tier += 1
                self.trips += 1
                self._failures = 0
                self._cooldown = self.config.cooldown_requests
                self._probe_streak = 0
                return "trip"
        if self.tier > 0 and self._cooldown > 0:
            self._cooldown -= 1
        return None

    def record_probe(self, success: bool) -> Optional[str]:
        """Outcome of a half-open probe of the tier above."""
        if success:
            self._probe_streak += 1
            if self._probe_streak >= self.config.probe_successes:
                self.tier -= 1
                self.recoveries += 1
                self._probe_streak = 0
                self._failures = 0
                self._cooldown = 0
                return "probe"
            return None
        self.probe_failures += 1
        self._probe_streak = 0
        self._cooldown = self.config.cooldown_requests
        return "probe-failed"

    # -- persistence (journaled per request) ------------------------------

    def state(self) -> tuple:
        """The exported values in :data:`STATE_FIELDS` order."""
        return (self.tier, self._failures, self._cooldown,
                self._probe_streak)

    def export_state(self) -> dict:
        return dict(zip(STATE_FIELDS, self.state()))

    def load_state(self, state: dict) -> None:
        tier = int(state.get("tier", 0))
        if not 0 <= tier < self.num_tiers:
            raise ValueError(f"breaker tier {tier} out of range")
        self.tier = tier
        self._failures = int(state.get("failures", 0))
        self._cooldown = int(state.get("cooldown", 0))
        self._probe_streak = int(state.get("probe_streak", 0))
