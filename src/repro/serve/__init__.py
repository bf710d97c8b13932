"""Resilient policy serving: the runtime the mapper would ship inside.

The paper's mixture-of-experts mapper is consulted at every parallel-
region entry of a long-lived process; this package wraps any
:class:`~repro.core.policies.base.ThreadPolicy` behind the supervised
decision loop such a deployment needs:

* :mod:`repro.serve.server` — admission with explicit shedding,
  per-decision deadlines with a p50/p99 latency ledger, and an answer
  for every admitted request;
* :mod:`repro.serve.breaker` — a request-counted circuit breaker
  walking the degradation ladder mixture → best single expert →
  OpenMP default, with half-open probing back up;
* :mod:`repro.serve.journal` — a write-ahead journal of selector
  operations plus checksummed snapshots, so a restart resumes online
  learning with bit-identical state;
* :mod:`repro.serve.fleet` — the sharded serving fleet: a persisted,
  balanced stream-to-shard placement table, per-shard micro-batching into the vectorized
  decision path, shared-memory request/decision rings, and lossless
  shard failover (snapshot shipping + journal replay);
* :mod:`repro.serve.layout` — the on-disk layout of a stream's home
  and the one staged ship that moves it (failover, evacuation,
  resize);
* :mod:`repro.serve.resize` — live elastic resharding: placement-delta
  planning, drain barriers, staged state shipping, and the atomic
  topology-epoch swap behind ``PolicyFleet.resize``;
* :mod:`repro.serve.supervisor` — the supervising fleet controller:
  heartbeats over the control pipes, deadline liveness verdicts,
  exponential-backoff restart budgets, and graceful degradation
  (evacuate / reinstate);
* :mod:`repro.serve.soak` — the chaos-composed soak harness behind
  ``repro serve-fleet`` and its one twin verifier, ``verify_twin``:
  a shard kill and/or live resizes against an uninterrupted inline
  twin.  A single server is a 1-shard inline fleet
  (``serve-fleet --shards 1 --inline``).

See the "Serving failure model" and "Live resharding & supervision"
sections of ``docs/robustness.md``.
"""

from .breaker import BreakerConfig, CircuitBreaker
from .fleet import (
    FleetConfig,
    PolicyFleet,
    ShardLostError,
    ShardRouter,
    ShardWorker,
)
from .journal import (
    JournalWriteError,
    SelectorJournal,
    ServeStateStore,
    SnapshotStore,
    ship_state,
)
from .layout import stream_dirname
from .report import FleetReport, ServeReport, merge_serve_reports
from .resize import (
    RESIZE_STEPS,
    FleetTopology,
    ResizePlan,
    execute_resize,
    plan_resize,
    sweep_state_root,
)
from .server import (
    PolicyServer,
    ServeConfig,
    ServeDecision,
    ServeRequest,
    TierFailure,
)
from .soak import (
    SoakInvariantError,
    SoakSpec,
    build_policy,
    make_request,
    run_fleet_soak,
    tiny_training_config,
    verify_twin,
)
from .supervisor import FleetSupervisor, SupervisorConfig

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "FleetConfig",
    "FleetReport",
    "FleetSupervisor",
    "FleetTopology",
    "JournalWriteError",
    "PolicyFleet",
    "PolicyServer",
    "RESIZE_STEPS",
    "ResizePlan",
    "SelectorJournal",
    "ServeConfig",
    "ServeDecision",
    "ServeReport",
    "ServeRequest",
    "ServeStateStore",
    "ShardLostError",
    "ShardRouter",
    "ShardWorker",
    "SnapshotStore",
    "SoakInvariantError",
    "SoakSpec",
    "SupervisorConfig",
    "TierFailure",
    "build_policy",
    "execute_resize",
    "make_request",
    "merge_serve_reports",
    "plan_resize",
    "run_fleet_soak",
    "ship_state",
    "stream_dirname",
    "sweep_state_root",
    "tiny_training_config",
    "verify_twin",
]
