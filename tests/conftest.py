"""Shared fixtures.

``tiny_bundle`` trains a miniature expert set once per session (disk
cached across sessions), so policy/experiment tests do not pay the full
training pipeline's cost.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.training import TrainingConfig, default_experts


def pytest_collection_finish(session):
    """Move everything collection imported out of the collector's reach.

    Serving tests run inline fleets in this process against a 50 ms
    wall-clock decision deadline.  With the whole suite's imports in
    the heap, a full collection here takes 50-90 ms; landing inside a
    timed decision, it degrades that decision to a lower tier and an
    inline-vs-process twin comparison fails for a reason that has
    nothing to do with the code under test.  Frozen, those objects are
    never scanned again and a full collection stays around 10-20 ms.
    """
    gc.collect()
    gc.freeze()


#: A miniature training configuration for tests: two targets, one
#: single-program workload, shallow sweeps.  Trains in seconds.
TINY_CONFIG = TrainingConfig(
    target_names=("cg", "ep"),
    workload_names=("is",),
    workload_bundles=((), ("is", "ft")),
    workload_fractions=(0.5,),
    availability_levels=(0.5, 1.0),
    iterations_scale=0.05,
    max_samples_per_run=6,
)


@pytest.fixture(scope="session")
def tiny_config() -> TrainingConfig:
    return TINY_CONFIG


@pytest.fixture(scope="session")
def tiny_bundle(tiny_config):
    """Expert bundle trained on the miniature configuration."""
    return default_experts(tiny_config)


@pytest.fixture(scope="session")
def tiny_mono(tiny_config):
    """Monolithic (granularity-1) bundle on the same data."""
    return default_experts(tiny_config, granularity=1)
