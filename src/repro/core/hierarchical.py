"""Hierarchical mixture of experts (Jordan & Jacobs, cited as [18]).

The paper's related work points at hierarchical mixtures; this module
provides a two-level gate compatible with the flat
:class:`~repro.core.selector.HyperplaneSelector`:

* a **top gate** routes the state to a *group* of experts (the natural
  grouping here is the training platform: the 12-core experts vs the
  32-core experts);
* a per-group **inner gate** picks the expert within the group.

Both levels are hyperplane perceptrons learning from the same
last-timestep environment errors: the top gate is scored against the
best error within each group, each inner gate against its own members'
errors.  The benchmark ``bench_ext_hierarchical.py`` compares the flat
and hierarchical gates.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .selector import (
    HyperplaneSelector,
    SelectorJournalSink,
    SelectorStats,
    _finite_features,
)
from .training import ExpertBundle


class HierarchicalSelector:
    """Two-level expert selector (an HME gate)."""

    def __init__(
        self,
        groups: Sequence[Sequence[int]],
        dim: int,
        learning_rate: float = 0.5,
        margin: float = 0.2,
    ):
        groups = [tuple(group) for group in groups]
        if not groups or any(not group for group in groups):
            raise ValueError("groups must be non-empty")
        flat = [index for group in groups for index in group]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError(
                "groups must partition expert indices 0..K-1"
            )
        self._groups = groups
        self._dim = dim
        self._lr = learning_rate
        self._margin = margin
        self._journal: Optional[SelectorJournalSink] = None
        self._initial_state: Optional[dict] = None
        self.reset()

    def reset(self) -> None:
        self._top = HyperplaneSelector(
            num_experts=len(self._groups), dim=self._dim,
            learning_rate=self._lr, margin=self._margin,
        )
        self._inner = [
            HyperplaneSelector(
                num_experts=len(group), dim=self._dim,
                learning_rate=self._lr, margin=self._margin,
            )
            for group in self._groups
        ]
        self.stats = SelectorStats()
        if self._initial_state is not None:
            self.load_state(self._initial_state, as_initial=False)

    # -- crash-safe persistence -------------------------------------------

    def attach_journal(self, sink: SelectorJournalSink) -> None:
        """Journal at the gate level, not per sub-selector.

        A replayed ``update``/``select`` on this object drives both
        levels through the exact original code path, so one record per
        top-level operation reconstructs every sub-selector — and the
        sub-selectors must not journal individually or each operation
        would be recorded twice.
        """
        self._journal = sink

    def detach_journal(self) -> None:
        self._journal = None

    def export_state(self) -> dict:
        """Nested snapshot of both gate levels."""
        return {
            "groups": [list(group) for group in self._groups],
            "top": self._top.export_state(),
            "inner": [gate.export_state() for gate in self._inner],
        }

    def load_state(self, state: dict, as_initial: bool = True) -> None:
        """Install a snapshot; with ``as_initial``, reset() returns to it."""
        groups = [tuple(group) for group in state["groups"]]
        if groups != self._groups:
            raise ValueError(
                "state group structure does not match this selector"
            )
        inner_states = state["inner"]
        if len(inner_states) != len(self._inner):
            raise ValueError("state inner-gate count mismatch")
        self._top.load_state(state["top"], as_initial=False)
        for gate, gate_state in zip(self._inner, inner_states):
            gate.load_state(gate_state, as_initial=False)
        self.stats = SelectorStats()
        if as_initial:
            self._initial_state = self.export_state()

    def best_index(self) -> int:
        """Expert favoured overall: best group's best member.

        Derived from persisted bias terms (see
        :meth:`HyperplaneSelector.best_index`), so the answer survives a
        crash/restart unchanged.
        """
        group_index = self._top.best_index()
        local = self._inner[group_index].best_index()
        return self._groups[group_index][local]

    @property
    def num_experts(self) -> int:
        return sum(len(group) for group in self._groups)

    @property
    def groups(self) -> List[tuple]:
        return list(self._groups)

    def select(self, features: np.ndarray) -> int:
        if self._journal is not None:
            self._journal.record_select(_finite_features(features))
        group_index = self._top.select(features)
        local = self._inner[group_index].select(features)
        choice = self._groups[group_index][local]
        self.stats.selections.append(choice)
        return choice

    def update(self, features: np.ndarray,
               errors: Sequence[float]) -> bool:
        errors = list(errors)
        if len(errors) != self.num_experts:
            raise ValueError(
                f"expected {self.num_experts} errors, got {len(errors)}"
            )
        # Degenerate scoring (NaN observation): learn nothing.  A NaN
        # here would propagate through min() into the top gate's group
        # errors and silently corrupt both levels.
        if not all(math.isfinite(float(e)) for e in errors):
            return False
        if self._journal is not None:
            self._journal.record_update(_finite_features(features), errors)
        # Top gate: each group is as good as its best member here.
        group_errors = [
            min(errors[index] for index in group)
            for group in self._groups
        ]
        top_miss = self._top.update(features, group_errors)
        # Inner gates: every group keeps learning its internal map
        # (updates are cheap and all errors are already in hand).
        inner_miss = False
        for gate, group in zip(self._inner, self._groups):
            if len(group) < 2:
                continue
            restricted = [errors[index] for index in group]
            if gate.update(features, restricted):
                inner_miss = True
        self.stats.updates += 1
        mispredicted = top_miss or inner_miss
        if mispredicted:
            self.stats.mispredictions += 1
        return mispredicted


def platform_groups(bundle: ExpertBundle) -> List[List[int]]:
    """Group expert indices by their training platform.

    Experts whose provenance carries no platform marker share one
    group.
    """
    by_platform: dict = {}
    for index, expert in enumerate(bundle.experts):
        _, _, platform = expert.provenance.partition("@")
        by_platform.setdefault(platform, []).append(index)
    return list(by_platform.values())


def build_hierarchical_selector(
    bundle: ExpertBundle,
    dim: int,
    learning_rate: float = 0.5,
    margin: float = 0.2,
) -> HierarchicalSelector:
    """An HME gate over a bundle, grouped by training platform."""
    return HierarchicalSelector(
        groups=platform_groups(bundle),
        dim=dim,
        learning_rate=learning_rate,
        margin=margin,
    )
