"""Lattice search for the maximal invariant subgroup.

Three strategies share a pluggable per-node invariance test: breadth-first
(test every surviving node level by level, deleting everything above a
rejection), its greedy variant (skip a node generated by two or more
surviving nodes of the previous level), and depth-first (follow the first
acceptance upward).  Per-node random streams are spawned from the master
seed and the node id, so outcomes are independent of test order within a
level.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import NeighborIndex, RegressionDataset
from .errors import SymlatError
from .groups import MixtureSampler
from .invariance import (
    ACCEPT,
    REJECT,
    NoiseModel,
    TestOutcome,
    VariationBound,
    batch_exceedance_test,
    batch_ratio_permutation_test,
    exceedance_test,
    ratio_permutation_test,
    _finish,
)
from .lattice import Lattice, SubgroupNode

ACCEPTED = "accepted"
REJECTED = "rejected"
PRUNED = "pruned"
SKIPPED_GREEDY = "skipped-greedy"
UNTESTED = "untested"

BREADTH = "breadth"
BREADTH_GREEDY = "breadth-greedy"
DEPTH = "depth"

ALGORITHMS = (BREADTH, BREADTH_GREEDY, DEPTH)

UNIFORM_RANDOM = "uniform-random"
MEET_OF_MAXIMA = "meet-of-maxima"
TIE_RULES = (UNIFORM_RANDOM, MEET_OF_MAXIMA)

STATUS_COLORS = {
    ACCEPTED: "green",
    REJECTED: "red",
    PRUNED: "blue",
    SKIPPED_GREEDY: "cyan",
    UNTESTED: "gray",
}


@dataclass(frozen=True)
class SearchConfig:
    algorithm: str = BREADTH
    alpha: float = 0.05
    tie_rule: str = UNIFORM_RANDOM
    seed: int = 0
    batch: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise SymlatError(f"unknown search algorithm {self.algorithm!r}")
        if not 0.0 < self.alpha < 1.0:
            raise SymlatError("significance level must lie in (0, 1)")
        if self.tie_rule not in TIE_RULES:
            raise SymlatError(f"unknown tie rule {self.tie_rule!r}")


@dataclass
class SearchResult:
    """Estimate, surviving maxima, and per-node bookkeeping."""

    estimate: int
    tilde_set: tuple[int, ...]
    statuses: dict[int, str]
    outcomes: dict[int, TestOutcome]
    tests_performed: int
    computation_units: int


# ---------------------------------------------------------------------------
# Testers
# ---------------------------------------------------------------------------

def _node_rng(seed: int, node_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, node_id)))


def _level_rng(seed: int, level: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, level)))


def _tie_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))


class ExceedanceTester:
    """Known-bound exceedance test bound to one dataset."""

    def __init__(self, data: RegressionDataset, bound: VariationBound,
                 noise: NoiseModel, m: int, thresholds=None):
        self.data = data
        self.bound = bound
        self.noise = noise
        self.m = m
        self.thresholds = thresholds
        self.index = NeighborIndex.from_dataset(data)

    def test_node(self, lattice: Lattice, node: SubgroupNode, alpha: float,
                  rng: np.random.Generator) -> TestOutcome:
        return exceedance_test(self.data, lattice.action, _require_sampler(node), self.bound,
                               self.noise, rng, self.m, alpha=alpha,
                               thresholds=self.thresholds, index=self.index)

    def test_level(self, lattice: Lattice, nodes: Sequence[SubgroupNode], alpha: float,
                   rng: np.random.Generator) -> dict[int, TestOutcome]:
        sampler = MixtureSampler(tuple(_require_sampler(n) for n in nodes))
        pairs = [(n.node_id, n.group) for n in nodes]
        return batch_exceedance_test(self.data, lattice.action, pairs, sampler,
                                     self.bound, self.noise, rng, self.m, alpha=alpha,
                                     thresholds=self.thresholds, index=self.index)


class PermutationTester:
    """Order-only-bound permutation test bound to one dataset."""

    def __init__(self, data: RegressionDataset, bound: VariationBound,
                 m: int, B: int, q: float = 0.95):
        self.data = data
        self.bound = bound
        self.m = m
        self.B = B
        self.q = q

    def test_node(self, lattice: Lattice, node: SubgroupNode, alpha: float,
                  rng: np.random.Generator) -> TestOutcome:
        return ratio_permutation_test(self.data, lattice.action, _require_sampler(node),
                                      self.bound, rng, self.m, self.B,
                                      q=self.q, alpha=alpha)

    def test_level(self, lattice: Lattice, nodes: Sequence[SubgroupNode], alpha: float,
                   rng: np.random.Generator) -> dict[int, TestOutcome]:
        sampler = MixtureSampler(tuple(_require_sampler(n) for n in nodes))
        pairs = [(n.node_id, n.group) for n in nodes]
        return batch_ratio_permutation_test(self.data, lattice.action, pairs, sampler,
                                            self.bound, rng, self.m, self.B,
                                            q=self.q, alpha=alpha)


class OracleTester:
    """Deterministic accept/reject rule, for exactness checks and reports."""

    def __init__(self, accept: Callable[[Lattice, SubgroupNode], bool]):
        self.accept = accept

    @classmethod
    def perfect(cls, gmax: int) -> "OracleTester":
        """Accept exactly the subgroups of node ``gmax``."""
        return cls(lambda lat, node: bool(lat.leq[node.node_id, gmax]))

    @classmethod
    def reject_labels(cls, labels: Sequence[str]) -> "OracleTester":
        rejected = set(labels)
        return cls(lambda lat, node: node.label not in rejected)

    @classmethod
    def accept_all(cls) -> "OracleTester":
        return cls(lambda lat, node: True)

    def test_node(self, lattice: Lattice, node: SubgroupNode, alpha: float,
                  rng: np.random.Generator) -> TestOutcome:
        ok = self.accept(lattice, node)
        return _finish(1.0 if ok else 0.0, alpha, effective_m=0,
                       statistics=np.empty(0))

    def test_level(self, lattice: Lattice, nodes: Sequence[SubgroupNode], alpha: float,
                   rng: np.random.Generator) -> dict[int, TestOutcome]:
        return {n.node_id: self.test_node(lattice, n, alpha, rng) for n in nodes}


def _require_sampler(node: SubgroupNode):
    if node.sampler is None:
        raise SymlatError(f"node {node.label!r} carries no sampler")
    return node.sampler


# ---------------------------------------------------------------------------
# Search algorithms
# ---------------------------------------------------------------------------

def _units(node: SubgroupNode) -> int:
    return node.group.order if node.group.is_finite else 0


def _greedy_skippable(lattice: Lattice, node: SubgroupNode,
                      prev_level_alive: set[int]) -> bool:
    """True when the node is the join of >= 2 surviving previous-level nodes."""
    below = [u for u in prev_level_alive if lattice.leq[u, node.node_id]]
    group = node.group
    if group.is_finite:
        finite_below = [lattice.node(u).group for u in below
                        if lattice.node(u).group.is_finite
                        and lattice.node(u).group.table is group.table]
        if len(finite_below) >= 2:
            union: set[int] = set()
            for g in finite_below:
                union |= g.members
            if group.table.closure(union) == group.members:
                return True
        return False
    for fact in lattice.generation_facts.get(node.node_id, ()):
        if len(fact) >= 2 and fact <= prev_level_alive:
            return True
    return False


def _resolve_and_pack(lattice: Lattice, statuses: dict[int, str],
                      outcomes: dict[int, TestOutcome], tests: int, units: int,
                      config: SearchConfig) -> SearchResult:
    alive = [i for i, s in statuses.items() if s in (ACCEPTED, SKIPPED_GREEDY)]
    tilde = [v for v in alive
             if not any(u != v and lattice.leq[v, u] for u in alive)]
    tilde = tuple(sorted(tilde))
    estimate = resolve_tilde(tilde, lattice, config.tie_rule, _tie_rng(config.seed))
    return SearchResult(estimate=estimate, tilde_set=tilde, statuses=statuses,
                        outcomes=outcomes, tests_performed=tests,
                        computation_units=units)


def breadth_first_estimate(lattice: Lattice, tester, config: SearchConfig,
                           greedy: bool = False) -> SearchResult:
    statuses = {n.node_id: UNTESTED for n in lattice.nodes}
    statuses[lattice.bottom] = ACCEPTED
    outcomes: dict[int, TestOutcome] = {}
    tests = 0
    units = 0
    levels = lattice.enumerate_by_height()
    for level_i in range(1, len(levels)):
        prev_alive = {v for v in levels[level_i - 1]
                      if statuses[v] in (ACCEPTED, SKIPPED_GREEDY)}
        candidates = [v for v in levels[level_i] if statuses[v] == UNTESTED]
        to_test = []
        for v in candidates:
            if greedy and _greedy_skippable(lattice, lattice.node(v), prev_alive):
                statuses[v] = SKIPPED_GREEDY
            else:
                to_test.append(v)
        if config.batch and to_test:
            level_outcomes = tester.test_level(
                lattice, [lattice.node(v) for v in to_test], config.alpha,
                _level_rng(config.seed, level_i))
        else:
            level_outcomes = {v: tester.test_node(lattice, lattice.node(v), config.alpha,
                                                  _node_rng(config.seed, v))
                              for v in to_test}
        rejected_now = []
        for v in to_test:
            outcome = level_outcomes[v]
            outcomes[v] = outcome
            tests += 1
            units += _units(lattice.node(v))
            if outcome.decision == REJECT:
                statuses[v] = REJECTED
                rejected_now.append(v)
            else:
                statuses[v] = ACCEPTED
        for v in rejected_now:
            for w in lattice.above(v):
                if w != v and statuses[w] == UNTESTED:
                    statuses[w] = PRUNED
    return _resolve_and_pack(lattice, statuses, outcomes, tests, units, config)


def breadth_first_greedy_estimate(lattice: Lattice, tester,
                                  config: SearchConfig) -> SearchResult:
    return breadth_first_estimate(lattice, tester, config, greedy=True)


def depth_first_estimate(lattice: Lattice, tester, config: SearchConfig) -> SearchResult:
    """Test the covers of the last accepted node in id order and climb to the
    first one accepted; the estimate is the node whose covers all reject."""
    statuses = {n.node_id: UNTESTED for n in lattice.nodes}
    statuses[lattice.bottom] = ACCEPTED
    outcomes: dict[int, TestOutcome] = {}
    tests = 0
    units = 0
    current = lattice.bottom
    while True:
        for v in np.flatnonzero(lattice.covers[current]).tolist():
            node = lattice.node(v)
            outcome = tester.test_node(lattice, node, config.alpha,
                                       _node_rng(config.seed, v))
            outcomes[v] = outcome
            tests += 1
            units += _units(node)
            if outcome.decision == ACCEPT:
                statuses[v] = ACCEPTED
                current = v
                break
            statuses[v] = REJECTED
        else:
            break
    return SearchResult(estimate=current, tilde_set=(current,), statuses=statuses,
                        outcomes=outcomes, tests_performed=tests,
                        computation_units=units)


def run_search(lattice: Lattice, tester, config: SearchConfig) -> SearchResult:
    if config.algorithm == BREADTH:
        return breadth_first_estimate(lattice, tester, config)
    if config.algorithm == BREADTH_GREEDY:
        return breadth_first_greedy_estimate(lattice, tester, config)
    return depth_first_estimate(lattice, tester, config)


def resolve_tilde(tilde: Sequence[int], lattice: Lattice, rule: str,
                  rng: np.random.Generator) -> int:
    """Pick the single estimate from the surviving maxima."""
    tilde = sorted(tilde)
    if not tilde:
        raise SymlatError("empty set of surviving maxima")
    if len(tilde) == 1:
        return int(tilde[0])
    if rule == UNIFORM_RANDOM:
        return int(tilde[int(rng.integers(0, len(tilde)))])
    if rule == MEET_OF_MAXIMA:
        acc = tilde[0]
        for v in tilde[1:]:
            acc = lattice.meet(acc, v)
        return int(acc)
    raise SymlatError(f"unknown tie rule {rule!r}")


# ---------------------------------------------------------------------------
# Diagnostics and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryBounds:
    """Arithmetic lower bounds on recovery events from test power and level."""

    frontier_size: int
    subgroups_below: int
    invariant_probability: float       # >= 1 - |A| (1 - P)
    exact_recovery_probability: float  # >= 1 - below * alpha - |A| (1 - P)


def bound_diagnostics(lattice: Lattice, gmax: int, power: float,
                      alpha: float) -> RecoveryBounds:
    if not 0.0 <= power <= 1.0 or not 0.0 <= alpha <= 1.0:
        raise SymlatError("power and alpha must lie in [0, 1]")
    frontier = lattice.frontier(gmax)
    below = int(len(lattice.below(gmax)))
    inv = 1.0 - len(frontier) * (1.0 - power)
    exact = 1.0 - below * alpha - len(frontier) * (1.0 - power)
    return RecoveryBounds(frontier_size=len(frontier), subgroups_below=below,
                          invariant_probability=inv,
                          exact_recovery_probability=exact)


def write_result_csv(result: SearchResult, lattice: Lattice, path) -> None:
    """Per-node report: node, label, status, p_value (blank when untested)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node", "label", "status", "p_value"])
        for node in lattice.nodes:
            outcome = result.outcomes.get(node.node_id)
            p = repr(outcome.p_value) if outcome is not None else ""
            writer.writerow([node.node_id, node.label,
                             result.statuses[node.node_id], p])


def write_hasse_annotation(result: SearchResult, lattice: Lattice, path) -> None:
    """Node colour classes plus cover edges, for rendering the Hasse diagram."""
    lines = []
    for node in lattice.nodes:
        status = result.statuses[node.node_id]
        lines.append(f"node\t{node.node_id}\t{node.label}\t{status}\t{STATUS_COLORS[status]}")
    rows, cols = np.nonzero(lattice.covers)
    for lo, hi in zip(rows.tolist(), cols.tolist()):
        lines.append(f"edge\t{lo}\t{hi}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
