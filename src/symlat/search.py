"""Lattice search for the maximal invariant subgroup.

Three strategies share a pluggable per-node invariance test: breadth-first
(test every surviving node level by level, pruning everything above a
rejection), its greedy variant (skip a node that lies above two or more
surviving nodes of the previous level: nodes sit at their longest-chain
height, so any two of those are incomparable and their join is the node
itself), and depth-first (follow the first acceptance upward).  All three
test a node through one step that records its outcome and status, and
return through one packer that derives the surviving maxima, the estimate
and the counts from those records.  Per-node random streams are spawned
from the master seed and the node id, so outcomes are independent of test
order within a level.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import NeighborIndex, RegressionDataset
from .errors import SymlatError
from .groups import GroupAction, SamplerSpec
from .invariance import (
    NoiseModel,
    PairingTables,
    TestOutcome,
    VariationBound,
    exceedance_test,
    ratio_permutation_test,
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


def _tie_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))


class ExceedanceTester:
    """Known-bound exceedance test bound to one dataset, whose threshold grid
    and neighbour index serve every test of a search.  ``thresholds=None``
    takes the noise model's default grid, built here once."""

    def __init__(self, data: RegressionDataset, bound: VariationBound,
                 noise: NoiseModel, m: int, thresholds=None):
        self.data = data
        self.bound = bound
        self.noise = noise
        self.m = m
        self.thresholds = noise.default_thresholds() if thresholds is None else thresholds
        self.index = NeighborIndex.from_dataset(data)

    def test(self, action: GroupAction, sampler: SamplerSpec, alpha: float,
             rng: np.random.Generator) -> TestOutcome:
        return exceedance_test(self.data, action, sampler, self.bound, self.noise, rng,
                               self.m, alpha=alpha, thresholds=self.thresholds,
                               index=self.index)

    def test_node(self, lattice: Lattice, node: SubgroupNode, alpha: float,
                  rng: np.random.Generator) -> TestOutcome:
        return self.test(lattice.action, _require_sampler(node), alpha, rng)


class PermutationTester:
    """Order-only-bound permutation test bound to one dataset, whose pairing
    tables serve every test of a search."""

    def __init__(self, data: RegressionDataset, bound: VariationBound,
                 m: int, B: int, q: float = 0.95):
        self.data = data
        self.bound = bound
        self.m = m
        self.B = B
        self.q = q
        self.tables = PairingTables(data)

    def test(self, action: GroupAction, sampler: SamplerSpec, alpha: float,
             rng: np.random.Generator) -> TestOutcome:
        return ratio_permutation_test(self.data, action, sampler, self.bound, rng,
                                      self.m, self.B, q=self.q, alpha=alpha,
                                      tables=self.tables)

    def test_node(self, lattice: Lattice, node: SubgroupNode, alpha: float,
                  rng: np.random.Generator) -> TestOutcome:
        return self.test(lattice.action, _require_sampler(node), alpha, rng)


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

    def test_node(self, lattice: Lattice, node: SubgroupNode, alpha: float,
                  rng: np.random.Generator) -> TestOutcome:
        ok = self.accept(lattice, node)
        return TestOutcome(1.0 if ok else 0.0, alpha, effective_m=0, statistics=np.empty(0))


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
    """True when >= 2 surviving previous-level nodes lie below the node.

    Nodes sit at their longest-chain height, so two such nodes are
    incomparable and their join lies strictly above one of them, at the
    node's height or higher, yet at most the node: the join is the node."""
    return np.count_nonzero(lattice.leq[list(prev_level_alive), node.node_id]) >= 2


def _test(lattice: Lattice, tester, config: SearchConfig, v: int,
          statuses: dict[int, str], outcomes: dict[int, TestOutcome]) -> str:
    """Test node ``v`` on its own stream; record and return its status."""
    outcome = tester.test_node(lattice, lattice.node(v), config.alpha,
                               _node_rng(config.seed, v))
    outcomes[v] = outcome
    statuses[v] = REJECTED if outcome.rejected else ACCEPTED
    return statuses[v]


def _resolve_and_pack(lattice: Lattice, statuses: dict[int, str],
                      outcomes: dict[int, TestOutcome],
                      config: SearchConfig) -> SearchResult:
    # statuses run in node-id order, so the maxima come out sorted
    alive = np.array([v for v, s in statuses.items() if s in (ACCEPTED, SKIPPED_GREEDY)])
    maximal = lattice.leq[np.ix_(alive, alive)].sum(axis=1) == 1
    tilde = tuple(alive[maximal].tolist())
    estimate = resolve_tilde(tilde, lattice, config.tie_rule, _tie_rng(config.seed))
    return SearchResult(estimate=estimate, tilde_set=tilde, statuses=statuses,
                        outcomes=outcomes, tests_performed=len(outcomes),
                        computation_units=sum(_units(lattice.node(v)) for v in outcomes))


def breadth_first_estimate(lattice: Lattice, tester, config: SearchConfig,
                           greedy: bool = False) -> SearchResult:
    statuses = {n.node_id: UNTESTED for n in lattice.nodes}
    statuses[lattice.bottom] = ACCEPTED
    outcomes: dict[int, TestOutcome] = {}
    levels = lattice.enumerate_by_height()
    for prev, level in zip(levels, levels[1:]):
        prev_alive = {v for v in prev if statuses[v] in (ACCEPTED, SKIPPED_GREEDY)}
        # pruning marks only greater heights, so it never reaches this level
        for v in level:
            if statuses[v] != UNTESTED:
                continue
            if greedy and _greedy_skippable(lattice, lattice.node(v), prev_alive):
                statuses[v] = SKIPPED_GREEDY
            elif _test(lattice, tester, config, v, statuses, outcomes) == REJECTED:
                for w in lattice.above(v):
                    if statuses[w] == UNTESTED:
                        statuses[w] = PRUNED
    return _resolve_and_pack(lattice, statuses, outcomes, config)


def breadth_first_greedy_estimate(lattice: Lattice, tester,
                                  config: SearchConfig) -> SearchResult:
    return breadth_first_estimate(lattice, tester, config, greedy=True)


def depth_first_estimate(lattice: Lattice, tester, config: SearchConfig) -> SearchResult:
    """Test the covers of the last accepted node in id order and climb to the
    first one accepted; the estimate is the node whose covers all reject.
    The accepted nodes form a chain, so it is their only maximum."""
    statuses = {n.node_id: UNTESTED for n in lattice.nodes}
    statuses[lattice.bottom] = ACCEPTED
    outcomes: dict[int, TestOutcome] = {}
    current = lattice.bottom
    while True:
        for v in np.flatnonzero(lattice.covers[current]).tolist():
            if _test(lattice, tester, config, v, statuses, outcomes) == ACCEPTED:
                current = v
                break
        else:
            return _resolve_and_pack(lattice, statuses, outcomes, config)


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
        return lattice.meet(*tilde)
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
