"""Finite sub-lattices of the closed-subgroup lattice of a search group.

A :class:`Lattice` is a validated partial order over subgroup nodes with a
unique bottom (the trivial group) and top, precomputed meet/join tables, the
cover relation (Hasse diagram), and height levels by longest chain from the
bottom.  Finite-group order relations are computed from member sets;
continuous relations are declared by the builders.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import LatticeError, NotASupergroupError
from .groups import FINITE, GroupAction, GroupDescriptor, SamplerSpec
from .projections import ProjectionMap


@dataclass(frozen=True, eq=False)
class SubgroupNode:
    """One candidate subgroup in the search order."""

    node_id: int
    group: GroupDescriptor
    label: str
    height: int = -1
    sampler: SamplerSpec | None = None
    projection: ProjectionMap | None = None


GenerationFacts = Mapping[int, Sequence[frozenset[int]]]


class Lattice:
    """A finite lattice of subgroups with its ambient action.

    ``leq[i, j]`` means node ``i`` is a subgroup of node ``j``.  Construction
    validates the partial order, unique bottom/top, and that every pair has a
    unique meet and join inside the node set (for finite nodes these are also
    checked against element-set intersection and generated closure).
    """

    def __init__(self, nodes: Sequence[SubgroupNode], leq: np.ndarray,
                 action: GroupAction,
                 generation_facts: GenerationFacts | None = None,
                 require_joins: bool = True):
        leq = np.asarray(leq, dtype=bool)
        n = len(nodes)
        if leq.shape != (n, n):
            raise LatticeError(f"leq must be {n}x{n}")
        self.leq = leq.copy()
        self.leq.setflags(write=False)
        self.action = action
        self.generation_facts = {int(k): tuple(frozenset(s) for s in v)
                                 for k, v in (generation_facts or {}).items()}
        self._validate_partial_order()
        self._bottom, self._top = self._find_extremes(require_top=require_joins)
        self._covers = self._transitive_reduction()
        heights = self._heights_by_longest_chain()
        self.nodes = [replace(node, node_id=i, height=int(heights[i]))
                      for i, node in enumerate(nodes)]
        bot = self.nodes[self._bottom].group
        if not (bot.is_finite and bot.order == 1):
            raise LatticeError("lattice bottom must be the trivial group")
        self._validate_finite_order_consistency()
        self._meet_table, self._join_table = self._build_meet_join(require_joins)
        if require_joins:
            self._validate_absorption()
        self._validate_finite_meet_join()

    # -- validation helpers ---------------------------------------------------

    def _validate_partial_order(self) -> None:
        leq = self.leq
        n = leq.shape[0]
        if not np.all(np.diag(leq)):
            raise LatticeError("leq must be reflexive")
        if np.any(leq & leq.T & ~np.eye(n, dtype=bool)):
            raise LatticeError("leq must be antisymmetric")
        closure = leq @ leq
        if np.any(closure & ~leq):
            raise LatticeError("leq must be transitive")

    def _find_extremes(self, require_top: bool = True) -> tuple[int, int]:
        bottoms = np.flatnonzero(self.leq.all(axis=1))
        tops = np.flatnonzero(self.leq.all(axis=0))
        if len(bottoms) != 1:
            raise LatticeError(f"lattice needs a unique bottom, found {len(bottoms)}")
        if len(tops) != 1:
            if require_top:
                raise LatticeError(f"lattice needs a unique top, found {len(tops)}")
            return int(bottoms[0]), -1
        return int(bottoms[0]), int(tops[0])

    def _transitive_reduction(self) -> np.ndarray:
        lt = self.leq & ~np.eye(len(self.leq), dtype=bool)
        covers = lt & ~(lt @ lt)
        covers.setflags(write=False)
        return covers

    def _heights_by_longest_chain(self) -> np.ndarray:
        n = len(self.leq)
        heights = np.zeros(n, dtype=np.int64)
        order = sorted(range(n), key=lambda i: int(self.leq[:, i].sum()))
        for v in order:
            below = np.flatnonzero(self._covers[:, v])
            if below.size:
                heights[v] = heights[below].max() + 1
        return heights

    def _validate_finite_order_consistency(self) -> None:
        for a in self.nodes:
            for b in self.nodes:
                ga, gb = a.group, b.group
                if ga.is_finite and gb.is_finite and ga.table is gb.table:
                    if self.leq[a.node_id, b.node_id] != (ga.members <= gb.members):
                        raise LatticeError(
                            f"declared order between {a.label!r} and {b.label!r} "
                            "contradicts their member sets")

    def _build_meet_join(self, require_joins: bool) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.nodes)
        meet = np.full((n, n), -1, dtype=np.int64)
        join = np.full((n, n), -1, dtype=np.int64)
        for a in range(n):
            for b in range(n):
                lower = np.flatnonzero(self.leq[:, a] & self.leq[:, b])
                greatest = [c for c in lower if self.leq[lower, c].all()]
                if len(greatest) != 1:
                    raise LatticeError(f"nodes {a} and {b} lack a unique meet")
                meet[a, b] = greatest[0]
                upper = np.flatnonzero(self.leq[a] & self.leq[b])
                least = [c for c in upper if self.leq[c, upper].all()]
                if len(least) != 1:
                    if require_joins:
                        raise LatticeError(f"nodes {a} and {b} lack a unique join")
                else:
                    join[a, b] = least[0]
        return meet, join

    def _validate_absorption(self) -> None:
        n = len(self.nodes)
        for a in range(n):
            for b in range(n):
                if self._meet_table[a, self._join_table[a, b]] != a:
                    raise LatticeError("absorption law a ^ (a v b) = a fails")
                if self._join_table[a, self._meet_table[a, b]] != a:
                    raise LatticeError("absorption law a v (a ^ b) = a fails")

    def _validate_finite_meet_join(self) -> None:
        for a in self.nodes:
            for b in self.nodes:
                ga, gb = a.group, b.group
                if not (ga.is_finite and gb.is_finite and ga.table is gb.table):
                    continue
                m = self.nodes[self._meet_table[a.node_id, b.node_id]].group
                if m.members != (ga.members & gb.members):
                    raise LatticeError(
                        f"meet of {a.label!r}, {b.label!r} is not the member intersection")
                j_id = self._join_table[a.node_id, b.node_id]
                if j_id >= 0:
                    j = self.nodes[j_id].group
                    if j.is_finite and j.table is ga.table:
                        generated = ga.table.closure(ga.members | gb.members)
                        if j.members != generated:
                            raise LatticeError(
                                f"join of {a.label!r}, {b.label!r} is not the generated subgroup")

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def bottom(self) -> int:
        return self._bottom

    @property
    def top(self) -> int:
        if self._top < 0:
            raise LatticeError("this order has no top element (add one with add_top)")
        return self._top

    @property
    def covers(self) -> np.ndarray:
        return self._covers

    def node(self, node_id: int) -> SubgroupNode:
        return self.nodes[node_id]

    def node_by_label(self, label: str) -> SubgroupNode:
        for node in self.nodes:
            if node.label == label:
                return node
        raise LatticeError(f"no node labelled {label!r}")

    def meet(self, a: int, b: int) -> int:
        return int(self._meet_table[a, b])

    def join(self, a: int, b: int) -> int:
        j = int(self._join_table[a, b])
        if j < 0:
            raise LatticeError(f"nodes {a} and {b} have no join in this node set")
        return j

    def enumerate_by_height(self) -> list[list[int]]:
        """Level i holds the nodes of height i, in node-id order."""
        max_h = max(node.height for node in self.nodes)
        levels: list[list[int]] = [[] for _ in range(max_h + 1)]
        for node in self.nodes:
            levels[node.height].append(node.node_id)
        return levels

    def below(self, node_id: int) -> np.ndarray:
        """Ids of all nodes <= node_id."""
        return np.flatnonzero(self.leq[:, node_id])

    def above(self, node_id: int) -> np.ndarray:
        """Ids of all nodes >= node_id."""
        return np.flatnonzero(self.leq[node_id])

    def frontier(self, gmax: int) -> set[int]:
        """Nodes just outside the invariant region below ``gmax``: not below
        gmax, all their strict subnodes below gmax, and covering one of them."""
        out = set()
        n = len(self.nodes)
        for h in range(n):
            if self.leq[h, gmax]:
                continue
            strict_below = [u for u in range(n) if u != h and self.leq[u, h]]
            if not all(self.leq[u, gmax] for u in strict_below):
                continue
            if any(self._covers[u, h] and self.leq[u, gmax] for u in strict_below):
                out.add(h)
        return out


def add_top(lat: Lattice, group: GroupDescriptor, label: str | None = None,
            sampler: SamplerSpec | None = None,
            projection: ProjectionMap | None = None,
            generated_by: Sequence[frozenset[int]] = ()) -> Lattice:
    """Append ``group`` as the unique top of ``lat``.

    Containment is verified for finite kinds (member supersets over a shared
    table); for continuous kinds the caller asserts it.
    """
    for node in lat.nodes:
        g = node.group
        if group.is_finite:
            if not (g.is_finite and g.table is group.table and g.members <= group.members):
                raise NotASupergroupError(
                    f"{group.label!r} does not contain node {node.label!r}")
    n = len(lat.nodes)
    new_node = SubgroupNode(n, group, label or group.label,
                            sampler=sampler, projection=projection)
    leq = np.zeros((n + 1, n + 1), dtype=bool)
    leq[:n, :n] = lat.leq
    leq[:, n] = True
    facts = {k: list(v) for k, v in lat.generation_facts.items()}
    if generated_by:
        facts[n] = [frozenset(s) for s in generated_by]
    return Lattice(list(lat.nodes) + [new_node], leq, lat.action, facts)


def lattice_from_member_sets(table, member_sets, labels, action: GroupAction,
                             samplers=None, projections=None) -> Lattice:
    """Build a finite lattice whose order is member-set inclusion."""
    n = len(member_sets)
    member_sets = [frozenset(s) for s in member_sets]
    if len(set(member_sets)) != n:
        raise LatticeError("duplicate subgroups in node list")
    nodes = []
    for i, (members, label) in enumerate(zip(member_sets, labels)):
        group = GroupDescriptor(FINITE, label, table=table, members=members)
        sampler = samplers[i] if samplers else None
        projection = projections[i] if projections else None
        nodes.append(SubgroupNode(i, group, label, sampler=sampler, projection=projection))
    leq = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            leq[a, b] = member_sets[a] <= member_sets[b]
    return Lattice(nodes, leq, action)
