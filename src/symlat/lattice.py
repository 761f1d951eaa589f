"""Finite sub-lattices of the closed-subgroup lattice of a search group.

A :class:`Lattice` is a validated partial order over subgroup nodes with a
unique bottom (the trivial group) and top (the search group), the cover
relation (Hasse diagram), and height levels by longest chain from the
bottom; meets and joins are computed from the order when asked for.
Finite-group order relations are computed from member sets; continuous
relations are declared by the builders.  The builders make every node with
:func:`standard_node`, which attaches its kind's sampler and projection map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import LatticeError
from .groups import (FINITE, SO3, S1_AXIS, GroupAction, GroupDescriptor, SamplerSpec,
                     default_sl3_generators, elements_of, non_identity_sampler,
                     uniform_sampler)
from .projections import (ProjectionMap, colatitude_projection, identity_projection,
                          nonzero_projection, orbit_canonical_projection,
                          radial_projection)


@dataclass(frozen=True, eq=False)
class SubgroupNode:
    """One candidate subgroup in the search order.

    ``node_id`` and ``height`` are set by :class:`Lattice`; a node made
    outside a lattice carries placeholders.
    """

    node_id: int
    group: GroupDescriptor
    height: int = -1
    sampler: SamplerSpec | None = None
    projection: ProjectionMap | None = None

    @property
    def label(self) -> str:
        return self.group.label


class Lattice:
    """A finite lattice of subgroups with its ambient action.

    ``leq[i, j]`` means node ``i`` is a subgroup of node ``j``.  The lattice
    alone numbers its nodes: node ``i`` gets ``node_id = i``, its position in
    ``nodes`` and in ``leq``, whatever id it arrived with, and ``leq`` is the
    only record of the order.  Construction validates the partial order,
    unique bottom/top, and that every pair has a unique meet inside the node
    set, which with the top makes the order a lattice (for finite nodes meets
    and joins are also checked against element-set intersection and generated
    closure).
    """

    def __init__(self, nodes: Sequence[SubgroupNode], leq: np.ndarray,
                 action: GroupAction):
        leq = np.asarray(leq, dtype=bool)
        n = len(nodes)
        if leq.shape != (n, n):
            raise LatticeError(f"leq must be {n}x{n}")
        self.leq = leq.copy()
        self.leq.setflags(write=False)
        self.action = action
        self._down = self.leq.sum(axis=0)  # down-set sizes
        self._up = self.leq.sum(axis=1)  # up-set sizes
        self._covers = self._validate_partial_order()
        self._bottom, self._top = self._find_extremes()
        heights = self._heights_by_longest_chain()
        self.nodes = [replace(node, node_id=i, height=int(heights[i]))
                      for i, node in enumerate(nodes)]
        bot = self.nodes[self._bottom].group
        if not (bot.is_finite and bot.order == 1):
            raise LatticeError("lattice bottom must be the trivial group")
        self._validate_finite_order_consistency()
        self._validate_meets()
        self._validate_finite_meet_join()

    # -- validation helpers ---------------------------------------------------

    def _validate_partial_order(self) -> np.ndarray:
        """Check that ``leq`` is a partial order and return its covers."""
        leq = self.leq
        if not np.all(np.diag(leq)):
            raise LatticeError("leq must be reflexive")
        lt = leq & ~np.eye(len(leq), dtype=bool)
        if np.any(lt & lt.T):
            raise LatticeError("leq must be antisymmetric")
        # with leq reflexive, leq @ leq is I | lt | lt @ lt
        two = lt @ lt
        if np.any(two & ~leq):
            raise LatticeError("leq must be transitive")
        covers = lt & ~two
        covers.setflags(write=False)
        return covers

    def _find_extremes(self) -> tuple[int, int]:
        bottoms = np.flatnonzero(self.leq.all(axis=1))
        tops = np.flatnonzero(self.leq.all(axis=0))
        if len(bottoms) != 1:
            raise LatticeError(f"lattice needs a unique bottom, found {len(bottoms)}")
        if len(tops) != 1:
            raise LatticeError(f"lattice needs a unique top, found {len(tops)}")
        return int(bottoms[0]), int(tops[0])

    def _heights_by_longest_chain(self) -> np.ndarray:
        n = len(self.leq)
        heights = np.zeros(n, dtype=np.int64)
        order = sorted(range(n), key=lambda i: int(self._down[i]))
        for v in order:
            below = np.flatnonzero(self._covers[:, v])
            if below.size:
                heights[v] = heights[below].max() + 1
        return heights

    def _finite_pairs(self):
        """Pairs of finite nodes on one Cayley table, in row-major order."""
        finite = [node for node in self.nodes if node.group.is_finite]
        for a in finite:
            for b in finite:
                if a.group.table is b.group.table:
                    yield a, b

    def _validate_finite_order_consistency(self) -> None:
        for a, b in self._finite_pairs():
            if self.leq[a.node_id, b.node_id] != (a.group.members <= b.group.members):
                raise LatticeError(
                    f"declared order between {a.label!r} and {b.label!r} "
                    "contradicts their member sets")

    def _validate_meets(self) -> None:
        # Row a at a time.  lower[b, c] marks the common lower bounds c of a and
        # b.  Each one's down-set lies inside that set, so the one with the
        # largest down-set is the meet exactly when its down-set holds them all.
        # Every down-set holds its own node, so a non-bound (score 0) never
        # wins, and a pair without common bounds fails the size check.  With
        # the top checked, meets make a lattice: a pair's join is the meet of
        # its common upper bounds.
        geq = np.ascontiguousarray(self.leq.T)
        down = self._down
        for a in range(len(self.nodes)):
            lower = geq & geq[a]
            meet = (lower * down).argmax(axis=1)
            bad = np.flatnonzero(down[meet] != np.count_nonzero(lower, axis=1))
            if bad.size:
                raise LatticeError(f"nodes {a} and {int(bad[0])} lack a unique meet")

    def _validate_finite_meet_join(self) -> None:
        # a comparable pair's meet and join are its own nodes
        for a, b in self._finite_pairs():
            i, j = a.node_id, b.node_id
            if i >= j or self.leq[i, j] or self.leq[j, i]:
                continue
            ga, gb = a.group, b.group
            m = self.nodes[self.meet(i, j)].group
            if m.members != (ga.members & gb.members):
                raise LatticeError(
                    f"meet of {a.label!r}, {b.label!r} is not the member intersection")
            g = self.nodes[self.join(i, j)].group
            if g.is_finite and g.table is ga.table:
                generated = ga.table.closure(ga.members | gb.members)
                if g.members != generated:
                    raise LatticeError(
                        f"join of {a.label!r}, {b.label!r} is not the generated subgroup")

    # -- queries ----------------------------------------------------------------

    @property
    def bottom(self) -> int:
        return self._bottom

    @property
    def top(self) -> int:
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

    def meet(self, *ids: int) -> int:
        """The common lower bound of ``ids`` with the largest down-set."""
        return int((self.leq[:, list(ids)].all(axis=1) * self._down).argmax())

    def join(self, *ids: int) -> int:
        """The common upper bound of ``ids`` with the largest up-set."""
        return int((self.leq[list(ids)].all(axis=0) * self._up).argmax())

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
        gmax, with all their strict subnodes below it.  Such a node is not the
        bottom, so it covers one of them."""
        inv = self.leq[:, gmax]
        lt = self.leq & ~np.eye(len(self.nodes), dtype=bool)
        out = ~inv & ~(lt & ~inv[:, None]).any(axis=0)
        return set(np.flatnonzero(out).tolist())


def standard_node(group: GroupDescriptor, action: GroupAction,
                  angle_std: float | None = None) -> SubgroupNode:
    """A node carrying its kind's sampler and projection map, for a lattice
    to number.

    finite: uniform over the non-identity members with the orbit-canonical
    map (the identity map when the table has one element); s1-axis: Haar
    angles, or mean-zero Gaussian angles of spread ``angle_std``, with the
    colatitude; so3: Haar rotations with the radius; sl3: the fixed generator
    set with the non-zero indicator.
    """
    if group.is_finite:
        sampler = non_identity_sampler(group)
        if group.table.size == 1:
            projection = identity_projection(action.dim)
        else:
            projection = orbit_canonical_projection(action, elements_of(group))
    elif group.kind == S1_AXIS:
        if angle_std is None:
            sampler = SamplerSpec("haar-circle", axis=group.axis)
        else:
            sampler = SamplerSpec("gaussian-angle", axis=group.axis, std=angle_std)
        projection = colatitude_projection(group.axis)
    elif group.kind == SO3:
        sampler = SamplerSpec("haar-so3")
        projection = radial_projection(action.dim)
    else:
        sampler = uniform_sampler(default_sl3_generators())
        projection = nonzero_projection(action.dim)
    return SubgroupNode(-1, group, sampler=sampler, projection=projection)


def order_from_covers(n: int, covers: Sequence[tuple[int, int]]) -> np.ndarray:
    """The order on ``n`` nodes generated by ``(lower, upper)`` cover pairs.

    One pass in Kahn's top-down order ORs into each node's row the closed
    rows of the nodes covering it.  Nodes on or below a cycle go last, and
    the pass repeats until no row grows (``Lattice`` refuses that order)."""
    leq = np.eye(n, dtype=bool)
    uppers, lowers = [[] for _ in range(n)], [[] for _ in range(n)]
    for lo, hi in covers:
        uppers[lo].append(hi)
        lowers[hi].append(lo)
    left = [len(u) for u in uppers]
    order = [v for v in range(n) if not left[v]]
    for u in order:  # the list grows as nodes have all their uppers placed
        for v in lowers[u]:
            left[v] -= 1
            if not left[v]:
                order.append(v)
    order += [v for v in range(n) if left[v]]
    while True:
        before = np.count_nonzero(leq)
        for v in order:
            for u in uppers[v]:
                leq[v] |= leq[u]
        if not any(left) or np.count_nonzero(leq) == before:
            return leq


def lattice_from_member_sets(table, member_sets, labels, action: GroupAction) -> Lattice:
    """Build a finite lattice whose order is member-set inclusion."""
    n = len(member_sets)
    member_sets = [frozenset(s) for s in member_sets]
    if len(set(member_sets)) != n:
        raise LatticeError("duplicate subgroups in node list")
    nodes = [standard_node(GroupDescriptor(FINITE, label, table=table, members=members), action)
             for members, label in zip(member_sets, labels)]
    leq = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            leq[a, b] = member_sets[a] <= member_sets[b]
    return Lattice(nodes, leq, action)
