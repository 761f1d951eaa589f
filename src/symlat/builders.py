"""Ready-made lattices: dihedral, cyclic chains, rotation-axis families, and
brute-force subgroup lattices of small finite groups."""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import LatticeError
from .groups import (
    FINITE,
    SL3,
    SO3,
    S1_AXIS,
    TWO_PI,
    CayleyTable,
    GroupAction,
    GroupDescriptor,
    cyclic_table,
    direct_product_table,
    planar_rotation_matrix,
)
from .lattice import (
    Lattice,
    lattice_from_member_sets,
    order_from_covers,
    standard_node,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# Finite building blocks
# ---------------------------------------------------------------------------

D4_LABELS = ("e", "r90", "r180", "r270", "h", "v", "d", "a")


def d4_matrices() -> np.ndarray:
    """The eight symmetries of the square as exact 2x2 integer matrices.

    Order matches ``D4_LABELS``: identity, rotations by 90/180/270 degrees,
    reflection across the horizontal axis (x, -y), the vertical axis (-x, y),
    the main diagonal (y, x), and the anti-diagonal (-y, -x).
    """
    return np.array([
        [[1, 0], [0, 1]],
        [[0, -1], [1, 0]],
        [[-1, 0], [0, -1]],
        [[0, 1], [-1, 0]],
        [[1, 0], [0, -1]],
        [[-1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1], [-1, 0]],
    ], dtype=float)


def _table_from_matrices(mats: np.ndarray, labels: Sequence[str]) -> CayleyTable:
    n = len(mats)
    table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            prod = mats[i] @ mats[j]
            hits = [k for k in range(n) if np.array_equal(prod, mats[k])]
            if len(hits) != 1:
                raise LatticeError("matrix set is not closed under products")
            table[i, j] = hits[0]
    return CayleyTable(table, labels)


def d4_table() -> CayleyTable:
    return _table_from_matrices(d4_matrices(), D4_LABELS)


def _embed_matrices(mats: np.ndarray, dim: int) -> np.ndarray:
    """Embed k x k matrices into the top-left block of dim x dim identities."""
    k = mats.shape[1]
    if dim < k:
        raise LatticeError(f"dimension {dim} too small for {k}x{k} action")
    out = np.tile(np.eye(dim), (len(mats), 1, 1))
    out[:, :k, :k] = mats
    return out


def d4_action(dim: int = 2, table: CayleyTable | None = None) -> GroupAction:
    """D4 acting on the first two coordinates of R^dim.

    Pass the table when node descriptors must share it: finite-element
    realisation is keyed on table identity.
    """
    table = d4_table() if table is None else table
    group = GroupDescriptor(FINITE, "D4", table=table)
    return GroupAction(group, dim, matrices=_embed_matrices(d4_matrices(), dim))


def d4_pixel_action(side: int, table: CayleyTable | None = None) -> GroupAction:
    """D4 acting on flattened ``side x side`` images by pixel permutation."""
    table = d4_table() if table is None else table
    group = GroupDescriptor(FINITE, "D4", table=table)
    mats = d4_matrices()
    half = (side - 1) / 2.0
    coords = np.array([(c - half, half - r) for r in range(side) for c in range(side)])
    perms = np.empty((8, side * side), dtype=np.int64)
    for k in range(8):
        inv = np.linalg.inv(mats[k])
        src = coords @ inv.T
        cols = np.rint(src[:, 0] + half).astype(np.int64)
        rows = np.rint(half - src[:, 1]).astype(np.int64)
        perms[k] = rows * side + cols
    return GroupAction(group, side * side, perms=perms)


# ---------------------------------------------------------------------------
# Brute-force subgroup lattices
# ---------------------------------------------------------------------------

def _subgroup_label(table: CayleyTable, members: frozenset[int], top_label: str) -> str:
    ids = sorted(members)
    if members == frozenset({table.identity}):
        return "I"
    if len(members) == table.size:
        return top_label
    non_id = [i for i in ids if i != table.identity]
    for size in (1, 2, 3):
        for combo in combinations(non_id, size):
            if table.closure(combo) == members:
                return "<" + ",".join(table.labels[i] for i in combo) + ">"
    return "{" + ",".join(table.labels[i] for i in ids) + "}"


def full_subgroup_lattice(table: CayleyTable, action: GroupAction,
                          top_label: str = "G") -> Lattice:
    """All subgroups of a small finite group, ordered by inclusion."""
    if action.group.table is not table:
        raise LatticeError("the action must realise the same table instance "
                           "the nodes are built from")
    subs = table.subgroups()
    labels = [_subgroup_label(table, s, top_label) for s in subs]
    return lattice_from_member_sets(table, subs, labels, action)


def d4_lattice(dim: int = 2, action: GroupAction | None = None) -> Lattice:
    """The ten subgroups of D4 with the hand-specified cover structure.

    Node member sets and covers are written out explicitly (rather than
    enumerated), so brute-force enumeration can serve as an independent check.
    A custom ``action`` (e.g. the pixel-permutation one) may replace the
    default coordinate action; it must carry its own table.
    """
    if action is None:
        table = d4_table()
        action = d4_action(dim, table=table)
    else:
        table = action.group.table
    lab = {name: i for i, name in enumerate(D4_LABELS)}
    e, r90, r180, r270 = lab["e"], lab["r90"], lab["r180"], lab["r270"]
    h, v, d, a = lab["h"], lab["v"], lab["d"], lab["a"]
    member_sets = [
        frozenset({e}),                      # 0 I
        frozenset({e, h}),                   # 1 <h>
        frozenset({e, v}),                   # 2 <v>
        frozenset({e, r180}),                # 3 <r180>
        frozenset({e, d}),                   # 4 <d>
        frozenset({e, a}),                   # 5 <a>
        frozenset({e, h, v, r180}),          # 6 <h,r180>
        frozenset({e, r90, r180, r270}),     # 7 <r90>
        frozenset({e, d, a, r180}),          # 8 <d,r180>
        frozenset(range(8)),                 # 9 D4
    ]
    labels = ["I", "<h>", "<v>", "<r180>", "<d>", "<a>",
              "<h,r180>", "<r90>", "<d,r180>", "D4"]
    covers = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
              (1, 6), (2, 6), (3, 6),
              (3, 7), (3, 8), (4, 8), (5, 8),
              (6, 9), (7, 9), (8, 9)]
    nodes = [standard_node(GroupDescriptor(FINITE, lbl, table=table, members=s), action)
             for s, lbl in zip(member_sets, labels)]
    return Lattice(nodes, order_from_covers(len(nodes), covers), action)


def d4_pixel_lattice(side: int) -> Lattice:
    """The D4 lattice acting on flattened ``side x side`` images."""
    return d4_lattice(action=d4_pixel_action(side))


def cyclic_chain_lattice(orders: Sequence[int], dim: int = 2,
                         plane: tuple[int, int] = (0, 1)) -> Lattice:
    """Chain of cyclic rotation groups C_k acting in one coordinate plane.

    ``orders`` must be ascending with each order dividing the next; order 1
    (the trivial group) is prepended when missing.
    """
    orders = [int(k) for k in orders]
    if not orders:
        raise LatticeError("need at least one cyclic order")
    if orders[0] != 1:
        orders = [1] + orders
    for small, big in zip(orders, orders[1:]):
        if big <= small or big % small:
            raise LatticeError(f"orders must be ascending divisors, got {orders}")
    if max(plane) >= dim:
        raise LatticeError(f"dimension {dim} too small for rotations in plane {plane}")
    top = orders[-1]
    table = cyclic_table(top)
    mats = [planar_rotation_matrix(a, plane, dim) for a in TWO_PI * np.arange(top) / top]
    group = GroupDescriptor(FINITE, f"C{top}", table=table)
    action = GroupAction(group, dim, matrices=mats)
    member_sets = [frozenset(range(0, top, top // k)) for k in orders]
    labels = ["I" if k == 1 else f"C{k}" for k in orders]
    return lattice_from_member_sets(table, member_sets, labels, action)


def c2xc2_lattice(dim: int = 2) -> Lattice:
    """Subgroup lattice of C2 x C2 acting by coordinate sign flips on R^dim."""
    table = direct_product_table(cyclic_table(2, ["0", "1"]),
                                 cyclic_table(2, ["0", "1"]))
    group = GroupDescriptor(FINITE, "C2xC2", table=table)
    flips = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    mats = _embed_matrices(np.stack([np.diag(f) for f in flips]), dim)
    action = GroupAction(group, dim, matrices=mats)
    return full_subgroup_lattice(table, action, "C2xC2")


# ---------------------------------------------------------------------------
# Rotation-axis lattices
# ---------------------------------------------------------------------------

def icosahedral_axes() -> np.ndarray:
    """The six axes through opposite vertex pairs of a regular icosahedron."""
    raw = np.array([
        [0.0, 1.0, GOLDEN], [0.0, -1.0, GOLDEN],
        [1.0, GOLDEN, 0.0], [-1.0, GOLDEN, 0.0],
        [GOLDEN, 0.0, 1.0], [GOLDEN, 0.0, -1.0],
    ])
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _axes_lattice(axes: np.ndarray, angle_std: float | None,
                  chain: Sequence[str]) -> Lattice:
    """Trivial group, one circle group per axis, then the continuous groups
    of ``chain`` (kinds, SO3 first), each covering the one before.

    ``angle_std`` switches the circle-group samplers from Haar to mean-zero
    Gaussian angles (biasing small rotations).  Axes must be unit and pairwise
    non-collinear.  Every node acts through SO(3)'s matrix action on R^3.
    """
    axes = np.asarray(axes, dtype=float)
    if axes.ndim != 2 or axes.shape[1] != 3 or len(axes) == 0:
        raise LatticeError("axes must be a non-empty (k, 3) array")
    norms = np.linalg.norm(axes, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise LatticeError("axes must be unit vectors")
    k = len(axes)
    step = max(1, (1 << 16) // k)   # row blocks bound the K x K products
    for s in range(0, k, step):
        pairs = np.argwhere(np.triu(np.abs(axes[s:s + step] @ axes.T) > 1.0 - 1e-9, k=s + 1))
        if len(pairs):
            i, j = pairs[0]
            raise LatticeError(f"axes {s + i} and {j} are collinear (duplicate node)")
    upper = [GroupDescriptor(kind, kind.upper()) for kind in chain]
    action = GroupAction(upper[0], 3)
    groups = ([GroupDescriptor(FINITE, "I", table=cyclic_table(1, ["e"]))]
              + [GroupDescriptor(S1_AXIS, f"S1_u{i + 1}", axis=u) for i, u in enumerate(axes)]
              + upper)
    nodes = [standard_node(g, action, angle_std=angle_std) for g in groups]
    circles = range(1, k + 1)
    covers = ([(0, i) for i in circles] + [(i, k + 1) for i in circles]
              + [(i, i + 1) for i in range(k + 1, len(groups) - 1)])
    return Lattice(nodes, order_from_covers(len(groups), covers), action)


def so3_axes_lattice(axes: np.ndarray, angle_std: float | None = None) -> Lattice:
    """Trivial group, one circle group per axis, and SO(3) on top; see
    ``_axes_lattice`` for ``angle_std`` and the axis checks."""
    return _axes_lattice(axes, angle_std, [SO3])


def sl3_extended_lattice(axes: np.ndarray | None = None,
                         angle_std: float | None = None) -> Lattice:
    """The SO(3) axis lattice (icosahedral axes by default) with SL(3, R)
    directly above SO(3)."""
    if axes is None:
        axes = icosahedral_axes()
    return _axes_lattice(axes, angle_std, [SO3, SL3])
