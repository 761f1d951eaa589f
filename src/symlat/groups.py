"""Group elements, descriptors, actions on feature vectors, and samplers.

A group element is either a ``FiniteElement``, an index into a Cayley table,
or a ``MatrixElement``, a square real matrix with determinant 1.  Finite
groups are stored as explicit Cayley tables with labelled elements.
Subgroups of a finite group are index sets into the ambient table.  Every
continuous group (a circle about an axis, SO(3), SL(3)) acts on R^3 by its
elements' matrices.  Products of rotations are re-orthonormalised once
numerical drift exceeds ``ORTHO_TOL``; other matrix products are rescaled to
determinant 1.

An action realises an element through one lookup: a permutation action
(one given ``perms``) as a coordinate permutation, any other action as a
matrix.  One mover applies a realisation, or one per row, to feature rows:
a gather for permutations, one einsum for matrices.  So a row moves to the
same bits alone or in a batch.

There are four sampler kinds: uniform over a support of elements (a
one-element support is a point mass), Haar on a circle about an axis,
Gaussian angles about an axis, and Haar on SO(3).  Samplers draw an
``ElementBatch``: one parameter array for all draws (support positions,
circle angles or a rotation stack), applied to feature rows as a whole.
Indexing a batch builds its scalar elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    IncompatibleElementsError,
    InvalidGroupError,
    NotFiniteError,
)

ORTHO_TOL = 1e-9
DET_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Cayley tables
# ---------------------------------------------------------------------------

class CayleyTable:
    """A finite group as an ``N x N`` index table with labelled elements.

    ``table[i, j]`` is the index of the product ``g_i g_j``.  Validation
    checks the identity row/column, that every row and column is a
    permutation, and (exhaustively, for ``N <= 64``) associativity.
    """

    def __init__(self, table: np.ndarray, labels: Sequence[str] | None = None):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise InvalidGroupError(f"Cayley table must be square, got {table.shape}")
        n = table.shape[0]
        if n == 0:
            raise InvalidGroupError("empty Cayley table")
        if table.min() < 0 or table.max() >= n:
            raise InvalidGroupError("Cayley table entries out of range")
        if labels is None:
            labels = tuple(f"g{i}" for i in range(n))
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise InvalidGroupError("label count does not match table size")
        self.table = table
        self.table.setflags(write=False)
        self.labels = labels
        self.size = n
        self.identity = self._find_identity()
        self._validate_latin_square()
        if n <= 64:
            self._validate_associativity()

    def _find_identity(self) -> int:
        rng = np.arange(self.size)
        hits = [e for e in range(self.size)
                if np.array_equal(self.table[e], rng) and np.array_equal(self.table[:, e], rng)]
        if len(hits) != 1:
            raise InvalidGroupError(f"table has {len(hits)} identity candidates")
        return hits[0]

    def _validate_latin_square(self) -> None:
        rng = np.arange(self.size)
        if not (np.array_equal(np.sort(self.table, axis=1), np.tile(rng, (self.size, 1)))
                and np.array_equal(np.sort(self.table, axis=0), np.tile(rng[:, None], (1, self.size)))):
            raise InvalidGroupError("each Cayley-table row/column must be a permutation")

    def _validate_associativity(self) -> None:
        t = self.table
        left = t[t]                    # left[i, j, k] = t[t[i, j], k]
        right = t[:, t]                # right[i, j, k] = t[i, t[j, k]]
        if not np.array_equal(left, right):
            raise InvalidGroupError("Cayley table is not associative")

    def product(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inverse(self, i: int) -> int:
        return int(np.flatnonzero(self.table[i] == self.identity)[0])

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Smallest subgroup containing ``seed`` (closure under products).

        For finite groups closure under the product alone already yields a
        subgroup, since powers of each element cycle through its inverse.
        """
        members = set(seed)
        members.add(self.identity)
        while True:
            idx = np.fromiter(members, dtype=np.int64)
            prods = set(self.table[np.ix_(idx, idx)].ravel().tolist())
            if prods <= members:
                return frozenset(members)
            members |= prods

    def is_subgroup(self, members: Iterable[int]) -> bool:
        ms = frozenset(members)
        return bool(ms) and self.closure(ms) == ms

    def subgroups(self) -> list[frozenset[int]]:
        """All subgroups, by incremental closure (intended for ``N <= 64``)."""
        if self.size > 64:
            raise NotFiniteError("brute-force subgroup enumeration is limited to order <= 64")
        trivial = frozenset({self.identity})
        known = {trivial}
        frontier = [trivial]
        while frontier:
            sub = frontier.pop()
            for g in range(self.size):
                if g in sub:
                    continue
                bigger = self.closure(sub | {g})
                if bigger not in known:
                    known.add(bigger)
                    frontier.append(bigger)
        return sorted(known, key=lambda s: (len(s), sorted(s)))


def cyclic_table(n: int, labels: Sequence[str] | None = None) -> CayleyTable:
    """Cyclic group of order ``n``: element ``i`` is the i-th power of the generator."""
    if n < 1:
        raise InvalidGroupError("cyclic group order must be >= 1")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    if labels is None:
        labels = ["e"] + [f"r{i}" for i in range(1, n)]
    return CayleyTable(table, labels)


def direct_product_table(a: CayleyTable, b: CayleyTable) -> CayleyTable:
    """Direct product; element ``i * |b| + j`` is the pair ``(a_i, b_j)``."""
    na, nb = a.size, b.size
    table = np.empty((na * nb, na * nb), dtype=np.int64)
    for i in range(na):
        for j in range(nb):
            row = a.table[i][:, None] * nb + b.table[j][None, :]
            table[i * nb + j] = row.ravel()
    labels = [f"({la},{lb})" for la in a.labels for lb in b.labels]
    return CayleyTable(table, labels)


# ---------------------------------------------------------------------------
# Group elements
# ---------------------------------------------------------------------------

def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _unit_axis(axis) -> np.ndarray:
    axis = _readonly(axis)
    if axis.shape != (3,) or abs(np.linalg.norm(axis) - 1.0) > 1e-9:
        raise InvalidGroupError(f"axis {axis} is not a unit 3-vector")
    return axis


@dataclass(frozen=True, eq=False)
class FiniteElement:
    """An element of a finite group, identified by its Cayley-table index."""
    table: CayleyTable
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.table.size:
            raise InvalidGroupError(f"element index {self.index} out of range")

    @property
    def label(self) -> str:
        return self.table.labels[self.index]

    def __repr__(self) -> str:
        return f"FiniteElement({self.label!r})"


@dataclass(frozen=True, eq=False)
class MatrixElement:
    """An element of a continuous group: a square real matrix with
    determinant 1, acting on feature vectors by multiplication."""
    matrix: np.ndarray

    def __post_init__(self):
        m = _readonly(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidGroupError(f"matrix element must be square, got {m.shape}")
        if abs(np.linalg.det(m) - 1.0) > DET_TOL:
            raise InvalidGroupError("matrix element must have determinant 1")
        object.__setattr__(self, "matrix", m)


GroupElement = Union[FiniteElement, MatrixElement]


def _is_rotation(m: np.ndarray, tol: float = ORTHO_TOL) -> bool:
    return bool(np.max(np.abs(m.T @ m - np.eye(len(m)))) <= tol)


def _axis_rotations(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues' formula for each angle: an (m, 3, 3) stack."""
    ux, uy, uz = axis
    k = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    s, c = np.sin(angles)[:, None, None], (1.0 - np.cos(angles))[:, None, None]
    return np.eye(3) + s * k + c * (k @ k)


def planar_rotation_matrix(angle: float, plane: tuple[int, int], dim: int) -> np.ndarray:
    i, j = plane
    if max(i, j) >= dim:
        raise DimensionMismatchError(f"plane {plane} does not fit in dimension {dim}")
    m = np.eye(dim)
    c, s = math.cos(angle), math.sin(angle)
    m[i, i] = c
    m[i, j] = -s
    m[j, i] = s
    m[j, j] = c
    return m


def _reorthonormalize(m: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (polar factor via SVD)."""
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product ``ab``.

    Finite elements multiply through their shared table.  A product of two
    rotation matrices is re-orthonormalised once drift exceeds ``ORTHO_TOL``;
    any other matrix product is rescaled to determinant 1 once its
    determinant drifts past ``DET_TOL``.
    """
    if isinstance(a, FiniteElement) and isinstance(b, FiniteElement):
        if a.table is not b.table:
            raise IncompatibleElementsError("finite elements from different Cayley tables")
        return FiniteElement(a.table, a.table.product(a.index, b.index))
    if isinstance(a, MatrixElement) and isinstance(b, MatrixElement):
        if a.matrix.shape != b.matrix.shape:
            raise DimensionMismatchError("matrix elements of different sizes")
        m = a.matrix @ b.matrix
        if _is_rotation(a.matrix) and _is_rotation(b.matrix) and not _is_rotation(m):
            m = _reorthonormalize(m)
        det = np.linalg.det(m)
        if abs(det - 1.0) > DET_TOL:
            m = m / abs(det) ** (1.0 / len(m))
        return MatrixElement(m)
    raise IncompatibleElementsError(
        f"cannot compose {type(a).__name__} with {type(b).__name__}")


def inverse(g: GroupElement) -> GroupElement:
    if isinstance(g, FiniteElement):
        return FiniteElement(g.table, g.table.inverse(g.index))
    return MatrixElement(np.linalg.inv(g.matrix))


# ---------------------------------------------------------------------------
# Group descriptors
# ---------------------------------------------------------------------------

FINITE = "finite"
S1_AXIS = "s1-axis"
SO3 = "so3"
SL3 = "sl3"


@dataclass(frozen=True, eq=False)
class GroupDescriptor:
    """A (sub)group: either a member set of a Cayley table or a parametrised
    continuous family (circle group about an axis, SO(3) or SL(3))."""

    kind: str
    label: str
    table: CayleyTable | None = None
    members: frozenset[int] | None = None
    axis: np.ndarray | None = None      # s1-axis kind: a unit 3-vector

    def __post_init__(self):
        if self.kind == FINITE:
            if self.table is None:
                raise InvalidGroupError("finite descriptor requires a Cayley table")
            members = self.members
            if members is None:
                members = frozenset(range(self.table.size))
            else:
                members = frozenset(int(i) for i in members)
                outside = [i for i in sorted(members) if not 0 <= i < self.table.size]
                if outside:
                    raise InvalidGroupError(
                        f"member index {outside[0]} of {self.label!r} is outside its "
                        f"{self.table.size}-element table")
                if not self.table.is_subgroup(members):
                    raise InvalidGroupError(
                        f"member set {sorted(members)} is not a subgroup of {self.label!r}")
            object.__setattr__(self, "members", members)
        elif self.kind == S1_AXIS:
            if self.axis is None:
                raise InvalidGroupError("s1-axis descriptor requires an axis")
            object.__setattr__(self, "axis", _unit_axis(self.axis))
        elif self.kind not in (SO3, SL3):
            raise InvalidGroupError(f"unknown group kind {self.kind!r}")

    # -- basic structure ----------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise NotFiniteError(f"{self.label!r} is not a finite group")
        return len(self.members)

    def identity_element(self) -> GroupElement:
        if self.is_finite:
            return FiniteElement(self.table, self.table.identity)
        return MatrixElement(np.eye(3))

    # -- membership ----------------------------------------------------------

    def contains(self, g: GroupElement, action: "GroupAction | None" = None,
                 tol: float = MEMBERSHIP_TOL) -> bool:
        """Whether a sampled element lies in this subgroup.

        Finite elements of the same table are decided by index-set inclusion;
        other elements of a finite group are compared with each member's
        realisation under ``action`` within ``tol``.  SL(3) holds every 3x3
        matrix element, SO(3) the orthogonal ones within ``tol``, and a circle
        group the orthogonal ones that fix its axis within ``tol``.
        """
        if self.kind == FINITE:
            if isinstance(g, FiniteElement) and g.table is self.table:
                return g.index in self.members
            if action is not None:
                return any(_realizations_match(action, FiniteElement(self.table, i), g, tol)
                           for i in sorted(self.members))
            raise IncompatibleElementsError(
                "membership of a non-table element in a finite group needs the ambient action")
        if not isinstance(g, MatrixElement) or g.matrix.shape != (3, 3):
            return False
        if self.kind == SL3:
            return True
        if not _is_rotation(g.matrix, tol):
            return False
        return self.kind == SO3 or bool(np.linalg.norm(g.matrix @ self.axis - self.axis) <= tol)


def default_sl3_generators() -> tuple[GroupElement, ...]:
    """Fixed volume-preserving squeezes and a shear.

    Together with their inverses these generate a dense subgroup of SL(3);
    uniform sampling over them is the usual generator-set sampling strategy
    for a group with no invariant probability measure.
    """
    return (
        MatrixElement(np.diag([1.5, 1.0 / 1.5, 1.0])),
        MatrixElement(np.diag([1.0, 1.5, 1.0 / 1.5])),
        MatrixElement(np.array([[1.0, 0.75, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
        MatrixElement(np.diag([1.0 / 1.5, 1.5, 1.0])),
        MatrixElement(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -0.75], [0.0, 0.0, 1.0]])),
    )


def elements_of(group: GroupDescriptor) -> list[GroupElement]:
    """All elements of a finite group, each exactly once, in index order."""
    if not group.is_finite:
        raise NotFiniteError(f"{group.label!r} has infinitely many elements")
    return [FiniteElement(group.table, i) for i in sorted(group.members)]


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GroupAction:
    """How group elements transform feature vectors in R^dim.

    An action with ``perms`` is a permutation action: it realises each finite
    element of its table by a coordinate permutation.  Any other action is a
    matrix action: it realises a finite element by its ``matrices`` entry and
    a matrix element by its own matrix, so a continuous group's action needs
    neither table.  The element of a one-element table acts as the identity
    under either.  Distinct actions of the same abstract group are just
    distinct realisation tables.
    """

    group: GroupDescriptor
    dim: int
    matrices: np.ndarray | None = None      # (N, dim, dim), indexed by table index
    perms: np.ndarray | None = None         # (N, dim) int, indexed by table index

    def __post_init__(self):
        if self.matrices is not None and self.perms is not None:
            raise InvalidGroupError("an action realises its elements by matrices "
                                    "or by permutations, not both")
        if self.matrices is not None:
            m = np.array(self.matrices, dtype=float)
            if m.shape != (self.group.table.size, self.dim, self.dim):
                raise DimensionMismatchError("matrix realisation has wrong shape")
            m.setflags(write=False)
            object.__setattr__(self, "matrices", m)
        if self.perms is not None:
            p = np.array(self.perms, dtype=np.int64)
            if p.shape != (self.group.table.size, self.dim):
                raise DimensionMismatchError("permutation realisation has wrong shape")
            p.setflags(write=False)
            object.__setattr__(self, "perms", p)


def _realize(action: GroupAction, g: GroupElement) -> np.ndarray:
    """The dim x dim matrix by which ``g`` acts, or its coordinate
    permutation under a permutation action."""
    d = action.dim
    if isinstance(g, MatrixElement):
        if action.perms is not None:
            raise IncompatibleElementsError(f"{g!r} has no permutation realisation")
        if g.matrix.shape != (d, d):
            raise DimensionMismatchError(f"{len(g.matrix)}x{len(g.matrix)} matrix element "
                                         f"in a {d}-d action")
        return g.matrix
    if g.table.size == 1:
        return np.eye(d) if action.perms is None else np.arange(d)
    table = action.matrices if action.perms is None else action.perms
    if table is not None and g.table is action.group.table:
        return table[g.index]
    raise IncompatibleElementsError(f"finite element {g!r} has no realisation under this action")


def _move(action: GroupAction, realized: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Move ``rows`` by one realisation from ``_realize`` or by one per row."""
    if action.perms is not None:
        if realized.dtype.kind != "i":
            raise IncompatibleElementsError("matrix draws have no permutation realisation")
        return rows[np.arange(len(rows))[:, None], realized]
    try:
        return np.einsum("...ij,...j->...i", realized, rows)
    except ValueError:      # continuous draws' matrices that do not fit the rows
        raise DimensionMismatchError(f"{realized.shape[-1]}x{realized.shape[-1]} matrix "
                                     f"elements in a {action.dim}-d action") from None


def _realizations_match(action: GroupAction, a: GroupElement, b: GroupElement,
                        tol: float) -> bool:
    try:
        ra, rb = _realize(action, a), _realize(action, b)
    except (IncompatibleElementsError, DimensionMismatchError):
        return False
    return bool(np.max(np.abs(ra - rb)) <= tol)


def act(action: GroupAction, g: GroupElement, x: np.ndarray) -> np.ndarray:
    """Apply ``g`` to a single feature vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (action.dim,):
        raise DimensionMismatchError(f"expected vector of dimension {action.dim}, got {x.shape}")
    return apply_to_rows(action, g, x[None, :])[0]


def apply_to_rows(action: GroupAction, g: GroupElement, rows: np.ndarray) -> np.ndarray:
    """Apply one element to every row of an (m, dim) array."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != action.dim:
        raise DimensionMismatchError(f"expected rows of dimension {action.dim}")
    return _move(action, _realize(action, g), rows)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

UNIFORM = "uniform"
HAAR_CIRCLE = "haar-circle"
HAAR_SO3 = "haar-so3"
GAUSSIAN_ANGLE = "gaussian-angle"


@dataclass(frozen=True, eq=False)
class SamplerSpec:
    """A distribution over group elements; the random source is caller-owned.

    ``elements`` is the support of a uniform sampler and empty for the other
    kinds.  A support holds finite elements of one table or matrix elements
    of one size; a one-element support is a point mass.  Circle samplers
    rotate about the unit 3-vector ``axis``.
    """

    kind: str
    elements: tuple[GroupElement, ...] = ()
    axis: np.ndarray | None = None
    std: float = 0.0

    def __post_init__(self):
        if self.kind == UNIFORM:
            if not self.elements:
                raise InvalidGroupError("uniform sampler needs a non-empty element list")
            # a table compares by identity, a matrix size by value
            kinds = [g.table if isinstance(g, FiniteElement) else g.matrix.shape
                     for g in self.elements]
            if any(k != kinds[0] for k in kinds):
                raise InvalidGroupError("a sampler's support must hold finite elements of "
                                        "one table or matrix elements of one size")
        elif self.kind in (HAAR_CIRCLE, GAUSSIAN_ANGLE):
            if self.axis is None:
                raise InvalidGroupError(f"{self.kind} sampler needs an axis")
            object.__setattr__(self, "axis", _unit_axis(self.axis))
            if self.kind == GAUSSIAN_ANGLE and not self.std > 0:
                raise InvalidGroupError("gaussian-angle sampler needs std > 0")
        elif self.kind != HAAR_SO3:
            raise InvalidGroupError(f"unknown sampler kind {self.kind!r}")


def uniform_sampler(elements: Iterable[GroupElement]) -> SamplerSpec:
    return SamplerSpec(UNIFORM, elements=tuple(elements))


def non_identity_sampler(group: GroupDescriptor) -> SamplerSpec:
    """Uniform over the non-identity elements of a finite group; the trivial
    group's sampler draws its identity."""
    els = [g for g in elements_of(group) if g.index != group.table.identity]
    return uniform_sampler(els or [group.identity_element()])


def _quaternions_to_matrices(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((q.shape[0], 3, 3))
    out[:, 0, 0] = 1 - 2 * (y * y + z * z)
    out[:, 0, 1] = 2 * (x * y - w * z)
    out[:, 0, 2] = 2 * (x * z + w * y)
    out[:, 1, 0] = 2 * (x * y + w * z)
    out[:, 1, 1] = 1 - 2 * (x * x + z * z)
    out[:, 1, 2] = 2 * (y * z - w * x)
    out[:, 2, 0] = 2 * (x * z - w * y)
    out[:, 2, 1] = 2 * (y * z + w * x)
    out[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return out


@dataclass(frozen=True, eq=False)
class ElementBatch(Sequence):
    """Draws of one sampler as one parameter array.

    ``params`` holds positions in the support of a uniform sampler, angles
    of a circle sampler about its axis, or the ``(m, 3, 3)`` stack of a
    ``haar-so3`` sampler.  Indexing or iterating builds the scalar
    elements, once, on first use.
    """

    spec: SamplerSpec
    params: np.ndarray

    @classmethod
    def concat(cls, batches: Sequence["ElementBatch"]) -> "ElementBatch":
        """The draws of several batches of one sampler, in order, as one batch."""
        spec = batches[0].spec
        if any(b.spec is not spec for b in batches):
            raise InvalidGroupError("only batches of one sampler can be joined")
        return cls(spec, np.concatenate([b.params for b in batches]))

    def __len__(self) -> int:
        return len(self.params)

    def __getitem__(self, k):
        return self._drawn[k]

    @cached_property
    def _drawn(self) -> list[GroupElement]:
        if self.spec.elements:
            return [self.spec.elements[i] for i in self.params.tolist()]
        return [MatrixElement(m) for m in self._matrices()]

    def _matrices(self) -> np.ndarray:
        """The ``(m, 3, 3)`` stack of a circle or ``haar-so3`` batch's matrices."""
        if self.spec.kind == HAAR_SO3:
            return self.params
        return _axis_rotations(self.spec.axis, self.params)


def apply_elements(action: GroupAction, elements: ElementBatch,
                   rows: np.ndarray) -> np.ndarray:
    """Apply ``elements[k]`` to ``rows[k]`` for each k (the sampling hot path).

    A support's elements are realised once each and gathered by the batch's
    positions; circle and ``haar-so3`` draws carry their own matrices.  Both
    move the rows through ``apply_to_rows``' mover, so a row moves to the
    same bits on either path.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape != (len(elements), action.dim):
        raise DimensionMismatchError(f"expected one row of dimension {action.dim} per element")
    support = elements.spec.elements
    if support:
        realized = np.stack([_realize(action, g) for g in support])[elements.params]
    else:
        realized = elements._matrices()
    return _move(action, realized, rows)


def sample_elements(spec: SamplerSpec, rng: np.random.Generator, m: int) -> ElementBatch:
    """Draw ``m`` elements as one batch.  All randomness flows through ``rng``
    in a fixed order, so a seed pins the whole stream."""
    if m < 0:
        raise InvalidGroupError("sample count must be non-negative")
    if spec.elements:   # a one-position range consumes no randomness
        return ElementBatch(spec, rng.integers(0, len(spec.elements), size=m))
    if spec.kind == HAAR_SO3:
        q = rng.normal(size=(m, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        return ElementBatch(spec, _quaternions_to_matrices(q))
    if spec.kind == HAAR_CIRCLE:
        return ElementBatch(spec, rng.uniform(0.0, TWO_PI, size=m))
    return ElementBatch(spec, rng.normal(0.0, spec.std, size=m))
