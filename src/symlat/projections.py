"""Quotient projections: invariant coordinates for a subgroup's orbits.

Each map sends a feature vector to coordinates that are constant on the
orbits of its group, so fitting a regressor on projected features makes the
fit invariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidGroupError
from .groups import GroupAction, GroupElement, apply_to_rows

IDENTITY = "identity"
RADIAL = "radial"
NONZERO = "nonzero"
COLATITUDE = "colatitude"
ORBIT_CANONICAL = "orbit-canonical"

ZERO_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ProjectionMap:
    """A map x -> invariant representative coordinates.

    Kinds: ``identity`` (x itself), ``radial`` (Euclidean norm), ``nonzero``
    (indicator of x != 0 at tolerance 1e-12), ``colatitude`` (angle from a
    fixed axis plus the radius, invariant to rotations about that axis), and
    ``orbit-canonical`` (lexicographically minimal element of a finite orbit).
    """

    kind: str
    input_dim: int
    axis: np.ndarray | None = None
    action: GroupAction | None = None
    elements: tuple[GroupElement, ...] = ()

    def __post_init__(self):
        if self.kind == COLATITUDE:
            if self.axis is None:
                raise InvalidGroupError("colatitude projection requires an axis")
            axis = np.array(self.axis, dtype=float)
            axis.setflags(write=False)
            object.__setattr__(self, "axis", axis)
            if axis.shape != (self.input_dim,):
                raise DimensionMismatchError("axis dimension mismatch")
        if self.kind == ORBIT_CANONICAL and (self.action is None or not self.elements):
            raise InvalidGroupError("orbit-canonical projection requires an action and elements")

    def apply(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project rows of ``X``; returns ``(projected, valid_mask)``.

        Only the colatitude map can mark rows invalid (the zero vector has no
        direction).  Invalid rows still receive a deterministic placeholder
        so prediction-time callers can proceed.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DimensionMismatchError(
                f"expected rows of dimension {self.input_dim}, got {X.shape}")
        n = X.shape[0]
        valid = np.ones(n, dtype=bool)
        if self.kind == IDENTITY:
            return X.copy(), valid
        if self.kind == RADIAL:
            return np.linalg.norm(X, axis=1)[:, None], valid
        if self.kind == NONZERO:
            nz = (np.max(np.abs(X), axis=1) > ZERO_TOL).astype(float)
            return nz[:, None], valid
        if self.kind == COLATITUDE:
            r = np.linalg.norm(X, axis=1)
            valid = r > ZERO_TOL
            cosang = np.zeros(n)
            np.divide(X @ self.axis, r, out=cosang, where=valid)
            ang = np.arccos(np.clip(cosang, -1.0, 1.0))
            ang[~valid] = 0.0
            return np.column_stack([ang, r]), valid
        if self.kind == ORBIT_CANONICAL:
            return _orbit_lex_min(self.action, self.elements, X), valid
        raise InvalidGroupError(f"unknown projection kind {self.kind!r}")


def _lex_less_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic a < b."""
    neq = a != b
    any_neq = neq.any(axis=1)
    first = np.where(any_neq, neq.argmax(axis=1), 0)
    rows = np.arange(a.shape[0])
    return any_neq & (a[rows, first] < b[rows, first])


def _orbit_lex_min(action: GroupAction, elements: Sequence[GroupElement],
                   X: np.ndarray) -> np.ndarray:
    best = X.copy()
    for g in elements:
        cand = apply_to_rows(action, g, X)
        take = _lex_less_rows(cand, best)
        if take.any():
            best[take] = cand[take]
    return best


def identity_projection(dim: int) -> ProjectionMap:
    return ProjectionMap(IDENTITY, dim)


def radial_projection(dim: int) -> ProjectionMap:
    return ProjectionMap(RADIAL, dim)


def nonzero_projection(dim: int) -> ProjectionMap:
    return ProjectionMap(NONZERO, dim)


def colatitude_projection(axis: np.ndarray) -> ProjectionMap:
    axis = np.asarray(axis, dtype=float)
    return ProjectionMap(COLATITUDE, axis.shape[0], axis=axis)


def orbit_canonical_projection(action: GroupAction,
                               elements: Sequence[GroupElement]) -> ProjectionMap:
    return ProjectionMap(ORBIT_CANONICAL, action.dim, action=action,
                         elements=tuple(elements))
