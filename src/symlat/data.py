"""Regression datasets and the nearest-neighbour index."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, DimensionMismatchError


@dataclass(frozen=True, eq=False)
class RegressionDataset:
    """Paired features (n x d) and responses (n,), all finite."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2:
            raise DataError("features must be a 2-d array")
        if Y.shape != (X.shape[0],):
            raise DataError("responses must be one value per feature row")
        if X.shape[0] < 2:
            raise DataError("need at least two observations")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise DataError("features and responses must be finite")
        X = X.copy()
        Y = Y.copy()
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def head_split(self, k: int) -> tuple["RegressionDataset", "RegressionDataset"]:
        """First k rows and the remaining rows, as two datasets."""
        if not 2 <= k <= self.n - 2:
            raise DataError(f"split point {k} leaves too few rows on one side")
        return (RegressionDataset(self.X[:k], self.Y[:k]),
                RegressionDataset(self.X[k:], self.Y[k:]))


_CHUNK_FLOATS = 1 << 20
_SAME_POINT_RTOL = 1e-9


def _sq_dists(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """float64 squared Euclidean distances along the last axis.

    Every caller reduces through the same 2-d ``einsum``, so equal distances
    come out bit-equal wherever they are computed.
    """
    diffs = points - query
    flat = diffs.reshape(-1, diffs.shape[-1])
    return np.einsum("ij,ij->i", flat, flat).reshape(diffs.shape[:-1])


class NeighborIndex:
    """k-d tree over feature rows whose queries match a brute-force scan.

    Queries return exactly the argmin of float64 squared Euclidean distance,
    with ties broken by the smallest row index: the tree supplies the nearest
    distance, candidates within a hair of it are re-scored exactly, and the
    lowest qualifying index wins.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise DataError("index needs a non-empty 2-d point array")
        self._points = points
        self._tree = cKDTree(points)

    @classmethod
    def from_dataset(cls, data: RegressionDataset) -> "NeighborIndex":
        return cls(data.X)

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    def query_many(self, queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"queries must be (m, {self.dim}), got {queries.shape}")
        # the second-nearest distance shows which rows may hold a tie; only
        # those go through the exact re-scoring
        dist, idx = self._tree.query(queries, k=2)
        out = idx[:, 0].astype(np.int64)
        radii = dist[:, 0] * (1.0 + 1e-9) + 1e-300
        tied = np.flatnonzero(dist[:, 1] <= radii)
        if tied.size:
            pts = self._points
            cand_lists = self._tree.query_ball_point(queries[tied], radii[tied])
            for row, cands in zip(tied, cand_lists):
                cands = sorted(cands)
                sq = _sq_dists(pts[cands], queries[row])
                out[row] = cands[int(np.argmin(sq))]
        return out

    def ranked(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Each query's nearest indexed points away from its own location.

        Row r lists up to ``k`` indexed points by float64 squared distance to
        query r, then by index.  -1 replaces every point at the query's own
        location (within ``_SAME_POINT_RTOL`` of the query's norm, so rounding
        in a group action does not tell a transformed row from the row it
        lands on) and every entry from the first one that a point left out
        could precede.  So the first entry of row r that lies in a subset of
        the points is that subset's nearest point away from query r, lowest
        index on ties, and with ``k`` at least the number of points no row
        misses one.
        """
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"queries must be (m, {self.dim}), got {queries.shape}")
        n = self._points.shape[0]
        k = min(k, n)
        if k < n:
            dist, idx = self._tree.query(queries, k=k)
            dist = dist.reshape(len(queries), k)
            idx = idx.reshape(len(queries), k).astype(np.int64)
        else:
            # every point is listed, so the sort below alone fixes the order
            idx = np.broadcast_to(np.arange(n), (len(queries), n))
        sq = np.empty(idx.shape)
        step = max(1, _CHUNK_FLOATS // (k * self.dim))   # bounds the gathered block
        for s in range(0, len(queries), step):
            sq[s:s + step] = _sq_dists(self._points[idx[s:s + step]],
                                       queries[s:s + step, None, :])
        order = np.lexsort((idx, sq), axis=-1)
        idx = np.take_along_axis(idx, order, axis=-1)
        sq = np.take_along_axis(sq, order, axis=-1)
        if k < n:
            # every point left out is at least the last tree distance away
            idx[sq >= dist[:, -1:] ** 2 * (1.0 - 1e-9)] = -1
        idx[sq <= _SAME_POINT_RTOL ** 2 * _sq_dists(queries, 0.0)[:, None]] = -1
        return idx
