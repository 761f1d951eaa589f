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
    with ties broken by the smallest row index: the tree supplies nearest
    distances, and ``nearest_among`` settles near-ties and the nearest point
    of a subset by one masked argmin over exact distances.  Points whose
    squared distances could overflow raise ``DataError``.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise DataError("index needs a non-empty 2-d point array")
        self._points = points
        self._tree = cKDTree(self._checked(points))

    def _checked(self, rows: np.ndarray) -> np.ndarray:
        rows, d = np.asarray(rows, dtype=float), self._points.shape[1]
        if rows.ndim != 2 or rows.shape[1] != d:
            raise DimensionMismatchError(f"queries must be (m, {d}), got {rows.shape}")
        # below an eighth of the largest float no squared distance overflows
        if _sq_dists(rows, 0.0).max(initial=0.0) >= np.finfo(float).max / 8:
            raise DataError("features too large: their squared distances overflow float64")
        return rows

    def _cand_sq(self, queries: np.ndarray, cands: np.ndarray) -> np.ndarray:
        """Squared distances from each query to its candidates, a bounded block at a time."""
        sq = np.empty(cands.shape)
        step = max(1, _CHUNK_FLOATS // (cands.shape[1] * self._points.shape[1]))
        for s in range(0, len(queries), step):
            sq[s:s + step] = _sq_dists(self._points[cands[s:s + step]],
                                       queries[s:s + step, None, :])
        return sq

    def query_many(self, queries: np.ndarray) -> np.ndarray:
        queries = self._checked(queries)
        # a row whose two nearest distances nearly tie re-scores its near ball
        dist, idx = self._tree.query(queries, k=2)
        out = idx[:, 0].astype(np.int64)
        radii = dist[:, 0] * (1.0 + 1e-9) + 1e-300
        tied = np.flatnonzero(dist[:, 1] <= radii)
        if tied.size:
            balls = self._tree.query_ball_point(queries[tied], radii[tied], return_sorted=True)
            sizes = np.fromiter(map(len, balls), np.int64, len(balls))
            held = np.arange(sizes.max()) < sizes[:, None]
            cands = np.full(held.shape, -1)
            cands[held] = np.concatenate(balls)
            out[tied] = self.nearest_among(queries[tied], cands, held)
        return out

    def nearest_among(self, queries: np.ndarray, cands: np.ndarray, allowed: np.ndarray,
                      away: bool = False) -> np.ndarray:
        """Each query's allowed candidate at the least float64 squared
        distance, the lowest index on ties, or -1 when none is allowed.  Row
        r of ``cands`` lists query r's candidates in ascending order (-1 pads
        it) and ``allowed`` masks them; ``away`` also passes over points at
        the query's own location, by ``ranked``'s rule."""
        sq = self._cand_sq(queries, cands)
        if away:
            allowed = allowed & (sq > _SAME_POINT_RTOL ** 2 * _sq_dists(queries, 0.0)[:, None])
        rows, best = np.arange(len(queries)), np.where(allowed, sq, np.inf).argmin(axis=1)
        return np.where(allowed[rows, best], cands[rows, best], -1)

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
        queries = self._checked(queries)
        n = self._points.shape[0]
        k = min(k, n)
        dist, idx = self._tree.query(queries, k=k)
        dist = dist.reshape(len(queries), k)
        idx = idx.reshape(len(queries), k).astype(np.int64)
        sq = self._cand_sq(queries, idx)
        order = np.lexsort((idx, sq), axis=-1)
        idx = np.take_along_axis(idx, order, axis=-1)
        sq = np.take_along_axis(sq, order, axis=-1)
        if k < n:
            # every point left out is at least the last tree distance away
            idx[sq >= dist[:, -1:] ** 2 * (1.0 - 1e-9)] = -1
        idx[sq <= _SAME_POINT_RTOL ** 2 * _sq_dists(queries, 0.0)[:, None]] = -1
        return idx
