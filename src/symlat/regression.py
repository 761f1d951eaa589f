"""Locally-constant kernel regression and symmetry-exploiting estimators.

The plain estimator is a Gaussian-kernel Nadaraya-Watson fit with per-feature
bandwidths chosen by leave-one-out cross-validation on a 20-point log grid of
scale multipliers (0.01 to 10 times the per-feature standard deviation).  The
symmetrised estimators first search the lattice for the maximal accepted
subgroup, project features through that node's quotient map, and fit the same
regressor on the projected data; the split variant searches on the first half
of the rows and fits on the rest.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import RegressionDataset
from .errors import SymlatError
from .lattice import Lattice
from .projections import ProjectionMap
from .search import SearchConfig, SearchResult, run_search

BANDWIDTH_GRID_SIZE = 20
BANDWIDTH_SCALE_LO = 0.01
BANDWIDTH_SCALE_HI = 10.0


@dataclass(frozen=True, eq=False)
class KernelRegressor:
    """Gaussian local-constant fit; predictions are convex combinations of
    the training responses (nearest response in the vanishing-weight limit)."""

    X: np.ndarray
    Y: np.ndarray
    bandwidths: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.bandwidths, dtype=float)
        if h.shape != (self.X.shape[1],):
            raise SymlatError("one bandwidth per feature dimension is required")
        if not np.all(h > 0):  # a NaN is not positive either
            raise SymlatError("bandwidths must be positive")
        object.__setattr__(self, "bandwidths", h)

    def predict(self, queries: np.ndarray) -> np.ndarray:
        queries = np.ascontiguousarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.X.shape[1]:
            raise SymlatError(f"queries must be (m, {self.X.shape[1]})")
        return _kernels.nw_predict(self.X, self.Y, queries, self.bandwidths)


def _feature_scales(X: np.ndarray) -> np.ndarray:
    scales = X.std(axis=0, ddof=1)
    scales = np.where(np.isfinite(scales) & (scales > 0), scales, 1.0)
    return scales


def select_bandwidth(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Leave-one-out CV over a shared log-spaced scale multiplier; the
    lowest multiplier wins a tie."""
    X = np.ascontiguousarray(X, dtype=float)
    Y = np.ascontiguousarray(Y, dtype=float)
    if X.shape[0] < 2:
        raise SymlatError("bandwidth selection needs at least two rows")
    scales = _feature_scales(X)
    cs = np.geomspace(BANDWIDTH_SCALE_LO, BANDWIDTH_SCALE_HI, BANDWIDTH_GRID_SIZE)
    errors = _kernels.loo_cv_sse(X, Y, scales, cs)
    return cs[int(np.argmin(errors))] * scales


def fit_lce(data: RegressionDataset, bandwidth=None) -> KernelRegressor:
    """Fit the local-constant estimator; ``bandwidth=None`` selects by LOO CV."""
    if bandwidth is None:
        h = select_bandwidth(data.X, data.Y)
    else:
        h = np.asarray(bandwidth, dtype=float)
        if h.ndim == 0:
            h = np.full(data.dim, float(h))
    return KernelRegressor(np.ascontiguousarray(data.X),
                           np.ascontiguousarray(data.Y), h)


def project_dataset(data: RegressionDataset, pmap: ProjectionMap) -> RegressionDataset:
    """Replace features with their projected coordinates; responses unchanged.

    Rows the projection marks invalid (the zero vector has no colatitude) are
    dropped with a warning.
    """
    values, valid = pmap.apply(data.X)
    if not valid.all():
        dropped = int((~valid).sum())
        _warnings.warn(f"projection dropped {dropped} row(s) with undefined coordinates",
                       RuntimeWarning, stacklevel=2)
        values = values[valid]
        Y = data.Y[valid]
    else:
        Y = data.Y
    return RegressionDataset(values, Y)


def mspe(predictor, test_data: RegressionDataset) -> float:
    """Mean squared prediction error on held-out rows."""
    resid = np.asarray(predictor.predict(test_data.X), dtype=float) - test_data.Y
    return float(resid @ resid / test_data.n)


# ---------------------------------------------------------------------------
# Symmetrised estimators
# ---------------------------------------------------------------------------

FULL_DATA = "full"     # search and fit on all rows
SPLIT_DATA = "split"   # search on the first half, fit on the rest


@dataclass(frozen=True, eq=False)
class SymmetrizedRegressor:
    """Search-selected quotient projection composed with a kernel fit."""

    lattice: Lattice
    search_result: SearchResult
    node_id: int
    projection: ProjectionMap
    regressor: KernelRegressor

    def predict(self, queries: np.ndarray) -> np.ndarray:
        values, _ = self.projection.apply(np.asarray(queries, dtype=float))
        return self.regressor.predict(values)


def symmetrized_estimator(data: RegressionDataset, lattice: Lattice, tester_factory,
                          config: SearchConfig, variant: str = FULL_DATA) -> SymmetrizedRegressor:
    """Search for the maximal accepted subgroup, then fit on projected data.

    ``tester_factory(dataset)`` builds the invariance tester on whichever rows
    the search uses; ``variant="split"`` searches on the first ``n // 2`` rows
    and fits on the remaining ones.
    """
    if variant not in (FULL_DATA, SPLIT_DATA):
        raise SymlatError(f"unknown estimator variant {variant!r}")
    if variant == SPLIT_DATA:
        search_data, fit_data = data.head_split(data.n // 2)
    else:
        search_data = fit_data = data
    result = run_search(lattice, tester_factory(search_data), config)
    node = lattice.node(result.estimate)
    if node.projection is None:
        raise SymlatError(f"node {node.label!r} carries no projection map")
    projected = project_dataset(fit_data, node.projection)
    regressor = fit_lce(projected)
    return SymmetrizedRegressor(lattice=lattice, search_result=result,
                                node_id=node.node_id, projection=node.projection,
                                regressor=regressor)

