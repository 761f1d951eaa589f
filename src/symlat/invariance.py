"""Hypothesis tests for "the regression function is G-invariant".

Two tests are provided.  The exceedance test needs a fully known variation
bound on the function class and a concentration bound on the noise: it counts
how often ``|Y_i - Y_j| - V(g . X_i, X_j)`` (with ``X_j`` the nearest
neighbour of the transformed point) exceeds each threshold in a grid, and
bounds the p-value with a binomial tail (``scipy.special.bdtrc``), taking
the minimum over the grid; an ``ExceedanceTester`` keeps the grid and the
neighbour index for every test of a search.  The permutation test
only needs the variation bound's order: it compares a quantile of the ratios
``|Y_i - Y_j| / V(g . X_i, X_j)``, with ``X_j`` the nearest row of a random
reference half to ``g . X_i`` and ``X_i`` from the other half, against the
same quantile with ``g`` fixed at the identity, approximating the p-value by
the proportion of transform replicates whose quantile falls at or below the
identity one.  Its replicates are paired and reduced to quantiles as arrays,
a block of replicates at a time, so its working memory grows with ``n`` and
``m``, not with ``B``.  The neighbour index, the rows' own ranked neighbour
lists and the ranked images of the rows under each element tested are
``PairingTables`` of the data set, which a ``PermutationTester`` builds once
and shares across the tests of a search.

Each test samples from the tested subgroup's own sampler and keeps every
draw; a search gives each node its own random stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import bdtrc

from .data import NeighborIndex, RegressionDataset
from .errors import DegenerateMetricError, SymlatError
from .groups import (
    ElementBatch,
    FiniteElement,
    GroupAction,
    SamplerSpec,
    apply_elements,
    apply_to_rows,
    sample_elements,
)

ACCEPT = 1
REJECT = -1


# ---------------------------------------------------------------------------
# Numeric primitives
# ---------------------------------------------------------------------------

def binom_tail(m: int, k, p):
    """Upper binomial tails P(Binom(m, p) >= k) for one ``m``.

    ``k`` and ``p`` broadcast against each other: a pair of scalars gives one
    float, arrays give an array of tails, one per ``(k, p)`` pair.  Each tail
    is ``scipy.special.bdtrc(k - 1, m, p)``, capped at 1.
    """
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu":
        raise SymlatError(f"tail counts must be integers, got {k!r}")
    tails = np.minimum(bdtrc(ks - 1.0, m, p), 1.0)  # NaN where p is outside [0, 1]
    bad_k = (ks < 0) | (ks > m)
    bad = np.flatnonzero(bad_k | np.isnan(tails))  # the first bad pair names the error
    if bad.size and np.broadcast_to(bad_k, tails.shape).flat[bad[0]]:
        k = np.broadcast_to(ks, tails.shape).flat[bad[0]]
        raise SymlatError(f"need 0 <= k <= m, got k={k}, m={m}")
    if bad.size:
        p = np.broadcast_to(p, tails.shape).flat[bad[0]]
        raise SymlatError(f"probability must lie in [0, 1], got {p}")
    return float(tails) if tails.ndim == 0 else tails


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation (type-7) sample quantile: h = (n-1) q."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise SymlatError("quantile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise SymlatError(f"quantile level must lie in (0, 1], got {q}")
    h = (values.size - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, values.size - 1)
    part = np.partition(values, (lo, hi))
    return float(part[lo] + (h - lo) * (part[hi] - part[lo]))


# ---------------------------------------------------------------------------
# Variation bounds and noise models
# ---------------------------------------------------------------------------

KNOWN = "known"
ORDER_ONLY = "order-only"


@dataclass(frozen=True, eq=False)
class VariationBound:
    """Bound ``L * ||x - y||^alpha`` on |f(x) - f(y)| over the assumed
    function class.

    ``known``: the scale L is known.  ``order-only``: the scale is unknown and
    held at 1 (usable by the permutation test, where constants cancel).
    """

    kind: str
    scale: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in (KNOWN, ORDER_ONLY):
            raise SymlatError(f"unknown bound kind {self.kind!r}")
        if self.kind == KNOWN and not 0.0 < self.scale < math.inf:
            raise SymlatError("known bound needs a finite scale > 0")
        if self.kind == ORDER_ONLY and self.scale != 1.0:
            raise SymlatError("an order-only bound has scale 1")
        if not 0.0 < self.exponent <= 1.0:
            raise SymlatError("bound exponent must lie in (0, 1]")

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # x ** 1.0 and 1.0 * x are exact, so each kind keeps its bits
        return self.scale * np.linalg.norm(a - b, axis=1) ** self.exponent


def known_bound(scale: float, exponent: float = 1.0) -> VariationBound:
    return VariationBound(KNOWN, scale=scale, exponent=exponent)


def order_bound(exponent: float = 1.0) -> VariationBound:
    return VariationBound(ORDER_ONLY, exponent=exponent)


GAUSSIAN = "gaussian"
TABLE = "table"

_TINY_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Concentration bound p_t >= P(|eps_i - eps_j| > t) for the noise.

    ``gaussian``: p_t = min(1, (2 sigma / t) exp(-t^2 / (4 sigma^2)) / sqrt(2 pi)),
    and identically zero for t > 0 when sigma = 0.  ``table``: explicit
    (t, p_t) knots, evaluated conservatively at the largest knot <= t.
    """

    kind: str
    sigma: float = 0.0
    ts: np.ndarray | None = None
    ps: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == GAUSSIAN:
            if not 0.0 <= self.sigma < math.inf:
                raise SymlatError("noise sigma must be finite and >= 0")
        elif self.kind == TABLE:
            ts = np.asarray(self.ts, dtype=float)
            ps = np.asarray(self.ps, dtype=float)
            if ts.ndim != 1 or ts.shape != ps.shape or ts.size == 0:
                raise SymlatError("noise table needs matching non-empty t and p arrays")
            if np.any(np.diff(ts) <= 0) or np.any(ts <= 0):
                raise SymlatError("noise-table thresholds must be positive and increasing")
            if np.any(ps < 0) or np.any(ps > 1) or np.any(np.diff(ps) > 0):
                raise SymlatError("noise-table probabilities must be non-increasing in [0, 1]")
            object.__setattr__(self, "ts", ts)
            object.__setattr__(self, "ps", ps)
        else:
            raise SymlatError(f"unknown noise kind {self.kind!r}")

    def p_exceed(self, t: float) -> float:
        if t <= 0:
            return 1.0
        if self.kind == GAUSSIAN:
            if self.sigma == 0.0:
                return 0.0
            return min(1.0, self._uncapped(t))
        idx = np.searchsorted(self.ts, t, side="right") - 1
        if idx < 0:
            return 1.0
        return float(self.ps[idx])

    def _uncapped(self, t: float) -> float:
        return (2.0 * self.sigma / t) * math.exp(-t * t / (4.0 * self.sigma ** 2)) \
            / math.sqrt(2.0 * math.pi)

    def threshold_for(self, target: float) -> float:
        """Invert the (uncapped) gaussian bound: the t with p_t = target."""
        if self.kind != GAUSSIAN or self.sigma == 0.0:
            raise SymlatError("threshold inversion needs a gaussian noise model with sigma > 0")
        if not 0.0 < target < 1.0:
            raise SymlatError("target probability must lie in (0, 1)")
        lo = self.sigma * 1e-8
        hi = self.sigma
        while self._uncapped(hi) > target:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            step = (mid, hi) if self._uncapped(mid) > target else (lo, mid)
            if step == (lo, hi):
                break  # every later step would repeat this one
            lo, hi = step
        return 0.5 * (lo + hi)

    def default_thresholds(self, count: int = 20) -> np.ndarray:
        """Threshold grid whose p_t values spread evenly across (0.01, 0.99).

        With sigma = 0 every positive threshold has p_t = 0, so a single tiny
        threshold suffices (it counts any strictly positive excess).
        """
        if self.kind == TABLE:
            return self.ts.copy()
        if self.sigma == 0.0:
            return np.array([_TINY_THRESHOLD])
        targets = np.linspace(0.01, 0.99, count)
        ts = sorted(self.threshold_for(float(p)) for p in targets)
        return np.asarray(ts)


def gaussian_noise(sigma: float) -> NoiseModel:
    return NoiseModel(GAUSSIAN, sigma=sigma)


def table_noise(ts: Sequence[float], ps: Sequence[float]) -> NoiseModel:
    return NoiseModel(TABLE, ts=np.asarray(ts, dtype=float), ps=np.asarray(ps, dtype=float))


# ---------------------------------------------------------------------------
# Test outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TestOutcome:
    """Result of one invariance test with its diagnostics.

    ``effective_m`` is the number of draws the statistic rests on: ``m`` for
    the exceedance test, and for the permutation test the identity
    replicate's drawn positions on paired rows (``replicate_m`` holds the
    other replicates' counts).
    """

    __test__ = False  # not a pytest class, despite the name

    p_value: float
    alpha: float
    effective_m: int
    statistics: np.ndarray
    thresholds: np.ndarray | None = None
    exceed_counts: np.ndarray | None = None
    threshold_p: np.ndarray | None = None
    replicate_m: np.ndarray | None = None
    baseline_quantile: float | None = None
    warnings: tuple[str, ...] = ()

    @property
    def decision(self) -> int:
        return REJECT if self.p_value <= self.alpha else ACCEPT

    @property
    def rejected(self) -> bool:
        return self.decision == REJECT


# ---------------------------------------------------------------------------
# Exceedance test (known variation bound + noise concentration)
# ---------------------------------------------------------------------------

def exceedance_test(data: RegressionDataset, action: GroupAction, sampler: SamplerSpec,
                    bound: VariationBound, noise: NoiseModel,
                    rng: np.random.Generator, m: int, alpha: float = 0.05,
                    thresholds=None, index: NeighborIndex | None = None) -> TestOutcome:
    """Invariance test from a known variation bound.

    Draws ``m`` transform/index pairs, pairs each transformed point with its
    nearest data neighbour, and compares the per-threshold exceedance counts
    of ``|Y_i - Y_j| - V(g . X_i, X_j)`` to a binomial tail under the noise
    concentration bound; the reported p-value is the minimum over the grid.
    """
    if m < 1:
        raise SymlatError("sample count m must be >= 1")
    if bound.kind == ORDER_ONLY:
        raise SymlatError("the exceedance test needs a fully known bound")
    thresholds = np.asarray(
        noise.default_thresholds() if thresholds is None else thresholds, dtype=float)
    if thresholds.size == 0:
        raise SymlatError("threshold grid must be non-empty")
    # nothing exceeds an infinite threshold and its p_t is 0: its tail is 1
    if not (np.all(thresholds > 0) and np.all(np.diff(thresholds) > 0)
            and thresholds[-1] < np.inf):
        raise SymlatError("thresholds must be positive, finite and strictly increasing")
    if index is None:
        index = NeighborIndex(data.X)
    elements = sample_elements(sampler, rng, m)
    picks = rng.integers(0, data.n, size=m)
    gx = apply_elements(action, elements, data.X[picks])
    nbrs = index.query_many(gx)
    excess = np.abs(data.Y[picks] - data.Y[nbrs]) - bound(gx, data.X[nbrs])
    pts = np.array([noise.p_exceed(float(t)) for t in thresholds])
    counts = m - np.searchsorted(np.sort(excess), thresholds, side="left")
    pvals = binom_tail(m, counts, pts)
    return TestOutcome(float(pvals.min()), alpha, effective_m=m, statistics=excess,
                       thresholds=thresholds, exceed_counts=counts, threshold_p=pts,
                       warnings=("all-thresholds-vacuous",) if np.all(pts >= 1.0) else ())


# ---------------------------------------------------------------------------
# Permutation test (order-only bound)
# ---------------------------------------------------------------------------

# Length of the neighbour lists that pairs are taken from; a point whose list
# holds no reference row takes its nearest one among all rows.
_RANKED = 12
# Replicates are paired in blocks of about this many query-row slots
# (replicates x n), which bounds the working memory of one test.
_PERM_BLOCK_FLOATS = 1 << 13


class PairingTables:
    """What permutation tests read of one data set, built once for all of them.

    Holds the ``NeighborIndex``, the rows' own ranked neighbour lists, and a
    cache of the rows' images, with their ranked lists, under each element
    that a test ranked.  A finite element's entry is keyed by reference on
    (action, Cayley table, element index), any other element's on (action,
    element), so the nodes of one search that share an element (r180 in C2
    and in C4) rank its images once, and a key never outlives its objects.
    """

    def __init__(self, data: RegressionDataset):
        self.data = data
        self.index = NeighborIndex(data.X)
        self.lists = self.index.ranked(data.X, _RANKED)
        self._images: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def image(self, action: GroupAction, g) -> tuple[np.ndarray, np.ndarray]:
        """The rows moved by ``g`` and their ranked neighbour lists."""
        key = (action, g.table, g.index) if isinstance(g, FiniteElement) else (action, g)
        if key not in self._images:
            moved = apply_to_rows(action, g, self.data.X)
            self._images[key] = moved, self.index.ranked(moved, _RANKED)
        return self._images[key]


class _RatioDraws:
    """Pairs the query rows of a block of replicates and takes their ratios.

    Each replicate takes a random half of the rows as the reference set.
    Each row of the other half gets one sampled ``g``, and its point
    (``g . X_i``, or ``X_i`` itself for the identity replicate) is paired
    with the nearest reference row ``X_j`` at a different location (lowest
    row on ties), giving ``|Y_i - Y_j| / V(., X_j)``.  A row with no such
    reference row or a zero bound is unpaired: a drawn position that falls
    on it is dropped from its replicate.

    Pairs come from ranked neighbour lists over all rows
    (``NeighborIndex.ranked``): the first list entry in the reference half,
    searched one list column at a time over the rows still unpaired.  Rows
    whose lists hold no reference row take the nearest one among all rows
    (``NeighborIndex.nearest_among``), about ``_PERM_BLOCK_FLOATS / n`` rows
    at a time.  The rows' own lists, and the images of the rows under each
    element of a uniform sampler with at most ``B / 2`` elements, come from
    the ``PairingTables``; other samplers move and rank a block's rows in
    one call each.
    """

    def __init__(self, tables: PairingTables, action: GroupAction, sampler: SamplerSpec,
                 bound: VariationBound, B: int):
        self.tables, self.action, self.bound = tables, action, bound
        support = sampler.elements
        self.imaged = bool(support) and 2 * len(support) <= B
        self.points, self.lists = tables.data.X, tables.lists
        if self.imaged:
            # row block e + 1 of these tables holds the images under support[e]
            images = [tables.image(action, g) for g in support]
            self.points = np.concatenate([self.points] + [x for x, _ in images])
            self.lists = np.concatenate([self.lists] + [lists for _, lists in images])

    def pair(self, orders: np.ndarray, elements: Sequence[ElementBatch],
             transforms: int) -> tuple[np.ndarray, np.ndarray]:
        """Ratios of a block's query rows, replicate by replicate, and which
        rows are paired.  ``orders`` holds each replicate's permutation of
        the rows; the first ``transforms`` replicates move their query rows
        by their ``elements``, the others leave them in place."""
        X, Y, n = self.tables.data.X, self.tables.data.Y, self.tables.data.n
        reps, h = orders.shape[0], n - n // 2
        # slot r * (n + 1) + 1 + j is set when row j is in replicate r's
        # reference half; slot r * (n + 1) stands for the lists' -1 entries
        in_ref = np.zeros(reps * (n + 1), dtype=bool)
        in_ref[(orders[:, :n // 2] + (n + 1) * np.arange(reps)[:, None] + 1).ravel()] = True
        base = np.repeat((n + 1) * np.arange(reps) + 1, h)
        rows = orders[:, n // 2:].ravel()
        moved = transforms * h
        look, points, lists = rows.copy(), self.points, self.lists
        if self.imaged and moved:
            look[:moved] += n * (np.concatenate([b.params for b in elements[:transforms]]) + 1)
        elif moved:
            gx = apply_elements(self.action, ElementBatch.concat(elements[:transforms]),
                                X.take(rows[:moved], axis=0))
            points = np.concatenate([points, gx])
            lists = np.concatenate([lists, self.tables.index.ranked(gx, _RANKED)])
            look[:moved] = n + np.arange(moved)
        nbr = np.full(rows.size, -1)
        # on random data each column pairs about half of the rows left
        todo = np.arange(rows.size)
        for j in range(lists.shape[1]):
            cand = lists[:, j].take(look.take(todo))
            hit = in_ref.take(base.take(todo) + cand)
            nbr[todo[hit]] = cand[hit]
            todo = todo[~hit]
            if not todo.size:
                break
        # rows left choose among every row, a block's budget of candidates at
        # a time: on duplicated data that is nearly every row
        chunk, every = max(1, _PERM_BLOCK_FLOATS // n), np.arange(n)
        for s in range(0, todo.size, chunk):
            part = todo[s:s + chunk]
            nbr[part] = self.tables.index.nearest_among(
                points.take(look.take(part), axis=0), np.broadcast_to(every, (part.size, n)),
                in_ref.take(base.take(part)[:, None] + every), away=True)
        paired = np.flatnonzero(nbr >= 0)
        den = self.bound(points.take(look.take(paired), axis=0),
                         X.take(nbr.take(paired), axis=0))
        positive = den > 0.0
        live = paired[positive]
        ratios = np.full(rows.size, np.nan)
        with np.errstate(over="ignore"):   # an overflow raises below
            ratios[live] = np.abs(Y.take(rows.take(live)) - Y.take(nbr.take(live))) \
                / den[positive]
        if not np.isfinite(ratios[live]).all():
            raise DegenerateMetricError(
                "a response difference over its variation bound overflows: the "
                "bound is too small for the response differences")
        is_live = np.zeros(rows.size, dtype=bool)
        is_live[live] = True
        return ratios, is_live


def _row_quantiles(values: np.ndarray, kept: np.ndarray,
                   q: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's type-7 q-quantile of its kept values, in ``quantile``'s
    arithmetic, and each row's kept count; every row keeps at least one."""
    counts = kept.sum(axis=1)
    # a ratio is never nan, so nan marks the dropped draws and sorts last
    ordered = np.sort(np.where(kept, values, np.nan), axis=1)
    h = (counts - 1) * q
    lo = np.floor(h).astype(np.int64)
    hi = np.minimum(lo + 1, counts - 1)
    at_lo = np.take_along_axis(ordered, lo[:, None], axis=1)[:, 0]
    at_hi = np.take_along_axis(ordered, hi[:, None], axis=1)[:, 0]
    return at_lo + (h - lo) * (at_hi - at_lo), counts


def ratio_permutation_test(data: RegressionDataset, action: GroupAction,
                           sampler: SamplerSpec, bound: VariationBound,
                           rng: np.random.Generator, m: int, B: int,
                           q: float = 0.95, alpha: float = 0.05,
                           tables: PairingTables | None = None) -> TestOutcome:
    """Invariance test needing only the variation bound's order.

    Each of ``B`` replicates splits the rows at random into a reference half
    and a query half, gives each query row a sampled transform, pairs each
    transformed point with its nearest reference row, and takes the
    q-quantile of the ratios at ``m`` positions drawn from the query half
    (a position on an unpaired row is dropped); the p-value is the
    proportion of replicate quantiles at or below the identity-transform
    quantile, computed the same way by one more replicate.  The identity
    replicate samples transforms too, so every replicate consumes the stream
    alike.  A replicate none of whose drawn positions is paired raises
    ``DegenerateMetricError``, as does a paired ratio that overflows (a
    bound too small for the response differences).

    Each replicate draws, in this order, a permutation of the rows, one
    element per query row and ``m`` positions in the query half.  The
    ``B + 1`` replicates are paired and reduced to quantiles in blocks of
    about ``_PERM_BLOCK_FLOATS / n`` replicates.  ``tables`` are the
    ``PairingTables`` of ``data``, built here when not given; tests that
    share them rank the images under each element once.
    """
    if m < 1 or B < 1:
        raise SymlatError("need m >= 1 and B >= 1")
    if not 0.0 < q <= 1.0:
        raise SymlatError("quantile level q must lie in (0, 1]")
    if tables is None:
        tables = PairingTables(data)
    elif tables.data is not data:
        raise SymlatError("pairing tables were built for another data set")
    n, h = data.n, data.n - data.n // 2
    quantiles = np.empty(B + 1)
    kept_m = np.empty(B + 1, dtype=np.int64)
    draws = _RatioDraws(tables, action, sampler, bound, B)
    step = max(1, _PERM_BLOCK_FLOATS // n)
    for start in range(0, B + 1, step):
        stop = min(start + step, B + 1)
        orders = np.empty((stop - start, n), dtype=np.int64)
        drawn = np.empty((stop - start, m), dtype=np.int64)
        elements = []
        for r in range(stop - start):
            orders[r] = rng.permutation(n)
            elements.append(sample_elements(sampler, rng, h))
            drawn[r] = rng.integers(0, h, size=m)
        ratios, live = draws.pair(orders, elements, min(stop, B) - start)
        drawn += h * np.arange(stop - start)[:, None]   # positions in the block's rows
        drawn_live = live[drawn]
        if not drawn_live.any(axis=1).all():
            raise DegenerateMetricError(
                "no drawn query row of a replicate has a nearest reference row "
                "at a nonzero variation bound")
        quantiles[start:stop], kept_m[start:stop] = \
            _row_quantiles(ratios[drawn], drawn_live, q)
    baseline = float(quantiles[B])
    p = float(np.sum(quantiles[:B] <= baseline)) / float(B)
    return TestOutcome(p, alpha, effective_m=int(kept_m[B]), statistics=quantiles[:B],
                       replicate_m=kept_m[:B], baseline_quantile=baseline)
