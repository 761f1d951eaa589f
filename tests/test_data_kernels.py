import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symlat import _kernels
from symlat.data import NeighborIndex, RegressionDataset
from symlat.errors import DataError, SymlatError
from symlat.regression import (
    BANDWIDTH_GRID_SIZE,
    BANDWIDTH_SCALE_HI,
    BANDWIDTH_SCALE_LO,
    _feature_scales,
    select_bandwidth,
)
from symlat.scenarios import make_scenario


def brute_nearest(points, queries):
    """Oracle: argmin of float64 squared distance, first index on ties."""
    out = np.empty(len(queries), dtype=np.int64)
    for k, q in enumerate(queries):
        diffs = points - q
        sq = np.einsum("ij,ij->i", diffs, diffs)
        out[k] = int(np.argmin(sq))
    return out


def test_dataset_validation():
    with pytest.raises(DataError):
        RegressionDataset(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(DataError):
        RegressionDataset(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(DataError):
        RegressionDataset(np.array([[np.inf, 0.0], [0.0, 0.0]]), np.zeros(2))
    data = RegressionDataset(np.zeros((4, 2)), np.arange(4.0))
    assert data.n == 4 and data.dim == 2
    left, right = data.head_split(2)
    assert left.n == 2 and right.n == 2


def test_query_at_data_point_returns_itself():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 3))
    index = NeighborIndex(pts)
    assert index.query_many(pts[[0, 17, 49]]).tolist() == [0, 17, 49]


def test_exact_ties_take_smaller_index():
    pts = np.array([[0.0], [2.0], [2.0]])
    index = NeighborIndex(pts)
    queries = np.array([[1.0], [2.0]])
    # 1.0 is equidistant from points 0 and 1; 2.0 sits on the duplicated
    # points 1 and 2; the smaller index wins both ties
    assert index.query_many(queries).tolist() == [0, 1] == \
        brute_nearest(pts, queries).tolist()


def test_matches_brute_force_on_random_points():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(1000, 5))
    queries = np.vstack([rng.normal(size=(200, 5)), pts[rng.integers(0, 1000, 50)]])
    index = NeighborIndex(pts)
    assert np.array_equal(index.query_many(queries), brute_nearest(pts, queries))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_neighbor_index_property(n, d, seed):
    rng = np.random.default_rng(seed)
    # round coordinates so exact ties actually occur
    pts = np.round(rng.normal(size=(n, d)), 1)
    queries = np.round(rng.normal(size=(10, d)), 1)
    index = NeighborIndex(pts)
    assert np.array_equal(index.query_many(queries), brute_nearest(pts, queries))
    # ranked lists hold the brute-force ranking of the points away from the
    # query (here also copies of rows moved by rounding), cut short at most,
    # so their first member of a subset is that subset's nearest such point
    picked = pts[rng.integers(0, n, size=3)]
    queries = np.vstack([queries, picked, picked * (1.0 + 1e-15)])
    subset = np.flatnonzero(rng.random(n) < 0.5)
    for k in (3, n):
        lists = index.ranked(queries, k)
        for r, q in enumerate(queries):
            diffs = pts - q
            sq = np.einsum("ij,ij->i", diffs, diffs)
            away = sq > 1e-18 * (q @ q)
            ranking = np.lexsort((np.arange(n), sq))
            ranking = ranking[away[ranking]]
            got = lists[r][lists[r] >= 0]
            assert np.array_equal(got, ranking[:got.size])
            assert k < n or got.size == ranking.size
            hits = np.isin(lists[r], subset)
            if hits.any():
                near = subset[away[subset]]
                assert lists[r, hits.argmax()] == near[brute_nearest(pts[near], q[None])[0]]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_query_many_on_copied_points(distinct, d, seed):
    # every point occurs 2-20 times in shuffled rows, so each query at or near
    # a point ties among its copies, and the lowest of them must win
    rng = np.random.default_rng(seed)
    base = np.round(rng.normal(size=(distinct, d)), 1)
    pts = np.repeat(base, rng.integers(2, 21, size=distinct), axis=0)
    pts = pts[rng.permutation(len(pts))]
    queries = np.vstack([np.round(rng.normal(size=(10, d)), 1), pts[rng.integers(0, len(pts), 10)],
                         (base[:, None] + base[None]).reshape(-1, d) / 2.0])
    assert np.array_equal(NeighborIndex(pts).query_many(queries), brute_nearest(pts, queries))


def test_nearest_among_masks_candidates():
    # the least distance among the allowed candidates, lowest index on ties,
    # -1 for a row with none; away passes over points at the query itself
    pts = np.array([[0.0], [1.0], [1.0], [3.0]])
    index = NeighborIndex(pts)
    cands = np.array([[0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, -1], [0, 3, -1, -1]])
    allowed = np.array([[1, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 0], [0, 0, 0, 0]], dtype=bool)
    queries = np.array([[1.0], [1.0], [2.0], [0.0]])
    assert index.nearest_among(queries, cands, allowed).tolist() == [1, 2, 1, -1]
    assert index.nearest_among(queries, cands, allowed, away=True).tolist() == [0, 0, 1, -1]


def test_features_whose_squared_distances_overflow_raise():
    # the tree reports a neighbour past an infinite distance as index n, which
    # used to escape as an IndexError or as scipy's ValueError
    with pytest.raises(DataError, match="overflow"):
        NeighborIndex(np.array([[1e154, 0.0], [-1e154, 0.0]]))
    index = NeighborIndex(np.array([[1e153, 0.0], [-1e153, 0.0]]))
    assert index.query_many(np.array([[2e153, 0.0]])).tolist() == [0]
    for query in (index.query_many, lambda q: index.ranked(q, 2)):
        with pytest.raises(DataError, match="overflow"):
            query(np.array([[0.0, 1e155]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(min_value=0, max_value=3))
def test_full_ranking_lists_every_point(n, d, seed, extra):
    # asked for every point, ranked lists all of them in (distance, index)
    # order, which is the tree's k = n neighbours in that order, duplicated
    # rows included, with no entry cut at the last tree distance
    rng = np.random.default_rng(seed)
    pts = np.round(rng.normal(size=(n, d)), 1)
    pts = np.vstack([pts, pts[rng.integers(0, n, size=extra)]])
    queries = np.vstack([np.round(rng.normal(size=(6, d)), 1), pts[:3]])
    index = NeighborIndex(pts)
    total = len(pts)
    _, tree_idx = index._tree.query(queries, k=total)
    tree_idx = np.asarray(tree_idx).reshape(len(queries), total)
    for k in (total, total + 5):
        lists = index.ranked(queries, k)
        assert lists.shape == (len(queries), total)
        for r, q in enumerate(queries):
            diffs = pts[tree_idx[r]] - q
            sq = np.einsum("ij,ij->i", diffs, diffs)
            want = [int(i) for _, i in sorted(zip(sq.tolist(), tree_idx[r].tolist()))]
            want = [i if sq_i > 1e-18 * (q @ q) else -1
                    for i, sq_i in zip(want, sorted(sq.tolist()))]
            assert lists[r].tolist() == want


# ---------------------------------------------------------------------------
# regression kernels against a row-by-row reference
# ---------------------------------------------------------------------------

def ref_nw_weights(x, xt, h, skip=None):
    """Shifted Gaussian weights of one query, by direct evaluation."""
    q = 0.5 * (((x - xt) / h) ** 2).sum(axis=1)
    if skip is not None:
        q[skip] = np.inf
    return np.exp(-(q - q.min()))


def ref_nw_predict(xt, yt, xq, h):
    out = np.empty(len(xq))
    for r, x in enumerate(xq):
        w = ref_nw_weights(x, xt, h)
        out[r] = (w @ yt) / w.sum()
    return out


def ref_loo_sse(xt, yt, h):
    sse = 0.0
    for i, x in enumerate(xt):
        w = ref_nw_weights(x, xt, h, skip=i)
        sse += ((w @ yt) / w.sum() - yt[i]) ** 2
    return sse


@st.composite
def regression_problems(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    d = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 31 - 1)))
    xt = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    if draw(st.booleans()):  # duplicated rows
        xt[rng.integers(0, n, size=n // 2)] = xt[0]
    if draw(st.booleans()):  # a constant feature column
        xt[:, rng.integers(0, d)] = 1.5
    yt = rng.normal(size=n)
    return xt, yt, rng.normal(size=(7, d)) * 3.0


@settings(max_examples=40, deadline=None)
@given(regression_problems())
@example((np.array([[0.0, 1.0], [2.0, 1.0]]), np.array([1.0, -0.5]),
          np.array([[0.5, 1.0], [9.0, -3.0]])))
@example((np.array([[1.0], [1.0], [1.0], [4.0]]), np.array([0.3, 2.0, -1.0, 0.7]),
          np.array([[1.0], [2.0]])))
def test_kernels_match_row_reference(problem):
    xt, yt, xq = problem
    scales = _feature_scales(xt)
    cs = np.geomspace(BANDWIDTH_SCALE_LO, BANDWIDTH_SCALE_HI, BANDWIDTH_GRID_SIZE)
    ref = np.array([ref_loo_sse(xt, yt, c * scales) for c in cs])
    out = _kernels.loo_cv_sse(xt, yt, scales, cs)
    # the kernel abandons grid points that cannot be the minimum (+inf); the
    # entries it computed must match
    kept = np.isfinite(out)
    assert np.allclose(out[kept], ref[kept], rtol=1e-12, atol=0.0)
    best, second = np.sort(ref)[:2]
    if second - best > 1e-9 * second:
        assert np.argmin(out) == np.argmin(ref)
        chosen = select_bandwidth(xt, yt)
        assert np.array_equal(chosen, cs[np.argmin(ref)] * scales)
    for c in cs[::4]:
        assert np.allclose(_kernels.nw_predict(xt, yt, xq, c * scales),
                           ref_nw_predict(xt, yt, xq, c * scales), rtol=1e-12, atol=1e-12)


def test_near_tie_far_queries_match_row_reference():
    # Queries near the midpoint of two training points, far from both at a
    # small bandwidth: the exponents are ~1e5 and differ by ~1, so the
    # prediction moves with the last bit of each exponent.
    rng = np.random.default_rng(0)
    xt = rng.normal(size=(12, 4)) * 4.0
    yt = rng.normal(size=12)
    h = np.full(4, 0.01)
    a = rng.integers(0, 12, size=300)
    b = (a + 1 + rng.integers(0, 11, size=300)) % 12
    g = xt[a] - xt[b]
    offset = rng.uniform(-2.0, 2.0, size=300) * 1e-4 / (g * g).sum(axis=1)
    xq = 0.5 * (xt[a] + xt[b]) + g * offset[:, None]
    assert np.allclose(_kernels.nw_predict(xt, yt, xq, h), ref_nw_predict(xt, yt, xq, h),
                       rtol=1e-12, atol=1e-12)


def unmasked_nw_predict(xt, yt, xq, h):
    """``nw_predict``'s arithmetic on one block of at most PREDICT_CHUNK_ROWS
    queries, exponentiating every shifted exponent; returns the predictions
    and the weights."""
    e = np.zeros((len(xq), len(xt)))
    for k in range(xt.shape[1]):
        diff = np.subtract.outer(xq[:, k], xt[:, k]) / h[k]
        e += diff * diff
    e *= 0.5
    w = np.exp(-(e - e.min(axis=1, keepdims=True)))
    return (w @ yt) / w.sum(axis=1), w


@st.composite
def small_bandwidth_problems(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    d = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 31 - 1)))
    xt = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    yt = rng.normal(size=n)
    xq = rng.normal(size=(draw(st.integers(min_value=1, max_value=40)), d)) * 3.0
    # scale the bandwidths so that the largest shifted exponent is ``top``
    h = rng.uniform(0.5, 2.0, size=d)
    _, w = unmasked_nw_predict(xt, yt, xq, h)
    largest = -np.log(w.min()) if w.min() > 0 else 0.0
    top = draw(st.floats(min_value=600.0, max_value=5000.0))
    return xt, yt, xq, h * np.sqrt(largest / top) if largest > 0 else h


@settings(max_examples=60, deadline=None)
@given(small_bandwidth_problems())
def test_predict_zero_weights_keep_every_bit(problem):
    # exponents past the cutoff go to exp as -inf; the weights they give are
    # 0.0 either way, so every prediction keeps its bits
    xt, yt, xq, h = problem
    assert np.array_equal(_kernels.nw_predict(xt, yt, xq, h),
                          unmasked_nw_predict(xt, yt, xq, h)[0])


def test_predict_keeps_the_smallest_weights():
    # One query at 0, one row on it, and a ladder of rows whose shifted
    # exponents run from 700 to 760 in steps of 0.25: their weights are
    # normal, then subnormal from about 708, then exactly 0 past about 745.
    # Responses are 1 from an exponent of 740 on and 0 elsewhere, so the
    # prediction is the sum of the smallest weights, which a cutoff below 745
    # would lose.
    exponents = np.concatenate([[0.0], np.linspace(700.0, 760.0, 241)])
    xt = np.sqrt(exponents / 3000.0)[:, None]
    yt = (exponents >= 740.0).astype(float)
    xq, h = np.zeros((1, 1)), np.array([np.sqrt(1.0 / 6000.0)])
    want, w = unmasked_nw_predict(xt, yt, xq, h)
    assert (w == 0.0).any() and ((w > 0.0) & (w < np.finfo(float).tiny)).any()
    assert want[0] > 0.0
    assert np.array_equal(_kernels.nw_predict(xt, yt, xq, h), want)


def test_predict_chunks_match_one_block(monkeypatch):
    rng = np.random.default_rng(3)
    xt = rng.normal(size=(40, 3))
    yt = rng.normal(size=40)
    xq = rng.normal(size=(2 * _kernels.PREDICT_CHUNK_ROWS + 37, 3))
    h = np.array([0.4, 0.9, 1.7])
    chunked = _kernels.nw_predict(xt, yt, xq, h)
    monkeypatch.setattr(_kernels, "PREDICT_CHUNK_ROWS", len(xq))
    assert np.array_equal(chunked, _kernels.nw_predict(xt, yt, xq, h))


@pytest.mark.parametrize("n", [49, 50])
def test_loo_blocks_match_one_block(monkeypatch, n):
    rng = np.random.default_rng(4)
    xt = rng.normal(size=(n, 3))
    xt[rng.integers(0, n, size=10)] = xt[0]  # duplicated rows
    xt[:, 1] = 1.5  # a constant column
    # the last residual, near 1000, dominates every sum of squares, so a
    # last-bit change in that row's weighted sum shows in the result
    yt = rng.normal(size=n) + 1000.0
    yt[-1] = 0.0
    scales = _feature_scales(xt)
    cs = np.geomspace(BANDWIDTH_SCALE_LO, BANDWIDTH_SCALE_HI, BANDWIDTH_GRID_SIZE)
    out = []
    # budgets of 1 and 7 rows, which the kernel raises to one 8-row group,
    # leaving a short last block (a single row at n = 49, which joins the
    # block before it), and one block
    for budget in (n, 7 * n, n * n * n):
        monkeypatch.setattr(_kernels, "LOO_BLOCK_FLOATS", budget)
        out.append(_kernels.loo_cv_sse(xt, yt, scales, cs))
    # each blocking may abandon other grid points; those all three computed
    # are bit-equal, and the minimum is the same
    kept = np.isfinite(out).all(axis=0)
    assert np.array_equal(out[0][kept], out[2][kept])
    assert np.array_equal(out[1][kept], out[2][kept])
    assert np.argmin(out[0]) == np.argmin(out[1]) == np.argmin(out[2])


def full_grid_loo_sse(xt, yt, scales, cs):
    """The blocked kernel before early abandoning: every residual of every
    grid point, on the same row blocks."""
    n, d = xt.shape
    group = _kernels._LOO_ROW_GROUP
    rows = max(group, _kernels.LOO_BLOCK_FLOATS // n // group * group)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    dist = np.empty((min(rows + 1, n), n))
    w = np.empty_like(dist)
    resid = np.empty((len(cs), n))
    for start, stop in zip(starts, starts[1:] + [n]):
        block, wb = dist[:stop - start], w[:stop - start]
        block.fill(0.0)
        for k in range(d):
            np.subtract.outer(xt[start:stop, k], xt[:, k], out=wb)
            wb /= scales[k]
            wb *= wb
            block += wb
        block *= 0.5
        top = block.max()
        block.reshape(-1)[start::n + 1] = np.inf
        block -= block.min(axis=1, keepdims=True)
        for i, c in enumerate(cs):
            np.divide(block, -(c * c), out=wb)
            if top / -(c * c) < _kernels._MIN_EXPONENT:
                np.maximum(wb, _kernels._MIN_EXPONENT, out=wb)
            np.exp(wb, out=wb)
            wb.reshape(-1)[start::n + 1] = 0.0
            resid[i, start:stop] = (wb @ yt) / wb.sum(axis=1) - yt[start:stop]
    return np.array([r @ r for r in resid])


def second_pass_data(n, rng):
    """1-d rows (for unit scales) whose first quarter are exact duplicate
    pairs 10 apart with equal responses, then unit-spaced rows with a noisy
    sine.  The small multipliers fit the first block exactly, so they alone
    contend; the large ones fit the first block worse but the whole set
    better, so they pass the bound and run the second pass."""
    pairs = n // 8
    x = np.concatenate([10.0 * np.repeat(np.arange(pairs), 2),
                        10.0 * pairs + np.arange(n - 2 * pairs)])
    y = np.concatenate([np.repeat(rng.normal(size=pairs), 2),
                        np.sin(x[2 * pairs:] / 15) + rng.normal(size=n - 2 * pairs)])
    return x[:, None], y


def loo_case(case, n, d, seed):
    """(xt, yt, scales) of one named leave-one-out case."""
    rng = np.random.default_rng(seed)
    if case == "second-pass":
        xt, yt = second_pass_data(n, rng)
        return xt, yt, np.ones(1)
    xt = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    yt = np.sin(xt.sum(axis=1)) + 0.1 * rng.normal(size=n)
    if case == "duplicated":  # duplicated rows and a constant column
        xt[rng.integers(0, n, size=n // 2)] = xt[0]
        xt[:, rng.integers(0, d)] = 1.5
        yt = rng.normal(size=n)
    elif case == "constant-y":  # every sum is 0: the lowest index wins
        yt = np.zeros(n)
    scales = _feature_scales(xt)
    if case == "tiny-scales":  # the small multipliers tie at nearest-response fits
        scales = scales * 1e-3
    return xt, yt, scales


LOO_CASES = ("smooth", "duplicated", "constant-y", "tiny-scales", "second-pass")
# LOO_BLOCK_FLOATS per training row: blocks of one 8-row group, the default
# budget, and one block
LOO_BUDGETS = (1, None, "one-block")


def check_against_full_grid(xt, yt, scales, budget):
    cs = np.geomspace(BANDWIDTH_SCALE_LO, BANDWIDTH_SCALE_HI, BANDWIDTH_GRID_SIZE)
    n = len(xt)
    with pytest.MonkeyPatch.context() as mp:
        if budget == "one-block":
            mp.setattr(_kernels, "LOO_BLOCK_FLOATS", n * n * n)
        elif budget is not None:
            mp.setattr(_kernels, "LOO_BLOCK_FLOATS", budget * n)
        ref = full_grid_loo_sse(xt, yt, scales, cs)
        out = _kernels.loo_cv_sse(xt, yt, scales, cs)
        kept = np.isfinite(out)
        assert np.array_equal(out[kept], ref[kept])
        assert np.all(out[~kept] == np.inf) and np.all(ref[~kept] > ref.min())
        assert np.argmin(out) == np.argmin(ref)
        own = _feature_scales(xt)
        want = ref if np.array_equal(own, scales) else full_grid_loo_sse(xt, yt, own, cs)
        assert np.array_equal(select_bandwidth(xt, yt), cs[np.argmin(want)] * own)
    return out, ref


@pytest.mark.parametrize("budget", LOO_BUDGETS)
@pytest.mark.parametrize("n", [49, 50, 600])
@pytest.mark.parametrize("case", LOO_CASES)
def test_loo_abandoning_matches_full_grid_cases(case, n, budget):
    out, ref = check_against_full_grid(*loo_case(case, n, 2, seed=n), budget)
    if case == "constant-y":
        assert not ref.any() and np.argmin(out) == 0
    if case == "tiny-scales":
        assert ref[0] == ref[1] == ref[2]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(LOO_CASES), st.sampled_from([2, 9, 49, 50, 123, 600]),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from(LOO_BUDGETS))
def test_loo_abandoning_matches_full_grid(case, n, d, seed, budget):
    check_against_full_grid(*loo_case(case, n, d, seed), budget)


def test_loo_second_pass_is_reached(monkeypatch):
    # the second-pass data rebuilds distance blocks after the contenders' pass
    builds = []
    build = _kernels._distance_block
    monkeypatch.setattr(_kernels, "_distance_block",
                        lambda *args: builds.append(args[2]) or build(*args))
    xt, yt, scales = loo_case("second-pass", 600, 1, seed=0)
    cs = np.geomspace(BANDWIDTH_SCALE_LO, BANDWIDTH_SCALE_HI, BANDWIDTH_GRID_SIZE)
    out = _kernels.loo_cv_sse(xt, yt, scales, cs)
    blocks = len(set(builds))
    assert blocks > 1 and len(builds) > blocks and builds.count(0) == 1
    assert np.array_equal(out, full_grid_loo_sse(xt, yt, scales, cs))


def test_loo_runs_under_three_quarters_of_the_grid_at_large_n(monkeypatch):
    # 3-feature fits at n = 1000: only the least first-block sum contends, so
    # the other grid points are abandoned as their running sums pass the bound
    rows = []
    residuals = _kernels._block_residuals
    monkeypatch.setattr(_kernels, "_block_residuals",
                        lambda *args: rows.append(len(args[6])) or residuals(*args))
    train = make_scenario("1").sample_train(np.random.default_rng(1), 1000)
    cs = np.geomspace(BANDWIDTH_SCALE_LO, BANDWIDTH_SCALE_HI, BANDWIDTH_GRID_SIZE)
    out = _kernels.loo_cv_sse(train.X, train.Y, _feature_scales(train.X), cs)
    assert train.X.shape == (1000, 3) and np.isfinite(out).any()
    assert sum(rows) < 0.75 * 1000 * len(cs)


def test_abandoning_keeps_ties_and_drops_losers(monkeypatch):
    # prescribed residuals (one row per multiplier) replace the kernel's, so
    # that the sums are exact integers: 0 ties with the contender 1 through a
    # worse first block, 2 loses in the first block, 3 in a later one
    n, k = 600, 50
    resid = np.zeros((5, n))
    resid[0, :k] = 1.0
    resid[1, n - k:] = 1.0
    resid[2, :k + 1] = 1.0
    resid[3, :k - 1] = 1.0
    resid[3, n - 2:] = 1.0
    resid[4, :] = 1.0
    cs = np.arange(5.0)

    def prescribed(block, wb, top, c, yt, start, out):
        out[:] = resid[int(c), start:start + len(out)]

    monkeypatch.setattr(_kernels, "_distance_block", lambda *args: 0.0)
    monkeypatch.setattr(_kernels, "_block_residuals", prescribed)
    out = _kernels.loo_cv_sse(np.zeros((n, 1)), np.zeros(n), np.ones(1), cs)
    assert out.tolist() == [k, k, np.inf, np.inf, np.inf]


def test_overflowing_features_raise_instead_of_choosing():
    X = np.array([[0.0], [1e200], [-1e200], [2e200], [5.0]])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SymlatError, match="not finite"):
        select_bandwidth(X, np.arange(5.0))


def test_loo_memory_stays_linear_in_n():
    cs = np.geomspace(BANDWIDTH_SCALE_LO, BANDWIDTH_SCALE_HI, BANDWIDTH_GRID_SIZE)
    rng = np.random.default_rng(5)
    noise = rng.normal(size=(1500, 3)), rng.normal(size=1500), np.ones(3)
    # the second-pass data also rebuild distance blocks for the survivors
    for xt, yt, scales in (noise, loo_case("second-pass", 1500, 1, seed=5)):
        tracemalloc.start()
        try:
            _kernels.loo_cv_sse(xt, yt, scales, cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n x n float64 buffer alone would take 18 MB
        assert peak < 8 * 2 ** 20


def test_predict_limits():
    xt = np.array([[0.0], [1.0], [2.0]])
    yt = np.array([5.0, -1.0, 3.0])
    # vanishing bandwidth: the nearest training response
    tiny = _kernels.nw_predict(xt, yt, np.array([[1.0001]]), np.array([1e-8]))
    assert np.isclose(tiny[0], -1.0)
    # huge bandwidth: the overall mean
    flat = _kernels.nw_predict(xt, yt, np.array([[0.3]]), np.array([1e8]))
    assert np.isclose(flat[0], yt.mean(), atol=1e-6)


def test_constant_responses_stay_constant():
    rng = np.random.default_rng(2)
    xt = rng.normal(size=(30, 2))
    yt = np.full(30, 4.2)
    preds = _kernels.nw_predict(xt, yt, rng.normal(size=(10, 2)), np.array([0.7, 0.7]))
    assert np.allclose(preds, 4.2, atol=1e-12)


def test_far_queries_fall_back_to_nearest_response():
    # all weights underflow relative rounding: the shifted exponent keeps the
    # nearest point's weight at 1
    xt = np.array([[0.0], [10.0]])
    yt = np.array([1.0, 2.0])
    out = _kernels.nw_predict(xt, yt, np.array([[1e6]]), np.array([0.01]))
    assert np.isclose(out[0], 2.0)
