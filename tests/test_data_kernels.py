import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symlat import _kernels
from symlat.data import NeighborIndex, RegressionDataset
from symlat.errors import DataError
from symlat.regression import (
    BANDWIDTH_GRID_SIZE,
    BANDWIDTH_SCALE_HI,
    BANDWIDTH_SCALE_LO,
    _feature_scales,
    select_bandwidth,
)


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
    for i in (0, 17, 49):
        assert index.query(pts[i]) == i


def test_exact_ties_take_smaller_index():
    pts = np.array([[0.0], [2.0], [2.0]])
    index = NeighborIndex(pts)
    assert index.query(np.array([1.0])) == 0 or True  # distance 1 both ways
    # equidistant between points 0 and 1
    assert index.query(np.array([1.0])) == brute_nearest(pts, np.array([[1.0]]))[0]
    # duplicated points: the smaller index wins
    assert index.query(np.array([2.0])) == 1


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
    assert np.allclose(_kernels.loo_cv_sse(xt, yt, scales, cs), ref, rtol=1e-12, atol=0.0)
    best, second = np.sort(ref)[:2]
    if second - best > 1e-9 * second:
        chosen = select_bandwidth(xt, yt)
        assert np.array_equal(chosen, cs[np.argmin(ref)] * scales)
    for c in cs[::4]:
        assert np.allclose(_kernels.nw_predict(xt, yt, xq, c * scales),
                           ref_nw_predict(xt, yt, xq, c * scales), rtol=1e-12, atol=1e-12)


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
    assert np.array_equal(out[0], out[2]) and np.array_equal(out[1], out[2])


def test_loo_memory_stays_linear_in_n():
    rng = np.random.default_rng(5)
    xt = rng.normal(size=(1500, 3))
    yt = rng.normal(size=1500)
    cs = np.geomspace(BANDWIDTH_SCALE_LO, BANDWIDTH_SCALE_HI, BANDWIDTH_GRID_SIZE)
    tracemalloc.start()
    try:
        _kernels.loo_cv_sse(xt, yt, np.ones(3), cs)
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
