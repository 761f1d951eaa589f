import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from symlat import invariance
from symlat.builders import cyclic_chain_lattice, sl3_extended_lattice, so3_axes_lattice
from symlat.data import NeighborIndex, RegressionDataset
from symlat.errors import DegenerateMetricError, SymlatError
from symlat.groups import (
    FiniteElement,
    apply_elements,
    sample_elements,
    uniform_sampler,
)
from symlat.invariance import (
    PairingTables,
    binom_tail,
    exceedance_test,
    gaussian_noise,
    known_bound,
    order_bound,
    quantile,
    ratio_permutation_test,
    table_noise,
)
from symlat.scenarios import make_scenario, quarter_turn_actions
from symlat.search import ExceedanceTester, PermutationTester, SearchConfig, run_search


def exact_tail(m, k, p):
    q = Fraction(p)
    return sum(comb(m, j) * q ** j * (1 - q) ** (m - j) for j in range(k, m + 1))


# ---------------------------------------------------------------------------
# binomial tail
# ---------------------------------------------------------------------------

def test_binom_tail_edge_cases():
    assert binom_tail(17, 0, 0.3) == 1.0
    assert binom_tail(5, 3, 0.0) == 0.0
    assert binom_tail(5, 3, 1.0) == 1.0
    # direct-summation oracle
    assert math.isclose(binom_tail(10, 10, 0.5), 2.0 ** -10, rel_tol=1e-12)
    with pytest.raises(SymlatError):
        binom_tail(5, 6, 0.5)
    with pytest.raises(SymlatError):
        binom_tail(5, 2, 1.5)


@st.composite
def tail_arguments(draw):
    m = draw(st.integers(min_value=1, max_value=60))
    k = draw(st.integers(min_value=0, max_value=m))
    p = draw(st.one_of(st.just(0.0), st.just(1.0),
                       st.floats(min_value=1e-9, max_value=1.0)))
    return m, k, p


@settings(max_examples=60, deadline=None)
@given(tail_arguments())
# tails below the normal range: subnormal (1e-315) and below 2^-1074 (1e-540)
@example((35, 35, 1e-9))
@example((60, 60, 1e-9))
# a subnormal tail (2.8e-309) that bdtrc misses by 20 steps of 2^-1074
@example((37, 37, 4.577562523747927e-09))
def test_binom_tail_matches_exact_rational(args):
    m, k, p = args
    got = binom_tail(m, k, p)
    want = exact_tail(m, k, p)
    if want == 0:
        assert got == 0.0
    elif want >= Fraction(sys.float_info.min):
        assert abs(Fraction(got) - want) / want <= Fraction(1, 10 ** 12)
    else:
        # a double is spaced 2^-1074 apart below the normal range, and
        # rounds to 0.0 below that: the normal-range bound, floored at one step
        bound = max(want / 10 ** 12, Fraction(2) ** -1074)
        assert abs(Fraction(got) - want) <= bound


def reference_binom_tail(m, k, p):
    """The scalar tail formula, one call per pair: exact terms summed with
    fsum at small m, log-space terms combined by logsumexp above."""
    if not 0 <= k <= m:
        raise SymlatError(f"need 0 <= k <= m, got k={k}, m={m}")
    if not 0.0 <= p <= 1.0:
        raise SymlatError(f"probability must lie in [0, 1], got {p}")
    if k == 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    if m <= 500 and m * math.log(min(p, 1.0 - p)) > -700.0:
        terms = [comb(m, j) * p ** j * (1.0 - p) ** (m - j) for j in range(k, m + 1)]
        return min(1.0, math.fsum(terms))
    js = np.arange(k, m + 1, dtype=np.float64)
    logs = (gammaln(m + 1.0) - gammaln(js + 1.0) - gammaln(m - js + 1.0)
            + js * math.log(p) + (m - js) * math.log1p(-p))
    return float(min(1.0, math.exp(logsumexp(logs))))


def assert_tails_close(got, want):
    """1e-10 relative, or within 2^-1074 (one subnormal step): the
    reference's log-space sum is itself only about 1e-12 relative, which
    below the normal range can span a few hundred subnormal steps."""
    for g, w in zip(np.atleast_1d(got).tolist(), np.atleast_1d(want).tolist()):
        assert abs(g - w) <= max(1e-10 * w, 2.0 ** -1074), (g, w)


@st.composite
def tail_calls(draw):
    m = draw(st.one_of(st.integers(1, 500), st.integers(501, 20_000)))
    pair = st.tuples(st.integers(0, m),
                     st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 5e-324, 1.0 - 2.0 ** -53]),
                               st.floats(min_value=1e-300, max_value=1.0)))
    return m, draw(st.lists(pair, min_size=1, max_size=25))


@settings(max_examples=120, deadline=None)
@given(tail_calls())
@example((300, [(0, 0.3), (12, 0.05), (150, 0.5), (299, 1e-300), (40, 0.0), (7, 1.0)]))
@example((2000, [(10, 0.01), (150, 0.07), (1999, 0.99), (2000, 1e-9), (2, 0.07),
                 (565, 0.07)]))
@example((2001, [(999, 0.5), (1000, 0.5), (1001, 0.5), (1002, 0.5)]))
@example((20_000, [(1, 0.01), (300, 0.01), (20_000, 0.999), (19_000, 0.9)]))
def test_binom_tail_matches_the_scalar_reference(args):
    m, pairs = args
    ks = np.array([k for k, _ in pairs], dtype=np.int64)
    ps = np.array([p for _, p in pairs])
    want = [reference_binom_tail(m, k, p) for k, p in pairs]
    got = binom_tail(m, ks, ps)
    assert got.shape == (len(pairs),)
    assert_tails_close(got, want)
    # a scalar pair gives the same float as its place in the array
    assert [binom_tail(m, k, p) for k, p in pairs] == got.tolist()
    assert all(type(binom_tail(m, k, p)) is float for k, p in pairs[:3])


def test_searches_keep_their_outcomes_under_the_reference_tail(monkeypatch):
    # five sl3-extended searches reach the same statuses with the scalar
    # reference in place of binom_tail, at p-values within 1e-10 relative
    scen = make_scenario("1")
    lattice = sl3_extended_lattice()

    def searches():
        out = []
        for seed in range(5):
            data = scen.sample_train(np.random.default_rng(seed), 600)
            tester = ExceedanceTester(data, known_bound(1.0), gaussian_noise(scen.noise_sigma), 600)
            out.append(run_search(lattice, tester, SearchConfig(seed=seed)))
        return out

    fast = searches()
    monkeypatch.setattr(invariance, "binom_tail", lambda m, ks, ps: np.array(
        [reference_binom_tail(m, k, p) for k, p in zip(ks.tolist(), ps.tolist())]))
    slow = searches()
    for a, b in zip(fast, slow):
        assert (a.estimate, a.statuses) == (b.estimate, b.statuses)
        assert a.outcomes.keys() == b.outcomes.keys()
        for node, outcome in a.outcomes.items():
            assert_tails_close(outcome.p_value, b.outcomes[node].p_value)
    assert any(o.rejected for r in fast for o in r.outcomes.values())


def test_vector_binom_tail_validates_every_pair():
    assert binom_tail(5, np.array([], dtype=np.int64), np.array([])).shape == (0,)
    with pytest.raises(SymlatError, match="k=6"):
        binom_tail(5, np.array([2, 6]), np.array([0.5, 0.5]))
    with pytest.raises(SymlatError, match="1.5"):
        binom_tail(5, np.array([2, 3]), np.array([0.5, 1.5]))
    with pytest.raises(SymlatError, match="integers"):
        binom_tail(5, np.array([2.0]), np.array([0.5]))


def test_binom_tail_underflows_to_zero():
    # a tail below the smallest positive float must come back as exactly 0.0
    assert binom_tail(2, 2, 5e-324) == 0.0


def test_binom_tail_monotone_in_count():
    for m in (10, 123):
        for p in (0.05, 0.5, 0.9):
            vals = [binom_tail(m, k, p) for k in range(m + 1)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_binom_tail_large_m_log_space():
    # against a normal-tail sanity band and against the small-m route
    m, p = 10 ** 6, 0.3
    k = 300_000
    assert 0.4 < binom_tail(m, k, p) < 0.6
    tiny = binom_tail(m, 302_000, p)
    assert 0.0 < tiny < 1.0
    # the two internal routes agree where both apply
    approx = binom_tail(501, 60, 0.1)
    exact = float(exact_tail(501, 60, 0.1))
    assert math.isclose(approx, exact, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------

def test_quantile_examples():
    assert quantile([1, 2, 3, 4, 5], 1.0) == 5.0
    assert quantile([1, 2, 3, 4], 0.5) == 2.5
    assert quantile([3.3] * 7, 0.42) == 3.3
    with pytest.raises(SymlatError):
        quantile([], 0.5)
    with pytest.raises(SymlatError):
        quantile([1.0], 0.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40),
       st.floats(min_value=0.001, max_value=1.0))
def test_quantile_matches_type7_formula(values, q):
    got = quantile(values, q)
    s = np.sort(np.asarray(values, dtype=float))
    h = (len(s) - 1) * q
    lo = int(math.floor(h))
    hi = min(lo + 1, len(s) - 1)
    want = s[lo] + (h - lo) * (s[hi] - s[lo])
    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# noise models and bounds
# ---------------------------------------------------------------------------

def test_gaussian_noise_bound_value():
    noise = gaussian_noise(0.05)
    want = (2 * 0.05 / 0.1) * math.exp(-0.1 ** 2 / (4 * 0.05 ** 2)) / math.sqrt(2 * math.pi)
    assert math.isclose(noise.p_exceed(0.1), want, rel_tol=1e-12)
    assert noise.p_exceed(1e-9) == 1.0          # capped
    assert noise.p_exceed(-1.0) == 1.0
    assert gaussian_noise(0.0).p_exceed(0.5) == 0.0


def test_noise_bound_nonincreasing():
    noise = gaussian_noise(0.2)
    ts = np.linspace(1e-4, 3.0, 200)
    ps = [noise.p_exceed(float(t)) for t in ts]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert all(0.0 <= p <= 1.0 for p in ps)


def test_threshold_inversion():
    noise = gaussian_noise(0.05)
    for target in (0.01, 0.3, 0.9):
        t = noise.threshold_for(target)
        assert math.isclose(noise.p_exceed(t), target, rel_tol=1e-6)
    grid = noise.default_thresholds()
    assert len(grid) == 20 and np.all(np.diff(grid) > 0)
    assert gaussian_noise(0.0).default_thresholds().tolist() == [1e-12]


def reference_threshold(noise, target):
    """threshold_for with all 200 bisection steps, none skipped."""
    lo = noise.sigma * 1e-8
    hi = noise.sigma
    while noise._uncapped(hi) > target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if noise._uncapped(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e3),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@example(0.05, 0.01)
@example(1e-6, 1e-300)
@example(1e3, 1.0 - 1e-16)
def test_threshold_for_equals_full_bisection(sigma, target):
    noise = gaussian_noise(sigma)
    assert noise.threshold_for(target) == reference_threshold(noise, target)


def test_table_noise():
    noise = table_noise([0.1, 0.5], [0.8, 0.2])
    assert noise.p_exceed(0.05) == 1.0
    assert noise.p_exceed(0.3) == 0.8
    assert noise.p_exceed(0.7) == 0.2
    with pytest.raises(SymlatError):
        table_noise([0.5, 0.1], [0.2, 0.8])


def test_variation_bounds():
    b = known_bound(2.0, 0.5)
    a = np.zeros((1, 2))
    c = np.array([[3.0, 4.0]])
    assert np.isclose(b(a, c)[0], 2.0 * math.sqrt(5.0))
    assert b(a, a)[0] == 0.0
    with pytest.raises(SymlatError):
        known_bound(0.0)
    with pytest.raises(SymlatError):
        known_bound(1.0, 1.5)
    with pytest.raises(SymlatError):
        order_bound(0.0)
    with pytest.raises(SymlatError, match="scale 1"):
        invariance.VariationBound(invariance.ORDER_ONLY, scale=2.0)
    # an order-only bound is the distance power itself, bit for bit
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
    dist = np.linalg.norm(x - y, axis=1)
    assert np.array_equal(order_bound()(x, y), dist)
    assert np.array_equal(order_bound(0.5)(x, y), dist ** 0.5)
    assert np.array_equal(known_bound(3.0, 0.5)(x, y), 3.0 * dist ** 0.5)


# ---------------------------------------------------------------------------
# exceedance test
# ---------------------------------------------------------------------------

def _toy_invariant_data(rng, n=80, sigma=0.0):
    scen = make_scenario("fd-rotation", 2, sigma)
    return scen.sample_train(rng, n)


def test_zero_noise_violation_gives_zero_pvalue():
    rng = np.random.default_rng(0)
    data = _toy_invariant_data(rng, sigma=0.0)
    rotation, _, sampler = quarter_turn_actions(2)
    out = exceedance_test(data, rotation, sampler, known_bound(1e-6),
                          gaussian_noise(0.0), rng, m=200)
    assert out.p_value == 0.0 and out.rejected


def test_invariant_zero_noise_exact_bound_accepts_with_p_one():
    rng = np.random.default_rng(1)
    data = _toy_invariant_data(rng, sigma=0.0)
    _, half_turn, sampler = quarter_turn_actions(2)
    out = exceedance_test(data, half_turn, sampler, known_bound(1.0),
                          gaussian_noise(0.0), rng, m=300)
    assert np.all(out.statistics <= 0.0)
    assert np.all(out.exceed_counts == 0)
    assert out.p_value == 1.0 and not out.rejected


def test_identity_sampler_never_rejects_invariant_data():
    rotation, _, _ = quarter_turn_actions(2)
    table = rotation.group.table
    identity = uniform_sampler([FiniteElement(table, table.identity)])
    rejections = 0
    for rep in range(100):
        rng = np.random.default_rng(100 + rep)
        data = _toy_invariant_data(rng, sigma=0.05)
        out = exceedance_test(data, rotation, identity, known_bound(1.0 / math.e),
                              gaussian_noise(0.05), rng, m=100, thresholds=[0.1])
        rejections += out.rejected
    assert rejections / 100 <= 0.05


def test_outcome_invariants_and_determinism():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    data = _toy_invariant_data(np.random.default_rng(3), sigma=0.05)
    rotation, _, sampler = quarter_turn_actions(2)
    kw = dict(bound=known_bound(1.0 / math.e), noise=gaussian_noise(0.05), m=150)
    a = exceedance_test(data, rotation, sampler, rng=rng1, **kw)
    b = exceedance_test(data, rotation, sampler, rng=rng2, **kw)
    assert a.p_value == b.p_value
    assert np.array_equal(a.statistics, b.statistics)
    assert np.array_equal(a.exceed_counts, b.exceed_counts)
    assert (a.decision == -1) == (a.p_value <= a.alpha)
    assert 0.0 <= a.p_value <= 1.0


@pytest.mark.parametrize("m", [150, 700])
def test_tester_rows_change_no_outcome(m):
    # a tester reused across its tests gives what a direct call gives, at a
    # small m and at one whose tails lie far below double precision
    data = _toy_invariant_data(np.random.default_rng(3), n=120, sigma=0.05)
    rotation, half_turn, sampler = quarter_turn_actions(2)
    bound, noise = known_bound(1.0 / math.e), gaussian_noise(0.05)
    tester = ExceedanceTester(data, bound, noise, m)
    for seed, action in itertools.product(range(3), (rotation, half_turn)):
        shared = tester.test(action, sampler, 0.05, np.random.default_rng(seed))
        alone = exceedance_test(data, action, sampler, bound, noise,
                                np.random.default_rng(seed), m)
        assert shared.p_value == alone.p_value
        for a, b in ((shared.exceed_counts, alone.exceed_counts),
                     (shared.threshold_p, alone.threshold_p)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert alone.exceed_counts.dtype == np.int64
        assert alone.exceed_counts.tolist() == \
            [int((alone.statistics >= t).sum()) for t in alone.thresholds]


def test_non_finite_bound_and_noise_scales_are_refused():
    # on integer rows g . X_i often lands exactly on its neighbour, where an
    # infinite scale would make the bound inf * 0 = NaN, and each NaN
    # statistic would count as an exceedance (p = 1.9e-79 with 66 of them)
    rng = np.random.default_rng(0)
    X = rng.integers(-3, 4, (200, 2)).astype(float)
    data = RegressionDataset(X, np.exp(-np.abs(X[:, 0])) + rng.normal(0.0, 0.05, 200))
    _, half_turn, sampler = quarter_turn_actions(2)
    out = exceedance_test(data, half_turn, sampler, known_bound(1e300), gaussian_noise(0.05),
                          np.random.default_rng(1), m=200)
    assert np.isfinite(out.statistics).all() and out.p_value > 0.5
    with pytest.raises(SymlatError, match="finite"):
        known_bound(math.inf)
    # an infinite or NaN sigma would read p_exceed(t) = 1 at every t
    for sigma in (math.inf, math.nan):
        with pytest.raises(SymlatError, match="finite"):
            gaussian_noise(sigma)


def test_exceedance_validation_errors():
    rng = np.random.default_rng(0)
    data = _toy_invariant_data(rng)
    rotation, _, sampler = quarter_turn_actions(2)
    noise = gaussian_noise(0.05)
    with pytest.raises(SymlatError):
        exceedance_test(data, rotation, sampler, known_bound(1.0), noise, rng,
                        m=100, thresholds=[])
    with pytest.raises(SymlatError):
        exceedance_test(data, rotation, sampler, known_bound(1.0), noise, rng,
                        m=100, thresholds=[0.2, 0.1])
    with pytest.raises(SymlatError):
        exceedance_test(data, rotation, sampler, known_bound(1.0), noise, rng, m=0)
    with pytest.raises(SymlatError):
        exceedance_test(data, rotation, sampler, order_bound(), noise, rng, m=10)
    # nothing exceeds an infinite threshold and its p_t is 0, so its tail
    # would be 1 and accept any node
    for ts in ([math.inf], [0.1, math.inf], [math.nan]):
        with pytest.raises(SymlatError, match="finite"):
            exceedance_test(data, rotation, sampler, known_bound(1.0), noise, rng,
                            m=100, thresholds=ts)


def test_vacuous_threshold_warning():
    rng = np.random.default_rng(0)
    data = _toy_invariant_data(rng)
    rotation, _, sampler = quarter_turn_actions(2)
    noise = table_noise([0.05], [1.0])
    out = exceedance_test(data, rotation, sampler, known_bound(1.0), noise, rng, m=50)
    assert out.p_value == 1.0
    assert "all-thresholds-vacuous" in out.warnings


# ---------------------------------------------------------------------------
# permutation test
# ---------------------------------------------------------------------------

def test_perm_b1_end_to_end():
    rng = np.random.default_rng(5)
    data = _toy_invariant_data(rng, sigma=0.05)
    rotation, _, sampler = quarter_turn_actions(2)
    out = ratio_permutation_test(data, rotation, sampler, order_bound(), rng,
                                 m=50, B=1)
    assert out.p_value in (0.0, 1.0)
    assert out.p_value == float(out.statistics[0] <= out.baseline_quantile)
    assert out.rejected == (out.p_value == 0.0)
    # duplicated rows: pairs pass over reference rows at the point's own
    # location instead of failing, however small B is
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    dup = RegressionDataset(X, np.array([1.0, 1.0, 2.0, 3.0]))
    for seed in range(20):
        out = ratio_permutation_test(dup, rotation, sampler, order_bound(),
                                     np.random.default_rng(seed), m=40, B=1)
        assert out.p_value in (0.0, 1.0)
        assert np.isfinite(out.statistics).all()


def test_perm_trivial_action_rejection_rate():
    # g identically the identity: the replicate and baseline quantiles are
    # exchangeable, so the rejection rate stays within [0, 2 alpha]
    rotation, _, _ = quarter_turn_actions(2)
    table = rotation.group.table
    identity = uniform_sampler([FiniteElement(table, table.identity)])
    rejections = 0
    for rep in range(100):
        rng = np.random.default_rng(500 + rep)
        data = _toy_invariant_data(rng, sigma=0.05)
        out = ratio_permutation_test(data, rotation, identity, order_bound(), rng,
                                     m=80, B=50)
        rejections += out.rejected
    assert rejections / 100 <= 0.10


def test_perm_determinism():
    data = _toy_invariant_data(np.random.default_rng(3), sigma=0.05)
    rotation, _, sampler = quarter_turn_actions(2)
    a = ratio_permutation_test(data, rotation, sampler, order_bound(),
                               np.random.default_rng(11), m=60, B=30)
    b = ratio_permutation_test(data, rotation, sampler, order_bound(),
                               np.random.default_rng(11), m=60, B=30)
    assert a.p_value == b.p_value
    assert np.array_equal(a.statistics, b.statistics)
    assert a.baseline_quantile == b.baseline_quantile


def _replay_replicate(data, action, sampler, rng, m, q, transform):
    # one replicate by full scan: each query row's point is paired with the
    # nearest reference row at a different location (further than 1e-9 of
    # the point's norm), lowest row on ties
    order = rng.permutation(data.n)
    ref, pool = np.sort(order[:data.n // 2]), order[data.n // 2:]
    elements = sample_elements(sampler, rng, pool.size)
    pts = apply_elements(action, elements, data.X[pool]) if transform else data.X[pool]
    diffs = pts[:, None, :] - data.X[ref][None, :, :]
    sq = (diffs ** 2).sum(axis=2)
    sq[sq <= 1e-18 * (pts ** 2).sum(axis=1)[:, None]] = np.inf
    j = ref[sq.argmin(axis=1)]
    den = np.linalg.norm(pts - data.X[j], axis=1)
    live = np.isfinite(sq.min(axis=1)) & (den > 0)
    ratios = (np.abs(data.Y[pool] - data.Y[j]) / den)[live]
    return np.quantile(ratios[rng.integers(0, ratios.size, size=m)], q)


def _lattice_data(rng, n, invariant):
    # features on the 3 x 3 integer grid, which quarter turns map onto itself,
    # so most transformed points land exactly on data rows
    X = rng.integers(-1, 2, size=(n, 2)).astype(float)
    f = (X ** 2).sum(axis=1) if invariant else X[:, 0]
    return RegressionDataset(X, f + rng.normal(scale=0.05, size=n))


def test_perm_replicates_match_brute_force_pairing():
    # replays every replicate's draws (reference half, transforms, query
    # rows) and pairs them by a full scan; on the lattice data most ranked
    # lists hold only rows at the point's own location, so the full ranking
    # runs too
    rotation, _, quarter_turns = quarter_turn_actions(2)
    table = rotation.group.table
    smooth = _toy_invariant_data(np.random.default_rng(8), n=41, sigma=0.05)
    # points (a + 1/2, b) in shuffled order: quarter turns never land on a
    # point, and many pairs tie exactly
    grid = np.array([(a + 0.5, b) for a in range(-3, 3) for b in range(-3, 4)])
    grid = grid[np.random.default_rng(8).permutation(len(grid))]
    tied = RegressionDataset(grid, np.exp(-np.abs(grid[:, 0])) + 0.1 * grid[:, 1])
    lattice = _lattice_data(np.random.default_rng(8), 40, invariant=False)
    axes = so3_axes_lattice(np.eye(3))
    X3 = np.random.default_rng(8).normal(size=(41, 3))
    spatial = RegressionDataset(X3, np.linalg.norm(X3, axis=1) + X3[:, 2])
    cases = [(smooth, rotation, quarter_turns), (spatial, axes.action, axes.nodes[3].sampler),
             (tied, rotation, uniform_sampler([FiniteElement(table, 1), FiniteElement(table, 3)])),
             (lattice, rotation, quarter_turns)]
    m, q = 30, 0.9
    # B = 6 ranks the images under a finite sampler's elements once per test,
    # B = 2 ranks each replicate's points
    for B, (data, action, sampler) in itertools.product((6, 2), cases):
        out = ratio_permutation_test(data, action, sampler, order_bound(),
                                     np.random.default_rng(9), m=m, B=B, q=q)
        rng = np.random.default_rng(9)
        for k in range(B):
            want = _replay_replicate(data, action, sampler, rng, m, q, transform=True)
            assert math.isclose(out.statistics[k], want, rel_tol=1e-12)
        want = _replay_replicate(data, action, sampler, rng, m, q, transform=False)
        assert math.isclose(out.baseline_quantile, want, rel_tol=1e-12)
        assert out.p_value == np.mean(out.statistics <= out.baseline_quantile)


def test_perm_heavily_duplicated_features():
    # every row has many exact copies, and quarter turns map the grid onto
    # itself up to rounding: pairs skip reference rows at the same location
    # instead of failing or dividing by a rounding error.  Under invariance
    # the rejection rate at B = 40 is 3/41; 0.2 leaves room for 30 data sets
    rotation, _, sampler = quarter_turn_actions(2)
    rejected = {True: 0, False: 0}
    for seed in range(30):
        for invariant in rejected:
            rng = np.random.default_rng(seed)
            data = _lattice_data(rng, 60, invariant)
            out = ratio_permutation_test(data, rotation, sampler, order_bound(), rng,
                                         m=60, B=40)
            assert np.isfinite(out.statistics).all()
            rejected[invariant] += out.rejected
    assert rejected[False] == 30
    assert rejected[True] <= 6


def test_perm_redraws_zero_denominators():
    # duplicated rows make identity pairs with zero distance likely
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    Y = np.array([1.0, 1.0, 2.0, 3.0])
    data = RegressionDataset(X, Y)
    rotation, _, sampler = quarter_turn_actions(2)
    out = ratio_permutation_test(data, rotation, sampler, order_bound(),
                                 np.random.default_rng(1), m=40, B=10)
    assert np.isfinite(out.statistics).all()


def test_perm_degenerate_metric_raises():
    X = np.zeros((5, 2))
    X[:, 0] = 1.0   # all rows identical
    Y = np.arange(5.0)
    data = RegressionDataset(X, Y)
    rotation, _, sampler = quarter_turn_actions(2)
    with pytest.raises(DegenerateMetricError):
        ratio_permutation_test(data, rotation, sampler, order_bound(),
                               np.random.default_rng(1), m=10, B=3)


def test_perm_raises_when_ratios_overflow():
    # the half turn leaves the target invariant; a bound too small for the
    # response differences overflows the ratios to inf, and inf - inf in a
    # quantile is NaN, which ranked every replicate below the identity one
    data = make_scenario("fd-rotation", 2).sample_train(np.random.default_rng(1), 200)
    _, half_turn, sampler = quarter_turn_actions(2)
    out = ratio_permutation_test(data, half_turn, sampler, known_bound(1.0),
                                 np.random.default_rng(2), m=200, B=20)
    assert out.p_value == 0.55
    with pytest.raises(DegenerateMetricError, match="too small"):
        ratio_permutation_test(data, half_turn, sampler, known_bound(1e-310),
                               np.random.default_rng(2), m=200, B=20)


def test_perm_validation():
    data = _toy_invariant_data(np.random.default_rng(0))
    rotation, _, sampler = quarter_turn_actions(2)
    rng = np.random.default_rng(0)
    with pytest.raises(SymlatError):
        ratio_permutation_test(data, rotation, sampler, order_bound(), rng, m=0, B=5)
    with pytest.raises(SymlatError):
        ratio_permutation_test(data, rotation, sampler, order_bound(), rng,
                               m=5, B=5, q=0.0)


def test_perm_raises_when_a_replicate_draws_only_unpaired_rows():
    # three copies of one point and one other point: in a replicate whose
    # query half holds the other point, the copy beside it has no reference
    # row at another location, so its draws are dropped
    X = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    data = RegressionDataset(X, np.array([0.0, 1.0, 2.0, 3.0]))
    rotation, _, _ = quarter_turn_actions(2)
    table = rotation.group.table
    identity = uniform_sampler([FiniteElement(table, table.identity)])
    with pytest.raises(DegenerateMetricError):
        ratio_permutation_test(data, rotation, identity, order_bound(),
                               np.random.default_rng(0), m=1, B=20)
    out = ratio_permutation_test(data, rotation, identity, order_bound(),
                                 np.random.default_rng(0), m=40, B=20)
    assert np.isfinite(out.statistics).all()
    assert (out.replicate_m > 0).all() and (out.replicate_m < 40).any()


# ---------------------------------------------------------------------------
# blocked permutation pass against the per-replicate loop
# ---------------------------------------------------------------------------

def _replicate_loop(data, action, sampler, bound, rng, m, B, q):
    """The permutation test one replicate at a time: a full ranking of each
    replicate's points, its ratios, its m drawn positions (a position on an
    unpaired row dropped) and the quantile of the rest.  Returns the
    replicate quantiles and counts, then the identity replicate's."""
    index = NeighborIndex.from_dataset(data)
    X, Y, n = data.X, data.Y, data.n
    qs, ms = [], []
    for k in range(B + 1):
        order = rng.permutation(n)
        in_ref = np.zeros(n + 1, dtype=bool)   # the last slot stands for -1
        in_ref[order[:n // 2]] = True
        pool = order[n // 2:]
        elements = sample_elements(sampler, rng, pool.size)
        picks = rng.integers(0, pool.size, size=m)
        points = apply_elements(action, elements, X[pool]) if k < B else X[pool]
        lists = index.ranked(points, n)
        nbr = lists[np.arange(pool.size), in_ref[lists].argmax(axis=1)]
        den = bound(points, X[nbr])
        live = in_ref[nbr] & (den > 0.0)
        ratios = np.abs(Y[pool] - Y[nbr]) / np.where(live, den, 1.0)
        kept = picks[live[picks]]
        if not kept.size:
            raise DegenerateMetricError("every drawn row is unpaired")
        qs.append(quantile(ratios[kept], q))
        ms.append(kept.size)
    return np.array(qs[:B]), np.array(ms[:B]), qs[B], ms[B]


def _blocked_pass_cases():
    """(action, sampler) for the image path (a finite support of at most
    B / 2 elements), the finite path past it, a circle about an axis and
    Haar rotations."""
    chain, axes = cyclic_chain_lattice([1, 2, 4]), so3_axes_lattice(np.eye(3))
    table = chain.action.group.table
    return {
        "finite-c4": (chain.action, chain.node_by_label("C4").sampler),
        "point-mass": (chain.action, uniform_sampler([FiniteElement(table, 1)])),
        "circle-axis": (axes.action, axes.nodes[1].sampler),
        "haar-so3": (axes.action, axes.node_by_label("SO3").sampler),
    }


BLOCKED_PASS_CASES = _blocked_pass_cases()


def _layout_data(layout, rng, n, dim):
    X = rng.normal(size=(n, dim))
    if layout == "duplicated":
        X = np.round(X)   # a few grid points, each held by many rows
    Y = np.linalg.norm(X, axis=1) + rng.normal(scale=0.1, size=n)
    if layout == "zero-bound":
        Y = Y * 1e-17   # keeps the ratios over a subnormal bound finite
    return RegressionDataset(X, Y)


@pytest.mark.parametrize("case", sorted(BLOCKED_PASS_CASES))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 30),
       block=st.integers(3, 9), past=st.sampled_from([-1, 0, 1]),
       m=st.integers(1, 40), q=st.sampled_from([0.3, 0.9, 1.0]),
       layout=st.sampled_from(["smooth", "duplicated", "zero-bound"]))
def test_blocked_pass_matches_replicate_loop(case, seed, n, block, past, m, q, layout):
    # B + 1 replicates fill one block less one, exactly one block, or one
    # block and one replicate more
    action, sampler = BLOCKED_PASS_CASES[case]
    B = block + past - 1
    data = _layout_data(layout, np.random.default_rng(seed), n, action.dim)
    # the least subnormal scale rounds the bound to zero below half a unit
    # of distance, so those rows are unpaired
    bound = known_bound(5e-324) if layout == "zero-bound" else order_bound()
    try:
        want = _replicate_loop(data, action, sampler, bound,
                               np.random.default_rng(seed), m, B, q)
    except DegenerateMetricError:
        want = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariance, "_PERM_BLOCK_FLOATS", block * n)
        if want is None:
            with pytest.raises(DegenerateMetricError):
                ratio_permutation_test(data, action, sampler, bound,
                                       np.random.default_rng(seed), m, B, q=q)
            return
        out = ratio_permutation_test(data, action, sampler, bound,
                                     np.random.default_rng(seed), m, B, q=q)
    quantiles, counts, baseline, baseline_m = want
    assert np.array_equal(out.statistics, quantiles)
    assert np.array_equal(out.replicate_m, counts)
    assert out.baseline_quantile == baseline
    # the counting rule: the share of replicates at or below the identity
    # one, and the identity replicate's kept draws
    assert out.p_value == float(np.sum(quantiles <= baseline)) / B
    assert out.effective_m == baseline_m


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 40))
def test_image_tables_and_moved_blocks_pair_alike(seed, n):
    # the five SL(3) generators' images come from the pairing tables at
    # B = 10 and are moved block by block at B = 9; with the same orders and
    # elements both must give the same ratios and liveness, bit for bit
    sl3 = sl3_extended_lattice()
    sampler = sl3.node_by_label("SL3").sampler
    rng = np.random.default_rng(seed)
    tables = PairingTables(_layout_data("smooth", rng, n, 3))
    imaged = invariance._RatioDraws(tables, sl3.action, sampler, order_bound(), 10)
    moved = invariance._RatioDraws(tables, sl3.action, sampler, order_bound(), 9)
    assert imaged.imaged and not moved.imaged
    reps = 4
    orders = np.stack([rng.permutation(n) for _ in range(reps)])
    elements = [sample_elements(sampler, rng, n - n // 2) for _ in range(reps)]
    for transforms in (reps - 1, reps):
        want_ratios, want_live = imaged.pair(orders, elements, transforms)
        ratios, live = moved.pair(orders, elements, transforms)
        assert np.array_equal(live, want_live)
        assert np.array_equal(ratios, want_ratios, equal_nan=True)


@pytest.mark.parametrize("layout", ["smooth", "duplicated"])
def test_perm_memory_is_bounded_in_B(layout):
    # the recovery-perm shape: replicates are paired a block at a time, so
    # four times the replicates costs only their (B,) outputs; on duplicated
    # rows nearly every query row is ranked against every row, and that too
    # runs a block's budget of rows at a time
    chain = cyclic_chain_lattice([1, 2, 4])
    sampler = chain.node_by_label("C4").sampler
    rng = np.random.default_rng(0)
    data = _toy_invariant_data(rng, n=300, sigma=0.05) if layout == "smooth" \
        else _layout_data(layout, rng, 300, 2)

    def peak(B):
        tracemalloc.start()
        try:
            ratio_permutation_test(data, chain.action, sampler, order_bound(),
                                   np.random.default_rng(1), m=300, B=B)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(100), peak(400)
    assert small < 2 * 2 ** 20
    assert large <= small + 300 * (8 + 8)


def test_perm_tester_ranks_each_shared_element_once():
    # the C2 and C4 nodes share r180: one tester testing C2, C4 and C2 again
    # ranks the images under r90, r180 and r270 once each, and its outcomes
    # are those of fresh testers
    chain = cyclic_chain_lattice([1, 2, 4])
    data = _toy_invariant_data(np.random.default_rng(6), n=120, sigma=0.05)
    shared = PermutationTester(data, order_bound(), m=120, B=20)
    index, ranked = shared.tables.index, []
    rank = index.ranked

    def counted(queries, k):
        ranked.append(k)
        return rank(queries, k)

    index.ranked = counted
    c2, c4 = chain.node_by_label("C2"), chain.node_by_label("C4")
    for node in (c2, c4, c2):
        fresh = PermutationTester(data, order_bound(), m=120, B=20)
        got = shared.test_node(chain, node, 0.05, np.random.default_rng(7))
        want = fresh.test_node(chain, node, 0.05, np.random.default_rng(7))
        assert got.p_value == want.p_value
        assert np.array_equal(got.statistics, want.statistics)
        assert np.array_equal(got.replicate_m, want.replicate_m)
        assert got.baseline_quantile == want.baseline_quantile
    assert ranked.count(invariance._RANKED) == 3


# ---------------------------------------------------------------------------
# size control and generator power (shared with the acceptance suite)
# ---------------------------------------------------------------------------

SIZE_BOUND = 0.05 + 2.0 * math.sqrt(0.05 * 0.95 / 200.0)


def test_exceedance_size_control_under_null():
    _, half_turn, sampler = quarter_turn_actions(2)
    rejections = 0
    for rep in range(200):
        rng = np.random.default_rng(2000 + rep)
        data = _toy_invariant_data(rng, n=100, sigma=0.05)
        out = exceedance_test(data, half_turn, sampler, known_bound(1.0),
                              gaussian_noise(0.05), rng, m=100)
        rejections += out.rejected
    assert rejections / 200 <= SIZE_BOUND


def test_generator_only_sampling_retains_power():
    # sampling just one topological generator still detects non-invariance
    rotation, _, _ = quarter_turn_actions(2)
    table = rotation.group.table
    generator = uniform_sampler([FiniteElement(table, 1)])
    rejections = 0
    for rep in range(25):
        rng = np.random.default_rng(3000 + rep)
        data = _toy_invariant_data(rng, n=300, sigma=0.05)
        out = exceedance_test(data, rotation, generator, known_bound(1.0 / math.e),
                              gaussian_noise(0.05), rng, m=300, thresholds=[0.1])
        rejections += out.rejected
    assert rejections / 25 > 0.9
