"""Acceptance gate: one test per criterion, run at the stated tolerances.

Each test prints a PASS line (visible under ``pytest -s``) when its criterion
holds.  Criterion 5's power and size clauses are asserted exactly as stated,
for both tests, at the stated sampling budget.
"""

import math
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

from symlat.builders import (
    c2xc2_lattice,
    cyclic_chain_lattice,
    d4_action,
    d4_lattice,
    d4_table,
    full_subgroup_lattice,
    icosahedral_axes,
    sl3_extended_lattice,
    so3_axes_lattice,
)
from symlat.config import ExperimentConfig, LatticeSettings, TestSettings
from symlat.data import NeighborIndex
from symlat.experiments import run_group_recovery, run_power_curve
from symlat.groups import (
    FiniteElement,
    SamplerSpec,
    apply_to_rows,
    compose,
    sample_elements,
)
from symlat.invariance import (
    binom_tail,
    exceedance_test,
    gaussian_noise,
    known_bound,
    order_bound,
    ratio_permutation_test,
)
from symlat.regression import fit_lce, mspe, symmetrized_estimator
from symlat.scenarios import make_scenario, quarter_turn_actions
from symlat.search import (
    ExceedanceTester,
    OracleTester,
    PermutationTester,
    SearchConfig,
    SKIPPED_GREEDY,
    _node_rng,
    breadth_first_estimate,
    breadth_first_greedy_estimate,
    depth_first_estimate,
)

ALPHA = 0.05


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. Lattice exactness
# ---------------------------------------------------------------------------

def test_criterion_1_lattice_exactness():
    hand = d4_lattice()
    shared = d4_table()
    brute = full_subgroup_lattice(shared, d4_action(table=shared), top_label="D4")
    assert len(hand.nodes) == 10 and len(brute.nodes) == 10
    hand_ids = {n.group.members: n.node_id for n in hand.nodes}
    brute_ids = {n.group.members: n.node_id for n in brute.nodes}
    assert set(hand_ids) == set(brute_ids)
    for members_a, ha in hand_ids.items():
        for members_b, hb in hand_ids.items():
            ba, bb = brute_ids[members_a], brute_ids[members_b]
            assert bool(hand.leq[ha, hb]) == bool(brute.leq[ba, bb])
            assert bool(hand.covers[ha, hb]) == bool(brute.covers[ba, bb])
    _report("criterion 1",
            "hand-built D4 lattice matches brute force (10 nodes, same covers)")


# ---------------------------------------------------------------------------
# 2. Oracle search exactness
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_search_exactness():
    lattices = [
        ("D4", d4_lattice()),
        ("chain C4", cyclic_chain_lattice([1, 2, 4])),
        ("chain C8", cyclic_chain_lattice([1, 2, 4, 8])),
        ("SO(3) axes", so3_axes_lattice(icosahedral_axes())),
        ("SL(3) extended", sl3_extended_lattice()),
    ]
    algorithms = [breadth_first_estimate, breadth_first_greedy_estimate,
                  depth_first_estimate]
    checks = 0
    for name, lat in lattices:
        for gmax in range(len(lat.nodes)):
            oracle = OracleTester.perfect(gmax)
            for algo in algorithms:
                result = algo(lat, oracle, SearchConfig(seed=17))
                assert result.estimate == gmax, (name, gmax, algo.__name__)
                checks += 1
    _report("criterion 2", f"{checks} perfect-oracle searches all exact")


# ---------------------------------------------------------------------------
# 3. Greedy savings on C2 x C2
# ---------------------------------------------------------------------------

def test_criterion_3_greedy_savings():
    lat = c2xc2_lattice()
    oracle = OracleTester(lambda lat, node: True)
    plain = breadth_first_estimate(lat, oracle, SearchConfig(seed=2))
    greedy = breadth_first_greedy_estimate(lat, oracle, SearchConfig(seed=2))
    assert greedy.statuses[lat.top] == SKIPPED_GREEDY
    assert lat.top not in greedy.outcomes
    saved = plain.computation_units - greedy.computation_units
    assert saved >= 4
    assert greedy.estimate == plain.estimate == lat.top
    _report("criterion 3", f"top never tested, computation units saved = {saved}")


# ---------------------------------------------------------------------------
# 4. Numerical oracles
# ---------------------------------------------------------------------------

def test_criterion_4_numerical_oracles():
    tol = Fraction(1, 10 ** 12)
    worst = Fraction(0)
    for m in range(1, 51):
        for tenths in range(11):
            p = tenths / 10.0
            q = Fraction(p)
            terms = [comb(m, j) * q ** j * (1 - q) ** (m - j) for j in range(m + 1)]
            tail = Fraction(0)
            exact = [Fraction(0)] * (m + 2)
            for j in range(m, -1, -1):
                tail += terms[j]
                exact[j] = tail
            for k in range(m + 1):
                got = Fraction(binom_tail(m, k, p))
                want = exact[k]
                if want == 0:
                    assert got == 0
                else:
                    rel = abs(got - want) / want
                    worst = max(worst, rel)
                    assert rel <= tol, (m, k, p)

    rng = np.random.default_rng(4242)
    pts = rng.normal(size=(1000, 5))
    queries = np.vstack([rng.normal(size=(400, 5)),
                         pts[rng.integers(0, 1000, size=100)]])
    index = NeighborIndex(pts)
    got = index.query_many(queries)
    want = np.empty(len(queries), dtype=np.int64)
    for i, qpt in enumerate(queries):
        diffs = pts - qpt
        want[i] = int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))
    assert np.array_equal(got, want)
    _report("criterion 4",
            f"binomial tail worst relative error {float(worst):.2e}; "
            "1000-point neighbour index identical to brute force")


# ---------------------------------------------------------------------------
# 5. Power/size reproduction at n = m = 300
# ---------------------------------------------------------------------------

def _power_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        kind="power-curve", seed=20240817, replicates=100, sample_sizes=(300,),
        fmt="csv", scenario_id="fd-rotation", scenario_dim=2, scenario_sigma=0.05,
        test=TestSettings(types=("exceedance", "permutation"), alpha=ALPHA,
                          thresholds=(0.1,), lipschitz=1.0 / math.e,
                          q=0.95, B=100))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_criterion_5_power_and_size(tmp_path):
    cfg = _power_config()
    paths = run_power_curve(cfg, tmp_path)
    rows = {}
    for line in Path(paths["csv"]).read_text().strip().splitlines()[1:]:
        test_name, hyp, n, rate, reps = line.split(",")
        rows[(test_name, hyp)] = float(rate)
    asym_power = rows[("exceedance", "non-invariant")]
    asym_size = rows[("exceedance", "invariant")]
    perm_power = rows[("permutation", "non-invariant")]
    perm_size = rows[("permutation", "invariant")]
    print(f"criterion 5 rates: exceedance power={asym_power:.2f} "
          f"size={asym_size:.2f}; permutation power={perm_power:.2f} "
          f"size={perm_size:.2f}")
    assert asym_power >= 0.95
    assert asym_size <= 0.12
    assert perm_size <= 0.15
    assert perm_power >= 0.90, (
        "permutation-variant power at n = m = 300, q = 0.95, B = 100 "
        f"is {perm_power:.2f}; it pairs each transformed query row with its "
        "nearest reference row, and is expected to reach 0.90 here as it "
        "does at larger ratio budgets (e.g. m = 3000)")
    _report("criterion 5", "both tests within the stated power/size bands")


def test_criterion_5_supplement_permutation_power_at_larger_budget(tmp_path):
    # not part of the gate: the permutation test keeps its power and size
    # once the ratio budget m decouples from n (m >> n), where each
    # replicate draws many more ratios than its query half holds
    cfg = _power_config(replicates=40)
    cfg.test.types = ("permutation",)
    cfg.test.perm_m = 3000
    paths = run_power_curve(cfg, tmp_path)
    rows = {}
    for line in Path(paths["csv"]).read_text().strip().splitlines()[1:]:
        test_name, hyp, n, rate, reps = line.split(",")
        rows[(test_name, hyp)] = float(rate)
    assert rows[("permutation", "non-invariant")] >= 0.90
    assert rows[("permutation", "invariant")] <= 0.15
    _report("criterion 5 supplement",
            f"permutation power at m = 3000: "
            f"{rows[('permutation', 'non-invariant')]:.2f}")


# ---------------------------------------------------------------------------
# 6. Group recovery
# ---------------------------------------------------------------------------

def _recovery_config(dim: int, sizes, replicates=100) -> ExperimentConfig:
    return ExperimentConfig(
        kind="group-recovery", seed=20240817, replicates=replicates,
        sample_sizes=tuple(sizes), fmt="csv", scenario_id="fd-rotation",
        scenario_dim=dim, scenario_sigma=0.05,
        test=TestSettings(types=("exceedance",), alpha=ALPHA, thresholds=(0.1,),
                          lipschitz=1.0 / math.e),
        lattice=LatticeSettings(builder="cyclic-chain", orders=(1, 2, 4), dim=dim))


def _recovery_rows(path):
    rows = {}
    for line in Path(path).read_text().strip().splitlines()[1:]:
        test_name, n, p_i, p_c2, p_c4 = line.split(",")
        rows[(test_name, int(n))] = (float(p_i), float(p_c2), float(p_c4))
    return rows


def test_criterion_6_group_recovery(tmp_path):
    paths = run_group_recovery(_recovery_config(2, (300,)), tmp_path / "f2")
    p_i, p_c2, p_c4 = _recovery_rows(paths["csv"])[("exceedance", 300)]
    assert p_c2 >= 0.8
    assert abs(p_i + p_c2 + p_c4 - 1.0) < 1e-12
    paths4 = run_group_recovery(_recovery_config(4, (20, 30)), tmp_path / "f4")
    rows4 = _recovery_rows(paths4["csv"])
    for n in (20, 30):
        p_i4, p_c24, p_c44 = rows4[("exceedance", n)]
        assert p_c44 >= max(p_i4, p_c24), f"C4 not modal at n={n}"
    _report("criterion 6",
            f"f2 recovery of C2 at n=300 is {p_c2:.2f}; "
            "C4 is the modal estimate for f4 at n <= 30")


# ---------------------------------------------------------------------------
# 7. Estimator ordering
# ---------------------------------------------------------------------------

def _run_estimators(scenario_id: str, n: int, replicates: int):
    scen = make_scenario(scenario_id)
    lat = sl3_extended_lattice()
    noise = gaussian_noise(scen.noise_sigma)
    thresholds = noise.default_thresholds()
    a_vals = np.empty(replicates)
    b_vals = np.empty(replicates)
    for rep in range(replicates):
        rng = np.random.default_rng(
            np.random.SeedSequence([20240817, 3, int(scenario_id), n, rep]))
        train = scen.sample_train(rng, n)
        held = scen.sample_test(rng, n)

        def factory(d):
            return ExceedanceTester(d, known_bound(1.0), noise, m=d.n,
                                    thresholds=thresholds)

        seed = int(rng.integers(0, 2 ** 63 - 1))
        est = symmetrized_estimator(train, lat, factory, SearchConfig(seed=seed))
        a_vals[rep] = mspe(fit_lce(train), held)
        b_vals[rep] = mspe(est, held)
    return a_vals, b_vals


def test_criterion_7_estimator_ordering():
    a1, b1 = _run_estimators("1", 200, 100)
    mean_a1, mean_b1 = float(a1.mean()), float(b1.mean())
    assert mean_b1 < mean_a1
    assert mean_a1 / mean_b1 >= 2.0
    # seed-wise ordering: the symmetrised fit wins in at least 80 of 100 seeds
    assert int((b1 < a1).sum()) >= 80
    a3, b3 = _run_estimators("3", 200, 100)
    ratio3 = float(b3.mean()) / float(a3.mean())
    assert 0.8 <= ratio3 <= 1.25
    _report("criterion 7",
            f"scenario 1 MSPE ratio A/B = {mean_a1 / mean_b1:.1f} (>= 2), "
            f"seed-wise wins {int((b1 < a1).sum())}/100; "
            f"scenario 3 MSPE ratio B/A = {ratio3:.3f} (in [0.8, 1.25])")


# ---------------------------------------------------------------------------
# 8. Property suites
# ---------------------------------------------------------------------------

def test_criterion_8_property_suites(tmp_path):
    # group axioms: exhaustive associativity for D4 and random SO(3) triples
    t = d4_table().table
    assert np.array_equal(t[t], t[:, t])
    rng = np.random.default_rng(88)
    so3 = SamplerSpec("haar-so3")
    triples = sample_elements(so3, rng, 300)
    for a, b, c in zip(triples[::3], triples[1::3], triples[2::3]):
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) <= 1e-8

    # action compatibility on 100 random pairs
    action = d4_action(2)
    table = action.group.table
    for _ in range(100):
        i, j = rng.integers(0, 8, size=2)
        x = rng.normal(size=(1, 2))
        g, h = FiniteElement(table, int(i)), FiniteElement(table, int(j))
        lhs = apply_to_rows(action, g, apply_to_rows(action, h, x))
        rhs = apply_to_rows(action, compose(g, h), x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8

    # projection invariance at 1e-9 on every lattice node with a sampler
    lat = sl3_extended_lattice()
    X = rng.normal(size=(60, 3))
    for node in lat.nodes:
        if node.projection is None or node.sampler is None:
            continue
        if node.node_id == lat.top:
            continue  # the non-zero indicator is checked via its definition
        base, valid = node.projection.apply(X)
        for g in sample_elements(node.sampler, rng, 34):
            if not node.group.contains(g, action=lat.action):
                continue
            moved, _ = node.projection.apply(apply_to_rows(lat.action, g, X))
            assert np.max(np.abs(moved[valid] - base[valid])) <= 1e-9
    nz = lat.node(lat.top).projection
    for g in sample_elements(lat.node(lat.top).sampler, rng, 34):
        moved, _ = nz.apply(apply_to_rows(lat.action, g, X))
        base, _ = nz.apply(X)
        assert np.array_equal(moved, base)

    # symmetrised-predictor invariance (radial node, exact)
    scen = make_scenario("1")
    data = scen.sample_train(rng, 90)
    so3_node = lat.node_by_label("SO3").node_id
    est = symmetrized_estimator(data, lat, lambda d: OracleTester.perfect(so3_node),
                                SearchConfig(seed=8))
    queries = rng.normal(size=(25, 3))
    base = est.predict(queries)
    for g in sample_elements(SamplerSpec("haar-so3"), rng, 20):
        assert np.allclose(est.predict(queries @ g.matrix.T), base, atol=1e-12)

    # deterministic seeding: byte-identical CSVs
    cfg = _power_config(replicates=5, sample_sizes=(40,))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = run_power_curve(cfg, out1)
    p2 = run_power_curve(cfg, out2)
    assert Path(p1["csv"]).read_bytes() == Path(p2["csv"]).read_bytes()

    # size control of both tests under the null
    bound = ALPHA + 2.0 * math.sqrt(ALPHA * (1 - ALPHA) / 200.0)
    scen2 = make_scenario("fd-rotation", 2)
    _, half_turn, sampler = quarter_turn_actions(2)
    noise = gaussian_noise(0.05)
    rej_exc = 0
    rej_perm = 0
    for rep in range(200):
        rng_rep = np.random.default_rng(60_000 + rep)
        data = scen2.sample_train(rng_rep, 200)
        out = exceedance_test(data, half_turn, sampler, known_bound(1.0), noise,
                              rng_rep, m=200)
        rej_exc += out.rejected
        out = ratio_permutation_test(data, half_turn, sampler, order_bound(),
                                     rng_rep, m=200, B=100)
        rej_perm += out.rejected
    assert rej_exc / 200.0 <= bound
    assert rej_perm / 200.0 <= bound
    _report("criterion 8",
            f"axioms, compatibility, projection/predictor invariance, "
            f"bit-identical CSVs; sizes {rej_exc / 200:.3f} (exceedance) and "
            f"{rej_perm / 200:.3f} (permutation) within {bound:.3f}")


# ---------------------------------------------------------------------------
# 9. Search outcomes equal direct tests on each node's own stream
# ---------------------------------------------------------------------------

def _same_outcome(got, want):
    for field in ("statistics", "exceed_counts"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None and b is None) or np.array_equal(a, b), field
    assert got.p_value == want.p_value
    assert got.decision == want.decision
    assert got.baseline_quantile == want.baseline_quantile


def test_criterion_9_batch_equivalence():
    # the guarantee that replaced the shared-stream batch tests: a search
    # tests node v on its own stream, so its outcome is the direct test's
    chain = cyclic_chain_lattice([1, 2, 4])
    scen = make_scenario("fd-rotation", 2)
    data = scen.sample_train(np.random.default_rng(31), 150)
    bound, noise = known_bound(1.0 / math.e), gaussian_noise(0.05)
    exceedance = ExceedanceTester(data, bound, noise, m=150, thresholds=[0.1])
    permutation = PermutationTester(data, order_bound(), m=120, B=40)
    tested = 0
    for tester, seed in ((exceedance, 99), (permutation, 100)):
        result = breadth_first_estimate(chain, tester, SearchConfig(alpha=ALPHA, seed=seed))
        for v, got in result.outcomes.items():
            sampler, rng = chain.node(v).sampler, _node_rng(seed, v)
            if tester is exceedance:
                want = exceedance_test(data, chain.action, sampler, bound, noise, rng,
                                       m=150, alpha=ALPHA, thresholds=[0.1])
            else:
                want = ratio_permutation_test(data, chain.action, sampler, order_bound(),
                                              rng, m=120, B=40, alpha=ALPHA)
            _same_outcome(got, want)
            tested += 1
    assert tested >= 2
    _report("criterion 9", f"{tested} search outcomes bit-identical to direct tests "
            "on each node's own stream")
