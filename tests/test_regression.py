import math

import numpy as np
import pytest

from symlat.builders import (
    c2xc2_lattice,
    cyclic_chain_lattice,
    icosahedral_axes,
    sl3_extended_lattice,
)
from symlat.data import RegressionDataset
from symlat.errors import SymlatError
from symlat.groups import (
    GroupAction,
    GroupDescriptor,
    SamplerSpec,
    apply_to_rows,
    sample_elements,
)
from symlat.invariance import gaussian_noise, known_bound
from symlat.projections import (
    colatitude_projection,
    identity_projection,
    nonzero_projection,
    orbit_canonical_projection,
    radial_projection,
)
from symlat.regression import (
    fit_lce,
    mspe,
    project_dataset,
    select_bandwidth,
    symmetrized_estimator,
)
from symlat.scenarios import make_scenario
from symlat.search import ExceedanceTester, OracleTester, SearchConfig


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_projection_basics():
    radial = radial_projection(3)
    out, valid = radial.apply(np.array([[3.0, 4.0, 0.0]]))
    assert out[0, 0] == 5.0 and valid.all()
    nz = nonzero_projection(3)
    out, _ = nz.apply(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                [0.0, 5e-13, 0.0]]))
    assert out[:, 0].tolist() == [0.0, 1.0, 0.0]
    ident = identity_projection(2)
    X = np.array([[1.0, 2.0]])
    out, _ = ident.apply(X)
    assert np.array_equal(out, X)


def test_orbit_canonical_lexicographic_minimum():
    # two-element group flipping the signs of the first two coordinates
    from symlat.groups import cyclic_table, FiniteElement
    table = cyclic_table(2)
    group = GroupDescriptor("finite", "C2", table=table)
    mats = np.stack([np.eye(3), np.diag([-1.0, -1.0, 1.0])])
    action = GroupAction(group, 3, matrices=mats)
    elements = [FiniteElement(table, 0), FiniteElement(table, 1)]
    proj = orbit_canonical_projection(action, elements)
    out, _ = proj.apply(np.array([[1.0, -2.0, 3.0]]))
    # orbit is {(1,-2,3), (-1,2,3)}; the lexicographic minimum flips
    assert out[0].tolist() == [-1.0, 2.0, 3.0]


def test_colatitude_invariance_and_zero_flagging():
    u = icosahedral_axes()[0]
    proj = colatitude_projection(u)
    rng = np.random.default_rng(0)
    sampler = SamplerSpec("haar-circle", axis=u)
    action = GroupAction(GroupDescriptor("so3", "SO3"), 3)
    X = rng.normal(size=(100, 3))
    base, _ = proj.apply(X)
    for g in sample_elements(sampler, rng, 100):
        moved, _ = proj.apply(apply_to_rows(action, g, X))
        assert np.max(np.abs(moved - base)) <= 1e-9
    out, valid = proj.apply(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    assert not valid[0] and valid[1]


def test_builder_node_projections_are_invariant():
    rng = np.random.default_rng(1)
    for lat in (sl3_extended_lattice(), cyclic_chain_lattice([1, 2, 4]),
                c2xc2_lattice()):
        X = rng.normal(size=(50, lat.action.dim))
        for node in lat.nodes:
            if node.projection is None or node.sampler is None:
                continue
            base, valid = node.projection.apply(X)
            for g in sample_elements(node.sampler, rng, 20):
                if not node.group.contains(g, action=lat.action):
                    continue  # sampler generators outside the node never occur here
                moved, _ = node.projection.apply(apply_to_rows(lat.action, g, X))
                assert np.max(np.abs(moved[valid] - base[valid])) <= 1e-9


def test_project_dataset_drops_invalid_rows():
    u = np.array([0.0, 0.0, 1.0])
    X = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    data = RegressionDataset(X, np.array([1.0, 2.0, 3.0]))
    with pytest.warns(RuntimeWarning):
        projected = project_dataset(data, colatitude_projection(u))
    assert projected.n == 2
    assert projected.Y.tolist() == [2.0, 3.0]


# ---------------------------------------------------------------------------
# kernel fit
# ---------------------------------------------------------------------------

def test_fit_lce_limits():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    Y = np.array([0.0, 1.0, 4.0, 9.0])
    data = RegressionDataset(X, Y)
    tiny = fit_lce(data, bandwidth=1e-9)
    assert np.allclose(tiny.predict(X), Y)
    flat = fit_lce(data, bandwidth=1e9)
    assert np.allclose(flat.predict(np.array([[1.3]])), Y.mean(), atol=1e-6)
    const = fit_lce(RegressionDataset(X, np.full(4, 2.5)), bandwidth=0.7)
    assert np.allclose(const.predict(np.array([[0.4], [9.0]])), 2.5)


def test_predictions_stay_in_response_range():
    rng = np.random.default_rng(2)
    data = RegressionDataset(rng.normal(size=(60, 2)), rng.normal(size=60))
    reg = fit_lce(data)
    preds = reg.predict(rng.normal(size=(200, 2)) * 3.0)
    assert preds.min() >= data.Y.min() - 1e-12
    assert preds.max() <= data.Y.max() + 1e-12


def test_bandwidth_selection_tracks_signal():
    rng = np.random.default_rng(3)
    X = rng.uniform(-3, 3, size=(120, 1))
    Y = np.sin(X[:, 0]) + rng.normal(0, 0.05, size=120)
    h = select_bandwidth(X, Y)
    assert h.shape == (1,) and 0.01 < h[0] < 3.0
    data = RegressionDataset(X, Y)
    reg = fit_lce(data)
    grid = np.linspace(-2.5, 2.5, 50)[:, None]
    err = np.mean((reg.predict(grid) - np.sin(grid[:, 0])) ** 2)
    assert err < 0.01


def test_fit_lce_validation():
    data = RegressionDataset(np.zeros((3, 2)), np.arange(3.0))
    with pytest.raises(SymlatError):
        fit_lce(data, bandwidth=[-1.0, 1.0])
    with pytest.raises(SymlatError):
        fit_lce(data, bandwidth=[1.0])


# ---------------------------------------------------------------------------
# symmetrised estimators
# ---------------------------------------------------------------------------

def _chain_and_data(n=60, seed=0):
    scen = make_scenario("fd-rotation", 2)
    data = scen.sample_train(np.random.default_rng(seed), n)
    return cyclic_chain_lattice([1, 2, 4]), data


def test_identity_estimate_equals_plain_lce():
    chain, data = _chain_and_data()
    reject_everything = OracleTester(lambda lat, node: node.node_id == lat.bottom)
    est = symmetrized_estimator(data, chain, lambda d: reject_everything,
                                SearchConfig(seed=5))
    assert est.node_id == chain.bottom
    plain = fit_lce(data)
    queries = np.random.default_rng(1).normal(size=(40, 2)) * 2
    assert np.array_equal(est.predict(queries), plain.predict(queries))
    assert np.array_equal(est.regressor.bandwidths, plain.bandwidths)


def test_radial_estimate_is_rotation_invariant():
    lat = sl3_extended_lattice()
    scen = make_scenario("1")
    data = scen.sample_train(np.random.default_rng(4), 120)
    so3 = lat.node_by_label("SO3").node_id
    est = symmetrized_estimator(data, lat, lambda d: OracleTester.perfect(so3),
                                SearchConfig(seed=6))
    assert est.node_id == so3
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    base = est.predict(X)
    for g in sample_elements(SamplerSpec("haar-so3"), rng, 10):
        rotated = X @ g.matrix.T
        assert np.allclose(est.predict(rotated), base, atol=1e-12)


def test_split_variant_uses_disjoint_halves():
    chain, data = _chain_and_data(n=61)
    accept_all = OracleTester(lambda lat, node: True)
    seen = []

    def factory(d):
        seen.append(d)
        return accept_all

    est = symmetrized_estimator(data, chain, factory, SearchConfig(seed=7),
                                variant="split")
    assert len(seen) == 1
    search_data = seen[0]
    assert search_data.n == 61 // 2
    assert np.array_equal(search_data.X, data.X[:30])
    assert est.regressor.X.shape[0] == 61 - 30
    with pytest.raises(SymlatError):
        symmetrized_estimator(data, chain, factory, SearchConfig(seed=7),
                              variant="thirds")


def test_symmetrised_beats_plain_on_radial_scenario():
    scen = make_scenario("1")
    lat = sl3_extended_lattice()
    rng = np.random.default_rng(10)
    train = scen.sample_train(rng, 100)
    held = scen.sample_test(rng, 200)

    def factory(d):
        return ExceedanceTester(d, known_bound(1.0), gaussian_noise(0.01), m=d.n)

    est = symmetrized_estimator(train, lat, factory, SearchConfig(seed=11))
    plain = fit_lce(train)
    assert mspe(est, held) < mspe(plain, held)


# ---------------------------------------------------------------------------
# MSPE
# ---------------------------------------------------------------------------

def test_mspe_identities():
    X = np.arange(10.0)[:, None]
    Y = np.full(10, 3.0)
    data = RegressionDataset(X, Y)

    class Perfect:
        def predict(self, q):
            return np.full(len(q), 3.0)

    class Zero:
        def predict(self, q):
            return np.zeros(len(q))

    assert mspe(Perfect(), data) == 0.0
    assert mspe(Zero(), data) == 9.0
    rng = np.random.default_rng(0)
    Y2 = rng.normal(size=50)
    data2 = RegressionDataset(rng.normal(size=(50, 1)), Y2)

    class Mean:
        def predict(self, q):
            return np.full(len(q), Y2.mean())

    assert math.isclose(mspe(Mean(), data2), Y2.var(), rel_tol=1e-12)
