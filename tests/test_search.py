import dataclasses
import math
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlat.builders import (
    c2xc2_lattice,
    cyclic_chain_lattice,
    d4_lattice,
    d4_pixel_lattice,
    d4_table,
    full_subgroup_lattice,
    sl3_extended_lattice,
    so3_axes_lattice,
    icosahedral_axes,
)
from symlat.data import RegressionDataset
from symlat.errors import SymlatError
from symlat.groups import (GroupAction, GroupDescriptor, cyclic_table,
                           direct_product_table)
from symlat.invariance import NoiseModel, gaussian_noise, known_bound, order_bound
from symlat.scenarios import make_scenario
from symlat.search import (
    ACCEPTED,
    PRUNED,
    REJECTED,
    SKIPPED_GREEDY,
    UNTESTED,
    _greedy_skippable,
    _node_rng,
    ExceedanceTester,
    OracleTester,
    PermutationTester,
    SearchConfig,
    bound_diagnostics,
    breadth_first_estimate,
    breadth_first_greedy_estimate,
    depth_first_estimate,
    resolve_tilde,
    run_search,
    write_hasse_annotation,
    write_result_csv,
)

ALL_LATTICES = [
    d4_lattice,
    lambda: cyclic_chain_lattice([1, 2, 4]),
    lambda: cyclic_chain_lattice([1, 2, 4, 8]),
    c2xc2_lattice,
    lambda: so3_axes_lattice(icosahedral_axes()),
    sl3_extended_lattice,
]

ALGORITHMS = [breadth_first_estimate, breadth_first_greedy_estimate,
              depth_first_estimate]


@pytest.mark.parametrize("lattice_fn", ALL_LATTICES)
def test_perfect_oracle_recovers_every_target(lattice_fn):
    lat = lattice_fn()
    for gmax in range(len(lat.nodes)):
        oracle = OracleTester.perfect(gmax)
        for algo in ALGORITHMS:
            result = algo(lat, oracle, SearchConfig(seed=3))
            assert result.estimate == gmax, (lat.node(gmax).label, algo.__name__)
            assert result.tilde_set == (gmax,)


def test_status_partition_and_pruning_soundness():
    lat = d4_lattice()
    rng = np.random.default_rng(9)
    for _ in range(50):
        accepted_ids = {lat.bottom}
        for node in lat.nodes:
            if node.node_id != lat.bottom and rng.random() < 0.6:
                accepted_ids.add(node.node_id)
        oracle = OracleTester(lambda l, n, ok=frozenset(accepted_ids):
                              n.node_id in ok)
        result = breadth_first_estimate(lat, oracle, SearchConfig(seed=1))
        statuses = result.statuses
        assert set(statuses) == {n.node_id for n in lat.nodes}
        for v, status in statuses.items():
            assert status in (ACCEPTED, REJECTED, PRUNED, SKIPPED_GREEDY, UNTESTED)
            if status == PRUNED:
                assert any(statuses[u] == REJECTED for u in lat.below(v) if u != v)
            if status in (ACCEPTED, REJECTED) and v != lat.bottom:
                # soundness: tested only when nothing strictly below was rejected
                assert not any(statuses[u] == REJECTED for u in lat.below(v) if u != v)
        alive = [v for v, s in statuses.items() if s == ACCEPTED]
        for a in result.tilde_set:
            assert statuses[a] == ACCEPTED
            assert not any(lat.leq[a, b] and a != b for b in alive)


def test_rejection_example_on_chain():
    chain = cyclic_chain_lattice([1, 2, 4])
    oracle = OracleTester.reject_labels(["C2"])
    result = breadth_first_estimate(chain, oracle, SearchConfig(seed=0))
    assert chain.node(result.estimate).label == "I"
    assert result.statuses[chain.node_by_label("C4").node_id] == PRUNED
    assert result.tests_performed == 1


def test_all_accept_reaches_top():
    for lattice_fn in ALL_LATTICES:
        lat = lattice_fn()
        result = breadth_first_estimate(lat, OracleTester(lambda lat, node: True),
                                        SearchConfig(seed=0))
        assert result.estimate == lat.top
        assert result.tilde_set == (lat.top,)


def test_d4_image_example_tilde_set():
    lat = d4_lattice()
    oracle = OracleTester.reject_labels(["<h>", "<v>"])
    result = breadth_first_estimate(lat, oracle, SearchConfig(seed=0))
    tilde_labels = {lat.node(i).label for i in result.tilde_set}
    assert tilde_labels == {"<r90>", "<d,r180>"}
    assert result.statuses[lat.node_by_label("<h,r180>").node_id] == PRUNED
    assert result.statuses[lat.node_by_label("D4").node_id] == PRUNED
    alt = resolve_tilde(result.tilde_set, lat, "meet-of-maxima",
                        np.random.default_rng(0))
    assert lat.node(alt).label == "<r180>"


def test_greedy_skips_generated_nodes():
    lat = d4_lattice()
    oracle = OracleTester.perfect(lat.node_by_label("<h,r180>").node_id)
    result = breadth_first_greedy_estimate(lat, oracle, SearchConfig(seed=0))
    # <h,r180> is the join of the accepted <h>, <v>, <r180>; <r90> is a pure
    # refinement of <r180> and must still be tested
    assert result.statuses[lat.node_by_label("<h,r180>").node_id] == SKIPPED_GREEDY
    assert result.statuses[lat.node_by_label("<r90>").node_id] == REJECTED
    assert result.estimate == lat.node_by_label("<h,r180>").node_id


def test_greedy_matches_plain_with_perfect_oracle():
    for lattice_fn in ALL_LATTICES:
        lat = lattice_fn()
        for gmax in range(len(lat.nodes)):
            oracle = OracleTester.perfect(gmax)
            plain = breadth_first_estimate(lat, oracle, SearchConfig(seed=5))
            greedy = breadth_first_greedy_estimate(lat, oracle, SearchConfig(seed=5))
            assert greedy.estimate == plain.estimate
            assert greedy.tests_performed <= plain.tests_performed


def test_greedy_on_chain_equals_plain():
    chain = cyclic_chain_lattice([1, 2, 4])
    oracle = OracleTester(lambda lat, node: True)
    plain = breadth_first_estimate(chain, oracle, SearchConfig(seed=1))
    greedy = breadth_first_greedy_estimate(chain, oracle, SearchConfig(seed=1))
    assert plain.tests_performed == greedy.tests_performed == 2
    assert plain.estimate == greedy.estimate


def test_greedy_savings_on_klein_group():
    lat = c2xc2_lattice()
    oracle = OracleTester(lambda lat, node: True)
    plain = breadth_first_estimate(lat, oracle, SearchConfig(seed=1))
    greedy = breadth_first_greedy_estimate(lat, oracle, SearchConfig(seed=1))
    assert greedy.statuses[lat.top] == SKIPPED_GREEDY
    assert plain.computation_units - greedy.computation_units >= 4


def c2xc4_lattice():
    """All subgroups of C2 x C4: a sign flip times quarter turns in R^3."""
    table = direct_product_table(cyclic_table(2), cyclic_table(4))
    flips = []
    for a in range(2):
        for b in range(4):
            c, s = np.cos(np.pi * b / 2), np.sin(np.pi * b / 2)
            m = np.eye(3)
            m[0, 0] = (-1.0) ** a
            m[1:, 1:] = [[c, -s], [s, c]]
            flips.append(m)
    group = GroupDescriptor("finite", "C2xC4", table=table)
    action = GroupAction(group, 3, matrices=np.stack(flips))
    return full_subgroup_lattice(table, action, top_label="C2xC4")


def test_greedy_savings_on_abelian_product():
    # C2 x C4: the two joins of single-factor subgroups (orders 4 and 8)
    # are skipped under all-accept, saving at least 4 + 8 = 12 units
    lat = c2xc4_lattice()
    oracle = OracleTester(lambda lat, node: True)
    plain = breadth_first_estimate(lat, oracle, SearchConfig(seed=3))
    greedy = breadth_first_greedy_estimate(lat, oracle, SearchConfig(seed=3))
    assert plain.computation_units - greedy.computation_units >= 12
    assert greedy.estimate == lat.top


def test_greedy_uses_the_join_for_continuous_nodes():
    lat = so3_axes_lattice(icosahedral_axes())
    result = breadth_first_greedy_estimate(lat, OracleTester(lambda lat, node: True),
                                           SearchConfig(seed=2))
    assert result.statuses[lat.top] == SKIPPED_GREEDY
    assert result.estimate == lat.top


def reference_greedy_skippable(lattice, node, prev_level_alive, facts):
    """The generation-fact rule the join rule replaced: closure of the
    surviving finite nodes below on the node's table, or a declared set of
    >= 2 surviving nodes generating a continuous node."""
    below = [u for u in prev_level_alive if lattice.leq[u, node.node_id]]
    group = node.group
    if group.is_finite:
        finite_below = [lattice.node(u).group for u in below
                        if lattice.node(u).group.is_finite
                        and lattice.node(u).group.table is group.table]
        if len(finite_below) >= 2:
            union = set()
            for g in finite_below:
                union |= g.members
            if group.table.closure(union) == group.members:
                return True
        return False
    for fact in facts.get(node.node_id, ()):
        if len(fact) >= 2 and fact <= prev_level_alive:
            return True
    return False


def _abstract_lattice(table):
    """All subgroups of ``table`` under a matrix action without realisation
    (enough for the greedy rule, which never samples)."""
    group = GroupDescriptor("finite", "G", table=table)
    return full_subgroup_lattice(table, GroupAction(group, 2))


def _circle_pair_facts(k, top):
    return {top: [frozenset({i, j}) for i in range(1, k + 1) for j in range(i + 1, k + 1)]}


def _greedy_reference_cases():
    c2, c3 = cyclic_table(2), cyclic_table(3)
    ico = so3_axes_lattice(icosahedral_axes())
    k = len(icosahedral_axes())
    cases = [(d4_lattice(), {}), (d4_pixel_lattice(3), {}),
             (cyclic_chain_lattice([1, 2, 4, 8]), {}),
             (cyclic_chain_lattice([1, 3, 6, 12]), {}), (c2xc2_lattice(), {}),
             (ico, _circle_pair_facts(k, ico.top)),
             (sl3_extended_lattice(), _circle_pair_facts(k, k + 1))]
    for table in (cyclic_table(12), direct_product_table(c2, cyclic_table(4)),
                  direct_product_table(direct_product_table(c2, c2), c2),
                  direct_product_table(c3, c3), direct_product_table(c2, cyclic_table(6)),
                  d4_table()):
        cases.append((_abstract_lattice(table), {}))
    return cases


def _alive_sets(level, rng):
    if len(level) <= 10:
        return [set(c) for c in chain.from_iterable(
            combinations(level, r) for r in range(len(level) + 1))]
    return [{v for v in level if rng.random() < 0.5} for _ in range(400)]


def test_greedy_join_rule_matches_the_generation_rule():
    rng = np.random.default_rng(10)
    compared = 0
    for lat, facts in _greedy_reference_cases():
        levels = lat.enumerate_by_height()
        for prev, level in zip(levels, levels[1:]):
            for alive in _alive_sets(prev, rng):
                for v in level:
                    node = lat.node(v)
                    assert (_greedy_skippable(lat, node, alive)
                            == reference_greedy_skippable(lat, node, alive, facts)), \
                        (node.label, sorted(alive))
                    compared += 1
    assert compared == 1726


def test_depth_first_examples():
    chain = cyclic_chain_lattice([1, 2, 4])
    accept = OracleTester(lambda lat, node: True)
    result = depth_first_estimate(chain, accept, SearchConfig(seed=0))
    assert chain.node(result.estimate).label == "C4"
    assert result.tests_performed == 2

    result = depth_first_estimate(chain, OracleTester.reject_labels(["C2"]),
                                  SearchConfig(seed=0))
    assert chain.node(result.estimate).label == "I"

    # depth-first greediness: it follows the first acceptance and never sees
    # other invariant branches
    lat = d4_lattice()
    ok = {lat.bottom, lat.node_by_label("<h>").node_id,
          lat.node_by_label("<d>").node_id}
    oracle = OracleTester(lambda l, n: n.node_id in ok)
    result = depth_first_estimate(lat, oracle, SearchConfig(seed=0))
    assert lat.node(result.estimate).label == "<h>"
    assert result.statuses[lat.node_by_label("<d>").node_id] == UNTESTED
    assert result.tests_performed <= len(lat.nodes)
    # terminates within the lattice height: each recursion climbs one level
    assert result.tests_performed >= 2


DEPTH_LATTICES = {"d4": d4_lattice(), "c2xc4": c2xc4_lattice(),
                  "sl3-extended": sl3_extended_lattice()}


class RecordingTester(OracleTester):
    """Oracle over a fixed accept-set that records each node's alpha."""

    def __init__(self, accepted):
        super().__init__(lambda lat, node: node.node_id in accepted)
        self.alphas = {}

    def test_node(self, lattice, node, alpha, rng):
        self.alphas[node.node_id] = alpha
        return super().test_node(lattice, node, alpha, rng)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(DEPTH_LATTICES)), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_depth_first_climbs_the_cover_relation(name, data, seed):
    lat = DEPTH_LATTICES[name]
    flags = data.draw(st.lists(st.booleans(), min_size=len(lat.nodes), max_size=len(lat.nodes)))
    accepted = {v for v, ok in enumerate(flags) if ok} | {lat.bottom}
    config = SearchConfig(algorithm="depth", seed=seed)
    tester = RecordingTester(accepted)
    result = depth_first_estimate(lat, tester, config)

    chain = sorted((v for v, s in result.statuses.items() if s == ACCEPTED),
                   key=lambda v: lat.node(v).height)
    assert chain[0] == lat.bottom and chain[-1] == result.estimate
    assert all(lat.covers[lo, hi] for lo, hi in zip(chain, chain[1:]))
    assert set(chain) <= accepted
    for v in np.flatnonzero(lat.covers[result.estimate]):
        assert v in result.outcomes and result.statuses[v] == REJECTED
    assert result.tests_performed == len(result.outcomes) == len(tester.alphas)
    for v, alpha in tester.alphas.items():
        assert sum(1 for u in chain if lat.covers[u, v]) == 1
        assert alpha == config.alpha
        assert (result.statuses[v] == ACCEPTED) == (v in accepted)


def test_resolve_tilde_rules():
    lat = d4_lattice()
    tilde = (lat.node_by_label("<r90>").node_id,
             lat.node_by_label("<d,r180>").node_id)
    meet = resolve_tilde(tilde, lat, "meet-of-maxima", np.random.default_rng(0))
    assert lat.node(meet).label == "<r180>"
    assert resolve_tilde(tilde[::-1], lat, "meet-of-maxima",
                         np.random.default_rng(1)) == meet
    single = resolve_tilde((3,), lat, "uniform-random", np.random.default_rng(0))
    assert single == 3
    picks = {resolve_tilde(tilde, lat, "uniform-random", np.random.default_rng(s))
             for s in range(30)}
    assert picks <= set(tilde) and len(picks) == 2
    with pytest.raises(SymlatError):
        resolve_tilde((), lat, "uniform-random", np.random.default_rng(0))


def test_bound_diagnostics_worked_example():
    chain = cyclic_chain_lattice([1, 2, 4])
    c2 = chain.node_by_label("C2").node_id
    b = bound_diagnostics(chain, c2, power=0.9, alpha=0.05)
    assert b.frontier_size == 1
    assert b.subgroups_below == 2
    assert math.isclose(b.invariant_probability, 0.9)
    assert math.isclose(b.exact_recovery_probability, 0.8)
    perfect = bound_diagnostics(chain, c2, power=1.0, alpha=0.0)
    assert perfect.invariant_probability == 1.0
    assert perfect.exact_recovery_probability == 1.0
    top = bound_diagnostics(chain, chain.top, power=0.7, alpha=0.05)
    assert top.frontier_size == 0
    assert top.invariant_probability == 1.0


def _toy_tester(data, kind="exceedance"):
    if kind == "exceedance":
        return ExceedanceTester(data, known_bound(1.0 / math.e), gaussian_noise(0.05),
                                m=data.n, thresholds=[0.1])
    return PermutationTester(data, order_bound(), m=data.n, B=40)


def test_search_determinism_with_real_testers():
    scen = make_scenario("fd-rotation", 2)
    data = scen.sample_train(np.random.default_rng(6), 150)
    chain = cyclic_chain_lattice([1, 2, 4])
    for kind in ("exceedance", "permutation"):
        tester = _toy_tester(data, kind)
        a = breadth_first_estimate(chain, tester, SearchConfig(seed=99))
        b = breadth_first_estimate(chain, tester, SearchConfig(seed=99))
        assert a.estimate == b.estimate
        assert a.statuses == b.statuses
        assert all(a.outcomes[k].p_value == b.outcomes[k].p_value for k in a.outcomes)


def _same_outcome(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x is None or isinstance(x, (str, tuple)):
            assert x == y, f.name
        else:
            assert np.array_equal(x, y, equal_nan=True), f.name


STREAM_LATTICES = {"d4": (d4_lattice, 2), "chain": (lambda: cyclic_chain_lattice([1, 2, 4]), 2),
                   "sl3-extended": (sl3_extended_lattice, 3)}


@pytest.mark.parametrize("name", sorted(STREAM_LATTICES))
@pytest.mark.parametrize("kind", ["exceedance", "permutation"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(20, 60),
       tilt=st.sampled_from([0.0, 0.3, 1.0]))
def test_every_node_is_tested_on_its_own_stream(name, kind, seed, n, tilt):
    # each search outcome is that of a fresh test of the node alone on the
    # node's stream, whatever else the level tests before it
    build, dim = STREAM_LATTICES[name]
    lattice = build()
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    Y = np.linalg.norm(X, axis=1) + tilt * X[:, 0] + rng.normal(scale=0.05, size=n)
    data = RegressionDataset(X, Y)
    config = SearchConfig(seed=seed)
    for greedy in (False, True):
        result = breadth_first_estimate(lattice, _toy_tester(data, kind), config, greedy=greedy)
        assert result.outcomes
        for v, outcome in result.outcomes.items():
            fresh = _toy_tester(data, kind).test_node(lattice, lattice.node(v), config.alpha,
                                                      _node_rng(seed, v))
            _same_outcome(outcome, fresh)


def test_run_search_dispatch_and_config_validation():
    chain = cyclic_chain_lattice([1, 2, 4])
    oracle = OracleTester(lambda lat, node: True)
    for algo in ("breadth", "breadth-greedy", "depth"):
        result = run_search(chain, oracle, SearchConfig(algorithm=algo, seed=0))
        assert result.estimate == chain.top
    with pytest.raises(SymlatError):
        SearchConfig(algorithm="sideways")
    with pytest.raises(SymlatError):
        SearchConfig(alpha=1.5)
    with pytest.raises(SymlatError):
        SearchConfig(tie_rule="coin-flip")


def test_d4_search_with_real_tester_runs():
    # node samplers, membership, and the matrix realisation must all share
    # one table instance; this exercises the whole chain on the D4 lattice
    lat = d4_lattice()
    scen = make_scenario("fd-rotation", 2)
    data = scen.sample_train(np.random.default_rng(12), 150)
    tester = ExceedanceTester(data, known_bound(1.0), gaussian_noise(0.05),
                              m=150, thresholds=[0.1])
    result = breadth_first_estimate(lat, tester, SearchConfig(seed=13))
    assert result.tests_performed >= 5
    X = data.X[:10]
    for node in lat.nodes:
        out, valid = node.projection.apply(X)
        assert valid.all() and out.shape == (10, 2)


def test_default_threshold_grid_is_built_once_per_tester(monkeypatch):
    # the README quickstart's search: no grid given, several nodes tested
    rng = np.random.default_rng(0)
    X = rng.normal(0, np.sqrt(2), size=(200, 3))
    data = RegressionDataset(X, np.sin(-np.linalg.norm(X, axis=1))
                             + rng.normal(0, 0.01, size=200))
    noise, lattice, config = gaussian_noise(0.01), sl3_extended_lattice(), SearchConfig(seed=1)
    built = []
    default_thresholds = NoiseModel.default_thresholds

    def counted(self, *args, **kwargs):
        built.append(self)
        return default_thresholds(self, *args, **kwargs)

    monkeypatch.setattr(NoiseModel, "default_thresholds", counted)
    result = run_search(lattice, ExceedanceTester(data, known_bound(1.0), noise, m=200), config)
    assert result.tests_performed > 1
    assert built == [noise]
    monkeypatch.undo()

    given = ExceedanceTester(data, known_bound(1.0), noise, m=200,
                             thresholds=noise.default_thresholds())
    again = run_search(lattice, given, config)
    assert (again.estimate, again.statuses) == (result.estimate, result.statuses)
    assert result.outcomes.keys() == again.outcomes.keys()
    for key, outcome in result.outcomes.items():
        other = again.outcomes[key]
        assert outcome.p_value == other.p_value
        assert np.array_equal(outcome.thresholds, other.thresholds)
        assert np.array_equal(outcome.exceed_counts, other.exceed_counts)


def test_d4_pixel_lattice_search():
    from symlat.builders import d4_pixel_lattice
    lat = d4_pixel_lattice(4)
    assert lat.action.dim == 16
    # an oracle search over the pixel lattice behaves like the plane one
    result = breadth_first_estimate(lat, OracleTester.reject_labels(["<h>", "<v>"]),
                                    SearchConfig(seed=1))
    assert {lat.node(i).label for i in result.tilde_set} == {"<r90>", "<d,r180>"}
    # and node projections canonicalise images exactly
    rng = np.random.default_rng(3)
    X = rng.integers(0, 4, size=(5, 16)).astype(float)
    top = lat.node_by_label("D4")
    out, _ = top.projection.apply(X)
    from symlat.groups import FiniteElement, apply_to_rows
    for i in range(8):
        g = FiniteElement(top.group.table, i)
        moved = apply_to_rows(lat.action, g, X)
        out2, _ = top.projection.apply(moved)
        assert np.array_equal(out, out2)


def test_result_exports(tmp_path):
    lat = d4_lattice()
    result = breadth_first_estimate(lat, OracleTester.reject_labels(["<h>", "<v>"]),
                                    SearchConfig(seed=0))
    csv_path = tmp_path / "result.csv"
    write_result_csv(result, lat, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "node,label,status,p_value"
    assert len(lines) == 1 + len(lat.nodes)
    ann_path = tmp_path / "hasse.txt"
    write_hasse_annotation(result, lat, ann_path)
    text = ann_path.read_text()
    assert text.count("node\t") == len(lat.nodes)
    assert text.count("edge\t") == int(lat.covers.sum())
