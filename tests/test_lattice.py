from functools import reduce
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symlat import search
from symlat.builders import (
    c2xc2_lattice,
    cyclic_chain_lattice,
    d4_action,
    d4_lattice,
    d4_pixel_action,
    d4_pixel_lattice,
    d4_table,
    full_subgroup_lattice,
    icosahedral_axes,
    sl3_extended_lattice,
    so3_axes_lattice,
)
from symlat.errors import LatticeError
from symlat.groups import (
    FiniteElement,
    SL3,
    GroupDescriptor,
    act,
    cyclic_table,
)
from symlat.lattice import Lattice, SubgroupNode, lattice_from_member_sets, order_from_covers
from symlat.search import (
    ACCEPTED,
    ALGORITHMS,
    BREADTH_GREEDY,
    DEPTH,
    PRUNED,
    SKIPPED_GREEDY,
    OracleTester,
    SearchConfig,
    breadth_first_greedy_estimate,
    run_search,
)


def brute_closure(table, seed):
    """Independent subgroup closure used as the meet/join oracle."""
    members = set(seed) | {table.identity}
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                c = int(table.table[a, b])
                if c not in members:
                    members.add(c)
                    changed = True
    return frozenset(members)


# ---------------------------------------------------------------------------
# builders vs brute force
# ---------------------------------------------------------------------------

def test_d4_lattice_matches_brute_force():
    hand = d4_lattice()
    shared = d4_table()
    brute = full_subgroup_lattice(shared, d4_action(table=shared), top_label="D4")
    assert len(hand.nodes) == 10 and len(brute.nodes) == 10
    hand_sets = {n.group.members: n.node_id for n in hand.nodes}
    brute_sets = {n.group.members: n.node_id for n in brute.nodes}
    assert set(hand_sets) == set(brute_sets)
    # identical cover relation under the member-set matching
    for a in hand.nodes:
        for b in hand.nodes:
            ha, hb = a.node_id, b.node_id
            ba, bb = brute_sets[a.group.members], brute_sets[b.group.members]
            assert hand.leq[ha, hb] == brute.leq[ba, bb]
            assert hand.covers[ha, hb] == brute.covers[ba, bb]


@pytest.mark.parametrize("table_builder", [
    lambda: cyclic_table(12),
    lambda: d4_table(),
    lambda: cyclic_table(16),
])
def test_small_group_brute_force_lattices_validate(table_builder):
    # construction itself checks the partial order and meets/joins against
    # member intersections/closures
    table = table_builder()
    from symlat.groups import GroupAction, planar_rotation_matrix
    angles = 2.0 * np.pi * np.arange(table.size) / table.size
    if table is None:
        return
    if table.size in (12, 16):
        group = GroupDescriptor("finite", "C", table=table)
        action = GroupAction(group, 2,
                             matrices=[planar_rotation_matrix(a, (0, 1), 2) for a in angles])
    else:
        action = d4_action(table=table)
    lat = full_subgroup_lattice(table, action)
    assert lat.node(lat.bottom).group.order == 1
    assert lat.node(lat.top).group.order == table.size


def test_meet_join_against_element_set_oracle():
    for lat in (d4_lattice(), c2xc2_lattice(), cyclic_chain_lattice([1, 2, 4])):
        table = lat.nodes[0].group.table
        for a in lat.nodes:
            for b in lat.nodes:
                meet_members = lat.node(lat.meet(a.node_id, b.node_id)).group.members
                assert meet_members == (a.group.members & b.group.members)
                join_members = lat.node(lat.join(a.node_id, b.node_id)).group.members
                assert join_members == brute_closure(table, a.group.members | b.group.members)


def test_meet_examples():
    lat = d4_lattice()
    c4 = lat.node_by_label("<r90>").node_id
    klein = lat.node_by_label("<d,r180>").node_id
    assert lat.node(lat.meet(c4, klein)).label == "<r180>"
    for n in lat.nodes:
        assert lat.meet(n.node_id, n.node_id) == n.node_id
    h = lat.node_by_label("<h>").node_id
    v = lat.node_by_label("<v>").node_id
    assert lat.meet(h, v) == lat.bottom


def test_join_examples():
    lat = d4_lattice()
    h = lat.node_by_label("<h>").node_id
    v = lat.node_by_label("<v>").node_id
    join = lat.node(lat.join(h, v))
    labels = {lat.nodes[0].group.table.labels[i] for i in join.group.members}
    assert labels == {"e", "h", "v", "r180"}
    for n in lat.nodes:
        assert lat.join(n.node_id, lat.bottom) == n.node_id
    chain = cyclic_chain_lattice([1, 2, 4])
    c2 = chain.node_by_label("C2").node_id
    c4 = chain.node_by_label("C4").node_id
    assert chain.join(c2, c4) == c4


def test_enumerate_by_height_levels():
    assert [len(l) for l in d4_lattice().enumerate_by_height()] == [1, 5, 3, 1]
    assert [len(l) for l in cyclic_chain_lattice([1, 2, 4]).enumerate_by_height()] == [1, 1, 1]
    ico = so3_axes_lattice(icosahedral_axes())
    assert [len(l) for l in ico.enumerate_by_height()] == [1, 6, 1]


def test_heights_are_topological():
    for lat in (d4_lattice(), sl3_extended_lattice(), c2xc2_lattice()):
        rows, cols = np.nonzero(lat.covers)
        for lo, hi in zip(rows, cols):
            assert lat.node(hi).height >= lat.node(lo).height + 1
        assert lat.node(lat.bottom).height == 0
        assert lat.node(lat.bottom).group.order == 1


def _same_sampler(a, b):
    """Equal kind, spread, axis and support; finite elements of two builds
    sit on two tables, so they compare by label."""
    return (a.kind == b.kind and a.std == b.std
            and list(map(repr, a.elements)) == list(map(repr, b.elements))
            and (a.axis is None) == (b.axis is None)
            and (a.axis is None or np.array_equal(a.axis, b.axis)))


TILTED_AXES = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])


@pytest.mark.parametrize("axes, angle_std", [(icosahedral_axes(), None),
                                             (TILTED_AXES, None),
                                             (icosahedral_axes(), 0.3)],
                         ids=["icosahedral", "tilted", "gaussian-angles"])
def test_sl3_extended_lattice_is_so3_lattice_plus_top(monkeypatch, axes, angle_std):
    builds = []
    init = Lattice.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Lattice, "__init__", counting_init)
    extended = sl3_extended_lattice(axes, angle_std=angle_std)
    assert len(builds) == 1
    base = so3_axes_lattice(axes, angle_std=angle_std)
    k = len(axes)
    assert len(extended.nodes) == k + 3
    np.testing.assert_array_equal(extended.leq[:k + 2, :k + 2], base.leq)
    for got, want in zip(extended.nodes, base.nodes):
        assert got.label == want.label and got.height == want.height
        assert _same_sampler(got.sampler, want.sampler)
    top = extended.node(k + 2)
    assert top.label == "SL3" and top.group.kind == SL3
    assert extended.top == k + 2 and extended.leq[:, k + 2].all()
    assert extended.covers[k + 1, k + 2] and extended.covers[:, k + 2].sum() == 1
    assert top.sampler.kind == "uniform" and top.projection.kind == "nonzero"
    assert extended.enumerate_by_height() == base.enumerate_by_height() + [[k + 2]]


# every lattice builder, with the full subgroup lattice of D4
LATTICE_BUILDS = [
    lambda: cyclic_chain_lattice([1, 2, 4, 8]),
    lambda: d4_lattice(),
    lambda: d4_pixel_lattice(4),
    lambda: c2xc2_lattice(),
    lambda: so3_axes_lattice(icosahedral_axes()),
    lambda: sl3_extended_lattice(),
    lambda: (lambda t: full_subgroup_lattice(t, d4_action(table=t), top_label="D4"))(d4_table()),
]


def loop_frontier(lat, gmax):
    """The frontier by its definition, one node at a time."""
    out = set()
    n = len(lat.nodes)
    for h in range(n):
        if lat.leq[h, gmax]:
            continue
        strict_below = [u for u in range(n) if u != h and lat.leq[u, h]]
        if not all(lat.leq[u, gmax] for u in strict_below):
            continue
        if any(lat.covers[u, h] and lat.leq[u, gmax] for u in strict_below):
            out.add(h)
    return out


def test_frontier_examples():
    chain = cyclic_chain_lattice([1, 2, 4])
    c2 = chain.node_by_label("C2").node_id
    assert chain.frontier(c2) == {chain.node_by_label("C4").node_id}
    assert chain.frontier(chain.top) == set()
    lat = d4_lattice()
    r90 = lat.node_by_label("<r90>").node_id
    assert {lat.node(i).label for i in lat.frontier(r90)} == {"<h>", "<v>", "<d>", "<a>"}
    for build in LATTICE_BUILDS:
        lat = build()
        for gmax in range(len(lat.nodes)):
            assert lat.frontier(gmax) == loop_frontier(lat, gmax)


def test_order_implies_member_inclusion():
    for lat in (d4_lattice(), c2xc2_lattice(), cyclic_chain_lattice([1, 2, 4, 8])):
        for a in lat.nodes:
            for b in lat.nodes:
                if lat.leq[a.node_id, b.node_id]:
                    assert a.group.members <= b.group.members


def test_absorption_laws_hold():
    for lat in (d4_lattice(), sl3_extended_lattice()):
        for a in lat.nodes:
            for b in lat.nodes:
                i, j = a.node_id, b.node_id
                assert lat.meet(i, lat.join(i, j)) == i
                assert lat.join(i, lat.meet(i, j)) == i


def pairwise_meet_join(leq):
    """Meet and join tables by the definition, one pair at a time; raises the
    LatticeError that Lattice raises for the first pair, in row-major order,
    without a unique meet.  Every meet is checked before any join, and with
    a top, meets for all pairs leave no pair without a join."""
    n = len(leq)
    meet = np.empty((n, n), dtype=np.int64)
    join = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            lower = np.flatnonzero(leq[:, a] & leq[:, b])
            greatest = [c for c in lower if leq[lower, c].all()]
            if len(greatest) != 1:
                raise LatticeError(f"nodes {a} and {b} lack a unique meet")
            meet[a, b] = greatest[0]
    for a in range(n):
        for b in range(n):
            upper = np.flatnonzero(leq[a] & leq[b])
            least = [c for c in upper if leq[c, upper].all()]
            assert len(least) == 1, (a, b)
            join[a, b] = least[0]
    return meet, join


def _tables(lat):
    n = len(lat.nodes)
    return (np.array([[lat.meet(a, b) for b in range(n)] for a in range(n)]),
            np.array([[lat.join(a, b) for b in range(n)] for a in range(n)]))


@pytest.mark.parametrize("build", LATTICE_BUILDS)
def test_meet_join_tables_match_pairwise_definition(build):
    lat = build()
    meet, join = pairwise_meet_join(lat.leq)
    got_meet, got_join = _tables(lat)
    assert np.array_equal(got_meet, meet) and np.array_equal(got_join, join)


@st.composite
def bounded_orders(draw):
    """A random order on inner nodes 1..k, closed, with a bottom 0 and a top
    k + 1 added.  Covers go up in a random ranking of the inner nodes, so
    any pair can be the first without a meet."""
    k = draw(st.integers(0, 9))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    rank = np.array(draw(st.permutations(range(k))), dtype=np.int64)
    inner = order_from_covers(k, chosen)[np.ix_(rank, rank)]
    leq = np.zeros((k + 2, k + 2), dtype=bool)
    leq[1:k + 1, 1:k + 1] = inner
    leq[0] = True
    leq[:, k + 1] = True
    return leq


# a = 1 and b = 2 lie above x = 3, y = 4 and below c = 5, d = 6: the pair
# (a, b) lacks both a meet and a join, and it is the first pair to fail
DOUBLE_BOWTIE = order_from_covers(8, [(0, 3), (0, 4), (3, 1), (3, 2), (4, 1), (4, 2),
                                      (1, 5), (1, 6), (2, 5), (2, 6), (5, 7), (6, 7)])


def _order_lattice(leq):
    """``leq`` as a lattice of a trivial bottom and SL3-kind nodes."""
    bottom = GroupDescriptor("finite", "I", table=cyclic_table(1, ["e"]))
    groups = [bottom] + [GroupDescriptor(SL3, f"G{i}") for i in range(1, len(leq))]
    nodes = [SubgroupNode(i, g) for i, g in enumerate(groups)]
    return Lattice(nodes, leq, cyclic_chain_lattice([1, 2]).action)


@settings(max_examples=150, deadline=None)
@given(bounded_orders().flatmap(lambda leq: st.tuples(
    st.just(leq), st.lists(st.integers(0, len(leq) - 1), min_size=3, max_size=3))))
@example((DOUBLE_BOWTIE, [1, 2, 3]))
def test_meet_join_on_random_orders_match_pairwise_definition(args):
    leq, triple = args
    try:
        meet, join = pairwise_meet_join(leq)
    except LatticeError as exc:
        with pytest.raises(LatticeError) as err:
            _order_lattice(leq)
        assert str(err.value) == str(exc)
        return
    lat = _order_lattice(leq)
    got_meet, got_join = _tables(lat)
    assert np.array_equal(got_meet, meet) and np.array_equal(got_join, join)
    assert lat.meet(*triple) == reduce(lambda x, y: meet[x, y], triple)
    assert lat.join(*triple) == reduce(lambda x, y: join[x, y], triple)


# the four-node diamond, with both middle nodes accepted: greedy skips the top
DIAMOND = order_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@settings(max_examples=150, deadline=None)
@given(bounded_orders(), st.sets(st.integers(0, 10)))
@example(DIAMOND, {1, 2})
def test_greedy_statuses_match_a_pairwise_join_skip_rule(leq, accepted):
    try:
        join = pairwise_meet_join(leq)[1]
    except LatticeError:
        return
    lat = _order_lattice(leq)

    def skippable(lattice, node, prev_level_alive):
        below = [u for u in prev_level_alive if leq[u, node.node_id]]
        return len(below) >= 2 and reduce(lambda x, y: join[x, y], below) == node.node_id

    tester = OracleTester(lambda lattice, node: node.node_id in accepted)
    got = breadth_first_greedy_estimate(lat, tester, SearchConfig(seed=0))
    with mock.patch.object(search, "_greedy_skippable", skippable):
        want = breadth_first_greedy_estimate(lat, tester, SearchConfig(seed=0))
    assert got.statuses == want.statuses


def _mixed_order_lattice(leq):
    """``leq`` as a lattice whose even nodes are finite, node i the cyclic
    group of order i + 1 on a table of its own (so no two are compared by
    members), and whose odd nodes are SL3-kind."""
    groups = [GroupDescriptor("finite", f"G{i}", table=cyclic_table(i + 1)) if i % 2 == 0
              else GroupDescriptor(SL3, f"G{i}") for i in range(len(leq))]
    nodes = [SubgroupNode(i, g) for i, g in enumerate(groups)]
    return Lattice(nodes, leq, cyclic_chain_lattice([1, 2]).action)


@settings(max_examples=150, deadline=None)
@given(bounded_orders(), st.sets(st.integers(0, 10)), st.sampled_from(ALGORITHMS))
@example(DIAMOND, {1, 2}, BREADTH_GREEDY)
def test_search_results_are_packed_from_the_tested_nodes(leq, accepted, algorithm):
    try:
        lat = _mixed_order_lattice(leq)
    except LatticeError:
        return
    tester = OracleTester(lambda lattice, node: node.node_id in accepted)
    result = run_search(lat, tester, SearchConfig(algorithm=algorithm, seed=0))
    assert result.tests_performed == len(result.outcomes)
    assert result.computation_units == sum(
        lat.node(v).group.order for v in result.outcomes if lat.node(v).group.is_finite)
    assert not any(result.statuses[v] in (PRUNED, SKIPPED_GREEDY) for v in result.outcomes)
    alive = [v for v, s in result.statuses.items() if s in (ACCEPTED, SKIPPED_GREEDY)]
    maxima = [v for v in alive if not any(u != v and leq[v, u] for u in alive)]
    assert result.tilde_set == tuple(sorted(maxima))
    if algorithm == DEPTH:
        assert result.tilde_set == (result.estimate,)


def test_invalid_orders_rejected():
    nodes_action = d4_lattice()
    # non-transitive relation
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True
    table = cyclic_table(4)
    groups = [GroupDescriptor("finite", lbl, table=table, members=m)
              for lbl, m in (("I", frozenset({0})), ("C2", frozenset({0, 2})),
                             ("C4", frozenset(range(4))))]
    nodes = [SubgroupNode(i, g) for i, g in enumerate(groups)]
    with pytest.raises(LatticeError):
        Lattice(nodes, leq, nodes_action.action)
    # order contradicting member sets
    leq_full = np.array([[True, True, True], [False, True, False],
                         [False, True, True]])
    with pytest.raises(LatticeError):
        Lattice(nodes, leq_full, nodes_action.action)
    # a cyclic cover list orders two distinct nodes both ways
    with pytest.raises(LatticeError, match="leq must be antisymmetric"):
        Lattice(nodes, order_from_covers(3, [(0, 1), (1, 2), (2, 1)]), nodes_action.action)


@st.composite
def relations(draw):
    """An n x n relation, n from 1 to 8: arbitrary entries which drawn flags
    keep to pairs going up a ranking with node 0 lowest and node n - 1
    highest, make reflexive, give node 0 as a bottom and node n - 1 as a top,
    and close under composition, so that every check can fail first."""
    n = draw(st.integers(1, 8))
    leq = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)),
                   dtype=bool).reshape(n, n)
    upward, reflexive, bounded, closed = draw(st.tuples(*[st.booleans()] * 4))
    inner = [1 + r for r in draw(st.permutations(range(max(n - 2, 0))))]
    rank = np.array(([0] + inner + [n - 1])[:n])
    if upward:
        leq &= rank[:, None] <= rank[None, :]
    if reflexive:
        leq |= np.eye(n, dtype=bool)
    if bounded:
        leq[0] = leq[:, n - 1] = True
    if closed:
        for _ in range(n.bit_length()):
            leq |= leq @ leq
    return leq


def dense_order_reference(leq):
    """Covers and heights of ``_order_lattice(leq)`` from the dense product
    ``lt @ lt`` and from longest chains found by brute force; raises the
    LatticeError that ``Lattice`` raises first."""
    n = len(leq)
    if not np.all(np.diag(leq)):
        raise LatticeError("leq must be reflexive")
    lt = leq & ~np.eye(n, dtype=bool)
    if np.any(lt & lt.T):
        raise LatticeError("leq must be antisymmetric")
    two = lt @ lt
    if np.any(two & ~leq):
        raise LatticeError("leq must be transitive")
    for name, extremes in (("bottom", leq.all(axis=1)), ("top", leq.all(axis=0))):
        if extremes.sum() != 1:
            raise LatticeError(f"lattice needs a unique {name}, found {extremes.sum()}")
    if not leq[0].all():  # node 0 is the one finite, trivial node
        raise LatticeError("lattice bottom must be the trivial group")
    pairwise_meet_join(leq)
    heights = []
    for v in range(n):
        strict = np.flatnonzero(lt[:, v])
        heights.append(max(k for k in range(len(strict) + 1)
                           for chain in combinations(strict, k)
                           if all(leq[a, b] or leq[b, a] for a, b in combinations(chain, 2))))
    return lt & ~two, heights


@settings(max_examples=300, deadline=None)
@given(relations())
@example(np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool))  # not transitive
@example(order_from_covers(4, [(0, 2), (2, 1), (1, 3)]))  # heights out of id order
@example(DIAMOND)
@example(DOUBLE_BOWTIE)
def test_order_checks_match_dense_reference(leq):
    try:
        covers, heights = dense_order_reference(leq)
    except LatticeError as exc:
        with pytest.raises(LatticeError) as err:
            _order_lattice(leq)
        assert str(err.value) == str(exc)
        return
    lat = _order_lattice(leq)
    assert np.array_equal(lat.covers, covers)
    assert [node.height for node in lat.nodes] == heights


def test_order_from_covers_closes_long_chains():
    for n in (1, 2, 10, 17):
        covers = [(i, i + 1) for i in reversed(range(n - 1))]
        assert np.array_equal(order_from_covers(n, covers), np.triu(np.ones((n, n), dtype=bool)))


def squared_closure(n, covers):
    """The order closed by squaring the cover relation log2(n) times."""
    leq = np.eye(n, dtype=bool)
    for lo, hi in covers:
        leq[lo, hi] = True
    for _ in range(n.bit_length()):  # each squaring doubles the chain length covered
        leq = leq | (leq @ leq)
    return leq


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n))))
@example((3, [(0, 1), (1, 2), (2, 1)]))
@example((4, [(2, 2), (0, 1)]))
@example((5, [(3, 4), (2, 3), (1, 2), (0, 1), (0, 1)]))
def test_order_from_covers_matches_squared_closure(args):
    # random cover lists, cycles and repeated pairs included
    n, covers = args
    assert np.array_equal(order_from_covers(n, covers), squared_closure(n, covers))


def test_collinear_axes_rejected():
    axes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    with pytest.raises(LatticeError):
        so3_axes_lattice(axes)
    axes = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    with pytest.raises(LatticeError, match=r"^axes 1 and 2 are collinear \(duplicate node\)$"):
        so3_axes_lattice(axes)


def test_collinear_axes_found_across_row_blocks():
    # 400 axes are checked in blocks of rows; the first collinear pair in
    # row-major order is named, as a full K x K check names it
    i = np.arange(400) + 0.5
    z, phi = 1.0 - i / 400, i * np.pi * (3.0 - np.sqrt(5.0))
    axes = np.stack([np.sqrt(1 - z * z) * np.cos(phi), np.sqrt(1 - z * z) * np.sin(phi), z], 1)
    for pairs, named in (([(250, 300)], "250 and 300"), ([(250, 300), (20, 390)], "20 and 390")):
        bad = axes.copy()
        for a, b in pairs:
            bad[b] = -bad[a]
        full = np.argwhere(np.triu(np.abs(bad @ bad.T) > 1.0 - 1e-9, k=1))
        assert f"{full[0, 0]} and {full[0, 1]}" == named
        with pytest.raises(LatticeError, match=f"^axes {named} are collinear"):
            so3_axes_lattice(bad)


def _d4_sub_lattice(labels):
    """The D4 subgroups named by ``labels``, ordered by inclusion."""
    full = d4_lattice()
    nodes = [full.node_by_label(lbl) for lbl in labels]
    return lattice_from_member_sets(full.nodes[0].group.table,
                                    [n.group.members for n in nodes], labels, full.action)


def test_finite_meet_must_be_the_member_intersection():
    # <h,r180> and <r90> share <r180>, which the node set leaves out
    with pytest.raises(LatticeError, match="^meet of '<h,r180>', '<r90>' is not the "
                                           "member intersection$"):
        _d4_sub_lattice(["I", "<h,r180>", "<r90>", "D4"])


def test_finite_join_must_be_the_generated_subgroup():
    # <h> and <v> generate <h,r180>, which the node set leaves out
    with pytest.raises(LatticeError, match="^join of '<h>', '<v>' is not the "
                                           "generated subgroup$"):
        _d4_sub_lattice(["I", "<h>", "<v>", "D4"])


def test_cyclic_chain_validation():
    with pytest.raises(LatticeError):
        cyclic_chain_lattice([1, 2, 3])
    lat = cyclic_chain_lattice([2, 4])  # the trivial group is prepended
    assert [n.label for n in lat.nodes] == ["I", "C2", "C4"]


def test_d4_pixel_action_is_a_homomorphism():
    action = d4_pixel_action(5)
    table = action.group.table
    rng = np.random.default_rng(8)
    for _ in range(50):
        i, j = rng.integers(0, 8, size=2)
        x = rng.normal(size=25)
        g, h = FiniteElement(table, int(i)), FiniteElement(table, int(j))
        from symlat.groups import compose
        lhs = act(action, g, act(action, h, x))
        rhs = act(action, compose(g, h), x)
        assert np.array_equal(lhs, rhs)
