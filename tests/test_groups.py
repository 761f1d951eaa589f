import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from symlat.builders import (
    D4_LABELS,
    c2xc2_lattice,
    cyclic_chain_lattice,
    d4_action,
    d4_lattice,
    d4_pixel_lattice,
    d4_table,
    icosahedral_axes,
    sl3_extended_lattice,
    so3_axes_lattice,
)
from symlat.errors import (
    DimensionMismatchError,
    IncompatibleElementsError,
    InvalidGroupError,
    NotFiniteError,
)
from symlat.groups import (
    ORTHO_TOL,
    CayleyTable,
    ElementBatch,
    FiniteElement,
    GroupAction,
    GroupDescriptor,
    MatrixElement,
    SamplerSpec,
    _axis_rotations,
    act,
    apply_elements,
    apply_to_rows,
    compose,
    cyclic_table,
    default_sl3_generators,
    direct_product_table,
    elements_of,
    inverse,
    non_identity_sampler,
    planar_rotation_matrix,
    sample_elements,
    uniform_sampler,
)
from symlat.scenarios import quarter_turn_actions

TWO_PI = 2.0 * math.pi

D4_TABLE = d4_table()


def d4_elem(label):
    return FiniteElement(D4_TABLE, D4_LABELS.index(label))


def axis_rotation(axis, angle):
    return MatrixElement(_axis_rotations(np.asarray(axis, dtype=float), np.array([angle]))[0])


def random_rotation(rng):
    axis = rng.normal(size=3)
    return axis_rotation(axis / np.linalg.norm(axis), rng.uniform(-3, 3))


# ---------------------------------------------------------------------------
# Cayley tables
# ---------------------------------------------------------------------------

def test_cyclic_table_valid():
    t = cyclic_table(6)
    assert t.identity == 0
    assert t.product(2, 5) == 1
    assert t.inverse(2) == 4


def test_invalid_tables_rejected():
    with pytest.raises(InvalidGroupError):
        CayleyTable(np.array([[0, 0], [1, 1]]))          # rows not permutations
    with pytest.raises(InvalidGroupError):
        CayleyTable(np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]]))  # no identity
    # a latin square with identity that violates associativity
    bad = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ])
    with pytest.raises(InvalidGroupError):
        CayleyTable(bad)


def test_closure_and_subgroups():
    t = d4_table()
    r90 = D4_LABELS.index("r90")
    assert t.closure({r90}) == frozenset({0, 1, 2, 3})
    subs = t.subgroups()
    assert len(subs) == 10
    orders = sorted(len(s) for s in subs)
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]


def test_direct_product_table():
    t = direct_product_table(cyclic_table(2), cyclic_table(2))
    assert t.size == 4
    assert len(t.subgroups()) == 5


# ---------------------------------------------------------------------------
# compose / inverse
# ---------------------------------------------------------------------------

def test_compose_d4_quarter_turns():
    assert compose(d4_elem("r90"), d4_elem("r90")).label == "r180"


def test_compose_identity_fixes_everything():
    e = FiniteElement(D4_TABLE, D4_TABLE.identity)
    for i in range(8):
        g = FiniteElement(D4_TABLE, i)
        assert compose(g, e).index == i
        assert compose(e, g).index == i


def test_compose_axis_rotation_inverse_is_identity():
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    prod = compose(axis_rotation(u, 0.7), axis_rotation(u, -0.7))
    assert np.linalg.norm(prod.matrix - np.eye(3)) <= 1e-9


def test_compose_mixed_axes_normalises_to_matrix():
    a = axis_rotation([0.0, 0.0, 1.0], 0.3)
    b = axis_rotation([1.0, 0.0, 0.0], 0.4)
    out = compose(a, b)
    assert isinstance(out, MatrixElement)
    assert np.array_equal(out.matrix, a.matrix @ b.matrix)


def test_compose_kind_mismatch_raises():
    with pytest.raises(IncompatibleElementsError):
        compose(d4_elem("r90"), MatrixElement(np.eye(2)))
    with pytest.raises(DimensionMismatchError):
        compose(MatrixElement(np.eye(2)), MatrixElement(np.eye(3)))
    with pytest.raises(IncompatibleElementsError):
        compose(FiniteElement(cyclic_table(3), 1), FiniteElement(cyclic_table(4), 1))


def test_long_composition_chain_stays_orthogonal():
    rng = np.random.default_rng(3)
    g = MatrixElement(np.eye(3))
    for _ in range(500):
        axis = rng.normal(size=3)
        g = compose(g, axis_rotation(axis / np.linalg.norm(axis), rng.uniform(-1, 1)))
    m = g.matrix
    assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-9
    assert abs(np.linalg.det(m) - 1.0) <= 1e-9
    # a product of shears and squeezes stays at determinant 1
    gens = default_sl3_generators()
    h = MatrixElement(np.eye(3))
    for k in rng.integers(0, len(gens), size=500):
        h = compose(h, gens[k])
    assert abs(np.linalg.det(h.matrix) - 1.0) <= 1e-9


def test_composing_drifted_rotations_reorthonormalises():
    # each factor is a rotation whose orthogonality error is 0.6 ORTHO_TOL;
    # their product drifts to 1.2 ORTHO_TOL and is snapped back to a rotation
    eps = 0.3 * ORTHO_TOL
    drift = np.eye(3) + eps * np.diag([0.5, 0.5, -1.0])
    a = MatrixElement(axis_rotation([0.0, 0.0, 1.0], 0.7).matrix @ drift)
    b = MatrixElement(axis_rotation([0.0, 0.0, 1.0], 1.1).matrix @ drift)
    for f in (a.matrix, b.matrix):
        assert 0.5 * ORTHO_TOL < np.max(np.abs(f.T @ f - np.eye(3))) <= ORTHO_TOL
    raw = a.matrix @ b.matrix
    assert np.max(np.abs(raw.T @ raw - np.eye(3))) > ORTHO_TOL
    m = compose(a, b).matrix
    assert np.max(np.abs(m.T @ m - np.eye(3))) <= ORTHO_TOL
    assert math.isclose(np.linalg.det(m), 1.0, abs_tol=1e-12)
    assert np.allclose(m, axis_rotation([0.0, 0.0, 1.0], 1.8).matrix, atol=1e-8)


def test_inverse_round_trips():
    sl = MatrixElement(np.diag([2.0, 1.0, 0.5]))
    assert np.allclose(compose(sl, inverse(sl)).matrix, np.eye(3), atol=1e-12)
    g = d4_elem("r90")
    assert compose(g, inverse(g)).index == D4_TABLE.identity


def test_element_validation():
    with pytest.raises(InvalidGroupError):
        MatrixElement(np.diag([1.0, 1.0, -1.0]))         # det -1
    with pytest.raises(InvalidGroupError):
        MatrixElement(np.diag([2.0, 1.0, 1.0]))          # det 2
    with pytest.raises(InvalidGroupError):
        MatrixElement(np.ones((2, 3)))                   # not square
    with pytest.raises(InvalidGroupError):
        FiniteElement(cyclic_table(3), 3)                # index outside the table
    # descriptors take only the kinds the library realises, and an action
    # realises its elements through one table
    with pytest.raises(InvalidGroupError, match="unknown group kind 's1-plane'"):
        GroupDescriptor("s1-plane", "P")
    c2 = GroupDescriptor("finite", "C2", table=cyclic_table(2))
    with pytest.raises(InvalidGroupError, match="not both"):
        GroupAction(c2, 2, matrices=[np.eye(2), -np.eye(2)], perms=[[0, 1], [1, 0]])


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def test_planar_rotation_action_quarter_turn():
    g = MatrixElement(planar_rotation_matrix(math.pi / 2.0, (0, 1), 4))
    action = d4_action(4)
    out = act(action, g, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out, [0.0, 1.0, 0.0, 0.0], atol=1e-12)
    with pytest.raises(DimensionMismatchError):
        act(d4_action(3), g, np.zeros(3))


def test_permutation_action_rejects_matrix_draws_on_every_path():
    # a matrix draw has no permutation realisation, even where its matrix
    # would fit the rows
    table = cyclic_table(2)
    action = GroupAction(GroupDescriptor("finite", "C2", table=table), 3,
                         perms=[[0, 1, 2], [1, 0, 2]])
    rows = np.ones((4, 3))
    for sampler in (SamplerSpec("haar-so3"), uniform_sampler(default_sl3_generators())):
        batch = sample_elements(sampler, np.random.default_rng(0), 4)
        with pytest.raises(IncompatibleElementsError):
            apply_elements(action, batch, rows)
        with pytest.raises(IncompatibleElementsError):
            apply_to_rows(action, batch[0], rows)


def test_matrix_draws_must_fit_the_action():
    # a 3x3 draw, from a support or from a continuous sampler, cannot move
    # the rows of a 2-d action
    rows = np.ones((4, 2))
    for sampler in (SamplerSpec("haar-so3"), uniform_sampler(default_sl3_generators())):
        batch = sample_elements(sampler, np.random.default_rng(0), 4)
        with pytest.raises(DimensionMismatchError, match="3x3 matrix element"):
            apply_elements(d4_action(2), batch, rows)
        with pytest.raises(DimensionMismatchError, match="3x3 matrix element"):
            apply_to_rows(d4_action(2), batch[0], rows)


def test_foreign_finite_element_is_named_in_the_error():
    # an element of another Cayley table has no realisation under either
    # action kind, and the error names it by its label
    stranger = FiniteElement(cyclic_table(4), 1)
    for action in (cyclic_chain_lattice([1, 2, 4]).action, d4_pixel_lattice(3).action):
        with pytest.raises(IncompatibleElementsError, match=r"FiniteElement\('r1'\)"):
            apply_to_rows(action, stranger, np.zeros((2, action.dim)))


def test_half_turn_action_is_square_of_rotation_action():
    # the alternative action realises g as the square of its rotation matrix
    rotation, half_turn, _ = quarter_turn_actions(4)
    table = rotation.group.table
    rng = np.random.default_rng(0)
    x = rng.normal(size=4)
    for i in range(4):
        g = FiniteElement(table, i)
        g_sq = FiniteElement(table, table.product(i, i))
        assert np.allclose(act(half_turn, g, x), act(rotation, g_sq, x), atol=1e-12)
    g = FiniteElement(table, 1)
    assert np.allclose(act(half_turn, g, x), [-x[0], -x[1], x[2], x[3]], atol=1e-12)


def test_identity_acts_as_identity_map():
    action = d4_action(2)
    rng = np.random.default_rng(1)
    e = FiniteElement(action.group.table, action.group.table.identity)
    for _ in range(20):
        x = rng.normal(size=2)
        assert np.linalg.norm(act(action, e, x) - x) <= 1e-12


def test_action_compatibility_finite_and_continuous():
    action = d4_action(2)
    table = action.group.table
    rng = np.random.default_rng(2)
    for _ in range(100):
        i, j = rng.integers(0, 8, size=2)
        x = rng.normal(size=2)
        g, h = FiniteElement(table, int(i)), FiniteElement(table, int(j))
        lhs = act(action, g, act(action, h, x))
        rhs = act(action, compose(g, h), x)
        assert np.linalg.norm(lhs - rhs) <= 1e-8
    from symlat.groups import SO3
    so3 = GroupAction(GroupDescriptor(SO3, "SO3"), 3)
    for _ in range(100):
        g, h = random_rotation(rng), random_rotation(rng)
        x = rng.normal(size=3)
        lhs = act(so3, g, act(so3, h, x))
        rhs = act(so3, compose(g, h), x)
        assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_finite_action_is_faithful():
    action = d4_action(2)
    table = action.group.table
    probes = np.array([[1.0, 0.3], [0.2, -1.0], [0.5, 0.7]])
    for i in range(1, 8):
        g = FiniteElement(table, i)
        moved = apply_to_rows(action, g, probes)
        assert np.max(np.abs(moved - probes)) > 1e-9


def test_associativity_exhaustive_small_groups():
    for table in (d4_table(), cyclic_table(16),
                  direct_product_table(cyclic_table(4), cyclic_table(4))):
        t = table.table
        assert np.array_equal(t[t], t[:, t])


def test_associativity_random_so3_triples():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b, c = (random_rotation(rng) for _ in range(3))
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) <= 1e-8


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_elements_of_counts():
    table = d4_table()
    assert len(elements_of(GroupDescriptor("finite", "D4", table=table))) == 8
    trivial = GroupDescriptor("finite", "I", table=table,
                              members=frozenset({table.identity}))
    els = elements_of(trivial)
    assert len(els) == 1 and els[0].index == table.identity
    assert len(elements_of(GroupDescriptor("finite", "C4", table=cyclic_table(4)))) == 4
    with pytest.raises(NotFiniteError):
        elements_of(GroupDescriptor("so3", "SO3"))


def test_member_sets_must_be_subgroups():
    table = d4_table()
    with pytest.raises(InvalidGroupError):
        GroupDescriptor("finite", "bad", table=table,
                        members=frozenset({0, D4_LABELS.index("r90")}))
    for index in (9, -1):
        with pytest.raises(InvalidGroupError, match=f"member index {index} of 'bad'"):
            GroupDescriptor("finite", "bad", table=cyclic_table(4), members={0, index})


def test_membership_checks():
    table = cyclic_table(4)
    c2 = GroupDescriptor("finite", "C2", table=table, members=frozenset({0, 2}))
    assert c2.contains(FiniteElement(table, 2))
    assert not c2.contains(FiniteElement(table, 1))
    s1 = GroupDescriptor("s1-axis", "S1", axis=np.array([0.0, 0.0, 1.0]))
    squeeze = MatrixElement(np.diag([2.0, 1.0, 0.5]))
    assert s1.contains(axis_rotation([0.0, 0.0, 1.0], 1.2))
    assert s1.contains(axis_rotation([0.0, 0.0, -1.0], 1.2))
    assert s1.contains(s1.identity_element())
    assert not s1.contains(axis_rotation([1.0, 0.0, 0.0], 1.2))
    assert not s1.contains(MatrixElement(np.diag([0.5, 2.0, 1.0])))   # fixes the axis
    assert not s1.contains(FiniteElement(table, 0))
    so3 = GroupDescriptor("so3", "SO3")
    assert so3.contains(axis_rotation([1.0, 0.0, 0.0], 0.3))
    assert not so3.contains(squeeze)
    assert not so3.contains(MatrixElement(np.eye(2)))
    sl3 = GroupDescriptor("sl3", "SL3")
    assert sl3.contains(squeeze)
    assert not sl3.contains(MatrixElement(planar_rotation_matrix(0.3, (0, 1), 4)))
    for axis in ([1.0, 0.0], [0.0, 0.0, 1.0, 0.0], [[0.0, 0.0, 1.0]], [0.0, 0.0, 2.0]):
        with pytest.raises(InvalidGroupError, match="not a unit 3-vector"):
            GroupDescriptor("s1-axis", "S1", axis=np.array(axis))


def test_planar_angle_membership_uses_realisation():
    # a sampled planar-rotation angle close to pi lies in C2 but not a stray angle
    from symlat.builders import cyclic_chain_lattice
    chain = cyclic_chain_lattice([1, 2, 4])
    c2 = chain.node_by_label("C2").group
    action = chain.action
    def turn(angle):
        return MatrixElement(planar_rotation_matrix(angle, (0, 1), action.dim))

    assert c2.contains(turn(math.pi), action=action)
    assert c2.contains(turn(math.pi + 5e-10), action=action)
    assert not c2.contains(turn(math.pi + 1e-3), action=action)
    assert c2.contains(turn(0.0), action=action)
    assert not c2.contains(MatrixElement(np.eye(3)), action=action)
    with pytest.raises(IncompatibleElementsError):
        c2.contains(turn(math.pi))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), m=st.integers(0, 300),
       finite=st.booleans())
def test_point_mass_sampler(seed, m, finite):
    # a point mass is a uniform sampler over one element: it draws that
    # element every time and leaves the random stream where it was
    g = d4_elem("r180") if finite else default_sl3_generators()[2]
    rng = np.random.default_rng(seed)
    before = rng.bit_generator.state
    draws = sample_elements(uniform_sampler([g]), rng, m)
    assert len(draws) == m and all(d is g for d in draws)
    assert rng.bit_generator.state == before


def test_uniform_sampler_frequencies():
    table = cyclic_table(4)
    els = [FiniteElement(table, i) for i in (1, 2, 3)]
    rng = np.random.default_rng(11)
    draws = sample_elements(uniform_sampler(els), rng, 10_000)
    counts = np.bincount([d.index for d in draws], minlength=4)[1:]
    p = 1.0 / 3.0
    band = 3.0 * math.sqrt(p * (1 - p) / 10_000)
    for c in counts:
        assert abs(c / 10_000 - p) <= band


def test_gaussian_angle_sampler_std():
    std = TWO_PI * 0.2
    spec = SamplerSpec("gaussian-angle", axis=np.array([0.0, 0.0, 1.0]), std=std)
    rng = np.random.default_rng(12)
    angles = sample_elements(spec, rng, 10_000).params
    assert abs(angles.std(ddof=1) - std) / std <= 0.05


def test_haar_circle_uniform_angles():
    spec = SamplerSpec("haar-circle", axis=np.array([0.0, 0.0, 1.0]))
    rng = np.random.default_rng(13)
    angles = sample_elements(spec, rng, 5000).params
    assert 0.0 <= angles.min() and angles.max() < TWO_PI
    assert abs(angles.mean() - math.pi) < 0.1


def test_haar_so3_left_invariance_of_traces():
    # two-sample KS between traces of g and h.g stays below the 1% critical value
    spec = SamplerSpec("haar-so3")
    rng = np.random.default_rng(14)
    n = 10_000
    draws = sample_elements(spec, rng, 2 * n)
    h = axis_rotation([0.0, 1.0, 0.0], 1.0).matrix
    tr_g = np.array([np.trace(d.matrix) for d in draws[:n]])
    tr_hg = np.array([np.trace(h @ d.matrix) for d in draws[n:]])
    stat = ks_2samp(tr_g, tr_hg).statistic
    critical = 1.628 * math.sqrt(2.0 / n)
    assert stat < critical


def test_sampler_validation():
    with pytest.raises(InvalidGroupError):
        SamplerSpec("uniform", elements=())
    with pytest.raises(InvalidGroupError):
        SamplerSpec("gaussian-angle", axis=np.array([0.0, 0.0, 1.0]), std=0.0)
    with pytest.raises(InvalidGroupError, match="unknown sampler kind"):
        SamplerSpec("point-mass")
    with pytest.raises(InvalidGroupError, match="needs an axis"):
        SamplerSpec("haar-circle")
    with pytest.raises(InvalidGroupError, match="not a unit 3-vector"):
        SamplerSpec("haar-circle", axis=np.array([1.0, 0.0]))
    # a support mixes neither element kinds, nor tables, nor matrix sizes
    c4, other = cyclic_table(4), cyclic_table(4)
    for support in ([FiniteElement(c4, 1), MatrixElement(np.eye(3))],
                    [MatrixElement(np.eye(3)), FiniteElement(c4, 1)],
                    [FiniteElement(c4, 1), FiniteElement(other, 1)],
                    [MatrixElement(np.eye(3)), MatrixElement(np.eye(2))]):
        with pytest.raises(InvalidGroupError, match="support must hold"):
            uniform_sampler(support)
    assert len(uniform_sampler([FiniteElement(c4, 1), FiniteElement(c4, 3)]).elements) == 2


def test_single_sample_matches_stream_head():
    spec = SamplerSpec("haar-so3")
    one = sample_elements(spec, np.random.default_rng(9), 1)[0]
    first = sample_elements(spec, np.random.default_rng(9), 3)[0]
    assert np.array_equal(one.matrix, first.matrix)


# ---------------------------------------------------------------------------
# element batches against the scalar reference
# ---------------------------------------------------------------------------

def _batch_cases():
    """(action, sampler) for every sampler kind."""
    d4, pixels = d4_lattice(2), d4_pixel_lattice(3)
    chain, sl3 = cyclic_chain_lattice([1, 2, 4]), sl3_extended_lattice()
    axis = icosahedral_axes()[1]
    return {
        "uniform-matrix": (d4.action, non_identity_sampler(d4.node(d4.top).group)),
        "uniform-planar": (chain.action, non_identity_sampler(chain.node(chain.top).group)),
        "uniform-permutation": (pixels.action,
                                non_identity_sampler(pixels.node(pixels.top).group)),
        "point-mass": (d4.action, uniform_sampler([FiniteElement(d4.action.group.table, 2)])),
        "haar-circle-axis": (sl3.action, SamplerSpec("haar-circle", axis=axis)),
        "gaussian-angle": (sl3.action, SamplerSpec("gaussian-angle", axis=axis, std=0.7)),
        "haar-so3": (sl3.action, SamplerSpec("haar-so3")),
        "uniform-sl3": (sl3.action, uniform_sampler(default_sl3_generators())),
    }


BATCH_CASES = _batch_cases()


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(0, 40))
def test_element_batch_matches_scalar_reference(case, seed, m):
    action, sampler = BATCH_CASES[case]
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    batch, again = sample_elements(sampler, rng, m), sample_elements(sampler, twin, m)
    assert len(batch) == m and np.array_equal(batch.params, again.params)
    assert rng.bit_generator.state == twin.bit_generator.state
    rows = np.random.default_rng(seed + 1).normal(size=(m, action.dim))
    moved = apply_elements(action, batch, rows)
    for k in range(m):
        want = apply_to_rows(action, batch[k], rows[k:k + 1])
        assert np.max(np.abs(moved[k:k + 1] - want)) <= 1e-12


def _same_element(a, b):
    if isinstance(a, FiniteElement):
        return isinstance(b, FiniteElement) and a.table is b.table and a.index == b.index
    return isinstance(b, MatrixElement) and np.array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       sizes=st.lists(st.integers(0, 30), min_size=1, max_size=4))
def test_joined_batches_keep_every_draw_and_bit(case, seed, sizes):
    # a batch joined from several keeps their draws in order, and moves each
    # row to the same bits as the batch it came from
    action, sampler = BATCH_CASES[case]
    rng = np.random.default_rng(seed)
    batches = [sample_elements(sampler, rng, m) for m in sizes]
    joined = ElementBatch.concat(batches)
    assert len(joined) == sum(sizes)
    drawn = [g for batch in batches for g in batch]
    assert all(_same_element(a, b) for a, b in zip(joined, drawn))
    rows = np.random.default_rng(seed + 1).normal(size=(len(joined), action.dim))
    if len(joined):
        parts = np.split(rows, np.cumsum(sizes)[:-1])
        want = np.concatenate([apply_elements(action, b, r) for b, r in zip(batches, parts)])
        assert np.array_equal(apply_elements(action, joined, rows), want)
    with pytest.raises(InvalidGroupError):
        ElementBatch.concat([batches[0], sample_elements(uniform_sampler(
            [FiniteElement(cyclic_table(2), 1)]), rng, 1)])


# ---------------------------------------------------------------------------
# one element moves a row to the same bits on every path
# ---------------------------------------------------------------------------

def _rotate_plane(rows, angle, plane):
    """Rotate every row in ``plane`` by ``angle``, coordinate by coordinate:
    the reference the planar rotation matrices must reproduce bit for bit."""
    i, j = plane
    out = rows.copy()
    c, s = np.cos(angle), np.sin(angle)
    out[:, i] = c * rows[:, i] - s * rows[:, j]
    out[:, j] = s * rows[:, i] + c * rows[:, j]
    return out


def _reference_move(action, g, x):
    """``g`` moves the row ``x``, without the library's realisation lookup or
    mover: a coordinate permutation indexes the row, and a matrix sums its
    columns' products coordinate by coordinate."""
    if isinstance(g, MatrixElement):
        matrix = g.matrix
    elif g.table.size == 1:
        return x.copy()
    elif action.perms is not None:
        return x[action.perms[g.index]]
    else:
        matrix = action.matrices[g.index]
    out = np.zeros(action.dim)
    for j in range(action.dim):
        out = out + matrix[:, j] * x[j]
    return out


def _path_cases():
    """(action, sampler) for every node sampler of every builder lattice and
    for both quarter-turn actions; then (action, angles) for each action
    that rotates the first coordinate plane by its elements' angles."""
    axes, base = icosahedral_axes(), TWO_PI * np.arange(4) / 4.0
    chain = cyclic_chain_lattice([1, 2, 4])
    lattices = (chain, d4_lattice(2), d4_lattice(3), c2xc2_lattice(), d4_pixel_lattice(4),
                so3_axes_lattice(axes), so3_axes_lattice(axes, angle_std=0.5),
                sl3_extended_lattice())
    cases = [(lat.action, node.sampler) for lat in lattices for node in lat.nodes]
    planar = [(chain.action, base)]
    for dim in (2, 3):
        rotation, half_turn, sampler = quarter_turn_actions(dim)
        cases += [(rotation, sampler), (half_turn, sampler)]
        planar += [(rotation, base), (half_turn, (2.0 * base) % TWO_PI)]
    return cases, planar


PATH_CASES, PLANAR_CASES = _path_cases()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(0, 30))
def test_one_element_moves_a_row_to_the_same_bits_on_every_path(seed, m):
    rng = np.random.default_rng(seed)
    for action, sampler in PATH_CASES:
        batch = sample_elements(sampler, rng, m)
        X = rng.normal(size=(m, action.dim))
        moved = apply_elements(action, batch, X)
        for k, g in enumerate(batch):
            assert np.array_equal(apply_to_rows(action, g, X)[k], moved[k])
            assert np.array_equal(act(action, g, X[k]), moved[k])
            # a permutation moves the row to the reference's bits; the
            # einsum adds a matrix's products in its own order
            want = _reference_move(action, g, X[k])
            if action.perms is not None:
                assert np.array_equal(moved[k], want)
            else:
                assert np.max(np.abs(moved[k] - want)) <= 1e-12
    for action, angles in PLANAR_CASES:
        X = rng.normal(size=(m, action.dim))
        for i, angle in enumerate(angles):
            assert np.array_equal(apply_to_rows(action, FiniteElement(action.group.table, i), X),
                                  _rotate_plane(X, angle, (0, 1)))
