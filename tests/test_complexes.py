from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchfloer import complexes as cxm
from branchfloer import plumbing as pl
from branchfloer import roots as rt
from oracles import is_local_equivalence, standard_swap_complex, zero_map

GAMMA7 = pl.star(-1, [[-2], [-3], [-7]])


def swap_model(top=-2):
    return standard_swap_complex(top)


def test_differential_entries_must_carry_integer_powers():
    with pytest.raises(cxm.ConsistencyError, match="no valid U-power"):
        cxm.UComplex((Fraction(0), Fraction(-1, 2)), (2, 0))


def test_differential_must_square_to_zero():
    with pytest.raises(cxm.ConsistencyError, match="does not square to zero"):
        cxm.UComplex((Fraction(1), Fraction(0), Fraction(-1)), (0, 1, 2))


def test_smallest_swap_model_homology():
    c, _ = swap_model()
    h = cxm.homology(c)
    assert h.towers == (Fraction(-2),)
    assert h.torsion == ((Fraction(-2), 1),)
    assert cxm.delta_invariant(c) == -2


def test_branched_cone_of_swap_model():
    # the two towers sit one and two steps under the unbranched one, and the
    # deep Q-action carries the lower tower onto the upper
    c, swap = swap_model()
    b = cxm.branched_invariants(c, swap)
    assert b.upper == -2
    assert b.lower == -4
    assert b.module.towers == (Fraction(-3), Fraction(-4))
    assert b.module.torsion == ((Fraction(-2), 1),)


def test_branched_cone_of_dual_swap_model():
    c, swap = swap_model()
    dc = cxm.dual_complex(c)
    dswap = cxm.dual_map(swap, dc, dc)
    h = cxm.homology(dc)
    assert h.towers == (Fraction(2),)
    assert h.torsion == ((Fraction(3), 1),)
    b = cxm.branched_invariants(dc, dswap)
    assert (b.upper, b.lower) == (4, 2)


def test_branched_cone_with_trivial_involution_collapses():
    c, _ = swap_model()
    b = cxm.branched_invariants(c, cxm.identity_map(c))
    assert b.upper == b.lower == cxm.delta_invariant(c)
    assert b.module.towers == (Fraction(-2), Fraction(-3))


def test_self_equivalences_of_swap_model():
    c, swap = swap_model()
    maps = cxm.self_local_equivalences(c, swap)
    rows = sorted(m.rows for m in maps)
    assert rows == sorted([cxm.identity_map(c).rows, swap.rows])


def test_self_equivalences_with_trivial_involution():
    # dropping the involution constraint admits the two projections as well
    c, _ = swap_model()
    maps = cxm.self_local_equivalences(c, cxm.identity_map(c))
    assert len(maps) == 4
    assert (1 << 0 | 1 << 1, 0, 0) not in [m.rows for m in maps]


def test_brute_connected_homology():
    c, swap = swap_model()
    conn = cxm.connected_homology_brute(c, cxm.identity_map(c))
    assert conn.towers == (Fraction(-2),)
    assert conn.torsion == ()
    conn2 = cxm.connected_homology_brute(c, swap)
    assert conn2.towers == (Fraction(-2),)
    assert conn2.torsion == ((Fraction(-2), 1),)


def test_rank_bound_guards_the_search():
    c, swap = swap_model()
    t = cxm.tensor_complex(c, c)
    it = cxm.tensor_map(swap, swap, t, t)
    with pytest.raises(cxm.RankBoundExceeded):
        cxm.self_local_equivalences(t, it)


def test_tensor_square():
    # by hand: four even generators survive as one tower plus three torsion
    # classes killed by a single U, and the odd diagonal class dies one U
    # below its birth
    c, _ = swap_model()
    t = cxm.tensor_complex(c, c)
    h = cxm.homology(t)
    assert h.towers == (Fraction(-4),)
    assert sorted(h.torsion) == [
        (Fraction(-5), 1),
        (Fraction(-4), 1),
        (Fraction(-4), 1),
        (Fraction(-4), 1),
    ]


def test_tensor_of_involutions_is_an_involution():
    c, swap = swap_model()
    t = cxm.tensor_complex(c, c)
    it = cxm.tensor_map(swap, swap, t, t)
    assert it.is_chain_map()
    assert cxm.compose(it, it).rows == cxm.identity_map(t).rows


def test_nullhomotopy_solver():
    c, _ = swap_model()
    assert cxm.nullhomotopy(zero_map(c, c)) is not None
    # the identity is not nullhomotopic on a complex with homology
    assert cxm.nullhomotopy(cxm.identity_map(c)) is None


def test_model_complex_of_two_leaf_root():
    r = rt.build_root(GAMMA7)
    model = cxm.model_complex(r)
    assert len(model.cx) == 3
    assert sorted(model.cx.gradings) == [Fraction(-1), Fraction(0), Fraction(0)]
    iota = cxm.lift_involution(model)
    assert iota.rows[model.angle_gen[next(iter(model.angle_gen))]] != 0
    h = cxm.homology(model.cx)
    assert h.towers == (r.d_invariant(),)
    b = cxm.branched_invariants(model.cx, iota)
    assert (b.upper, b.lower) == (0, -2)


def test_model_complex_with_three_leaves():
    # one branch vertex with three incoming legs; the symmetry exchanges two
    # of the leaves, so one angle must map to a genuine chain
    tree = pl.star(-1, [[-3], [-3], [-4, -2]])
    r = rt.build_root(tree)
    assert len(r.leaves) == 3
    assert any(r.involution[v] != v for v in range(len(r)))
    model = cxm.model_complex(r)
    iota = cxm.lift_involution(model)
    square = cxm.compose(iota, iota) + cxm.identity_map(model.cx)
    assert cxm.nullhomotopy(square) is not None
    h = cxm.homology(model.cx)
    assert h.towers == (r.d_invariant(),)
    cxm.branched_invariants(model.cx, iota)


def test_local_equivalences_between_model_and_standard_form():
    r = rt.build_root(GAMMA7)
    model = cxm.model_complex(r)
    iota = cxm.lift_involution(model)
    std, swap = standard_swap_complex(r.d_invariant())
    there = cxm.local_equivalences(model.cx, iota, std, swap)
    back = cxm.local_equivalences(std, swap, model.cx, iota)
    assert there and back


def test_shift_commutes_with_everything():
    c, swap = swap_model()
    sh = cxm.shift_complex(c, -2)
    assert sh.gradings == (Fraction(-4), Fraction(-4), Fraction(-5))
    swap_sh = cxm.UMap(sh, sh, Fraction(0), swap.rows)
    b = cxm.branched_invariants(sh, swap_sh)
    assert (b.upper, b.lower) == (-4, -6)


@st.composite
def small_star_trees(draw):
    center = draw(st.integers(min_value=-4, max_value=-1))
    legs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        length = draw(st.integers(min_value=1, max_value=2))
        legs.append(
            [draw(st.integers(min_value=-5, max_value=-2)) for _ in range(length)]
        )
    tree = pl.star(center, legs)
    assume(len(tree) <= 6)
    try:
        pl.check_negative_definite(tree)
    except pl.DefinitenessError:
        assume(False)
    assume(max(abs(x) for x in pl.pd_vector(tree, pl.spin_char(tree))) <= 10)
    return tree


@settings(max_examples=30, deadline=None)
@given(small_star_trees())
def test_model_and_branched_invariants_on_random_stars(tree):
    r = rt.build_root_star(tree)
    model = cxm.model_complex(r)
    iota = cxm.lift_involution(model)
    h = cxm.homology(model.cx)
    d = r.d_invariant()
    assert h.towers == (d,)
    b = cxm.branched_invariants(model.cx, iota)
    assert b.lower <= d <= b.upper
    assert (b.upper - d) % 2 == 0 and (d - b.lower) % 2 == 0
    if all(r.involution[v] == v for v in range(len(r))):
        assert b.upper == b.lower == d


# ---------------------------------------------------------------------------
# the F_2 solvers against exhaustive enumeration


def _positions(src, tgt, degree):
    """Entries (j, i) that a map src -> tgt of the given degree may have."""
    return [
        (j, i)
        for j in range(len(src))
        for i in range(len(tgt))
        if cxm._exp_of(src.gradings[j], tgt.gradings[i], degree) is not None
    ]


def _all_maps(src, tgt, degree):
    """Every map src -> tgt of the given degree."""
    positions = _positions(src, tgt, degree)
    for bits in range(1 << len(positions)):
        rows = [0] * len(src)
        for t, (j, i) in enumerate(positions):
            if (bits >> t) & 1:
                rows[j] |= 1 << i
        yield cxm.UMap(src, tgt, Fraction(degree), tuple(rows))


# trees with one-leaf roots: their models sit at gradings 2, 1 and -1
ONE_LEAF = [
    pl.star(-2, [[-2, -2, -2, -2], [-2, -2], [-2]]),
    pl.star(-2, [[-2], [-2], [-2]]),
    pl.linear_chain([-5]),
]
# stars whose roots have two or three leaves (model ranks 3, 3, 5 and 5, some
# with a nontrivial involution), each with the characteristic vector that
# gives its root that shape
SMALL_ROOTS = [(tree, None) for tree in ONE_LEAF] + [
    (GAMMA7, None),
    (pl.star(-1, [[-4, -3], [-2, -7], [-7, -5]]), (5, -4, 3, -2, 1, -5, 1)),
    (pl.star(-1, [[-6], [-7], [-2, -2]]), (-1, 2, -5, -2, 0)),
    (pl.star(-1, [[-5, -2], [-2], [-4, -5]]), (-3, 1, 0, 2, 4, 1)),
]


def _model(tree, k=None):
    model = cxm.model_complex(rt.build_root_star(tree, k))
    return model.cx, cxm.lift_involution(model)


def _tensor(a, b):
    t = cxm.tensor_complex(a[0], b[0])
    return t, cxm.tensor_map(a[1], b[1], t, t)


@st.composite
def small_models(draw):
    """A small model complex with its lifted involution, its dual, or its
    tensor with a one-generator model (with the smallest swap model if it has
    one generator itself), with at most 12 degree-0 positions."""
    cx, iota = _model(*draw(st.sampled_from(SMALL_ROOTS)))
    how = draw(st.sampled_from(["model", "dual", "tensor"]))
    if how == "dual":
        dual = cxm.dual_complex(cx)
        cx, iota = dual, cxm.dual_map(iota, dual, dual)
    elif how == "tensor":
        if len(cx) == 1:
            partner = swap_model(draw(st.integers(min_value=-2, max_value=0)))
        else:
            partner = _model(draw(st.sampled_from(ONE_LEAF)))
        cx, iota = _tensor((cx, iota), partner)
    assume(len(_positions(cx, cx, 0)) <= 12)
    return cx, iota


@settings(max_examples=40, deadline=None)
@given(small_models(), small_models())
def test_local_equivalences_are_exactly_the_certified_maps(a, b):
    # maps from a model to itself, to its shifts both ways (where the maps
    # commute with the involutions only up to homotopy) and to another model
    pairs = [(a, a), (a, b)]
    for tree in ONE_LEAF:
        shifted = _tensor(a, _model(tree))
        pairs += [(a, shifted), (shifted, a)]
    for (src, iota_src), (tgt, iota_tgt) in pairs:
        if len(_positions(src, tgt, 0)) > 12:
            continue
        found = cxm.local_equivalences(src, iota_src, tgt, iota_tgt)
        certified = [
            f.rows
            for f in _all_maps(src, tgt, 0)
            if any(f.rows) and is_local_equivalence(f, iota_src, iota_tgt)
        ]
        assert [f.rows for f in found] == sorted(certified)


@settings(max_examples=25, deadline=None)
@given(small_models(), st.data())
def test_nullhomotopy_is_none_exactly_when_no_homotopy_exists(model, data):
    cx, iota = model
    assume(len(_positions(cx, cx, 1)) <= 12)
    d = cxm.UMap(cx, cx, Fraction(-1), cx.diff)
    boundaries = {
        (cxm.compose(d, h) + cxm.compose(h, d)).rows for h in _all_maps(cx, cx, 1)
    }
    maps = list(_all_maps(cx, cx, 0))
    picks = data.draw(st.lists(st.sampled_from(maps), max_size=8))
    square = cxm.compose(iota, iota) + cxm.identity_map(cx)
    for f in [square, cxm.identity_map(cx), maps[0], *picks]:
        h = cxm.nullhomotopy(f)
        assert (h is None) == (f.rows not in boundaries)
        if h is not None:
            assert (cxm.compose(d, h) + cxm.compose(h, d)).rows == f.rows
    # every boundary is solvable, not only the sampled maps
    for rows in sorted(boundaries)[:16]:
        assert cxm.nullhomotopy(cxm.UMap(cx, cx, Fraction(0), rows)) is not None
