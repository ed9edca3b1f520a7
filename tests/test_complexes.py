from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchfloer import complexes as cxm
from branchfloer import plumbing as pl
from branchfloer import roots as rt
from oracles import standard_swap_complex, zero_map

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
