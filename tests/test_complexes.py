import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from branchfloer import complexes as cxm
from branchfloer import connected as cn
from branchfloer import knots as kn
from branchfloer import plumbing as pl
from branchfloer import roots as rt
from oracles import (
    deep_kernel_rank,
    eliminate,
    linear_chain,
    image_spans,
    is_local_equivalence,
    map_sum,
    nullhomotopy,
    ref_allowed,
    ref_connected_homology,
    ref_homology,
    ref_image,
    ref_lift_rows,
    ref_local_equivalences,
    ref_monotone_leaves,
    ref_positions,
    ref_slice,
    ref_slice_basis,
    ref_slice_vectors,
    ref_transport,
    self_local_equivalences,
    standard_swap_complex,
    zero_map,
)

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
    maps = self_local_equivalences(c, swap)
    rows = sorted(m.rows for m in maps)
    assert rows == sorted([cxm.identity_map(c).rows, swap.rows])


def test_self_equivalences_with_trivial_involution():
    # dropping the involution constraint admits the two projections as well
    c, _ = swap_model()
    maps = self_local_equivalences(c, cxm.identity_map(c))
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
        self_local_equivalences(t, it)


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
    assert nullhomotopy(zero_map(c, c)) is not None
    # the identity is not nullhomotopic on a complex with homology
    assert nullhomotopy(cxm.identity_map(c)) is None


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
    square = map_sum(cxm.compose(iota, iota), cxm.identity_map(model.cx))
    assert nullhomotopy(square) is not None
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


@st.composite
def pretzel_presentations(draw):
    """Plumbings of pretzel(p,-q,r) with odd 3 <= q < p, r < 20: unlike
    `small_star_trees`, about half of them have roots with several leaves
    and a nontrivial involution."""
    q = draw(st.integers(min_value=1, max_value=8)) * 2 + 1
    p, r = (draw(st.integers(min_value=(q + 1) // 2, max_value=9)) * 2 + 1 for _ in "pr")
    return kn.presentation(kn.parse_spec(f"pretzel({p},-{q},{r})"))


@settings(max_examples=30, deadline=None)
@given(pretzel_presentations())
def test_model_and_branched_invariants_on_random_pretzels(pres):
    try:
        r = rt.build_root_star(pres.tree, pres.char, involution=pres.involution)
        r.require_stable()
    except rt.InstabilityError:
        reject()  # the star engine's early stop, pinned by the strict xfails
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


@st.composite
def lift_roots(draw):
    """Roots to lift, one tree's root under each involution it offers (its
    own first): star roots of random pretzels or of pretzels near the
    generators, adaptive or cut at a low level (several leaves, often
    swapped, and several components when cut), or box roots of the H-shaped
    trees, the only trees of up to 6 vertices that are not stars, half of
    them declaring the symmetry that swaps their two nodes, with the spin
    vector or a twisted one and the stop adaptive or at one of the lowest
    levels."""
    n_max = draw(st.sampled_from([None, 1, 3]))
    source = draw(st.sampled_from(["pretzel", "near generator", "box"]))
    if source == "pretzel":
        pres = draw(pretzel_presentations())
    elif source == "near generator":
        # pretzel(p,-q,r) with p, r near 2q, like the generators
        # pretzel(4n+3,-(2n+1),4n+1): about a third of these lifts send some
        # angle to a chain of several angles
        q = draw(st.sampled_from([3, 5, 7]))
        p, r = (2 * q + draw(st.sampled_from([-1, 1, 3])) for _ in "pr")
        pres = kn.presentation(kn.parse_spec(f"pretzel({p},-{q},{r})"))
    if source != "box":
        return _under_each_involution(rt.build_root_star, pres.tree, pres.char, n_max, pres.involution)
    a, c = (draw(st.integers(-5, -2)) for _ in "ac")
    b = draw(st.integers(-3, -2))
    if draw(st.booleans()):
        weights, aut = (a, b, c, b, a, c), (4, 3, 5, 1, 0, 2)
    else:
        d, e, f = draw(st.integers(-3, -2)), draw(st.integers(-5, -2)), draw(st.integers(-5, -2))
        weights, aut = (a, b, c, d, e, f), None
    tree = pl.PlumbingTree(weights, ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5)), aut)
    try:
        k = pl.spin_char(tree)
    except pl.DefinitenessError:
        reject()
    if draw(st.booleans()):
        k = tuple(x + 2 * draw(st.integers(-2, 2)) for x in k)
    if n_max is not None:
        *_, const = eliminate(tree, k)
        n_max += -(-const // 2) - 1  # from just above the minimum of chi
    return _under_each_involution(rt.build_root_box, tree, k, n_max, "auto")


def _under_each_involution(build, tree, k, n_max, own):
    """The roots `build` makes under `own` and each named involution the
    root has; rejects a stop level below the minimum of chi."""
    roots = []
    for which in dict.fromkeys((own, "reflection", "automorphism", "trivial")):
        try:
            roots.append(build(tree, k, n_max=n_max, involution=which))
        except rt.InstabilityError:
            reject()
        except ValueError:
            continue
    return roots


def _outcome(f, root):
    """f(root), or the message of the ConsistencyError it raises."""
    try:
        return f(root)
    except cxm.ConsistencyError as err:
        return str(err)


@settings(max_examples=100, deadline=None)
@given(lift_roots())
def test_lift_matches_the_walk_reference(roots):
    # every involution the root offers, against the walk from each partner
    # leaf down to where the two paths join; its square is the identity on
    # the nose, because d is injective on the span of the angles
    for r in roots:
        model = cxm.model_complex(r)
        iota = cxm.lift_involution(model)
        assert list(iota.rows) == ref_lift_rows(model)
        square = cxm.compose(iota, iota)
        assert square.rows == cxm.identity_map(model.cx).rows
        assert nullhomotopy(map_sum(square, cxm.identity_map(model.cx))) is not None
        angles = cxm._F2Space()
        assert all(angles.add(model.cx.diff[g])[0] for g in model.angle_gen.values())
        # the one-pass monotone leaves against the walk over leaf sets (a cut
        # root may have no invariant vertex: both refuse it alike); the
        # leaves above an invariant vertex are closed under the involution
        assert _outcome(cn.monotone_leaves, r) == _outcome(ref_monotone_leaves, r)
        j = r.involution
        above = {}
        for v in sorted(range(len(r)), key=r.levels.__getitem__):
            kids = r.children(v)
            above[v] = set().union(*(above[c] for c in kids)) if kids else {v}
            if j[v] == v:
                assert {j[l] for l in above[v]} == above[v]


# ---------------------------------------------------------------------------
# the F_2 solvers against exhaustive enumeration


def _all_maps(src, tgt, degree):
    """Every map src -> tgt of the given degree."""
    positions = ref_positions(src, tgt, degree)
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
    linear_chain([-5]),
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
    assume(len(ref_positions(cx, cx, 0)) <= 12)
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
        if len(ref_positions(src, tgt, 0)) > 12:
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
    assume(len(ref_positions(cx, cx, 1)) <= 12)
    d = cxm.UMap(cx, cx, Fraction(-1), cx.diff)
    boundaries = {
        map_sum(cxm.compose(d, h), cxm.compose(h, d)).rows for h in _all_maps(cx, cx, 1)
    }
    maps = list(_all_maps(cx, cx, 0))
    picks = data.draw(st.lists(st.sampled_from(maps), max_size=8))
    square = map_sum(cxm.compose(iota, iota), cxm.identity_map(cx))
    for f in [square, cxm.identity_map(cx), maps[0], *picks]:
        h = nullhomotopy(f)
        assert (h is None) == (f.rows not in boundaries)
        if h is not None:
            assert map_sum(cxm.compose(d, h), cxm.compose(h, d)).rows == f.rows
    # every boundary is solvable, not only the sampled maps
    for rows in sorted(boundaries)[:16]:
        assert nullhomotopy(cxm.UMap(cx, cx, Fraction(0), rows)) is not None


# ---------------------------------------------------------------------------
# slices indexed by generator against explicit exponents


def _slice_gradings(cx):
    """Every grading with a generator on top, the five slices below each,
    and one grading off the lattice of each."""
    out = set()
    for h in cx.gradings:
        out.update(h - k for k in range(6))
        out.add(h + Fraction(1, 2))
    return sorted(out)


def _slice_at(cx, g):
    """The package's slice of cx at grading g, 0 off its grid."""
    offset, scale, _ = cx._grid
    level = (g - offset) * scale
    return cxm._slice(cx, level.numerator) if level.denominator == 1 else 0


def _generators(basis, vec):
    """The generators of a vector over an explicit slice basis."""
    out = 0
    for t in cxm._bits(vec):
        out |= 1 << basis[t][0]
    return out


@settings(max_examples=40, deadline=None)
@given(small_models(), small_models(), st.data())
def test_slices_and_allowed_entries_match_explicit_exponents(a, b, data):
    (cx, iota), (other, _) = a, b
    cone, q = cxm.involutive_cone(cx, iota)
    d, cone_d = (cxm.UMap(c, c, Fraction(-1), c.diff) for c in (cx, cone))
    for f in [d, iota, cone_d, q]:
        for g in _slice_gradings(f.src):
            # a slice vector is a set of generators, each at the U-power its
            # grading forces: the slice masks are the explicit bases, f maps
            # x_j to rows[j] in every slice and U is the identity
            basis = ref_slice_basis(f.src, g)
            mask = _slice_at(f.src, g)
            assert mask == _generators(basis, (1 << len(basis)) - 1)
            tgt_basis = ref_slice_basis(f.tgt, g + f.degree)
            assert [_generators(tgt_basis, v) for v in ref_slice_vectors(f, g)] == [
                f.rows[j] for j in cxm._bits(mask)
            ]
            assert all(f.rows[j] & ~_slice_at(f.tgt, g + f.degree) == 0 for j in cxm._bits(mask))
            if not basis:
                continue
            vec = data.draw(st.integers(min_value=0, max_value=(1 << len(basis)) - 1))
            for steps in range(4):
                g_to = g - 2 * steps
                got = ref_transport(f.src, vec, g, g_to)
                assert _generators(ref_slice_basis(f.src, g_to), got) == _generators(basis, vec)
                assert mask & ~_slice_at(f.src, g_to) == 0
            # U only goes down, by two: the slice above lies in this one, and
            # the one below shares no generator with it
            assert _slice_at(f.src, g + 2) & ~mask == 0
            assert mask & _slice_at(f.src, g - 1) == 0
    for src, tgt in [(cx, cx), (cx, other), (other, cx), (cone, cx)]:
        for degree in [Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2)]:
            allowed = ref_positions(src, tgt, degree)
            assert cxm._positions(src, tgt, degree) == allowed
            rows = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=(1 << len(tgt)) - 1),
                    min_size=len(src),
                    max_size=len(src),
                )
            )
            bad = [
                f"{j}->{i} "
                for j, row in enumerate(rows)
                for i in cxm._bits(row)
                if (j, i) not in allowed
            ]
            if bad:
                with pytest.raises(cxm.ConsistencyError, match=f"map entry {bad[0]}"):
                    cxm.UMap(src, tgt, degree, tuple(rows))
                if src is tgt and degree == -1:
                    with pytest.raises(cxm.ConsistencyError, match=f"differential entry {bad[0]}"):
                        cxm.UComplex(src.gradings, tuple(rows))
            else:
                cxm.UMap(src, tgt, degree, tuple(rows))
            masks = [0] * len(src)
            for j, i in allowed:
                masks[j] |= 1 << i
            cxm.UMap(src, tgt, degree, tuple(r & m for r, m in zip(rows, masks)))


def _grid_cases(a, b, s):
    """Complexes from every constructor out of two model complexes a and b:
    shifts by s, duals, a direct sum in two cosets of Z (scale 2, public
    constructor), tensors of scale-1 and scale-2 factors, and cones."""
    two = cxm.UComplex(
        a.gradings + tuple(g + Fraction(1, 2) for g in b.gradings),
        a.diff + tuple(r << len(a) for r in b.diff),
    )
    pair = cxm.UComplex((Fraction(0), Fraction(-1, 2)), (0, 0))
    swap = cxm.shift_complex(swap_model()[0], Fraction(1, 2))
    shifted = cxm.shift_complex(a, s)
    cases = [a, b, shifted, cxm.shift_complex(shifted, -s - 1), cxm.dual_complex(b), two]
    cases += [cxm.tensor_complex(a, swap), cxm.tensor_complex(a, pair)]
    cases += [cxm.tensor_complex(pair, two), cxm.tensor_complex(cxm.dual_complex(two), pair)]
    cases += [cxm.involutive_cone(c, cxm.identity_map(c))[0] for c in (shifted, two, cases[-1])]
    cases.append(cxm.dual_complex(cxm.shift_complex(cases[-1], s)))
    return cases + [cxm.UComplex(c.gradings, c.diff) for c in cases[-4:]]


@settings(max_examples=25, deadline=None)
@given(
    small_star_trees(),
    small_star_trees(),
    st.sampled_from([Fraction(-2), Fraction(1), Fraction(1, 2), Fraction(-3, 2)]),
    st.data(),
)
def test_every_constructor_keeps_its_grid_and_allowed_entries(t1, t2, s, data):
    # each complex's grid gives back every grading exactly, and its tables
    # of allowed entries, built on integer levels and shared with its
    # shifts, are those of the per-level scan, across grids and scales
    a, b = (cxm.model_complex(rt.build_root_star(t)).cx for t in (t1, t2))
    assume(len(a) * len(b) <= 40)
    cases = _grid_cases(a, b, s)
    for cx in cases:
        offset, scale, levels = cx._grid
        assert [offset + Fraction(h, scale) for h in levels] == list(cx.gradings)
    assert cases[2]._tables is cases[3]._tables is a._tables
    for src in cases:
        for tgt in [src, *data.draw(st.lists(st.sampled_from(cases), min_size=3, max_size=3))]:
            for degree in [Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2)]:
                assert cxm._allowed(src, tgt, degree) == ref_allowed(src, tgt, degree)
    for cx in cases[:4]:
        for g in _slice_gradings(cx):
            assert _slice_at(cx, g) == ref_slice(cx, g)


def test_a_shift_is_the_fully_checked_complex_of_its_gradings(monkeypatch):
    # a shift runs none of `UComplex.__post_init__`'s checks: moving every
    # grading by s keeps the table of allowed entries, and the differential
    # is its base's, which passed them; the publicly built complex of the
    # same gradings and differential passes every check and equals it
    a = cxm.model_complex(rt.build_root(kn.presentation(kn.parse_spec("pretzel(7,-3,5)")).tree)).cx
    b = cxm.model_complex(rt.build_root(GAMMA7)).cx
    ev = kn._evaluate(kn.parse_spec("sum(pretzel(11,-5,9),pretzel(15,-7,13))"), None)
    bases = _grid_cases(a, b, Fraction(1, 2)) + [ev.full()[0]]
    assert len(bases[-1]) == 589
    checks = []
    post_init = cxm.UComplex.__post_init__
    monkeypatch.setattr(cxm.UComplex, "__post_init__", lambda cx: checks.append(cx) or post_init(cx))
    for cx in bases:
        for shift in (Fraction(-2), Fraction(1), Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3)):
            shifted = cxm.shift_complex(cx, shift)
            assert not checks
            public = cxm.UComplex(tuple(g + shift for g in cx.gradings), cx.diff)
            assert checks.pop() is public
            assert shifted == public
            if len(cx) < 100:
                assert cxm.homology(shifted) == cxm.homology(public)


def test_allowed_entries_are_cached_per_target():
    # the swap is a valid degree-0 map into any copy of its complex, and
    # into none whose gradings are shifted by a half
    c, swap = swap_model()
    for _ in range(20):
        copy = cxm.UComplex(c.gradings, c.diff)
        cxm.UMap(c, copy, Fraction(0), swap.rows)
        del copy
        half = cxm.shift_complex(c, Fraction(1, 2))
        with pytest.raises(cxm.ConsistencyError, match="map entry 0->1 has no valid U-power"):
            cxm.UMap(c, half, Fraction(0), swap.rows)
        cxm.UMap(half, half, Fraction(0), swap.rows)
        with pytest.raises(cxm.ConsistencyError, match="map entry 0->1 has no valid U-power"):
            cxm.UMap(half, c, Fraction(0), swap.rows)
    assert cxm.UMap(c, c, Fraction(0), swap.rows).rows == swap.rows


def test_allowed_entries_of_an_unpickled_complex():
    # an unpickled table is keyed by ids from the pickling process, which
    # may name other objects here; such an entry must not be used
    c, swap = swap_model()
    target = cxm.UComplex(tuple(g + 0 for g in c.gradings), c.diff)
    cxm.UMap(c, target, Fraction(0), swap.rows)
    copy = pickle.loads(pickle.dumps(c))
    # a target on which the swap has no valid entry: generator 1 two below
    # generator 0, its grid offset one level under c's
    low = cxm.UComplex((Fraction(-2), Fraction(-4), Fraction(-3)), c.diff)
    assert (c._grid[0] - low._grid[0]) * low._grid[1] == 1
    stale = copy._tables.pop((id(target._grid[2]), 0))
    copy._tables[(id(low._grid[2]), 1)] = stale  # its id taken over
    with pytest.raises(cxm.ConsistencyError, match="map entry 0->1 has no valid U-power"):
        cxm.UMap(copy, low, Fraction(0), swap.rows)
    cxm.UMap(copy, target, Fraction(0), swap.rows)
    assert cxm.connected_homology_brute(copy, cxm.UMap(copy, copy, Fraction(0), swap.rows)) == (
        cxm.connected_homology_brute(c, swap)
    )


def test_cached_slices_cannot_be_mutated():
    # slices and tables are int masks in tuples; a deep parity is tuples,
    # and every echelon built from it is the caller's own copy
    c, swap = swap_model()
    assert c._grid == (Fraction(-3), 1, (1, 1, 0))
    assert cxm._slice(c, 1) == 0b11
    table = cxm._allowed(c, c, Fraction(-1))
    with pytest.raises(TypeError):
        table[2] = 0b111
    for neg, masks in c._classes.values():
        with pytest.raises(TypeError):
            masks[-1] = 0
        with pytest.raises(TypeError):
            neg[0] = 0
    h = cxm.homology(c)
    deep = h.deep[Fraction(0)]
    with pytest.raises(TypeError):
        deep.alive[0] = (Fraction(0), 1)
    with pytest.raises(AttributeError):
        deep.alive.append((Fraction(0), 1))
    with pytest.raises(TypeError):
        deep.bound[0] = (0, (1, 0))
    with pytest.raises(AttributeError):
        deep.mask = 1
    space = cxm._deep_echelon(deep)
    space.add(1 << 2, 1 << 5)
    space.pivots.clear()
    assert cxm._deep_echelon(deep).rank == len(deep.bound) + len(deep.alive) == 2
    assert cxm._slice(c, 1) == 0b11
    assert cxm._allowed(c, c, Fraction(-1)) == table == (0b100, 0b100, 0b11)
    assert cxm.homology(c).towers == (Fraction(-2),)
    b = cxm.branched_invariants(c, swap)
    assert (b.upper, b.lower) == (-2, -4)
    assert cxm.branched_invariants(c, swap).module.deep[Fraction(1)].alive == b.module.deep[
        Fraction(1)
    ].alive


_UNDER_O = """
from fractions import Fraction
from branchfloer import complexes as cxm

try:
    cxm.UComplex((Fraction(0), Fraction(-1, 2)), (2, 0))
except cxm.ConsistencyError as err:
    print("complex:", err)
cx = cxm.UComplex((Fraction(0), Fraction(-1)), (2, 0))
cxm.UMap(cx, cx, Fraction(-1), (2, 0))
try:
    cxm.UMap(cx, cx, Fraction(0), (2, 0))
except cxm.ConsistencyError as err:
    print("map:", err)
"""


def test_invalid_entries_are_rejected_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "complex: differential entry 0->1 has no valid U-power",
        "map: map entry 0->1 has no valid U-power",
    ]


# ---------------------------------------------------------------------------
# one image homology per distinct image


def _small_sum_model():
    ev = kn._evaluate(kn.parse_spec("sum(pretzel(2,-3,-7),pretzel(2,-3,-9))"), None)
    return ev.small_cx, ev.small_iota


def test_connected_search_computes_each_image_once(monkeypatch):
    cx, iota = _small_sum_model()
    expected = cxm.connected_homology_brute(cx, iota, 16)
    calls = []
    original = cxm.image_homology

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(cxm, "image_homology", counted)
    got = cxm.connected_homology_brute(cx, iota, 16)
    assert (got.towers, got.torsion) == (expected.towers, expected.torsion)
    # 1024 self local equivalences share the largest deep kernel; no image
    # among them is computed twice
    assert 1 < len(calls) < 1024
    assert len({image_spans(f) for f in calls}) == len(calls)


def test_connected_search_still_reports_disagreeing_images(monkeypatch):
    cx, iota = _small_sum_model()
    fresh = iter(range(-1, -10**6, -1))

    def disagreeing(f):
        return cxm.GradedUModule((Fraction(next(fresh)),), ())

    monkeypatch.setattr(cxm, "image_homology", disagreeing)
    with pytest.raises(cxm.ConsistencyError, match="maximal self equivalences disagree"):
        cxm.connected_homology_brute(cx, iota, 16)


def test_connected_search_builds_one_map_per_image(monkeypatch):
    # the 1024 maximizers have 16 distinct images; a map is built for each
    # image, not for each maximizer
    cx, iota = _small_sum_model()
    expected = cxm.connected_homology_brute(cx, iota, 16)
    built = []
    original = cxm.UMap

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(cxm, "UMap", counted)
    got = cxm.connected_homology_brute(cx, iota, 16)
    monkeypatch.undo()
    assert (got.towers, got.torsion) == (expected.towers, expected.torsion)
    images = {image_spans(cxm.UMap(*args)) for args in built}
    assert len(built) == len(images) == 16


# ---------------------------------------------------------------------------
# the Gray-code walk against one candidate map at a time

# the generator and benchmark sums, with the number of self local
# equivalences of each one's small model
SUM_SPECS = [
    ("sum(pretzel(2,-3,-7),pretzel(2,-3,-9))", 4096),
    ("sum(pretzel(7,-3,5),mirror(pretzel(2,-3,-7)))", 4096),
    ("sum(torus(3,7),mirror(pretzel(2,-3,-7)))", 2),
    ("sum(pretzel(7,-3,5),pretzel(11,-5,9))", 1024),
    ("sum(pretzel(7,-3,5),pretzel(15,-7,13))", 1024),
    ("sum(pretzel(11,-5,9),pretzel(15,-7,13))", 1024),
]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=255), max_size=6),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
def test_reduce_is_linear_and_leaves_no_pivot_bit(rows, v, w):
    # the walk adds up reductions of its basis maps' images
    space = cxm._F2Space()
    for t, row in enumerate(rows):
        space.add(row, 1 << t)
    (rv, tv), (rw, tw) = space.reduce(v), space.reduce(w)
    assert space.reduce(v ^ w) == (rv ^ rw, tv ^ tw)
    assert not any(rv >> p & 1 for p in space.pivots)
    combo = 0
    for t in range(len(rows)):
        if tv >> t & 1:
            combo ^= rows[t]
    assert combo ^ rv == v


def _check_walk(src, iota_src, tgt, iota_tgt, rank_bound=8):
    """The maps the walk accepts, and the deep kernel ranks it reports on
    src's deep slices, against the references; returns the maps' count."""
    fpos, fbasis = cxm._chain_map_basis(src, iota_src, tgt, iota_tgt, rank_bound)
    ha = cxm.homology(src)
    walked = sorted(
        (cxm._unpack(packed, len(src), len(tgt)), kr)
        for packed, kr in cxm._walk(src, tgt, fpos, fbasis, ha, cxm.homology(tgt), ha.deep)
    )
    expected = ref_local_equivalences(src, iota_src, tgt, iota_tgt, rank_bound)
    assert [rows for rows, _ in walked] == [f.rows for f in expected]
    assert [kr for _, kr in walked] == [deep_kernel_rank(f, ha) for f in expected]
    found = cxm.local_equivalences(src, iota_src, tgt, iota_tgt, rank_bound)
    assert [f.rows for f in found] == [f.rows for f in expected]
    return len(found)


@settings(max_examples=40, deadline=None)
@given(small_models(), small_models())
def test_walk_matches_one_map_at_a_time(a, b):
    pairs = [(a, a), (a, b), (b, a)]
    for tree in ONE_LEAF[:2]:
        shifted = _tensor(a, _model(tree))
        pairs += [(a, shifted), (shifted, a)]
    for (src, iota_src), (tgt, iota_tgt) in pairs:
        if len(ref_positions(src, tgt, 0)) <= 12:
            _check_walk(src, iota_src, tgt, iota_tgt)
    assert cxm.connected_homology_brute(*a) == ref_connected_homology(*a)


@pytest.mark.parametrize("text, count", SUM_SPECS)
def test_walk_on_the_small_models_of_sums(text, count):
    ev = kn._evaluate(kn.parse_spec(text), None)
    cx, iota = ev.small_cx, ev.small_iota
    assert _check_walk(cx, iota, cx, iota, 16) == count
    assert cxm.connected_homology_brute(cx, iota, 16) == ref_connected_homology(cx, iota, 16)


def test_searches_of_dimension_zero_and_one():
    # one generator to itself and to its shifts: a search of dimension 1
    # (x -> x, or x -> U^e x below a higher copy) or 0 (no map of degree 0)
    one = cxm.UComplex((Fraction(0),), (0,))
    ident = cxm.identity_map(one)
    for shift, expected in [(0, [(1,)]), (2, [(1,)]), (4, [(1,)]), (-2, []), (1, [])]:
        tgt = cxm.shift_complex(one, shift)
        iota = cxm.UMap(tgt, tgt, Fraction(0), (1,))
        _, fbasis = cxm._chain_map_basis(one, ident, tgt, iota, 8)
        assert len(fbasis) == (1 if expected else 0)
        found = cxm.local_equivalences(one, ident, tgt, iota)
        assert [f.rows for f in found] == expected
    conn = cxm.connected_homology_brute(one, ident)
    assert (conn.towers, conn.torsion) == ((Fraction(0),), ())


# ---------------------------------------------------------------------------
# homology on integer levels against the slice-by-slice reference


def test_gradings_in_two_cosets_of_the_integers():
    half = cxm.homology(cxm.UComplex((Fraction(0), Fraction(1, 2)), (0, 0)))
    assert half.towers == (Fraction(1, 2), Fraction(0))
    assert half.torsion == ()
    low = cxm.homology(cxm.UComplex((Fraction(0), Fraction(-7, 2)), (0, 0)))
    assert low.towers == (Fraction(0), Fraction(-7, 2))


def _shifted(module, s):
    return (tuple(t + s for t in module.towers), tuple((b + s, n) for b, n in module.torsion))


@pytest.mark.parametrize("tree, k", SMALL_ROOTS)
def test_a_half_shift_moves_every_answer_by_a_half(tree, k):
    half = Fraction(1, 2)
    for cx, iota in [_model(tree, k), swap_model()]:
        sh = cxm.shift_complex(cx, half)
        iota_sh = cxm.UMap(sh, sh, Fraction(0), iota.rows)
        h, h_sh = cxm.homology(cx), cxm.homology(sh)
        assert (h_sh.towers, h_sh.torsion) == _shifted(h, half)
        b, b_sh = cxm.branched_invariants(cx, iota), cxm.branched_invariants(sh, iota_sh)
        assert (b_sh.upper, b_sh.lower) == (b.upper + half, b.lower + half)
        assert (b_sh.module.towers, b_sh.module.torsion) == _shifted(b.module, half)
        c, c_sh = cxm.connected_homology_brute(cx, iota), cxm.connected_homology_brute(sh, iota_sh)
        assert (c_sh.towers, c_sh.torsion) == _shifted(c, half)


def _same_homology(got, ref):
    assert (got.towers, got.torsion) == (ref.towers, ref.torsion)
    assert {p: len(v.alive) for p, v in got.deep.items()} == {
        p: len(v[1]) for p, v in ref.deep.items()
    }


def _direct_sum(a, b):
    (ca, ia), (cb, ib) = a, b
    n = len(ca)
    cx = cxm.UComplex(ca.gradings + cb.gradings, ca.diff + tuple(r << n for r in cb.diff))
    return cx, cxm.UMap(cx, cx, Fraction(0), ia.rows + tuple(r << n for r in ib.rows))


@settings(max_examples=30, deadline=None)
@given(small_models(), small_models(), st.sampled_from([Fraction(0), Fraction(1, 2)]))
def test_homology_matches_the_slice_by_slice_reference(a, b, shift):
    # each model, its dual, the tensor of the two, their direct sum with b
    # moved into another coset of Z, and every cone, shifted by `shift`;
    # then the image of every self local equivalence of a
    dual = cxm.dual_complex(a[0])
    cases = [a, b, (dual, cxm.dual_map(a[1], dual, dual))]
    if len(a[0]) * len(b[0]) <= 30:
        cases.append(_tensor(a, b))
    third = cxm.shift_complex(b[0], Fraction(1, 3))
    cases.append(_direct_sum(a, (third, cxm.UMap(third, third, Fraction(0), b[1].rows))))
    for cx, iota in cases:
        cx = cxm.shift_complex(cx, shift)
        iota = cxm.UMap(cx, cx, Fraction(0), iota.rows)
        for c in [cx, cxm.involutive_cone(cx, iota)[0]]:
            _same_homology(cxm.homology(c), ref_homology(c))
    cx = cxm.shift_complex(a[0], shift)
    iota = cxm.UMap(cx, cx, Fraction(0), a[1].rows)
    fpos, fbasis = cxm._chain_map_basis(cx, iota, cx, iota, 8)
    ha = cxm.homology(cx)
    for packed, _ in cxm._walk(cx, cx, fpos, fbasis, ha, ha, ha.deep):
        f = cxm.UMap(cx, cx, Fraction(0), cxm._unpack(packed, len(cx), len(cx)))
        _same_homology(cxm.image_homology(f), ref_homology(cx, ref_image(f)))


def test_homology_of_a_large_cone_makes_few_fractions(monkeypatch):
    # the rank-266 cone of a benchmark sum: its gradings are read once per
    # distinct grading and once per bar, never once per slice or entry
    ev = kn._evaluate(kn.parse_spec("sum(pretzel(7,-3,5),pretzel(11,-5,9))"), None)
    cone, _ = cxm.involutive_cone(*ev.full())
    fresh = cxm.UComplex(cone.gradings, cone.diff)
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    h = cxm.homology(fresh)
    monkeypatch.undo()
    distinct, bars = len(set(fresh.gradings)), len(h.towers) + len(h.torsion)
    assert (len(fresh), distinct, bars) == (266, 14, 68)
    assert h == cxm.homology(cone)
    assert len(made) <= 4 * (distinct + bars)
