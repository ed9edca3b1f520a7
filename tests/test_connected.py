from fractions import Fraction

import pytest
from hypothesis import assume, event, given, reject, settings
from hypothesis import strategies as st

from branchfloer import complexes as cxm
from branchfloer import connected as cn
from branchfloer import knots as kn
from branchfloer import plumbing as pl
from branchfloer import roots as rt
from oracles import (
    branched_dimensions,
    eliminate,
    intersection_form,
    is_negative_definite,
    module_dim_at,
    monotone_homology,
    ref_root_invariants,
    symmetric_reduction,
)
from test_acceptance import CORPUS
from test_roots import BRANCHING_STARS, H_EDGES, INVOLUTIONS, stars_with_symmetries

GAMMA7 = pl.star(-1, [[-2], [-3], [-7]])
THREE_LEAF = pl.star(-1, [[-3], [-3], [-4, -2]])


def hand_root():
    # three leaves at weight 0 over a single join, two of them swapped
    return rt.GradedRoot(
        levels=(0, 0, 0, 1, 2),
        offset=Fraction(0),
        succ=(3, 3, 3, 4, None),
        involution=(1, 0, 2, 3, 4),
        stable=True,
    )


def test_monotone_subroot_keeps_the_swapped_pair():
    r = rt.build_root(GAMMA7)
    assert cn.monotone_leaves(r) == r.leaves
    sub = cn.monotone_subroot(r)
    assert len(sub) == len(r)
    h = monotone_homology(r)
    assert h.towers == (Fraction(0),)
    assert h.torsion == ((Fraction(0), 1),)
    assert cn.omega(h) == 1


def test_monotone_subroot_is_the_root_exactly_when_every_leaf_is_kept():
    roots = [rt.build_root(GAMMA7), rt.build_root(GAMMA7, involution="trivial"), hand_root()]
    for text in CORPUS + ["pretzel(3,-5,-7,9,11)", "pretzel(19,-9,17)"]:
        pres = kn.presentation(kn.parse_spec(text))
        roots.append(rt.build_root(pres.tree, pres.char, involution=pres.involution))
    whole = 0
    for root in roots:
        keeps_all = len(cn.monotone_leaves(root)) == len(root.leaves)
        whole += keeps_all
        sub = cn.monotone_subroot(root)
        assert (sub is root) == keeps_all
        assert len(sub.leaves) == len(cn.monotone_leaves(root))
    assert 0 < whole < len(roots)


def test_monotone_subroot_is_idempotent():
    sub = cn.monotone_subroot(rt.build_root(GAMMA7))
    assert cn.monotone_subroot(sub) == sub


def test_trivial_involution_reduces_to_the_stem():
    r = rt.build_root(GAMMA7, involution="trivial")
    sub = cn.monotone_subroot(r)
    assert len(sub.leaves) == 1
    h = monotone_homology(r)
    assert h == cxm.GradedUModule((r.d_invariant(),), ())
    assert cn.omega(h) == 0


def test_reduction_is_obstructed_without_an_invariant_target():
    r = rt.build_root(GAMMA7)
    rep = symmetric_reduction(r)
    assert rep.obstructed and rep.deletions == 0
    # consistent with the two correction terms disagreeing
    model = cxm.model_complex(r)
    b = cxm.branched_invariants(model.cx, cxm.lift_involution(model))
    assert b.upper != b.lower


def test_reduction_leaves_trivial_involutions_alone():
    r = rt.build_root(GAMMA7, involution="trivial")
    rep = symmetric_reduction(r)
    assert rep.root == r and rep.deletions == 0 and not rep.obstructed


def test_reduction_deletes_a_pair_against_a_same_weight_leaf():
    rep = symmetric_reduction(hand_root())
    assert not rep.obstructed and rep.deletions == 1
    assert rep.root.leaves == (0,)
    assert all(rep.root.involution[v] == v for v in range(len(rep.root)))
    h = cxm.homology(cxm.model_complex(rep.root).cx)
    assert h == cxm.GradedUModule((Fraction(0),), ())


def test_monotone_agrees_with_brute_force_on_three_leaves():
    r = rt.build_root(THREE_LEAF)
    assert any(r.involution[v] != v for v in range(len(r)))
    model = cxm.model_complex(r)
    iota = cxm.lift_involution(model)
    brute = cxm.connected_homology_brute(model.cx, iota)
    assert monotone_homology(r) == brute
    # here a same-weight invariant leaf exists, so the reduction completes
    rep = symmetric_reduction(r)
    assert not rep.obstructed and rep.deletions == 1
    b = cxm.branched_invariants(model.cx, iota)
    assert b.upper == b.lower


def test_orbit_counts_predict_the_branched_dimensions():
    trivial = rt.build_root(GAMMA7, involution="trivial")
    for root in (rt.build_root(GAMMA7), trivial, rt.build_root(THREE_LEAF)):
        model = cxm.model_complex(root)
        cone = cxm.branched_invariants(model.cx, cxm.lift_involution(model)).module
        for g, want in branched_dimensions(root).items():
            assert module_dim_at(cone, g) == want


def test_level_sizes_are_the_homology_dimensions():
    for tree in (GAMMA7, THREE_LEAF):
        root = rt.build_root(tree)
        h = cxm.homology(cxm.model_complex(root).cx)
        for n in range(root.n_min, root.n_max + 1):
            verts = root.vertices_at(n)
            assert module_dim_at(h, root.weights[verts[0]]) == len(verts)


def test_connected_homology_survives_deeper_truncation():
    r = rt.build_root(GAMMA7)
    deeper = rt.build_root_star(GAMMA7, n_max=r.n_max + 2)
    assert deeper.n_max == r.n_max + 2
    assert monotone_homology(deeper) == monotone_homology(r)
    assert cxm.homology(cxm.model_complex(deeper).cx) == cxm.homology(
        cxm.model_complex(r).cx
    )


def test_subroot_rejects_asymmetric_leaf_sets():
    r = rt.build_root(GAMMA7)
    with pytest.raises(ValueError):
        cn._subroot_spanned(r, r.leaves[:1])


@st.composite
def symmetric_star_trees(draw):
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


@settings(max_examples=25, deadline=None)
@given(symmetric_star_trees())
def test_monotone_brute_and_reduction_agree_on_random_stars(tree):
    root = rt.build_root_star(tree)
    model = cxm.model_complex(root)
    iota = cxm.lift_involution(model)
    mono = monotone_homology(root)
    assert mono.towers == (root.d_invariant(),)
    try:
        brute = cxm.connected_homology_brute(model.cx, iota)
    except cxm.RankBoundExceeded:
        assume(False)
    assert mono == brute
    rep = symmetric_reduction(root)
    if all(root.involution[v] == v for v in range(len(root))):
        assert rep.deletions == 0 and not rep.obstructed
    if not rep.obstructed:
        # completing the reduction forces the torsion-free case
        assert mono.torsion == ()
    cone = cxm.branched_invariants(model.cx, iota).module
    for g, want in branched_dimensions(root).items():
        assert module_dim_at(cone, g) == want


# ---------------------------------------------------------------------------
# a knot's package read off its root


def _built(build, tree, k, n_max, involution):
    """The root under `involution`, under "auto" when the tree has no such
    involution; rejected when the stop level leaves it unstable."""
    for which in (involution, "auto"):
        try:
            root = build(tree, k, n_max=n_max, involution=which)
        except rt.InstabilityError:
            reject()
        except ValueError:
            continue
        assume(root.stable)
        swaps = any(root.involution[v] != v for v in range(len(root)))
        event(f"{'branches' if len(root.leaves) > 1 else 'a stem'}, {'swaps' if swaps else 'no swap'}")
        return root


SMALL_BRANCHING_STARS = [(c, legs) for c, legs in BRANCHING_STARS if sum(map(len, legs)) < 6]


@st.composite
def box_inputs(draw):
    """A tree of 4 to 6 vertices for the box engine: in half the draws each
    vertex after the first joined to a random earlier one (the H shapes
    among them are not stars), inner weights -1..-3 and leaf weights
    -2..-9; else the H shape with equal sides and their swap declared, or
    one of `BRANCHING_STARS` small enough, since small random trees rarely
    branch.  k twisted in half the draws, an explicit stop 0 to 4 levels
    above the bound on the minimum of chi that the elimination gives, and
    one involution drawn by name."""
    shape = draw(st.sampled_from(["random", "random", "H", "star"]))
    if shape == "random":
        n = draw(st.integers(4, 6))
        edges = tuple((draw(st.integers(0, v - 1)), v) for v in range(1, n))
        degree = [sum(v in e for e in edges) for v in range(n)]
        weights = tuple(draw(st.integers(-3, -1) if d > 1 else st.integers(-9, -2)) for d in degree)
        tree = pl.PlumbingTree(weights, edges)
    elif shape == "H":
        a, c = draw(st.integers(-9, -2)), draw(st.integers(-9, -2))
        b = draw(st.integers(-3, -1))
        tree = pl.PlumbingTree((a, b, c, b, a, c), H_EDGES, (4, 3, 5, 1, 0, 2))
    else:
        tree = pl.star(*draw(st.sampled_from(SMALL_BRANCHING_STARS)))
    assume(is_negative_definite(intersection_form(tree)))
    k = None
    if draw(st.booleans()):
        k = tuple(w + 2 * draw(st.integers(-2, 2)) for w in tree.weights)
    *_, const = eliminate(tree, k or pl.spin_char(tree))
    n_max = -(-const // 2) + draw(st.integers(0, 4))
    return tree, k, n_max, draw(st.sampled_from(INVOLUTIONS))


def _chain_path(root):
    """The branched and connected modules of a root as the chain path
    computes them: the branched cone of its model with the lifted
    involution, and the homology of its monotone subroot's model, both
    shifted by -2 as a knot's are."""
    cx, iota = kn._root_model(cxm.model_complex(root))
    sub_cx = cxm.shift_complex(cxm.model_complex(cn.monotone_subroot(root)).cx, -2)
    return cxm.branched_invariants(cx, iota), cxm.homology(sub_cx)


def _assert_read_off(root):
    want = ref_root_invariants(root)
    assert want == _chain_path(root)
    assert cn._root_invariants(root) == want


@settings(max_examples=300, deadline=None)
@given(stars_with_symmetries())
def test_star_roots_read_off_the_chain_path_invariants(data):
    _assert_read_off(_built(rt.build_root_star, *data))


@settings(max_examples=200, deadline=None)
@given(box_inputs())
def test_box_roots_read_off_the_chain_path_invariants(data):
    _assert_read_off(_built(rt.build_root_box, *data))


@pytest.mark.parametrize("text", CORPUS + ["pretzel(3,-5,-7,9,11)", "pretzel(-3,5,7)"])
@pytest.mark.parametrize("n_max", [None, 1, 3])
def test_knot_roots_read_off_the_chain_path_invariants(text, n_max):
    pres = kn.presentation(kn.parse_spec(text))
    root = rt.build_root(pres.tree, pres.char, involution=pres.involution, n_max=n_max)
    _assert_read_off(root)


def test_read_off_kills_a_swapped_pair_over_an_invariant_successor():
    # in ker(1 + J) the orbit sum of the two swapped leaves maps to 0, so it is
    # a summand of length 1 at their weight; in coker(1 + J) their orbit and
    # the invariant leaf meet one level down, where the younger stops
    br, conn = cn._root_invariants(hand_root())
    assert br.upper == br.lower == Fraction(-2)
    assert br.module.towers == (Fraction(-2), Fraction(-3))
    assert br.module.torsion == ((Fraction(-2), 1), (Fraction(-3), 1))
    assert conn == cxm.GradedUModule((Fraction(-2),), ())
