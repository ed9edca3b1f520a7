from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchfloer import complexes as cxm
from branchfloer import connected as cn
from branchfloer import knots as kn
from branchfloer import plumbing as pl
from branchfloer import roots as rt
from oracles import branched_dimensions, module_dim_at, symmetric_reduction
from test_acceptance import CORPUS

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


@pytest.mark.parametrize("text", ["torus(2,3)", "torus(2,5)", "pretzel(2,-3,-7)"])
def test_verify_reuses_the_model_of_a_subroot_that_is_the_root(monkeypatch, text):
    pres = kn.presentation(kn.parse_spec(text))
    root = rt.build_root(pres.tree, pres.char, involution=pres.involution)
    assert cn.monotone_subroot(root) is root
    expected = cn.connected_homology(root)
    built = []
    original = cn.model_complex

    def counted(r):
        built.append(r)
        return original(r)

    monkeypatch.setattr(cn, "model_complex", counted)
    assert cn.connected_homology(root, verify=True) == expected
    # one model, for the homology and the brute-force cross-check alike
    assert built == [root]


def test_monotone_subroot_keeps_the_swapped_pair():
    r = rt.build_root(GAMMA7)
    assert cn.monotone_leaves(r) == r.leaves
    sub = cn.monotone_subroot(r)
    assert len(sub) == len(r)
    h = cn.connected_homology(r, verify=True)
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
    h = cn.connected_homology(r, verify=True)
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
    assert cn.connected_homology(r) == brute
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
    assert cn.connected_homology(deeper) == cn.connected_homology(r)
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
    mono = cn.connected_homology(root)
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
