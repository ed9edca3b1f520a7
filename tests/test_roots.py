import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from branchfloer import cli
from branchfloer import knots as kn
from branchfloer import plumbing as pl
from branchfloer import roots as rt
from branchfloer.complexes import ConsistencyError
from oracles import (
    coordinate_ranges,
    intersection_form,
    is_negative_definite,
    linear_chain,
    least_minimizer,
    ref_central_profile,
    ref_star_root,
)
from test_acceptance import CORPUS

GAMMA7 = pl.star(-1, [[-2], [-3], [-7]])
E8 = pl.star(-2, [[-2, -2, -2, -2], [-2, -2], [-2]])
BUSH = pl.PlumbingTree((-3, -2, -2, -3, -2, -2), ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5)))


def test_gamma7_star_root_shape():
    """Two weight-0 leaves exchanged by the reflection, merging one level down."""
    r = rt.build_root_star(GAMMA7)
    assert r.stable
    assert r.d_invariant() == 0
    top = r.vertices_at(r.n_min)
    assert len(top) == 2
    assert r.weights[top[0]] == r.weights[top[1]] == 0
    assert r.involution[top[0]] == top[1]
    assert r.succ[top[0]] == r.succ[top[1]]
    assert set(r.leaves) == set(top)
    # below the merge it is a plain stem fixed by the involution
    for v in range(len(r)):
        if v not in top:
            assert r.involution[v] == v


def test_gamma7_box_equals_star():
    a = rt.build_root_star(GAMMA7)
    b = rt.build_root_box(GAMMA7)
    assert rt._trimmed(a) == rt._trimmed(b)


@pytest.mark.parametrize(
    "tree",
    [
        # the cover of torus(2,7): two equal legs of three vertices
        pytest.param(pl.star(-1, [[-3, -2, -2], [-3, -2, -2]]), id="torus(2,7)"),
        pytest.param(E8, id="E8", marks=pytest.mark.slow),
    ],
)
def test_box_equals_star_past_six_vertices(tree):
    assert len(tree) > 6
    a = rt.build_root_star(tree)
    b = rt.build_root_box(tree)
    assert rt._trimmed(a) == rt._trimmed(b)


def test_gamma_family_two_swapped_leaves():
    for q in (9, 11, 13, 15):
        tree = pl.star(-1, [[-2], [-3], [-q]])
        r = rt.build_root_star(tree)
        assert r.d_invariant() == Fraction(7 - q, 4)
        top = r.vertices_at(r.n_min)
        assert len(top) == 2 and r.involution[top[0]] == top[1]


def test_d_invariant_anchors():
    # E8 boundary with its natural orientation
    assert rt.build_root_star(E8).d_invariant() == 2
    # lens space of a single -3 vertex, spin structure
    minus3 = pl.PlumbingTree((-3,), ())
    assert rt.build_root_star(minus3).d_invariant() == Fraction(-1, 2)
    # same space with reversed orientation via the -1 star with two -3 legs,
    # which blows down to the chain (-2, -2)
    tref = pl.star(-1, [[-3], [-3]])
    assert rt.build_root_star(tref).d_invariant() == Fraction(1, 2)
    assert rt.build_root_star(linear_chain([-2, -2])).d_invariant() == Fraction(1, 2)


def test_pure_stem_root_has_trivial_involution():
    minus3 = pl.PlumbingTree((-3,), ())
    r = rt.build_root_star(minus3)
    assert r.involution == tuple(range(len(r)))
    assert len(r.leaves) == 1


def test_two_legged_star_single_components():
    # every sublevel set is connected here, so the reflection acts trivially
    tree = pl.star(-2, [[-3], [-3]])
    r = rt.build_root_star(tree)
    assert r.d_invariant() == Fraction(1, 4)
    for n in range(r.n_min, r.n_max + 1):
        assert len(r.vertices_at(n)) == 1
    assert r.involution == tuple(range(len(r)))
    assert rt._trimmed(r) == rt._trimmed(rt.build_root_box(tree))


def test_explicit_stop_level_flags_instability():
    for build in (rt.build_root_star, rt.build_root_box):
        r = build(GAMMA7, n_max=0)
        assert not r.stable
        assert len(r.vertices_at(0)) == 2
        with pytest.raises(rt.InstabilityError):
            build(GAMMA7, n_max=-5)


def test_star_engine_stops_below_its_first_window_minimum():
    # The true minimum -22 lies far from slice 0 (slices -8..8 see a profile
    # minimum of -1), so only slices taken from the exact coordinate ranges
    # find it; the adaptive root spans levels -22..-15.
    pres = kn.presentation(kn.parse_spec("pretzel(11,-5,9)"))

    def build(n_max=None):
        return rt.build_root_star(
            pres.tree, pres.char, involution=pres.involution, n_max=n_max
        )

    adaptive = build()
    assert (adaptive.n_min, adaptive.n_max) == (-22, -15)
    assert build(-15).to_json() == adaptive.to_json()
    assert len(build(-10).leaves) == 14
    with pytest.raises(rt.InstabilityError):
        build(-23)


def test_star_engine_computes_the_profile_at_most_twice(monkeypatch):
    # the slices and the leg ranges come from the exact coordinate ranges of
    # S_cap, so no profile is recomputed on a wider span or window
    pres = kn.presentation(kn.parse_spec("pretzel(15,-7,13)"))
    calls = []
    profile = rt._central_profile

    def counted(*args):
        calls.append(args)
        return profile(*args)

    monkeypatch.setattr(rt, "_central_profile", counted)
    root = rt.build_root_star(pres.tree, pres.char, involution=pres.involution)
    assert (root.n_min, root.n_max, len(root)) == (-87, -77, 38)
    assert len(calls) <= 2


def test_star_engine_profiles_exactly_the_centre_range(monkeypatch):
    # The profile runs over the centre's exact range on S_cap and nothing
    # wider, and only the centre's range is computed.
    pres = kn.presentation(kn.parse_spec("pretzel(15,-7,13)"))
    tree, k = pres.tree, pres.char
    ranges, handed = [], []
    coordinate_range, central_profile = rt.coordinate_range, rt._central_profile

    def recorded_range(*args):
        ranges.append((args, coordinate_range(*args)))
        return ranges[-1][1]

    def recorded_profile(tree, k, center, legs, slices):
        handed.append((ranges[-1][1], slices))
        return central_profile(tree, k, center, legs, slices)

    monkeypatch.setattr(rt, "coordinate_range", recorded_range)
    monkeypatch.setattr(rt, "_central_profile", recorded_profile)
    rt.build_root_star(tree, k, involution=pres.involution)
    center, _ = rt._star_decompose(tree)
    assert ranges and handed == [(r, r) for _, r in ranges]
    for (t, kk, cap, v), r in ranges:
        assert (t, kk, v) == (tree, k, center)
        assert r == coordinate_ranges(tree, k, cap)[center]


@st.composite
def twisted_chains(draw):
    """A chain of 1-3 vertices with weights -1..-6 hung off a centre, a
    characteristic k twisted on every vertex, and a run of central values
    of either sign."""
    legs = [[draw(st.integers(-6, -1)) for _ in range(draw(st.integers(1, 3)))]]
    tree = pl.star(draw(st.integers(-6, -1)), legs)
    assume(is_negative_definite(intersection_form(tree)))
    k = tuple(w + 2 * draw(st.integers(-3, 3)) for w in tree.weights)
    lo = draw(st.integers(-15, 15))
    return tree, k, range(lo, draw(st.integers(lo, 15)) + 1)


def _profile_by_slice(tree, k, center, legs, slices):
    """`rt._central_profile` and every slice's least minimizer in the closed
    form whose shares it sums."""
    minimizer = least_minimizer(tree, k, center, legs)
    return rt._central_profile(tree, k, center, legs, slices), [minimizer(i) for i in slices]


def _ref_profile(tree, k, center, legs, slices):
    """`ref_central_profile` in the shape of `rt._central_profile`."""
    return ref_central_profile(tree, k, center, legs, slices)[0]


@settings(max_examples=200, deadline=None)
@given(twisted_chains())
def test_closed_form_matches_the_leg_dp_on_chains(data):
    tree, k, slices = data
    center, legs = rt._star_decompose(tree)
    assert _profile_by_slice(tree, k, center, legs, slices) == ref_central_profile(
        tree, k, center, legs, slices
    )


@st.composite
def long_legged_stars(draw):
    """One to three legs, each a run of 1-6 vertices of weight -2 or -3, a
    centre of weight -1..-3, k twisted on every vertex, and a run of central
    values longer than twice the largest leg's alpha_1, so that most of the
    profile comes from the second-difference recurrence."""
    legs = [
        draw(st.lists(st.sampled_from([-2, -3]), min_size=1, max_size=6))
        for _ in range(draw(st.integers(1, 3)))
    ]
    tree = pl.star(draw(st.integers(-3, -1)), legs)
    assume(is_negative_definite(intersection_form(tree)))
    k = tuple(w + 2 * draw(st.integers(-3, 3)) for w in tree.weights)
    alpha = max(rt._leg_seifert(leg, [0] * len(leg))[0][0] for leg in legs)
    lo = draw(st.integers(-60, 10))
    return tree, k, range(lo, lo + 2 * alpha + draw(st.integers(1, 40)))


@settings(max_examples=100, deadline=None)
@given(long_legged_stars())
def test_second_difference_recurrence_matches_the_leg_dp(data):
    tree, k, slices = data
    center, legs = rt._star_decompose(tree)
    assert _profile_by_slice(tree, k, center, legs, slices) == ref_central_profile(
        tree, k, center, legs, slices
    )


def _brieskorn_star(a, b, c):
    """Centre weight and legs of the Seifert star of the Brieskorn sphere
    Sigma(a, b, c): leg i has Seifert invariants (x, w) for x in (a, b, c),
    w = -(abc / x)^-1 mod x, and the centre makes the euler number
    -1 / abc."""
    n = a * b * c
    ws = [-pow(n // x, -1, x) % x for x in (a, b, c)]
    centre = (-1 - sum(w * (n // x) for w, x in zip(ws, (a, b, c)))) // n
    return centre, [kn.negative_continued_fraction(x, w) for x, w in zip((a, b, c), ws)]


def _leg_weights(tree):
    center, legs = rt._star_decompose(tree)
    return tree.weights[center], [[tree.weights[v] for v in leg] for leg in legs]


# Seifert stars of at most 10 vertices whose roots nearly all branch
# (Sigma(2, 3, 5) is the one stem): the Brieskorn spheres Sigma(a, b, c) with
# a <= 5 and c <= 13, and the torus knot covers Sigma(2, 2m, r), presented
# with two equal legs
BRANCHING_STARS = [
    _brieskorn_star(a, b, c)
    for a in range(2, 6)
    for b in range(a + 1, 13)
    for c in range(b + 1, 14)
    if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1
] + [
    _leg_weights(kn.presentation(kn.KnotSpec.torus(2 * m, r)).tree)
    for m in range(2, 5)
    for r in range(3, 12, 2)
    if math.gcd(m, r) == 1
]
BRANCHING_STARS = [(c, legs) for c, legs in BRANCHING_STARS if sum(map(len, legs)) < 10]


@st.composite
def star_legs(draw):
    """Centre weight and legs of a star: in half the draws one to four legs
    of up to three vertices, leg weights -1..-7 around a centre of weight
    -1..-3, and in the other half one of `BRANCHING_STARS`, so that about
    half the roots branch."""
    if draw(st.booleans()):
        centre, legs = draw(st.sampled_from(BRANCHING_STARS))
        return centre, [list(leg) for leg in legs]
    legs = [
        [draw(st.integers(-7, -1)) for _ in range(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(1, 4)))
    ]
    return draw(st.integers(-3, -1)), legs


def _relabelled_tree(tree, label):
    """The tree with vertex v renamed label[v]."""
    n = len(tree)
    return pl.PlumbingTree(
        tuple(tree.weights[label.index(v)] for v in range(n)),
        tuple((label[a], label[b]) for a, b in tree.edges),
    )


@st.composite
def twisted_stars(draw):
    """Definite stars of `star_legs`, the centre relabelled, k twisted, and
    an adaptive or explicit stop level near the minimum of chi."""
    centre, legs = draw(star_legs())
    tree = pl.star(centre, legs)
    assume(is_negative_definite(intersection_form(tree)))
    tree = _relabelled_tree(tree, draw(st.permutations(range(len(tree)))))
    k = tuple(w + 2 * draw(st.integers(-3, 3)) for w in tree.weights)
    # an explicit stop from 3 below the bound ceil(k^2 / 8) on min chi to 8 above
    low = math.ceil(pl.k_square(tree, k) / 8)
    return tree, k, draw(st.none() | st.integers(low - 3, low + 8))


def _built_both_ways(tree, k, n_max, involution="auto"):
    """A star root's JSON under `involution` and under the reflection, or
    their errors, built by the package and again with the leg DP's central
    profile."""

    def build():
        out = []
        for which in (involution, "reflection"):
            try:
                out.append(rt.build_root_star(tree, k, n_max=n_max, involution=which).to_json())
            except (rt.InstabilityError, ValueError) as err:
                out.append(str(err))
        return out

    ours = build()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rt, "_central_profile", _ref_profile)
        return ours, build()


@settings(max_examples=150, deadline=None)
@given(twisted_stars())
def test_star_roots_match_the_leg_dp_profile(data):
    ours, reference = _built_both_ways(*data)
    assert ours == reference


@pytest.mark.parametrize(
    "text", ["torus(3,7)", "pretzel(7,-3,5)", "pretzel(11,-5,9)", "pretzel(3,-5,-7,9,-11)"]
)
@pytest.mark.parametrize("n_max", [None, 3])
def test_branched_star_roots_match_the_leg_dp_profile(text, n_max):
    # random small stars rarely branch; these roots have up to 16 leaves
    pres = kn.presentation(kn.parse_spec(text))
    ours, reference = _built_both_ways(pres.tree, pres.char, n_max, pres.involution)
    assert ours == reference


@st.composite
def stars_with_symmetries(draw):
    """`twisted_stars` that may repeat their first leg as their second (a
    star of `BRANCHING_STARS` only when those legs are already equal), k
    drawn twisted, spun or symmetric under the swap of those two legs, an
    adaptive or explicit stop level and one involution drawn by name."""
    centre, legs = draw(star_legs())
    kept = (centre, legs) in BRANCHING_STARS and legs[0] != legs[1]
    swap = None
    if len(legs) >= 2 and draw(st.booleans()) and not kept:
        legs[1] = list(legs[0])
        n0 = len(legs[0])
        swap = list(range(1 + sum(map(len, legs))))
        swap[1 : 1 + 2 * n0] = list(range(1 + n0, 1 + 2 * n0)) + list(range(1, 1 + n0))
    tree = pl.star(centre, legs)
    assume(is_negative_definite(intersection_form(tree)))
    n = len(tree)
    twist = [draw(st.integers(-3, 3)) for _ in range(n)]
    if swap is not None and draw(st.booleans()):
        twist = [twist[min(v, swap[v])] for v in range(n)]
    k = None if draw(st.booleans()) else tuple(w + 2 * t for w, t in zip(tree.weights, twist))
    label = draw(st.permutations(range(n)))
    tree = _relabelled_tree(tree, label)
    k = None if k is None else tuple(k[label.index(v)] for v in range(n))
    # an explicit stop from just below the minimum of chi to 12 levels above it
    low = math.ceil(pl.k_square(tree, k or pl.spin_char(tree)) / 8)
    n_max = draw(st.none() | st.integers(low - 1, low + 12))
    return tree, k, n_max, draw(st.sampled_from(INVOLUTIONS))


def _star_fields(build, tree, k, n_max, involution):
    """A star root's fields, or the type and text of the error it raised."""
    try:
        r = build(tree, k, n_max=n_max, involution=involution)
    except (rt.InstabilityError, ConsistencyError, ValueError) as err:
        return type(err), str(err)
    return r.levels, r.offset, r.succ, r.involution, r.stable, r.engine


@settings(max_examples=200, deadline=None)
@given(stars_with_symmetries())
def test_merge_tree_matches_the_union_find_star_root(data):
    assert _star_fields(rt.build_root_star, *data) == _star_fields(ref_star_root, *data)


@pytest.mark.parametrize("n_max", [None, 1, 3])
def test_star_roots_build_without_the_box_sweep(monkeypatch, n_max):
    # the merge tree of the central profile needs no union-find and no
    # lattice map per component; the roots agree with the sweep's
    def refused(*args):
        raise AssertionError("the star engine called into the box engine's sweep")

    inputs = []
    for text in CORPUS + ["pretzel(3,-5,-7,9,11)", "pretzel(3,-5,-7,9,-11)", "torus(7,13)"]:
        pres = kn.presentation(kn.parse_spec(text))
        args = (pres.tree, pres.char, n_max, pres.involution)
        inputs.append((args, _star_fields(ref_star_root, *args)))
    monkeypatch.setattr(rt, "_Sweep", refused)
    for args, expected in inputs:
        assert _star_fields(rt.build_root, *args) == expected


SEIFERT_CORPUS = [
    "torus(2,3)",
    "torus(2,5)",
    "torus(2,7)",
    "torus(3,4)",
    "torus(3,5)",
    "torus(3,7)",
    "torus(4,5)",
    "torus(7,13)",
    "pretzel(2,-3,-7)",
    "pretzel(2,-3,-11)",
    "pretzel(-2,3,7)",
    "pretzel(7,-3,5)",
    "pretzel(11,-5,9)",
    "pretzel(15,-7,13)",
    "pretzel(3,-5,-7,9,11)",
    "pretzel(3,-5,-7,9,-11)",
    "montesinos(0;7/3)",
    "montesinos(-2;2/1,3/2,7/6)",
]
# the presentations whose spin vector is not the canonical one
TWISTED_CHARS = ("pretzel(3,-5,-7,9,11)", "pretzel(3,-5,-7,9,-11)", "montesinos(0;7/3)")


@pytest.mark.parametrize("text", SEIFERT_CORPUS)
def test_leg_data_are_the_seifert_invariants(text):
    # alpha_1/omega_1 expands back to the leg's weights, and the twists b_t
    # vanish for the canonical k.  montesinos(0;7/3) is a chain (-1, -2, -4)
    # centred on its middle vertex, so its -1 end is not a Seifert leg.
    pres = kn.presentation(kn.parse_spec(text))
    tree, k = pres.tree, pres.char
    center, legs = rt._star_decompose(tree)
    canonical = k == pl.canonical_char(tree)
    seifert_legs = 0
    for leg in legs:
        weights = [tree.weights[v] for v in leg]
        data = rt._leg_seifert(weights, [k[v] for v in leg])
        assert all(isinstance(b, int) for _, _, b in data)
        if canonical:
            assert all(b == 0 for _, _, b in data)
        if max(weights) <= -2:
            alpha, omega, _ = data[0]
            assert kn.negative_continued_fraction(alpha, omega) == weights
            seifert_legs += 1
    assert seifert_legs == len(legs) - (text == "montesinos(0;7/3)")
    assert canonical == (text not in TWISTED_CHARS)


def test_representative_independence():
    """Changing k inside its spinc class shifts levels but not the root."""
    k1 = pl.spin_char(GAMMA7)
    q = np.array(intersection_form(GAMMA7))
    k2 = tuple(int(x) for x in np.array(k1) + 2 * q @ np.array([1, 0, 0, 0]))
    r1 = rt.build_root_star(GAMMA7, k1)
    r2 = rt.build_root_star(GAMMA7, k2)
    assert r1.levels != r2.levels
    assert (r1.weights, r1.succ, r1.involution) == (r2.weights, r2.succ, r2.involution)
    assert r1.d_invariant() == r2.d_invariant()


# the H-shaped tree, the smallest kind that is not a star
H_EDGES = ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5))
INVOLUTIONS = ("auto", "reflection", "trivial")


def _relabelled(root, label):
    """The root with vertex v renamed label[v]."""
    n = len(root)
    levels, succ, inv = [0] * n, [None] * n, [0] * n
    for v in range(n):
        levels[label[v]] = root.levels[v]
        succ[label[v]] = None if root.succ[v] is None else label[root.succ[v]]
        inv[label[v]] = label[root.involution[v]]
    return rt.GradedRoot(tuple(levels), root.offset, tuple(succ), tuple(inv), root.stable)


@st.composite
def symmetric_roots(draw):
    """Hand-built roots under an involution drawn at random.  Each invariant
    vertex, from the bottom one up to depth 3, gets up to three children:
    invariant ones, grown the same way, and swapped pairs of equal random
    subtrees; vertex ids are shuffled.  Every level-preserving involution
    commuting with the successor map has this form, and most of these are
    neither a lattice reflection nor the identity."""
    levels, succ, inv = [], [], []

    def add(level, below):
        levels.append(level)
        succ.append(below)
        inv.append(len(inv))
        return len(levels) - 1

    def shape(depth):
        return [shape(depth - 1) for _ in range(draw(st.integers(0, 2)) if depth else 0)]

    def place(subtree, level, below):
        v = add(level, below)
        return [v] + [u for kid in subtree for u in place(kid, level - 1, v)]

    def grow(level, below, depth):
        v = add(level, below)
        for _ in range(draw(st.integers(0, 3)) if depth else 0):
            if draw(st.booleans()):
                grow(level - 1, v, depth - 1)
            else:
                subtree = shape(depth - 1)
                for a, b in zip(place(subtree, level - 1, v), place(subtree, level - 1, v)):
                    inv[a], inv[b] = b, a

    grow(0, None, 3)
    root = rt.GradedRoot(tuple(levels), Fraction(1, 4), tuple(succ), tuple(inv), True)
    return _relabelled(root, draw(st.permutations(range(len(root)))))


def test_involution_selection():
    # in both engines "auto" is the lattice reflection where it is defined,
    # else the identity; Q^{-1}k = -1/3 is not integral for (-3) and k = (1)
    minus3, k = pl.PlumbingTree((-3,), ()), (1,)
    for build in (rt.build_root_star, rt.build_root_box):
        swapped = build(GAMMA7, involution="reflection")
        identity = tuple(range(len(swapped)))
        assert build(GAMMA7).involution == swapped.involution != identity
        assert build(GAMMA7, involution="trivial").involution == identity
        for name in ("nonsense", "automorphism"):
            with pytest.raises(ValueError, match=f"unknown involution '{name}'"):
                build(GAMMA7, involution=name)
        r = build(minus3, k)
        assert r.involution == build(minus3, k, involution="trivial").involution
        assert r.involution == tuple(range(len(r)))
        with pytest.raises(ValueError, match="no lattice reflection"):
            build(minus3, k, involution="reflection")


def test_json_round_trip():
    # every field of the root, read back from its JSON
    r = rt.build_root_star(GAMMA7)
    doc = json.loads(r.to_json())
    assert [v["id"] for v in doc["vertices"]] == list(range(len(r)))
    assert tuple(v["level"] for v in doc["vertices"]) == r.levels
    assert tuple(Fraction(*v["weight"]) for v in doc["vertices"]) == r.weights
    assert doc["successor"] == {str(v): s for v, s in enumerate(r.succ) if s is not None}
    assert doc["leaves"] == list(r.leaves)
    assert doc["involution"] == {str(v): j for v, j in enumerate(r.involution)}
    assert (doc["engine"], doc["stable"]) == ("star", True)


def test_sweep_keeps_apart_points_whose_unpadded_codes_are_adjacent():
    # unpadded, (0, 2) and (1, 0) would be coded 2 and 3, one apart
    points = {(0, 2): 0, (1, 0): 0}
    swap = {(0, 2): (1, 0), (1, 0): (0, 2)}

    def images(point_map):
        (n, comps), = rt._Sweep(points, 0, point_map).levels
        return [image for _, image, _ in comps]

    (n, comps), = rt._Sweep(points, 0, swap.get).levels
    assert n == 0 and len(comps) == 2  # two components, left to right
    assert [least for least, _, _ in comps] == [(0, 2), (1, 0)]
    assert images(swap.get) == [1, 0]  # each point's image is the other component
    assert images(lambda p: p) == [0, 1]
    # outside the padded box, then in the box but not in the set
    for outside in [(2, 0), (-1, 2), (0, 3), (0, -1), (5, 5), (0, 1)]:
        assert images(lambda p: outside) == [None, None]


def test_box_root_orders_each_level_by_least_lattice_point():
    # three leaves whose least points, in tuple order, put the one the
    # reflection fixes in the middle; ordered by union-find root instead,
    # the fixed leaf comes first
    tree = pl.PlumbingTree((-5, -1, -3, -2, -3, -1), ((0, 1), (1, 2), (0, 3), (1, 4), (0, 5)))
    r = rt.build_root_box(tree)
    assert r.levels == (0, 0, 0, 1, 2, 3)
    assert r.involution == (2, 1, 0, 3, 4, 5)


@pytest.mark.parametrize("involution", ["auto", "reflection"])
@pytest.mark.parametrize("source", ["bush", "pretzel(2,-3,-7)"], ids=["box", "star"])
def test_roots_refuse_a_reflection_that_leaves_the_root(monkeypatch, capsys, source, involution):
    # Q^{-1}k is integral on both, so the reflection must map each component
    # onto one at its level, and a reflection that does not is an internal
    # fault (exit 1), not a missing reflection.  The box engine's (the bush)
    # sends every point out of the sublevel set; the star engine's moves
    # rho by 1, so no interval's mirror image is an interval
    message = "lattice reflection does not map the root onto itself"
    if source == "bush":
        tree, k, build = BUSH, None, rt.build_root_box
        monkeypatch.setattr(rt, "reflect", lambda tree, k, p: tuple(x + 1000 for x in p))
    else:
        pres = kn.presentation(kn.parse_spec(source))
        tree, k, build = pres.tree, pres.char, rt.build_root_star
        center, _ = rt._star_decompose(tree)
        pd_vector = rt.pd_vector
        moved = lambda tree, k: [x - (v == center) for v, x in enumerate(pd_vector(tree, k))]
        monkeypatch.setattr(rt, "pd_vector", moved)
        assert cli.main(["root", source]) == 1  # the spec's own selection, "auto"
        assert message in capsys.readouterr().err
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        build(tree, k, involution=involution)
    # the same tree as plumbing JSON, which selects the involution
    doc = {"weights": list(tree.weights), "edges": [list(e) for e in tree.edges]}
    doc["involution"] = involution
    if k is not None:
        doc["char"] = list(k)
    assert cli.main(["root", json.dumps(doc)]) == 1
    assert message in capsys.readouterr().err


def test_dot_output_is_deterministic():
    r = rt.build_root_star(GAMMA7)
    dot = r.render_dot()
    assert dot == r.render_dot()
    assert dot.startswith("digraph graded_root {")
    assert "style=dashed" in dot  # the leaf swap is drawn
    assert dot.count("->") >= len(r) - 1


def test_memory_guard(monkeypatch):
    monkeypatch.setattr(rt, "_POINT_BUDGET", 10_000)
    with pytest.raises(rt.MemoryGuardError):
        rt.build_root_box(E8)


def test_star_engine_refuses_a_cap_beyond_its_budget(monkeypatch, capsys):
    # a cap more than _POINT_BUDGET levels above ceil(k^2 / 8), the bound on
    # min chi, is refused before any profile is built, whether it is given
    # (--n-max) or reached by the adaptive doubling, whose first cap is 8
    # levels up
    pres = kn.presentation(kn.parse_spec("torus(2,3)"))
    low = math.ceil(pl.k_square(pres.tree, pres.char) / 8)
    assert rt.build_root_star(pres.tree, pres.char, n_max=low + 4).stable

    def refused(*args):
        raise AssertionError("a profile was built past the budget")

    monkeypatch.setattr(rt, "_POINT_BUDGET", 4)
    monkeypatch.setattr(rt, "_central_profile", refused)
    message = f"level cap {low + 5} lies more than 4 levels above {low}"
    with pytest.raises(rt.MemoryGuardError, match=f"^{message}"):
        rt.build_root_star(pres.tree, pres.char, n_max=low + 5)
    with pytest.raises(rt.MemoryGuardError, match=f"level cap {low + 8} "):
        rt.build_root_star(pres.tree, pres.char)
    assert cli.main(["invariants", "torus(2,3)", "--n-max", str(low + 5)]) == 1
    assert capsys.readouterr().err == f"error: {message}, the bound on min chi\n"


def test_dispatch_prefers_star():
    assert rt.build_root(GAMMA7).engine == "star"
    # a tree that branches twice cannot use the star engine
    bush = pl.PlumbingTree(
        (-3, -2, -2, -3, -2, -2),
        ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5)),
    )
    assert rt.build_root(bush).engine == "box"


@st.composite
def small_star_trees(draw):
    """Negative-definite stars with up to three legs of up to two vertices,
    relabelled, so that the centre is not always vertex 0."""
    center = draw(st.integers(min_value=-4, max_value=-1))
    legs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        length = draw(st.integers(min_value=1, max_value=2))
        legs.append(
            [draw(st.integers(min_value=-5, max_value=-2)) for _ in range(length)]
        )
    tree = pl.star(center, legs)
    assume(is_negative_definite(intersection_form(tree)))
    return _relabelled_tree(tree, draw(st.permutations(range(len(tree)))))


@settings(max_examples=40, deadline=None)
@given(small_star_trees())
def test_engines_agree_on_random_stars(tree):
    if len(tree) <= 5:
        # Each engine truncates on its own here.
        a = rt.build_root_star(tree)
        b = rt.build_root_box(tree)
    else:
        # Past five vertices both known defects can show (the xfail tests
        # below): the box engine may exceed its point budget, and the star
        # engine may stop before a late split, so compare at the box's stop.
        try:
            b = rt.build_root_box(tree)
        except rt.MemoryGuardError:
            reject()
        a = rt.build_root_star(tree, n_max=b.n_max)
    assert rt._trimmed(a) == rt._trimmed(b)
    assert a.d_invariant() == b.d_invariant()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="star engine's adaptive stop comes before a later split (ROADMAP item 1)",
)
def test_star_engine_stop_level_reaches_a_late_split():
    # The star engine stops at level -3 with 5 leaves; S_0 has 3 components
    # and the box root, which agrees with build_root_star(tree, n_max=3),
    # has 7 leaves.
    tree = pl.star(-1, [[-5], [-5, -2], [-2, -4]])
    b = rt.build_root_box(tree)
    assert rt._trimmed(rt.build_root_star(tree)) == rt._trimmed(b)
    doc = {"weights": list(tree.weights), "edges": [list(e) for e in tree.edges]}
    assert cli.main(["root", json.dumps(doc), "--verify"]) == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="star engine's adaptive stop truncates two generator roots (ROADMAP item 1)",
)
def test_generator_roots_reach_their_last_split():
    # pretzel(11,-5,9) stops at level -15 with 10 leaves, but S_n still splits
    # at -13, -11 and 0, and its root at n_max=3 (or 6) has 16 leaves;
    # pretzel(15,-7,13) stops at -77 with 16 leaves against 36.  `invariants`
    # then prints a branched module short of 6 and 20 torsion summands.
    for text in ("pretzel(11,-5,9)", "pretzel(15,-7,13)"):
        pres = kn.presentation(kn.parse_spec(text))
        adaptive = rt.build_root_star(pres.tree, pres.char, involution=pres.involution)
        full = rt.build_root_star(pres.tree, pres.char, involution=pres.involution, n_max=3)
        assert rt._trimmed(adaptive) == rt._trimmed(full), text


@pytest.mark.xfail(
    strict=True,
    raises=rt.MemoryGuardError,
    reason="box engine's probe step of 20 levels overshoots its point budget",
)
def test_box_engine_probe_stays_within_budget():
    # The first probe, at n_min+8 = 2, holds 33k points but its top levels
    # are not yet connected; the second, at n_min+28, exceeds the budget.
    tree = pl.star(-1, [[-3], [-4, -5], [-3, -2]])
    b = rt.build_root_box(tree)
    assert rt._trimmed(rt.build_root_star(tree)) == rt._trimmed(b)


FROZEN_ROOTS = json.loads((Path(__file__).parent / "roots_frozen.json").read_text())


def frozen_root_json(label):
    """`to_json()` of the root a `roots_frozen.json` label names: "root S"
    the adaptive root of spec S's presentation (`build_root`), "root S
    n_max=N" the root at that cap, and "box S" `build_root_box` on S's
    presentation, or on the bush or Gamma_7 for "box bush" and "box gamma7"."""
    kind, text = label.split(" ", 1)
    text, _, n_max = text.partition(" n_max=")
    if text in ("bush", "gamma7"):
        tree, k, involution = (BUSH if text == "bush" else GAMMA7), None, "auto"
    else:
        pres = kn.presentation(kn.parse_spec(text))
        tree, k, involution = pres.tree, pres.char, pres.involution
    build = rt.build_root if kind == "root" else rt.build_root_box
    return build(tree, k, n_max=int(n_max) if n_max else None, involution=involution).to_json()


@pytest.mark.parametrize("label", list(FROZEN_ROOTS))
def test_roots_are_byte_identical_to_the_frozen_ones(label):
    # vertex order, successors and involution of both engines' roots: the
    # 17 `knots` benchmark inputs, a generator past its adaptive stop (44
    # vertices, 16 leaves), and box roots of two non-star trees and of four
    # presentations, three of them with a swap
    assert frozen_root_json(label) == FROZEN_ROOTS[label]
