import inspect
import io
import json
import math
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchfloer import cli
from branchfloer import knots as kn
from branchfloer import plumbing as pl
from branchfloer import roots as rt
from branchfloer.connected import GradedUModule
from oracles import (
    coordinate_ranges,
    determinant,
    eliminate,
    ellipsoid,
    intersection_form,
    is_negative_definite,
    linear_chain,
    solve_exact,
    solve_mod2,
)
from test_acceptance import CORPUS

# Gamma_7: the central -1 star with legs -2, -3, -7, double cover data for
# both torus(3,7) and pretzel(2,-3,-7).
GAMMA7 = pl.star(-1, [[-2], [-3], [-7]])
E8 = pl.star(-2, [[-2, -2, -2, -2], [-2, -2], [-2]])


def test_star_builder_shapes():
    assert GAMMA7.weights == (-1, -2, -3, -7)
    assert GAMMA7.edges == ((0, 1), (0, 2), (0, 3))
    assert len(E8) == 8
    assert E8.degree(0) == 3


def test_tree_validation():
    with pytest.raises(ValueError):
        pl.PlumbingTree((-2, -2), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        pl.PlumbingTree((-2, -2, -2), ((0, 1), (1, 2), (0, 2)))
    # a tree is its weights and edges: no symmetry can be declared on it
    assert list(inspect.signature(pl.PlumbingTree).parameters) == ["weights", "edges"]
    assert pl.PlumbingTree._fields == ("weights", "edges")
    with pytest.raises(TypeError):
        pl.PlumbingTree((-2, -2), ((0, 1),), automorphism=(1, 0))
    with pytest.raises(TypeError):
        pl.star(-1, [[-3], [-3]], automorphism=(0, 2, 1))
    with pytest.raises(ValueError, match="no vertices"):
        pl.PlumbingTree((), ())


def test_intersection_form_and_definiteness():
    q = intersection_form(GAMMA7)
    assert q[0] == [-1, 1, 1, 1]
    assert q[3][3] == -7
    pl.check_negative_definite(GAMMA7)
    pl.check_negative_definite(E8)
    assert pl.determinant_magnitude(GAMMA7) == 1
    assert pl.determinant_magnitude(E8) == 1
    with pytest.raises(pl.DefinitenessError):
        pl.check_negative_definite(linear_chain([-2, 0, -2]))


@pytest.mark.parametrize("weights", [[-1, -1], [-2, 0, -2]])
def test_elimination_raises_at_a_non_positive_pivot(weights):
    # chain(-1,-1) is singular: its last pivot is exactly zero
    tree = linear_chain(weights)
    k = pl.canonical_char(tree)
    for read in (
        lambda: pl.check_negative_definite(tree),
        lambda: eliminate(tree, k),
        lambda: pl.pd_vector(tree, k),
        lambda: pl.k_square(tree, k),
        lambda: pl.coordinate_range(tree, k, 0, len(tree) - 1),
        lambda: pl.determinant_magnitude(tree),
        lambda: pl.spin_char(tree),
        lambda: pl.reflect(tree, k, (0,) * len(tree)),
    ):
        for _ in range(2):  # on the same tree object: a failed pass is never kept
            with pytest.raises(pl.DefinitenessError):
                read()


def _lattice_answers(tree, k):
    return (
        eliminate(tree, k),
        pl.pd_vector(tree, k),
        [pl.coordinate_range(tree, k, 3, v) for v in range(len(tree))],
        pl.k_square(tree, k),
        pl.determinant_magnitude(tree),
        pl.spin_char(tree),
    )


def test_kept_elimination_is_private_to_each_answer():
    # its canonical dual is fractional, so spin_char takes the Wu vector
    def fresh():
        return pl.star(-2, [[-3], [-3, -2]])

    tree = fresh()
    k = pl.canonical_char(tree)
    expected = _lattice_answers(fresh(), k)
    order, parent, pivots, shifts, _ = eliminate(tree, k)
    order.reverse()
    parent.clear()
    pivots[0] = Fraction(0)
    shifts.append(Fraction(1))
    pd = pl.pd_vector(tree, k)
    pd[0] += 1
    ranges = [pl.coordinate_range(tree, k, 3, v) for v in range(len(tree))]
    ranges[0] = range(0)
    assert _lattice_answers(tree, k) == expected
    # the kept passes are not part of the tree's value
    assert tree == fresh() and hash(tree) == hash(fresh())
    assert repr(tree) == repr(fresh())
    assert _lattice_answers(pickle.loads(pickle.dumps(tree)), k) == expected


def test_records_are_values_of_their_fields_and_refuse_assignment():
    # the package's record classes share plumbing._Record: ==, hash and repr
    # over the fields, in order, no assignment, and pickling
    tree = pl.star(-2, [[-3], [-5]])
    assert repr(tree) == "PlumbingTree(weights=(-2, -3, -5), edges=((0, 1), (0, 2)))"
    assert tree == pl.PlumbingTree(weights=(-2, -3, -5), edges=((1, 0), (0, 2)))
    assert hash(tree) == hash(((-2, -3, -5), ((0, 1), (0, 2))))
    assert tree != (tree.weights, tree.edges)
    with pytest.raises(AttributeError, match="cannot assign to field 'weights'"):
        tree.weights = (-1,)
    with pytest.raises(AttributeError, match="cannot delete field 'edges'"):
        del tree.edges
    assert pl.determinant_magnitude(tree) == 22  # a cached_property fills in
    assert pickle.loads(pickle.dumps(tree)) == tree
    # a module's deep part is not part of its value, and each gets its own
    kept, plain = GradedUModule((Fraction(-2),), (), {0: 1}), GradedUModule((Fraction(-2),), ())
    assert kept == plain and hash(kept) == hash(plain)
    assert repr(kept) == "GradedUModule(towers=(Fraction(-2, 1),), torsion=())"
    assert plain.deep == {} and plain.deep is not GradedUModule((), ()).deep
    config = cli.RunConfig(rank_bound=4)
    assert config == cli.RunConfig(None, 4, "json", False) != cli.RunConfig()
    assert pickle.loads(pickle.dumps(config)) == config
    with pytest.raises(AttributeError):
        config.verify = True
    with pytest.raises(ValueError, match="rank bound must be positive"):
        cli.RunConfig(rank_bound=0)


def _elimination_passes(monkeypatch):
    """Count the two passes every lattice reader shares: the trees the
    k-independent pass ran on, and the (tree, k) of each k-dependent pass."""
    whole, per_k = [], []
    kept = pl.PlumbingTree.__dict__["_elimination"]
    first, second = kept.func, pl.PlumbingTree._centres

    def counted_first(tree):
        whole.append(tree)
        return first(tree)

    def counted_second(tree, k):
        per_k.append((tree, k))
        return second(tree, k)

    monkeypatch.setattr(kept, "func", counted_first)
    monkeypatch.setattr(pl.PlumbingTree, "_centres", counted_second)
    return whole, per_k


def _once_each(whole, per_k):
    # the counters hold the trees, so no id is reused while they are read
    trees, pairs = {id(t) for t in whole}, {(id(t), k) for t, k in per_k}
    return len(trees) == len(whole) and len(pairs) == len(per_k)


def test_invariants_eliminate_each_tree_once_per_vector(monkeypatch):
    whole, per_k = _elimination_passes(monkeypatch)
    for text in CORPUS + ["pretzel(3,-5,-7,9,11)"]:
        kn.invariants(kn.parse_spec(text))
    assert len(whole) == 17  # one presentation per knot
    assert _once_each(whole, per_k)
    # the canonical vector, and the Wu vector where its dual is fractional
    assert len(whole) <= len(per_k) <= 2 * len(whole)


def test_box_root_eliminates_once_for_every_reflection(monkeypatch):
    whole, per_k = _elimination_passes(monkeypatch)
    reflections, sweeps = [], []
    reflect, sweep = rt.reflect, rt._Sweep
    monkeypatch.setattr(rt, "reflect", lambda *a: reflections.append(a) or reflect(*a))
    monkeypatch.setattr(rt, "_Sweep", lambda *a: sweeps.append(sweep(*a)) or sweeps[-1])
    bush = '{"weights":[-3,-2,-2,-3,-2,-2],"edges":[[0,1],[1,2],[1,3],[3,4],[3,5]]}'
    out = io.StringIO()
    cli.cmd_root(bush, cli.RunConfig(), out)
    root = json.loads(out.getvalue())
    assert root["engine"] == "box"
    # one reflection per component of each swept level: the probe sweeps
    # the bush's levels 0..8, one component each, and the root keeps 0..2
    swept = sum(len(comps) for s in sweeps for _, comps in s.levels)
    assert len(reflections) == swept == 9
    assert len(root["vertices"]) == 3
    assert len(whole) == 1
    assert _once_each(whole, per_k) and len(per_k) <= 2


def test_no_elimination_is_reused_across_calls(monkeypatch):
    # each call parses a new tree, so a repeated call makes the same passes
    whole, per_k = _elimination_passes(monkeypatch)
    counts = []
    for _ in range(2):
        kn.invariants(kn.parse_spec("pretzel(15,-7,13)"))
        counts.append((len(whole), len(per_k)))
    assert counts[0][0] > 0 and counts[1] == (2 * counts[0][0], 2 * counts[0][1])


def test_canonical_char_gamma7():
    assert pl.canonical_char(GAMMA7) == (-1, 0, 1, 5)


def test_pd_and_square_gamma7():
    k = pl.canonical_char(GAMMA7)
    assert pl.pd_vector(GAMMA7, k) == [-2, -1, -1, -1]
    assert pl.k_square(GAMMA7, k) == Fraction(-4)


def test_chi_gamma7_oracles():
    k = pl.canonical_char(GAMMA7)
    assert pl.chi(GAMMA7, k, (0, 0, 0, 0)) == 0
    assert pl.chi(GAMMA7, k, (1, 0, 0, 0)) == 1
    assert pl.chi(GAMMA7, k, (1, 1, 1, 1)) == 1
    # the reflection center: chi is symmetric under l -> -l - PD(k)
    assert pl.reflect(GAMMA7, k, (0, 0, 0, 0)) == (2, 1, 1, 1)
    assert pl.chi(GAMMA7, k, (2, 1, 1, 1)) == 0


def test_wu_class_gamma7():
    assert pl.wu_class(GAMMA7) == (0, 1, 1, 1)
    # Wu characteristic vector and its square
    kw = pl.spin_char(pl.PlumbingTree((-3,), ()))
    assert kw == (-3,)
    assert pl.k_square(GAMMA7, (3, -2, -3, -7)) == Fraction(-12)


def test_spin_char_prefers_canonical_when_integral():
    assert pl.spin_char(GAMMA7) == (-1, 0, 1, 5)
    # the -3,-2,-3 path has a non-integral canonical dual, so Wu wins
    path = pl.star(-2, [[-3], [-3]])
    assert pl.spin_char(path) == (-2, 1, 1)
    assert pl.wu_class(path) == (1, 0, 0)


@st.composite
def random_tree_and_vectors(draw):
    n = draw(st.integers(1, 5))
    weights = tuple(draw(st.integers(-5, -1)) for _ in range(n))
    edges = tuple((draw(st.integers(0, i - 1)), i) for i in range(1, n))
    tree = pl.PlumbingTree(weights, edges)
    assume(is_negative_definite(intersection_form(tree)))
    ell = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    m = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    return tree, ell, m


@settings(max_examples=120, deadline=None)
@given(random_tree_and_vectors())
def test_chi_change_of_vector_identity(data):
    # chi_{k+2Qm}(l) = chi_k(l+m) - chi_k(m), and the induced square change
    tree, ell, m = data
    k = pl.canonical_char(tree)
    q = intersection_form(tree)
    n = len(tree)
    k2 = tuple(k[i] + 2 * sum(q[i][j] * m[j] for j in range(n)) for i in range(n))
    # chi reads Q off the weights and edges: the dense form agrees
    q_ell = [sum(q[i][j] * ell[j] for j in range(n)) for i in range(n)]
    assert -2 * pl.chi(tree, k, ell) == sum(x * (kx + y) for x, kx, y in zip(ell, k, q_ell))
    lhs = pl.chi(tree, k2, ell)
    rhs = pl.chi(tree, k, tuple(x + y for x, y in zip(ell, m))) - pl.chi(tree, k, m)
    assert lhs == rhs
    assert pl.k_square(tree, k2) == pl.k_square(tree, k) - 8 * pl.chi(tree, k, m)


@settings(max_examples=120, deadline=None)
@given(random_tree_and_vectors())
def test_wu_property(data):
    # (Qw)_v == Q_vv mod 2 makes Qw characteristic
    tree, _, _ = data
    w = pl.wu_class(tree)
    q = intersection_form(tree)
    n = len(tree)
    for v in range(n):
        assert (sum(q[v][j] * w[j] for j in range(n)) - q[v][v]) % 2 == 0
    # the spin vector is the canonical one or Q w, by the dense form
    q_w = tuple(sum(q[v][j] * w[j] for j in range(n)) for v in range(n))
    assert pl.spin_char(tree) in (pl.canonical_char(tree), q_w)


@settings(max_examples=80, deadline=None)
@given(random_tree_and_vectors())
def test_reflection_preserves_chi(data):
    tree, ell, _ = data
    k = pl.spin_char(tree)
    try:
        out = pl.reflect(tree, k, ell)
    except ValueError:
        pytest.skip("dual not integral for this k")
    # reflect() asserts chi-invariance internally; check it is an involution
    assert pl.reflect(tree, k, out) == ell


@st.composite
def random_forms(draw):
    """Trees of up to 9 vertices, labelled at random, with weights in
    [-6, 1]: definite, indefinite and singular forms all occur."""
    n = draw(st.integers(1, 9))
    weights = tuple(draw(st.integers(-6, 1)) for _ in range(n))
    label = draw(st.permutations(range(n)))
    edges = tuple((label[draw(st.integers(0, i - 1))], label[i]) for i in range(1, n))
    tree = pl.PlumbingTree(weights, edges)
    k = tuple(w + 2 * draw(st.integers(-3, 3)) for w in weights)
    return tree, k


@settings(max_examples=300, deadline=None)
@given(random_forms())
def test_elimination_matches_the_matrix_oracles(data):
    tree, k = data
    q = intersection_form(tree)
    assert pl.wu_class(tree) == tuple(solve_mod2(q, list(tree.weights)))
    try:
        pl.check_negative_definite(tree)
    except pl.DefinitenessError:
        assert not is_negative_definite(q)
        return
    assert is_negative_definite(q)
    pd = solve_exact(q, list(k))
    assert pl.pd_vector(tree, k) == pd
    assert pl.k_square(tree, k) == sum(x * y for x, y in zip(k, pd))
    assert pl.determinant_magnitude(tree) == abs(determinant(q))


@st.composite
def definite_trees_and_caps(draw):
    """Definite trees of any shape with up to 7 vertices, labelled at random,
    a random characteristic vector and a cap from just below the minimum of
    chi to 6 above it."""
    n = draw(st.integers(1, 7))
    weights = tuple(draw(st.integers(-6, -1)) for _ in range(n))
    label = draw(st.permutations(range(n)))
    edges = tuple((label[draw(st.integers(0, i - 1))], label[i]) for i in range(1, n))
    tree = pl.PlumbingTree(weights, edges)
    assume(is_negative_definite(intersection_form(tree)))
    k = tuple(w + 2 * draw(st.integers(-3, 3)) for w in weights)
    *_, const = eliminate(tree, k)
    cap = math.ceil(const / 2) + draw(st.integers(-1, 6))
    return tree, k, cap


@settings(max_examples=150, deadline=None)
@given(definite_trees_and_caps())
def test_coordinate_ranges_hold_the_sublevel_set(data):
    # each vertex's range, read along its path from the elimination's first
    # vertex, is the dense inverse's and holds every point of S_cap
    tree, k, cap = data
    ranges = [pl.coordinate_range(tree, k, cap, v) for v in range(len(tree))]
    assert ranges == coordinate_ranges(tree, k, cap)
    points = rt._sublevel_set(rt._eliminate(tree, k), cap)
    for point in points:
        assert all(x in r for x, r in zip(point, ranges))


# every presentation the package reaches: the corpus, the benchmark's
# 5-strand pretzel, both known-defect probes and the generator family
# pretzel(4n+3,-(2n+1),4n+1) for n = 4..8 (pretzel(19,-9,17) first), on up to
# 68 vertices
PRESENTATIONS = (
    CORPUS
    + ["pretzel(3,-5,-7,9,11)", "pretzel(3,-5,-7,9,-11)", "torus(7,13)"]
    + [f"pretzel({4 * n + 3},{-(2 * n + 1)},{4 * n + 1})" for n in range(4, 9)]
)


@pytest.mark.parametrize("text", PRESENTATIONS)
def test_integer_elimination_matches_the_matrix_oracles_on_presentations(text):
    # the exact divisions of both integer sweeps, on trees far past the
    # 9 vertices of `random_forms`
    tree = kn.presentation(kn.parse_spec(text)).tree
    q = intersection_form(tree)
    assert pl.determinant_magnitude(tree) == abs(determinant(q))
    for k in {pl.spin_char(tree), pl.canonical_char(tree)}:
        pd, _ = ellipsoid(tree, k)  # solve_exact(q, k), kept for coordinate_ranges
        assert pl.pd_vector(tree, k) == pd
        ksq = pl.k_square(tree, k)
        assert ksq == sum(x * y for x, y in zip(k, pd))
        for cap in (math.ceil(ksq / 8) + d for d in (-1, 0, 3, 12)):
            ranges = [pl.coordinate_range(tree, k, cap, v) for v in range(len(tree))]
            assert ranges == coordinate_ranges(tree, k, cap)


def test_coordinate_ranges_are_empty_where_no_integer_fits():
    # 2 chi = 8 l^2 - 8 l: at cap -1 the real interval is the single point 1/2
    tree = linear_chain([-8])
    assert pl.coordinate_range(tree, (8,), -1, 0) == range(0)
    assert pl.coordinate_range(tree, (8,), 0, 0) == range(0, 2)
    assert pl.coordinate_range(tree, (8,), -2, 0) == range(0)


_UNDER_O = """
from branchfloer import ConsistencyError
from branchfloer import plumbing as pl
from branchfloer import roots as rt
from branchfloer.connected import GradedUModule

tree = pl.star(-1, [[-2], [-3], [-7]])
try:
    pl.chi(tree, (0, 0, 0, 0), (1, 0, 0, 0))
except ValueError as err:
    print("chi:", err)
center, legs = rt._star_decompose(tree)
try:
    rt._central_profile(tree, (0, 0, 0, 0), center, legs, range(-3, 4))
except ConsistencyError as err:
    print("profile:", err)
pl.chi = lambda tree, k, ell: sum(ell)  # a chi the reflection cannot preserve
try:
    pl.reflect(tree, pl.canonical_char(tree), (1, 0, 0, 0))
except ConsistencyError as err:
    print("reflect:", err)
"""


def test_lattice_checks_survive_python_O():
    # typed errors, not asserts: `python -O` keeps every one of them
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "chi: (0, 0, 0, 0) is not a characteristic vector of the tree",
        "profile: odd central profile: k is not characteristic",
        "reflect: lattice reflection does not preserve chi",
    ]
