import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from branchfloer import cli
from branchfloer import knots as kn
from branchfloer import plumbing as pl
from branchfloer.complexes import (
    ConsistencyError,
    GradedUModule,
    RankBoundExceeded,
    connected_homology_brute,
    delta_invariant,
    homology,
)
from branchfloer.roots import InstabilityError
from oracles import determinant
from test_acceptance import CORPUS

GAMMA7 = pl.star(-1, [[-2], [-3], [-7]])


def expand_continued_fraction(terms):
    x = None
    for t in reversed(terms):
        x = -t - (Fraction(1) / x if x is not None else 0)
    return x


def test_negative_continued_fraction_values():
    assert kn.negative_continued_fraction(7, 3) == [-3, -2, -2]
    assert kn.negative_continued_fraction(5, 4) == [-2, -2, -2, -2]
    assert kn.negative_continued_fraction(7, 4) == [-2, -4]
    assert kn.negative_continued_fraction(2, 1) == [-2]
    for p, q in ((3, 3), (3, 0), (3, 5)):
        with pytest.raises(ValueError, match="needs 0 < q < p"):
            kn.negative_continued_fraction(p, q)


@given(st.integers(2, 400), st.integers(1, 399))
def test_negative_continued_fraction_expands_back(p, q):
    q = q % p
    if q == 0 or sympy.gcd(p, q) != 1:
        q = 1
    terms = kn.negative_continued_fraction(p, q)
    assert all(t <= -2 for t in terms)
    assert expand_continued_fraction(terms) == Fraction(p, q)


# ---------------------------------------------------------------------------
# presentations of the branched double covers


def test_torus_37_presents_gamma7():
    pres = kn.presentation(kn.KnotSpec.torus(3, 7))
    assert pres.tree == GAMMA7
    assert pres.involution == "trivial"
    assert not pres.mirrored
    assert pl.determinant_magnitude(pres.tree) == 1


def test_torus_35_presents_the_even_unimodular_tree():
    pres = kn.presentation(kn.KnotSpec.torus(3, 5))
    assert len(pres.tree) == 8
    assert set(pres.tree.weights) == {-2}
    assert pl.determinant_magnitude(pres.tree) == 1


# an even torus knot's cover has two equal legs; the star engine maps any
# centre- and k-fixing leg swap to the identity, so none is declared and the
# presentation carries the trivial involution


def test_torus_34_declares_no_leg_swap():
    pres = kn.presentation(kn.KnotSpec.torus(3, 4))
    assert pres.tree == pl.star(-2, [[-2, -2], [-2, -2], [-2]])
    assert pres.tree.automorphism is None
    assert pres.involution == "trivial"


def test_torus_27_declares_no_leg_swap():
    pres = kn.presentation(kn.KnotSpec.torus(2, 7))
    assert pres.tree == pl.star(-1, [[-3, -2, -2], [-3, -2, -2]])
    assert pres.tree.automorphism is None
    assert pres.involution == "trivial"
    assert pl.determinant_magnitude(pres.tree) == 7


def test_torus_45_presentation():
    pres = kn.presentation(kn.KnotSpec.torus(4, 5))
    assert pres.tree == pl.star(-1, [[-5], [-5], [-2]])
    assert pres.tree.automorphism is None
    assert pres.involution == "trivial"


def test_torus_with_a_negative_parameter_mirrors():
    pres = kn.presentation(kn.KnotSpec.torus(3, -7))
    assert pres.mirrored
    assert pres.tree == GAMMA7


def test_every_torus_presentation_has_the_torus_determinant():
    # the Seifert invariants of torus(p, q) give a tree of determinant 1 for
    # odd p*q, else the odd parameter, presenting the mirror when p*q < 0
    pairs = [
        (p, q)
        for p, q in itertools.product(range(-30, 31), repeat=2)
        if abs(p) >= 2 and abs(q) >= 2 and math.gcd(p, q) == 1
    ]
    assert len(pairs) == 1984
    for p, q in pairs:
        pres = kn.presentation(kn.KnotSpec.torus(p, q))
        det = 1 if p * q % 2 else abs(p if p % 2 else q)
        assert pl.determinant_magnitude(pres.tree) == det
        assert pres.mirrored == (p * q < 0)


def torus_alexander_determinant(p, q):
    # |Delta(-1)| computed from the rational form of the Alexander polynomial
    t = sympy.symbols("t")
    poly = sympy.cancel((t ** (p * q) - 1) * (t - 1) / ((t**p - 1) * (t**q - 1)))
    return abs(int(poly.subs(t, -1)))


@pytest.mark.parametrize(
    "p,q", [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (5, 6)]
)
def test_torus_cover_determinant_matches_alexander(p, q):
    pres = kn.presentation(kn.KnotSpec.torus(p, q))
    assert pl.determinant_magnitude(pres.tree) == torus_alexander_determinant(p, q)


@pytest.mark.parametrize("q", [7, 9, 11])
def test_pretzel_2_3_q_presents_a_three_leg_star(q):
    pres = kn.presentation(kn.KnotSpec.pretzel(2, -3, -q))
    assert pres.tree == pl.star(-1, [[-2], [-3], [-q]])
    assert not pres.mirrored


def test_pretzel_mirror_orientation_is_detected():
    pres = kn.presentation(kn.KnotSpec.pretzel(-2, 3, 7))
    assert pres.mirrored
    assert pres.tree == GAMMA7


def test_pretzel_7_3_5_presentation():
    pres = kn.presentation(kn.KnotSpec.pretzel(7, -3, 5))
    assert pres.tree == pl.star(-2, [[-2] * 6, [-3], [-2] * 4])
    assert len(pres.tree) == 12
    assert pl.determinant_magnitude(pres.tree) == 1


def test_pretzel_with_zero_cover_euler_number_is_indefinite():
    # euler number zero means determinant zero: the spec itself is refused,
    # before any plumbing is built
    with pytest.raises(kn.KnotSpecError, match="determinant is zero"):
        kn.KnotSpec.pretzel(3, -3)


def test_montesinos_spellings_of_the_same_knot_agree():
    a = kn.presentation(kn.KnotSpec.pretzel(2, -3, -7)).tree
    b = kn.presentation(kn.KnotSpec.montesinos(0, ((2, 1), (-3, 1), (-7, 1)))).tree
    c = kn.presentation(kn.KnotSpec.montesinos(-2, ((2, 1), (3, 2), (7, 6)))).tree
    assert a == b == c == GAMMA7


def test_montesinos_single_fraction_gives_a_chain():
    pres = kn.presentation(kn.KnotSpec.montesinos(0, ((7, 3),)))
    assert pres.tree.weights == (-1, -2, -4)
    assert pl.determinant_magnitude(pres.tree) == 3


def test_montesinos_rejects_degenerate_data():
    with pytest.raises(kn.KnotSpecError):
        kn.KnotSpec.montesinos(0, ())
    with pytest.raises(kn.KnotSpecError):
        kn.KnotSpec.montesinos(0, ((1, 2),))
    with pytest.raises(kn.KnotSpecError):
        kn.KnotSpec.montesinos(0, ((3, 0),))
    with pytest.raises(kn.KnotSpecError, match="determinant is zero"):
        kn.KnotSpec.montesinos(0, ((2, 1), (-2, 1)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: kn.KnotSpec.torus(3.5, 7),
        lambda: kn.KnotSpec.torus(True, 3),
        lambda: kn.KnotSpec.pretzel(2.9, -3, -7),
        lambda: kn.KnotSpec.montesinos(0.5, ((7, 3),)),
        lambda: kn.KnotSpec("pretzel", ("2", -3, -7)),
    ],
)
def test_spec_parameters_must_be_integers(make):
    # a float, a bool or a string is refused, not truncated to an integer
    with pytest.raises(kn.KnotSpecError, match="must be integers"):
        make()


@pytest.mark.parametrize("fractions", [((7, 3.5),), ((7.0, 3),), (("7", 3),), ((2, True),)])
def test_montesinos_fractions_must_be_integer_pairs(fractions):
    # refused by name, not a TypeError from `Fraction` or a bool read as 1
    with pytest.raises(kn.KnotSpecError, match=r"must be integer pairs, got \(\("):
        kn.KnotSpec.montesinos(-1, fractions)


@pytest.mark.parametrize("fractions", [((7,),), ((7, 3, 1),), (7,)])
def test_montesinos_fractions_must_be_pairs(fractions):
    # refused by name, not a ValueError from unpacking or a TypeError from
    # iterating an integer
    with pytest.raises(kn.KnotSpecError, match=r"must be integer pairs, got \("):
        kn.KnotSpec.montesinos(0, fractions)


def test_a_directly_built_spec_is_checked():
    with pytest.raises(kn.KnotSpecError, match="gcd"):
        kn.KnotSpec("torus", (2, 4))
    with pytest.raises(kn.KnotSpecError, match="determinant is zero"):
        kn.KnotSpec("pretzel", (3, -3))
    with pytest.raises(kn.KnotSpecError, match="one child"):
        kn.KnotSpec("mirror")
    with pytest.raises(kn.KnotSpecError, match="unknown knot kind"):
        kn.KnotSpec("figure_eight")


def test_presentation_rejects_derived_specs():
    with pytest.raises(kn.KnotSpecError):
        kn.presentation(kn.KnotSpec.mirror(kn.KnotSpec.torus(3, 7)))
    with pytest.raises(kn.KnotSpecError):
        kn.presentation(
            kn.KnotSpec.connected_sum(kn.KnotSpec.torus(3, 7), kn.KnotSpec.torus(3, 7))
        )


# ---------------------------------------------------------------------------
# Goeritz form oracle


@pytest.mark.parametrize(
    "strands,expected",
    [
        ((1, 1, 1), (3, 2)),
        ((1, 1, 1, 1, 1), (5, 4)),
        ((2, -3, -7), (1, 8)),
        ((-2, 3, 7), (1, -8)),
        ((3, 1, 1), (7, 2)),
        ((1, 1, 2), (5, 0)),
        ((7, -3, 5), (1, 0)),
    ],
)
def test_goeritz_oracle_frozen_values(strands, expected):
    assert kn.goeritz_oracle(kn.KnotSpec.pretzel(*strands)) == expected


@pytest.mark.parametrize(
    "strands",
    [
        (2, -3, -7),
        (2, -3, -9),
        (2, -3, -11),
        (7, -3, 5),
        (11, -5, 9),
        (15, -7, 13),
        (-2, 3, 7),
        (3, 5, 7),
    ],
)
def test_goeritz_determinant_matches_cover_presentation(strands):
    spec = kn.KnotSpec.pretzel(*strands)
    det, _ = kn.goeritz_oracle(spec)
    assert det == pl.determinant_magnitude(kn.presentation(spec).tree)


def _goeritz_by_eigenvalues(strands):
    """Determinant (Bareiss) and signature (floating-point eigenvalues) of
    the tridiagonal Goeritz form: a reference for small entries only."""
    k = len(strands)
    g = [[0] * (k - 1) for _ in range(k - 1)]
    for i in range(k - 1):
        g[i][i] = strands[i] + strands[i + 1]
        if i + 1 < k - 1:
            g[i][i + 1] = g[i + 1][i] = -strands[i + 1]
    eigs = np.linalg.eigvalsh(np.array(g, dtype=float))
    return abs(determinant(g)), int((eigs > 0).sum()) - int((eigs < 0).sum())


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.integers(-25, 25).filter(lambda a: a != 0), min_size=3, max_size=5
    ).filter(lambda s: sum(a % 2 == 0 for a in s) <= 1)
)
def test_goeritz_signature_matches_eigenvalues(strands):
    det, sig = _goeritz_by_eigenvalues(strands)
    if det % 2 == 0:
        with pytest.raises(kn.KnotSpecError):
            kn.KnotSpec.pretzel(*strands)
        return
    mu = sum(a for a in strands if a % 2) if any(a % 2 == 0 for a in strands) else 0
    assert kn.goeritz_oracle(kn.KnotSpec.pretzel(*strands)) == (det, sig - mu)


def _congruence_breaks(even_residue):
    """4-strand pretzels with strands in +-2..+-9 and one even strand, that
    strand = `even_residue` (mod 4), whose Goeritz det and sigma break the
    classical congruence sigma = 0 (mod 4) exactly when det = 1 (mod 4); and
    how many were checked."""
    values = [a for a in range(-9, 10) if abs(a) >= 2]
    checked, broken = 0, []
    for strands in itertools.product(values, repeat=4):
        evens = [a for a in strands if a % 2 == 0]
        if len(evens) != 1 or evens[0] % 4 != even_residue:
            continue
        det, sigma = kn.goeritz_oracle(kn.KnotSpec.pretzel(*strands))
        checked += 1
        if (sigma % 4 == 0) != (det % 4 == 1):
            broken.append(strands)
    return checked, broken


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 11: goeritz_oracle's correction term is wrong on "
    "4-strand pretzels whose even strand is 2 (mod 4); "
    "pretzel(2,3,5,7) prints det 247 and sigma -12",
)
def test_four_strand_pretzel_sigma_meets_the_det_congruence():
    checked, broken = _congruence_breaks(2)
    assert checked == 8192
    assert broken == []


def test_four_strand_pretzel_sigma_meets_the_det_congruence_with_even_strand_0_mod_4():
    assert _congruence_breaks(0) == (8192, [])


def test_goeritz_signature_is_exact_on_ill_conditioned_forms():
    # det 1 with entries near 1e16: one eigenvalue is about 1e-16 of the
    # other, below floating-point resolution; both are negative
    n = 10**8
    strands = (n, -(n + 1), -n * (n + 1) - 1)
    mu = strands[1] + strands[2]
    assert kn.goeritz_oracle(kn.KnotSpec.pretzel(*strands)) == (1, -2 - mu)


def test_goeritz_oracle_rejects_links_and_odd_sizes():
    # links and split diagrams fail at the spec, which the oracle takes checked
    for strands in ((2, 4, 5), (0, 1, 1), (3, 5), (1, 1, 1, 1, 1, 3)):
        with pytest.raises(kn.KnotSpecError):
            kn.goeritz_oracle(kn.KnotSpec.pretzel(*strands))
    # knots outside the oracle: 2 or 6 strands, or not a pretzel
    pretzel, torus = kn.KnotSpec.pretzel, kn.KnotSpec.torus
    for spec in (pretzel(2, 3), pretzel(1, 1, 1, 1, 1, 2), torus(2, 3)):
        with pytest.raises(kn.KnotSpecError, match="3 to 5 strands"):
            kn.goeritz_oracle(spec)


# ---------------------------------------------------------------------------
# grammar


def test_parse_round_trip_exact_text():
    for text in [
        "torus(3,7)",
        "pretzel(2,-3,-7)",
        "montesinos(-2;2/1,3/2,7/6)",
        "mirror(torus(3,7))",
        "sum(pretzel(7,-3,5),pretzel(11,-5,9))",
        "sum(torus(2,7),mirror(torus(3,5)),pretzel(2,-3,-7))",
    ]:
        spec = kn.parse_spec(text)
        assert kn.unparse(spec) == text
        assert kn.parse_spec(kn.unparse(spec)) == spec


def test_parse_ignores_whitespace():
    spec = kn.parse_spec(" sum( torus ( 3 , 7 ) , mirror ( pretzel( 2 , -3 , -7 ) ) ) ")
    assert spec == kn.KnotSpec.connected_sum(
        kn.KnotSpec.torus(3, 7),
        kn.KnotSpec.mirror(kn.KnotSpec.pretzel(2, -3, -7)),
    )


LEAVES = st.sampled_from(
    [
        kn.KnotSpec.torus(3, 7),
        kn.KnotSpec.torus(2, 7),
        kn.KnotSpec.pretzel(2, -3, -7),
        kn.KnotSpec.pretzel(7, -3, 5),
        kn.KnotSpec.montesinos(0, ((7, 3),)),
        kn.KnotSpec.montesinos(-2, ((2, 1), (3, 2), (7, 6))),
    ]
)

spec_trees = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        inner.map(kn.KnotSpec.mirror),
        st.lists(inner, min_size=2, max_size=3).map(
            lambda xs: kn.KnotSpec.connected_sum(*xs)
        ),
    ),
    max_leaves=5,
)


@given(spec_trees)
def test_grammar_round_trip(spec):
    assert kn.parse_spec(kn.unparse(spec)) == spec


@given(spec_trees, st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_grammar_is_whitespace_insensitive(spec, rng):
    tokens = kn._TOKEN.findall(kn.unparse(spec))
    padded = " " * rng.randint(0, 2)
    for tok in tokens:
        padded += tok + " " * rng.randint(0, 2)
    assert kn.parse_spec(padded) == spec


@pytest.mark.parametrize(
    "text",
    [
        "",
        "torus",
        "torus(",
        "torus(3)",
        "torus(3,7) x",
        "torus(3;7)",
        "torus(2,4)",
        "torus(1,5)",
        "knot(3,7)",
        "pretzel()",
        "pretzel(5)",
        "pretzel(2,-4)",
        "pretzel(0,3,5)",
        "pretzel(3,-3)",
        "montesinos(0;1/0)",
        "montesinos(0;1/2)",
        "montesinos(0;2/1,4/1)",
        "sum(torus(3,7))",
        "mirror()",
        "torus(3.5,2)",
    ],
)
def test_parse_rejects_bad_specs(text):
    with pytest.raises(kn.KnotSpecError):
        kn.parse_spec(text)


# ---------------------------------------------------------------------------
# the invariant pipeline
#
# Expected values below are pinned against outside anchors: the involutive
# correction terms (0, -2) of the cover of pretzel(2,-3,-7), the Goeritz
# signatures above, cover determinants, and the structural description of
# the connected group of pretzel(4q+3, -2q-1, 4q+1) as a free tower plus
# one torsion tower of length q.


def rat(x):
    return Fraction(x)


def test_invariants_torus_37():
    p = kn.invariants(kn.parse_spec("torus(3,7)"))
    assert p.delta == p.delta_upper == p.delta_lower == -2
    assert p.branched.towers == (rat(-2), rat(-3))
    assert p.branched.torsion == ((rat(-2), 1), (rat(-3), 1))
    assert p.connected == GradedUModule((rat(-2),), ())
    assert p.reduced_connected.torsion == ()
    assert p.omega == 0
    assert p.det == 1
    assert p.sigma is None


def test_invariants_torus_27():
    p = kn.invariants(kn.parse_spec("torus(2,7)"))
    assert p.delta == p.delta_upper == p.delta_lower == Fraction(-1, 2)
    assert p.branched.towers == (Fraction(-1, 2), Fraction(-3, 2))
    assert p.branched.torsion == ()
    assert p.reduced_connected.torsion == ()
    assert p.det == 7


def test_invariants_torus_35():
    p = kn.invariants(kn.parse_spec("torus(3,5)"))
    assert p.delta == p.delta_upper == p.delta_lower == 0
    assert p.reduced_connected.torsion == ()
    assert p.det == 1


def test_invariants_pretzel_2_3_7():
    p = kn.invariants(kn.parse_spec("pretzel(2,-3,-7)"), verify=True)
    assert p.delta == -2
    assert p.delta_upper == -2
    assert p.delta_lower == -4
    assert p.branched.towers == (rat(-3), rat(-4))
    assert p.branched.torsion == ((rat(-2), 1),)
    assert p.connected == GradedUModule((rat(-2),), ((rat(-2), 1),))
    assert p.reduced_connected.torsion == ((rat(-2), 1),)
    assert p.omega == 1
    assert p.det == 1
    assert p.sigma == 8


def test_invariants_mirror_pretzel_2_3_7():
    p = kn.invariants(kn.parse_spec("mirror(pretzel(2,-3,-7))"))
    assert p.delta == 2
    assert p.delta_upper == 4
    assert p.delta_lower == 2
    assert p.reduced_connected.torsion == ((rat(3), 1),)
    assert p.omega == 1
    assert p.det == 1
    assert p.sigma == -8


@pytest.mark.parametrize(
    "text,q,delta",
    [
        ("pretzel(7,-3,5)", 1, 0),
        ("pretzel(11,-5,9)", 2, 2),
        ("pretzel(15,-7,13)", 3, 4),
    ],
)
def test_invariants_independence_generators(text, q, delta):
    p = kn.invariants(kn.parse_spec(text))
    assert p.delta == p.delta_upper == delta
    assert p.connected.towers == (rat(delta),)
    assert p.connected.torsion == ((rat(delta), q),)
    assert p.omega == q
    assert p.det == 1


@pytest.mark.parametrize(
    "n", [4, 5, 6, pytest.param(7, marks=pytest.mark.slow), pytest.param(8, marks=pytest.mark.slow)]
)
def test_generator_family_past_n_3(n):
    # pretzel(4n+3, -(2n+1), 4n+1) has omega = n; truncated at level 1, the
    # long-legged stars of n = 4..6 take well under a second together, and
    # n = 8 lifts the involution to a model of rank 511
    p = kn.invariants(kn.parse_spec(f"pretzel({4 * n + 3},-{2 * n + 1},{4 * n + 1})"), n_max=1)
    delta = 2 * n - 2
    assert p.delta == p.delta_upper == delta
    assert p.connected.towers == (rat(delta),)
    assert p.connected.torsion == ((rat(delta), n),)
    assert p.omega == n
    assert p.det == 1


def test_invariants_pretzel_7_3_5_signature():
    p = kn.invariants(kn.parse_spec("pretzel(7,-3,5)"))
    assert p.sigma == 0
    # signature relation on the definite side, in this normalization
    assert p.delta_lower == -Fraction(p.sigma, 4) - 2


def test_connected_sum_pipeline():
    k1 = kn.invariants(kn.parse_spec("pretzel(7,-3,5)"))
    k2 = kn.invariants(kn.parse_spec("pretzel(11,-5,9)"))
    s = kn.invariants(kn.parse_spec("sum(pretzel(7,-3,5),pretzel(11,-5,9))"))
    assert s.delta == k1.delta + k2.delta + 2
    assert k1.delta_lower + k2.delta_lower + 2 <= s.delta_lower
    assert s.delta_lower <= s.delta <= s.delta_upper
    assert s.delta_upper <= k1.delta_upper + k2.delta_upper + 2
    assert sorted(length for _, length in s.connected.torsion) == [1, 2]
    assert s.omega == 2
    assert s.det == k1.det * k2.det


def test_invariants_build_one_model_per_whole_root_knot(monkeypatch):
    # on the chain path, a knot whose monotone subroot keeps every leaf builds
    # its model and lifts its involution once: its small model is its full one
    built = []
    model_complex = kn.model_complex
    monkeypatch.setattr(kn, "model_complex", lambda root: built.append(root) or model_complex(root))
    whole = 0
    for text in CORPUS + ["pretzel(3,-5,-7,9,11)"]:
        before = len(built)
        kn.invariants(kn.parse_spec(text), verify=True)
        assert len(built) - before in (1, 2)
        whole += len(built) - before == 1
    assert (len(built), whole) == (23, 11)  # 17 small models and 6 full ones


def test_sum_over_the_rank_bound_fails_before_the_full_complex(monkeypatch):
    # the small tensor of three rank-3 models has rank 27 > 16: the search
    # must refuse it before any work on the full tensor (rank 4123) or its
    # cone, and before the full tensor is even built
    def unreachable(*args, **kwargs):
        raise AssertionError("full complex touched before the connected search")

    built = []
    tensor_complex = kn.tensor_complex

    def recorded(a, b):
        built.append(len(a) * len(b))
        return tensor_complex(a, b)

    monkeypatch.setattr(kn, "branched_invariants", unreachable)
    monkeypatch.setattr(kn, "homology", unreachable)
    monkeypatch.setattr(kn, "tensor_complex", recorded)
    spec = kn.parse_spec("sum(pretzel(7,-3,5),pretzel(11,-5,9),pretzel(15,-7,13))")
    with pytest.raises(RankBoundExceeded, match="rank exceeds bound 16"):
        kn.invariants(spec)
    assert built and max(built) <= 27


@pytest.mark.parametrize(
    "text",
    ["torus(3,7)", "torus(2,7)", "pretzel(2,-3,-7)", "pretzel(7,-3,5)"],
)
def test_mirror_duality(text):
    spec = kn.parse_spec(text)
    k = kn.invariants(spec)
    m = kn.invariants(kn.KnotSpec.mirror(spec))
    assert m.delta == -k.delta
    assert m.delta_upper == -k.delta_lower
    assert m.delta_lower == -k.delta_upper
    assert m.det == k.det
    assert (m.omega > 0) == (k.omega > 0)
    # both correction gaps stay even
    assert (k.delta_upper - k.delta) % 2 == 0
    assert (k.delta - k.delta_lower) % 2 == 0


def _concordance_reading(text):
    p = kn.invariants(kn.parse_spec(text))
    return p.delta, p.delta_upper, p.delta_lower, p.connected, p.omega


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 13: delta(mirror K) = -delta(K) disagrees with the "
    "sum rule (+2) and the direct presentations (d - 2) by 4",
)
@pytest.mark.parametrize(
    "text,same",
    [
        # the unknot, two spellings of one (amphichiral) knot, both of det 1
        ("montesinos(-1;2/1)", "montesinos(1;-2/1)"),
        # the amphichiral figure-eight and its mirror
        ("montesinos(0;2/5)", "mirror(montesinos(0;2/5))"),
        # one trefoil, presented directly and as a mirror
        ("torus(2,3)", "mirror(pretzel(1,1,1))"),
        # a slice knot reads as the unknot
        ("sum(torus(3,7),mirror(torus(3,7)))", "montesinos(1;-2/1)"),
    ],
)
def test_spellings_of_one_concordance_class_agree(text, same):
    # the branched module is not a concordance invariant, so it is left out
    assert _concordance_reading(text) == _concordance_reading(same)


@st.composite
def evaluated_specs(draw):
    """A torus knot or a 3-strand pretzel, as drawn, mirrored or mirrored
    twice, or the sum of two such."""

    def knot():
        if draw(st.booleans()):
            p, q = draw(st.sampled_from([(2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 5)]))
            spec = kn.KnotSpec.torus(p, draw(st.sampled_from([q, -q])))
        else:
            # random strands mostly give stems: mix in knots with torsion
            strands = draw(st.one_of(
                st.sampled_from([(2, -3, -7), (-2, 3, 7), (7, -3, 5), (11, -5, 9)]),
                st.lists(st.integers(-11, 11).filter(lambda a: abs(a) > 1), min_size=3, max_size=3),
            ))
            try:
                spec = kn.KnotSpec.pretzel(*strands)
            except kn.KnotSpecError:
                reject()
        for _ in range(draw(st.integers(0, 2))):
            spec = kn.KnotSpec.mirror(spec)
        return spec

    first = knot()
    return kn.KnotSpec.connected_sum(first, knot()) if draw(st.booleans()) else first


@settings(max_examples=60, deadline=None)
@given(evaluated_specs())
def test_evaluation_delta_is_read_off_the_roots(spec):
    # delta, set where each node is built, is that of the full complex; a
    # direct model (a knot's monotone subroot, or a mirror's dual of one)
    # has the search's connected homology
    try:
        ev = kn._evaluate(spec, None)
    except InstabilityError:
        reject()
    assert ev.delta == delta_invariant(ev.full()[0])
    if ev.direct:
        assert homology(ev.small_cx) == connected_homology_brute(ev.small_cx, ev.small_iota, 16)


def test_a_mirror_runs_the_search_only_to_verify(monkeypatch):
    calls = []
    brute = kn.connected_homology_brute
    monkeypatch.setattr(kn, "connected_homology_brute", lambda *a: calls.append(a) or brute(*a))
    spec = kn.parse_spec("mirror(pretzel(11,-5,9))")
    plain = kn.invariants(spec)
    assert calls == []
    assert kn.invariants(spec, verify=True) == plain
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text",
    [
        "montesinos(0;7/3)",
        "mirror(torus(3,5))",
        "sum(torus(2,7),torus(3,5))",
        "sum(torus(3,7),mirror(torus(3,7)))",
        # K # mirror(K) is locally trivial for the generators of omega = 1..3
        "sum(pretzel(7,-3,5),mirror(pretzel(7,-3,5)))",
        "sum(pretzel(11,-5,9),mirror(pretzel(11,-5,9)))",
        "sum(pretzel(15,-7,13),mirror(pretzel(15,-7,13)))",
    ],
)
def test_reduced_part_vanishes_on_alternating_and_torus_sums(text):
    p = kn.invariants(kn.parse_spec(text))
    assert p.reduced_connected.torsion == ()
    assert p.omega == 0
    assert p.delta_upper == p.delta == p.delta_lower


def test_package_serialization_shape():
    p = kn.invariants(kn.parse_spec("pretzel(2,-3,-7)"))
    d = p.to_jsonable()
    assert d["schema"] == 1
    assert d["spec"] == "pretzel(2,-3,-7)"
    assert d["delta"] == [-2, 1]
    assert d["delta_upper"] == [-2, 1]
    assert d["delta_lower"] == [-4, 1]
    assert d["red_conn"] == [{"degree": [-2, 1], "length": 1}]
    assert d["omega"] == 1
    assert d["det"] == 1
    assert d["sigma"] == 8
    assert json.loads(json.dumps(d, sort_keys=True)) == d


class _ChainPathRan(Exception):
    pass


def test_direct_knots_build_no_chain_complex(monkeypatch):
    # a directly presented knot is read off its root; only `verify` builds
    # the model, its lift and the branched cone, to check the read-off
    def refused(*args, **kwargs):
        raise _ChainPathRan

    specs = [kn.parse_spec(t) for t in CORPUS + ["pretzel(3,-5,-7,9,11)"]]
    direct = [s for s in specs if not kn.presentation(s).mirrored]
    assert len(direct) == len(specs) - 1  # pretzel(-2,3,7) is presented mirrored
    for name in ("model_complex", "lift_involution", "branched_invariants", "homology", "delta_invariant"):
        monkeypatch.setattr(kn, name, refused)
    for spec in direct:
        package = kn.invariants(spec)
        assert package.connected.towers == (package.delta,)
        with pytest.raises(_ChainPathRan):
            kn.invariants(spec, verify=True)


def test_verify_catches_a_read_off_that_disagrees(monkeypatch, capsys):
    read_off = kn._root_invariants

    def one_more_summand(root):
        br, conn = read_off(root)
        module = GradedUModule(br.module.towers, br.module.torsion + ((br.upper, 1),))
        return replace(br, module=module), conn

    monkeypatch.setattr(kn, "_root_invariants", one_more_summand)
    spec = kn.parse_spec("pretzel(7,-3,5)")
    assert len(kn.invariants(spec).branched.torsion) == 4  # unchecked without verify
    with pytest.raises(ConsistencyError, match="disagree on branched$"):
        kn.invariants(spec, verify=True)
    assert cli.main(["invariants", "pretzel(7,-3,5)", "--verify"]) == 1
    assert "disagree on branched" in capsys.readouterr().err


FROZEN = json.loads((Path(__file__).parent / "invariants_frozen.json").read_text())


@pytest.mark.parametrize("label", list(FROZEN))
def test_outputs_are_byte_identical_to_the_frozen_ones(label):
    # the package JSON of the 17 `knots` benchmark inputs at n_max auto, 1
    # and 3, three more direct knots, the corpus mirrors, the bench sums and
    # the generators' pairwise sums, as the chain path computed them for
    # every input; the two truncated probes end in the same instability
    text, n_max = label.rsplit(" n_max=", 1)
    spec = kn.parse_spec(text)
    try:
        got = kn.invariants(spec, n_max=None if n_max == "None" else int(n_max)).to_jsonable()
    except InstabilityError as err:
        got = {"error": "InstabilityError", "message": str(err)}
    assert json.dumps(got) == json.dumps(FROZEN[label])
