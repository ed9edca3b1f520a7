import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from branchfloer import cli
from branchfloer import complexes as cxm
from branchfloer import knots as kn
from branchfloer import plumbing as pl
from branchfloer.complexes import (
    ConsistencyError,
    GradedUModule,
    RankBoundExceeded,
    branched_invariants,
    connected_homology_brute,
    delta_invariant,
    homology,
)
from branchfloer.connected import omega
from branchfloer.roots import InstabilityError, build_root
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


# an even torus knot's cover has two equal legs, and its covering involution
# acts on the root as the identity: the presentation carries the trivial one


def test_torus_34_declares_no_leg_swap():
    pres = kn.presentation(kn.KnotSpec.torus(3, 4))
    assert pres.tree == pl.star(-2, [[-2, -2], [-2, -2], [-2]])
    assert pres.involution == "trivial"


def test_torus_27_declares_no_leg_swap():
    pres = kn.presentation(kn.KnotSpec.torus(2, 7))
    assert pres.tree == pl.star(-1, [[-3, -2, -2], [-3, -2, -2]])
    assert pres.involution == "trivial"
    assert pl.determinant_magnitude(pres.tree) == 7


def test_torus_45_presentation():
    pres = kn.presentation(kn.KnotSpec.torus(4, 5))
    assert pres.tree == pl.star(-1, [[-5], [-5], [-2]])
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


T25 = kn.KnotSpec.torus(2, 5)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: kn.KnotSpec("torus", (2, 3, 5)), "two parameters"),
        (lambda: kn.KnotSpec("montesinos", (0, 2.5)), "must be Fractions"),
        (lambda: kn.KnotSpec("mirror", (), ("torus(2,3)",)), "must be knot specs"),
        (lambda: kn.KnotSpec("torus", (2, 3), (T25,)), "torus takes parameters, not child specs"),
        (lambda: kn.KnotSpec("pretzel", (3, -5, 7), (T25,)), "pretzel takes parameters"),
        (lambda: kn.KnotSpec("mirror", (7,), (T25,)), "mirror takes child specs, not parameters"),
        (lambda: kn.KnotSpec("sum", (1,), (T25, kn.KnotSpec.torus(2, 3))), "sum takes child"),
        (
            lambda: kn.KnotSpec.montesinos(0, [(2, 4), (3, 5), (5, 7)]),
            r"^montesinos fraction 1/2 in lowest terms has \|numerator\| < 2",
        ),
    ],
)
def test_a_malformed_direct_spec_raises_a_spec_error(make, message):
    # not a ValueError from unpacking, an AttributeError from a float's
    # numerator, a text child that fails only when the spec is printed, or
    # children or parameters that the node ignores and str(spec) drops; a
    # fraction refused for its numerator is named as reduced, since the
    # written 2/4 has numerator 2
    with pytest.raises(kn.KnotSpecError, match=message):
        make()


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
    # the correction: the odd strands where one strand is even, and on 4
    # strands the even strand too
    odd = sum(a for a in strands if a % 2)
    mu = (sum(strands) if len(strands) == 4 else odd) if any(a % 2 == 0 for a in strands) else 0
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


def test_four_strand_pretzel_sigma_meets_the_det_congruence():
    checked, broken = _congruence_breaks(2)
    assert checked == 8192
    assert broken == []


def test_four_strand_pretzel_sigma_meets_the_det_congruence_with_even_strand_0_mod_4():
    assert _congruence_breaks(0) == (8192, [])


def _eight_mu_bar(pres):
    """8 times the Neumann-Siebenmann invariant of the cover, from the
    plumbing alone: sign Q - w^T Q w with w the Wu class, sign Q = -n on a
    negative definite form; negated for a mirrored presentation."""
    tree = pres.tree
    w = pl.wu_class(tree)
    wqw = sum(x * weight for x, weight in zip(w, tree.weights)) + 2 * sum(
        w[i] * w[j] for i, j in tree.edges
    )
    return (len(tree) + wqw) * (1 if pres.mirrored else -1)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.integers(-25, 25).filter(lambda a: a != 0), min_size=3, max_size=5
    ).filter(lambda s: sum(a % 2 == 0 for a in s) <= 1)
)
def test_pretzel_sigma_is_eight_mu_bar(strands):
    # an anchor from the cover's plumbing, not the diagram; a pretzel knot
    # has at most one even strand, and on 4 strands exactly one
    try:
        spec = kn.KnotSpec.pretzel(*strands)
    except kn.KnotSpecError:
        reject()  # a link
    assert kn.goeritz_oracle(spec)[1] == _eight_mu_bar(kn.presentation(spec))


@pytest.mark.parametrize("k, top", [(3, 9), (4, 9), (5, 7)])
def test_alternating_pretzel_sigma_is_minus_four_d(k, top):
    # d(Sigma(K)) = -sigma(K)/4 for alternating K (Manolescu-Owens, as in
    # the two-bridge test below): every pretzel whose strands have one sign,
    # 1..top, up to order, with one even strand on 4 strands (0 or 2 mod 4)
    # and at most one on 3 and 5; d of the mirror's cover where the
    # presentation is mirrored
    checked = 0
    for strands in itertools.combinations_with_replacement(range(1, top + 1), k):
        evens = sum(a % 2 == 0 for a in strands)
        if evens > 1 or (k == 4 and evens == 0):
            continue
        for sign in (1, -1):
            try:
                spec = kn.KnotSpec.pretzel(*(sign * a for a in strands))
            except kn.KnotSpecError:
                continue  # a link
            pres = kn.presentation(spec)
            d = build_root(pres.tree, pres.char, n_max=2, involution=pres.involution).d_invariant()
            sigma = kn.goeritz_oracle(spec)[1]
            assert sigma == -4 * (-d if pres.mirrored else d) == _eight_mu_bar(pres), spec
            checked += 1
    assert checked == {3: 190, 4: 280, 5: 322}[k]
    if k == 4:
        # an even strand = 0 (mod 4) keeps the congruence, so only the value
        # shows the correction
        assert kn.invariants(kn.parse_spec("pretzel(1,1,1,4)")).sigma == -4
        assert kn.invariants(kn.parse_spec("mirror(pretzel(1,1,1,4))")).sigma == 4


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


def _lens_d(p, q, i):
    """d(-L(p, q), i) for p > q > 0 and 0 <= i < p + q, by the recursion of
    Ozsvath-Szabo, "Absolutely graded Floer homologies and intersection
    forms for four-manifolds with boundary", Adv. Math. 173 (2003), Prop.
    4.8: (pq - (2i + 1 - p - q)^2) / 4pq - d(-L(q, r), j), r and j the
    reductions of p and i mod q, down to d(S^3) = 0."""
    if p == 1:
        return Fraction(0)
    return Fraction(p * q - (2 * i + 1 - p - q) ** 2, 4 * p * q) - _lens_d(q, p % q, i % q)


@pytest.mark.parametrize("p", range(3, 60, 2))
def test_two_bridge_cover_d_is_the_lens_space_recursion(p):
    # an anchor outside the package: the cover of montesinos(0;q/p) is
    # bounded by the chain of weights -a_1, ..., -a_n, and p/q = [a_1, ...,
    # a_n] is read off the chain; its root's d is d(-L(p, q)) at the spin
    # label, 2i = q - 1 mod p.  d reads only the root's lowest level, so a
    # low n_max builds it
    for q in (q for q in range(2, p) if math.gcd(p, q) == 1):
        pres = kn.presentation(kn.parse_spec(f"montesinos(0;{q}/{p})"))
        tree = pres.tree
        assert tree.edges == tuple((v, v + 1) for v in range(len(tree) - 1))
        assert not pres.mirrored
        chain = Fraction(-tree.weights[-1])
        for w in reversed(tree.weights[:-1]):
            chain = -w - 1 / chain
        assert (chain.numerator, chain.denominator) == (p, q)
        i = (q - 1) * pow(2, -1, p) % p
        d = build_root(tree, pres.char, n_max=2, involution=pres.involution).d_invariant()
        assert d == _lens_d(chain.numerator, chain.denominator, i), (p, q)


def _two_bridge_signature(p, q):
    """sigma of the two-bridge knot b(p, q), p odd: Murasugi's formula, sum
    over 0 < i < p of (-1)^floor(iq/p) for q odd ("On the signature of
    links", Topology 9 (1970)), applied to the odd representative of q mod
    p, q or q - p.  In its sign convention b(3, 1) has sigma = +2."""
    odd = q if q % 2 else q - p
    return sum(1 - 2 * (i * odd // p % 2) for i in range(1, p))


@pytest.mark.parametrize("p", range(3, 60, 2))
def test_two_bridge_cover_d_is_minus_a_quarter_of_the_signature(p):
    # an anchor outside the package: for an alternating knot K, d(Sigma(K))
    # = -sigma(K)/4 at the spin structure (Manolescu-Owens, "A concordance
    # invariant from the Floer homology of double branched covers", IMRN
    # 2007: delta = 2d = -sigma/2 for alternating K); montesinos(0;q/p) is
    # b(p, q)
    assert _two_bridge_signature(3, 1) == 2
    for q in (q for q in range(2, p) if math.gcd(p, q) == 1):
        pres = kn.presentation(kn.parse_spec(f"montesinos(0;{q}/{p})"))
        d = build_root(pres.tree, pres.char, n_max=2, involution=pres.involution).d_invariant()
        assert d == Fraction(-_two_bridge_signature(p, q), 4), (p, q)


@st.composite
def two_bridge_fractions(draw):
    """(p, q): p odd in 3..199, q in 2..p - 1 coprime to p."""
    p = draw(st.integers(1, 99)) * 2 + 1
    q = draw(st.integers(2, p - 1).filter(lambda q: math.gcd(p, q) == 1))
    return p, q


def _two_bridge_cover(p, q):
    """The cover's chain for montesinos(0;q/p), its p/q read off the chain,
    and the d of its root at n_max=2."""
    pres = kn.presentation(kn.parse_spec(f"montesinos(0;{q}/{p})"))
    chain = Fraction(-pres.tree.weights[-1])
    for w in reversed(pres.tree.weights[:-1]):
        chain = -w - 1 / chain
    root = build_root(pres.tree, pres.char, n_max=2, involution=pres.involution)
    return chain, root.d_invariant()


@settings(max_examples=100, deadline=None)
@given(two_bridge_fractions())
def test_two_bridge_family_d_is_the_lens_space_recursion(pq):
    # the lens-space anchor above, over the whole family p < 200
    p, q = pq
    chain, d = _two_bridge_cover(p, q)
    assert (chain.numerator, chain.denominator) == (p, q)
    assert d == _lens_d(p, q, (q - 1) * pow(2, -1, p) % p)


@settings(max_examples=100, deadline=None)
@given(two_bridge_fractions())
def test_two_bridge_family_d_is_minus_a_quarter_of_the_signature(pq):
    # the Manolescu-Owens anchor above, over the whole family p < 200
    p, q = pq
    assert _two_bridge_cover(p, q)[1] == Fraction(-_two_bridge_signature(p, q), 4)


def _brieskorn_casson(p, q, r):
    """lambda(Sigma(p, q, r)) = sigma(M)/8, M the Milnor fibre of x^p + y^q +
    z^r (Fintushel-Stern, "Instanton homology of Seifert fibred homology
    three spheres", Proc. London Math. Soc. 61 (1990); cited from memory),
    with sigma(M) = N+ - N- by Brieskorn's count (1966; cited from memory):
    N+ counts the triples 0 < i < p, 0 < j < q, 0 < k < r for which i/p +
    j/q + k/r mod 2 lies in (0, 1), N- those for which it lies in (1, 2)."""
    n, sigma = p * q * r, 0
    for i, j, k in itertools.product(range(1, p), range(1, q), range(1, r)):
        t = (i * q * r + j * p * r + k * p * q) % (2 * n)
        sigma += (0 < t < n) - (n < t)
    return Fraction(sigma, 8)


def _root_casson(root):
    """lambda = -rank HF_red - d/2 of an integer homology sphere whose
    HF_red lies in odd degrees, as a negative-definite plumbing's does
    (Ozsvath-Szabo, "Absolutely graded Floer homologies...", 2003, where
    lambda(Sigma(2, 3, 5)) = -1; cited from memory): on a complete root,
    rank HF_red is the
    sum over its levels of one less than the number of vertices."""
    extra = sum(len(root.vertices_at(n)) - 1 for n in set(root.levels))
    return -extra - root.d_invariant() / 2


# Knots covered by a Brieskorn sphere: torus(p,q), p < q <= 15 odd and
# coprime, by Sigma(2, p, q), and every 3-strand pretzel with |det| = 1 and
# strands of 2..15 in absolute value, by Sigma(|a|, |b|, |c|); half of
# these pretzel presentations are mirrored
BRIESKORN_COVERS = [
    (f"torus({p},{q})", (2, p, q))
    for p in range(3, 16, 2)
    for q in range(p + 2, 16, 2)
    if math.gcd(p, q) == 1
] + [
    (f"pretzel({a},{b},{c})", (abs(a), abs(b), abs(c)))
    for a, b, c in itertools.combinations_with_replacement(
        [x for x in range(-15, 16) if abs(x) > 1], 3
    )
    if abs(a * b + b * c + c * a) == 1
]


def test_brieskorn_covers_have_the_milnor_fibre_casson_invariant():
    # an anchor outside the package that reads every level of the root, not
    # just its lowest: at n_max=200, far above every split of these roots
    assert len(BRIESKORN_COVERS) == 39
    assert _brieskorn_casson(2, 3, 5) == -1
    differ = []
    for text, pqr in BRIESKORN_COVERS:
        pres = kn.presentation(kn.parse_spec(text))
        root = build_root(pres.tree, pres.char, n_max=200, involution=pres.involution)
        if _root_casson(root) != _brieskorn_casson(*pqr):
            differ.append(text)
    assert differ == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the star engine's adaptive stop truncates two "
    "generator roots, which read lambda -14 and -30 against -20 and -56",
)
def test_generator_roots_have_the_milnor_fibre_casson_invariant_at_the_adaptive_stop():
    read = {}
    for text, pqr in [
        ("pretzel(7,-3,5)", (7, 3, 5)),
        ("pretzel(11,-5,9)", (11, 5, 9)),
        ("pretzel(15,-7,13)", (15, 7, 13)),
    ]:
        pres = kn.presentation(kn.parse_spec(text))
        root = build_root(pres.tree, pres.char, involution=pres.involution)
        read[text] = (_root_casson(root), _brieskorn_casson(*pqr))
    assert all(ours == want for ours, want in read.values()), read


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 13: mirror(montesinos(0;q/p)) prints delta, delta_upper "
    "and delta_lower 4 above montesinos(0;(p-q)/p), the same knot",
)
def test_a_two_bridge_mirror_prints_its_direct_spelling():
    # d(-Y) = -d(Y) at cover level, and -Sigma(b(p, q)) = Sigma(b(p, p - q)),
    # so the two spellings of one knot must print one package
    differ = []
    for p in range(3, 60, 2):
        for q in (q for q in range(2, p - 1) if math.gcd(p, q) == 1):
            mirrored, direct = (
                {k: v for k, v in kn.invariants(kn.parse_spec(t)).to_jsonable().items() if k != "spec"}
                for t in (f"mirror(montesinos(0;{q}/{p}))", f"montesinos(0;{p - q}/{p})")
            )
            if mirrored != direct:
                differ.append((p, q))
    assert differ == []


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
    model_complex = cxm.model_complex
    monkeypatch.setattr(cxm, "model_complex", lambda root: built.append(root) or model_complex(root))
    whole = 0
    for text in CORPUS + ["pretzel(3,-5,-7,9,11)"]:
        before = len(built)
        kn.invariants(kn.parse_spec(text), verify=True)
        assert len(built) - before in (1, 2)
        whole += len(built) - before == 1
    assert (len(built), whole) == (23, 11)  # 17 small models and 6 full ones


K1, K2, K3 = "pretzel(7,-3,5)", "pretzel(11,-5,9)", "pretzel(15,-7,13)"


def test_sum_over_the_rank_bound_fails_before_the_full_complex(monkeypatch):
    # each sum reduces its tensor before the next one: 3 x 3 -> 5, 5 x 3 ->
    # 7, and the last tensor, 7 x 3 = 21 > 16, must be refused before any
    # work on the full tensor or its cone, and before the full tensor is
    # even built
    def unreachable(*args, **kwargs):
        raise AssertionError("full complex touched before the connected search")

    built = []
    tensor_complex = cxm.tensor_complex

    def recorded(a, b):
        built.append(len(a) * len(b))
        return tensor_complex(a, b)

    monkeypatch.setattr(cxm, "branched_invariants", unreachable)
    monkeypatch.setattr(cxm, "delta_invariant", unreachable)
    monkeypatch.setattr(cxm, "tensor_complex", recorded)
    spec = kn.parse_spec(f"sum({K1},{K2},{K3},{K1})")
    with pytest.raises(RankBoundExceeded, match="rank exceeds bound 16"):
        kn.invariants(spec)
    assert built == [9, 15, 21]


def test_the_three_generator_sum_reads_omega_3():
    # 3 x 3 reduces to 5 and 5 x 3 = 15 to 7: a tower and three torsion
    # summands, one per generator
    ev = kn._evaluate(kn.parse_spec(f"sum({K1},{K2},{K3})"), None)
    assert [len(ev.children[0].small[0]), len(ev.model[0]), len(ev.small[0])] == [5, 15, 7]
    package = kn.invariants(kn.parse_spec(f"sum({K1},{K2},{K3})"))
    assert sorted(length for _, length in package.connected.torsion) == [1, 2, 3]
    assert package.omega == 3


def test_a_knot_plus_its_mirror_reduces_to_one_generator():
    ev = kn._evaluate(kn.parse_spec(f"sum({K3},mirror({K3}))"), None)
    assert len(ev.model[0]) == 9
    cx, _ = ev.small
    assert len(cx) == 1 and cx.diff == (0,)
    assert (ev.connected.towers, ev.connected.torsion, omega(ev.connected)) == ((ev.delta,), (), 0)


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
    # delta, set where each node is built, is that of the full complex; the
    # connected module of a knot (read off its monotone subroot, or a
    # mirror's dual of one) is its small model's homology and the search's
    try:
        ev = kn._evaluate(spec, None)
    except InstabilityError:
        reject()
    assert ev.delta == delta_invariant(ev.full[0])
    if spec.kind != "sum":
        assert ev.connected == homology(ev.small[0])
        assert ev.connected == connected_homology_brute(*ev.small, 16)


@pytest.mark.parametrize(
    "text",
    ["pretzel(2,-3,-7)", "mirror(pretzel(2,-3,-7))", "sum(pretzel(7,-3,5),mirror(pretzel(2,-3,-7)))"],
)
def test_invariants_checks_each_node_tower_against_its_delta(monkeypatch, text):
    # a node's delta is set where it is built; its connected tower comes
    # from its own shift literals (-2 for a knot, the dual for a mirror, +2
    # for a sum), so a tampered delta on the top node, a knot, a mirror or a
    # sum, must fail the tower check and not be carried into the output
    top, evaluate = kn.parse_spec(text), kn._evaluate

    def tampered(spec, *args):
        ev = evaluate(spec, *args)
        if spec != top:
            return ev
        return kn._Eval(ev.det, ev.sigma, ev.delta + 2, ev.rank_bound, ev.root, ev.children)

    assert kn.invariants(top).delta == evaluate(top, None).delta
    monkeypatch.setattr(kn, "_evaluate", tampered)
    for verify in (False, True):
        with pytest.raises(ConsistencyError, match="disagree with delta"):
            kn.invariants(top, verify=verify)


def test_a_mirror_runs_the_search_only_to_verify(monkeypatch):
    calls = []
    brute = cxm.connected_homology_brute
    monkeypatch.setattr(cxm, "connected_homology_brute", lambda *a: calls.append(a) or brute(*a))
    spec = kn.parse_spec("mirror(pretzel(11,-5,9))")
    plain = kn.invariants(spec)
    assert calls == []
    assert kn.invariants(spec, verify=True) == plain
    assert len(calls) == 1


@st.composite
def constructor_specs(draw, most_strands=5):
    """A torus, a 3- to `most_strands`-strand pretzel or a Montesinos spec, as
    a function of the sign that mirrors it: the sign negates one torus
    parameter, every strand, or e and every fraction.  Strands or numerators
    of one sign mostly give stems, so some draws turn the first against the
    rest, and known pretzels with torsion are mixed in."""
    kind = draw(st.sampled_from(["torus", "pretzel", "montesinos"]))
    if kind == "torus":
        p, q = draw(st.sampled_from([(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5)]))
        return lambda sign: kn.KnotSpec.torus(p, sign * q)
    size = st.integers(2, 9)
    if kind == "pretzel":
        strands = draw(st.one_of(
            st.sampled_from([(7, -3, 5), (11, -5, 9), (2, -3, -7), (-2, 3, 7), (3, -5, -7, 9, 11)]),
            st.lists(st.integers(-9, 9).filter(lambda a: abs(a) > 1), min_size=3, max_size=most_strands),
            st.lists(size, min_size=3, max_size=most_strands).map(lambda l: (-l[0], *l[1:])),
        ))
        return lambda sign: kn.KnotSpec.pretzel(*(sign * a for a in strands))
    e = draw(st.integers(-2, 2))
    fractions = draw(st.lists(st.tuples(size, st.integers(1, 8)), min_size=2, max_size=3))
    if draw(st.booleans()):
        fractions[0] = (-fractions[0][0], fractions[0][1])
    return lambda sign: kn.KnotSpec.montesinos(sign * e, [(sign * a, b) for a, b in fractions])


@st.composite
def mirrored_specs(draw):
    """A mirror or a double mirror of a constructor spec, a constructor spec
    whose presentation is mirrored, or the mirror of a sum of two small
    ones."""
    form = draw(st.sampled_from(["mirror", "double mirror", "presentation", "sum"]))
    try:
        if form == "sum":
            first, second = (draw(constructor_specs(3))(draw(st.sampled_from([1, -1]))) for _ in "ab")
            return kn.KnotSpec.mirror(kn.KnotSpec.connected_sum(first, second))
        make = draw(constructor_specs())
        if form == "presentation":
            return make(1) if kn.presentation(make(1)).mirrored else make(-1)
        spec = kn.KnotSpec.mirror(make(draw(st.sampled_from([1, -1]))))
        return kn.KnotSpec.mirror(spec) if form == "double mirror" else spec
    except kn.KnotSpecError:
        reject()


@settings(max_examples=150, deadline=None)
@given(mirrored_specs(), st.sampled_from([None, 1, 3]))
def test_a_mirror_is_the_dual_of_its_knots_package(spec, n_max):
    # a mirror's modules are the duals of its child's, and a knot's are read
    # off its root; on every node of the tree they must equal the chain
    # reference on that same node, the search on its own model (a sum's
    # unreduced tensor) and the cone of its own full complex
    try:
        package = kn.invariants(spec, n_max=n_max)
        ev = kn._evaluate(spec, n_max)
    except InstabilityError:
        reject()
    assert (package.connected, package.branched) == (ev.connected, ev.branched.module)
    nodes = [ev]
    for node in nodes:
        nodes += node.children
        assert node.connected == connected_homology_brute(*node.model, 16)
        assert node.branched == branched_invariants(*node.full)


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


# the chain path's functions, each patched in the module that looks it up
CHAIN_PATH = [
    (cxm, "model_complex"),
    (cxm, "lift_involution"),
    (cxm, "branched_invariants"),
    (cxm, "delta_invariant"),
    (cxm, "connected_homology_brute"),
    (cxm, "homology"),
]


def test_the_default_path_builds_no_chain_complex(monkeypatch):
    # a knot is read off its root, and a mirror or a mirrored presentation
    # (pretzel(-2,3,7)) takes the dual of its knot's package; only `verify`
    # rebuilds them on the chain path, which must agree
    calls = []

    def recorded(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for module, name in CHAIN_PATH:
        monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    assert kn.presentation(kn.parse_spec("pretzel(-2,3,7)")).mirrored
    for text in CORPUS + ["pretzel(3,-5,-7,9,11)"]:
        knot = kn.parse_spec(text)
        for spec in (knot, kn.KnotSpec.mirror(knot), kn.KnotSpec.mirror(kn.KnotSpec.mirror(knot))):
            package = kn.invariants(spec)
            assert calls == [], spec
            assert package.connected.towers == (package.delta,)
            assert kn.invariants(spec, verify=True) == package
            assert set(calls) == {name for _, name in CHAIN_PATH}, spec
            calls.clear()


def test_verify_catches_a_read_off_that_disagrees(monkeypatch, capsys):
    read_off = kn._root_branched

    def one_more_summand(root):
        br = read_off(root)
        module = GradedUModule(br.module.towers, br.module.torsion + ((br.upper, 1),))
        return kn.BranchedModule(br.upper, br.lower, module)

    monkeypatch.setattr(kn, "_root_branched", one_more_summand)
    spec = kn.parse_spec("pretzel(7,-3,5)")
    assert len(kn.invariants(spec).branched.torsion) == 4  # unchecked without verify
    with pytest.raises(ConsistencyError, match="disagree on branched$"):
        kn.invariants(spec, verify=True)
    assert cli.main(["invariants", "pretzel(7,-3,5)", "--verify"]) == 1
    assert "disagree on branched" in capsys.readouterr().err


def test_verify_catches_a_reduction_that_disagrees(monkeypatch, capsys):
    # a reduction that keeps the whole tensor leaves its torsion in the
    # connected module; the walk on the tensor, `--verify`'s reference, has
    # none
    monkeypatch.setattr(cxm, "reduced_model", lambda cx, iota, rank_bound: (cx, iota))
    text = "sum(pretzel(7,-3,5),mirror(pretzel(2,-3,-7)))"
    assert kn.invariants(kn.parse_spec(text)).omega > 0  # unchecked without verify
    with pytest.raises(ConsistencyError, match="disagree on connected$"):
        kn.invariants(kn.parse_spec(text), verify=True)
    assert cli.main(["invariants", text, "--verify"]) == 1
    assert "disagree on connected" in capsys.readouterr().err


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
