"""End-to-end acceptance checks, one numbered test per shipped guarantee.

Each test prints a single summary line; run with -v to get one pass/fail
line per criterion.  Expected values are anchored the same way as in
test_knots.py: cover determinants, Goeritz data, involutive correction
terms of the covers, and structural module shapes.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from branchfloer import complexes as cxm
from branchfloer import knots as kn
from branchfloer import plumbing as pl
from branchfloer import roots as rt
from oracles import monotone_homology

CORPUS = [
    "torus(2,3)",
    "torus(2,5)",
    "torus(2,7)",
    "torus(3,4)",
    "torus(3,5)",
    "torus(3,7)",
    "torus(4,5)",
    "pretzel(2,-3,-7)",
    "pretzel(2,-3,-9)",
    "pretzel(2,-3,-11)",
    "pretzel(-2,3,7)",
    "pretzel(7,-3,5)",
    "pretzel(11,-5,9)",
    "pretzel(15,-7,13)",
    "montesinos(0;7/3)",
    "montesinos(-2;2/1,3/2,7/6)",
]
PRETZELS = [t for t in CORPUS if t.startswith("pretzel")]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "branchfloer", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def packages():
    return {t: kn.invariants(kn.parse_spec(t)) for t in CORPUS}


@pytest.fixture(scope="module")
def mirror_packages():
    return {t: kn.invariants(kn.KnotSpec.mirror(kn.parse_spec(t))) for t in CORPUS}


@pytest.fixture(scope="module")
def leaf_roots():
    out = {}
    for t in CORPUS:
        pres = kn.presentation(kn.parse_spec(t))
        out[t] = (pres, rt.build_root(pres.tree, pres.char, involution=pres.involution))
    return out


def test_criterion_1_baseline_torus_knot():
    t0 = time.time()
    proc = run_cli("invariants", "torus(3,7)")
    elapsed = time.time() - t0
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["delta"] == [-2, 1]
    assert doc["branched"] == {
        "towers": [[-2, 1], [-3, 1]],
        "torsion": [
            {"degree": [-2, 1], "length": 1},
            {"degree": [-3, 1], "length": 1},
        ],
    }
    assert doc["connected"] == {"towers": [[-2, 1]], "torsion": []}
    assert doc["red_conn"] == []
    assert elapsed < 5.0
    print(f"criterion 1: PASS ({elapsed:.2f}s)")


def test_criterion_2_baseline_pretzel_knot():
    t0 = time.time()
    p = kn.invariants(kn.parse_spec("pretzel(2,-3,-7)"))
    elapsed = time.time() - t0
    # two towers one degree apart plus a single simple torsion summand
    assert len(p.branched.towers) == 2
    assert p.branched.towers[0] - p.branched.towers[1] == 1
    assert [length for _, length in p.branched.torsion] == [1]
    assert p.connected == cxm.GradedUModule(
        (Fraction(-2),), ((Fraction(-2), 1),)
    )
    assert p.reduced_connected.torsion == ((Fraction(-2), 1),)
    assert elapsed < 5.0
    print(f"criterion 2: PASS ({elapsed:.2f}s)")


def standard_three_chain(r):
    """Rank-3 comparison complex: two swapped towers over one mixing angle."""
    r = Fraction(r)
    cx = cxm.UComplex((r, r, r - 1), (0, 0, 0b011))
    iota = cxm.UMap(cx, cx, Fraction(0), (0b010, 0b001, 0b100))
    return cx, iota


def test_criterion_3_pretzel_family_representative():
    t0 = time.time()
    for q in (7, 9, 11, 13, 15):
        pres = kn.presentation(kn.KnotSpec.pretzel(2, -3, -q))
        root = rt.build_root(pres.tree, pres.char, involution=pres.involution)
        assert len(root.vertices_at(0)) == 2
        assert len(root.vertices_at(1)) == 1
        model = cxm.model_complex(root)
        iota = cxm.lift_involution(model)
        cr, cr_iota = standard_three_chain(max(model.cx.gradings))
        forward = cxm.local_equivalences(model.cx, iota, cr, cr_iota)
        backward = cxm.local_equivalences(cr, cr_iota, model.cx, iota)
        assert forward and backward, f"q={q} not equivalent to the rank-3 model"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"criterion 3: PASS ({elapsed:.2f}s)")


def test_criterion_4_torus_vanishing():
    t0 = time.time()
    for p, q in [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5)]:
        pkg = kn.invariants(kn.KnotSpec.torus(p, q))
        assert pkg.reduced_connected.torsion == (), f"torus({p},{q})"
        assert pkg.omega == 0
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"criterion 4: PASS ({elapsed:.2f}s)")


def test_criterion_5_generator_family_and_sums():
    t0 = time.time()
    for text, q in [
        ("pretzel(7,-3,5)", 1),
        ("pretzel(11,-5,9)", 2),
        ("pretzel(15,-7,13)", 3),
    ]:
        pkg = kn.invariants(kn.parse_spec(text))
        assert len(pkg.connected.towers) == 1
        assert [length for _, length in pkg.connected.torsion] == [q]
        assert pkg.omega == q
    s12 = kn.invariants(kn.parse_spec("sum(pretzel(7,-3,5),pretzel(11,-5,9))"))
    s23 = kn.invariants(kn.parse_spec("sum(pretzel(11,-5,9),pretzel(15,-7,13))"))
    assert s12.omega == 2
    assert s23.omega == 3
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"criterion 5: PASS ({elapsed:.2f}s)")


def test_criterion_6_property_suite(packages, mirror_packages, leaf_roots):
    t0 = time.time()

    # ordering and parity of the three correction terms
    for text, p in packages.items():
        assert p.delta_lower <= p.delta <= p.delta_upper, text
        assert (p.delta_upper - p.delta) % 2 == 0, text
        assert (p.delta - p.delta_lower) % 2 == 0, text

    # mirror identity, both directions
    for text in CORPUS:
        k, m = packages[text], mirror_packages[text]
        assert k.delta_lower == -m.delta_upper, text
        assert m.delta_lower == -k.delta_upper, text

    # connected-sum inequalities on ten seeded corpus pairs; the package
    # normalization adds 2 per binary sum, so the bounds carry the same shift
    rng = random.Random(0)
    for a, b in [rng.sample(CORPUS, 2) for _ in range(10)]:
        s = kn.invariants(kn.parse_spec(f"sum({a},{b})"))
        pa, pb = packages[a], packages[b]
        assert pa.delta_lower + pb.delta_lower + 2 <= s.delta_lower, (a, b)
        assert s.delta_lower <= s.delta <= s.delta_upper, (a, b)
        assert s.delta_upper <= pa.delta_upper + pb.delta_upper + 2, (a, b)
        assert s.delta == pa.delta + pb.delta + 2, (a, b)

    # vanishing of the reduced part is equivalent to a single correction term
    for text, p in list(packages.items()) + list(mirror_packages.items()):
        collapsed = p.delta_lower == p.delta == p.delta_upper
        assert collapsed == (p.reduced_connected.torsion == ()), text

    # engine cross-check on all small star-shaped corpus trees
    for text, (pres, _) in leaf_roots.items():
        if len(pres.tree) > 7:
            continue
        a = rt.build_root_star(pres.tree, pres.char, involution=pres.involution)
        b = rt.build_root_box(pres.tree, pres.char, involution=pres.involution)
        assert a.is_isomorphic(b), text

    # brute-force reduction agrees with the monotone subroot on small roots
    for text, (_, root) in leaf_roots.items():
        if len(root.leaves) <= 8:
            monotone_homology(root)

    # model complex homology puts its tower at the root's correction term
    for text, (_, root) in leaf_roots.items():
        h = cxm.homology(cxm.model_complex(root).cx)
        assert h.towers == (root.d_invariant(),), text

    # Goeritz determinant against the cover presentation
    for text in PRETZELS:
        spec = kn.parse_spec(text)
        det, _ = kn.goeritz_oracle(spec)
        assert det == pl.determinant_magnitude(kn.presentation(spec).tree)

    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"criterion 6: PASS ({elapsed:.2f}s)")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="stated for the cover-level grading convention; this package pins "
    "gradings so that delta(torus(3,7)) = -2, which shifts the knot-level "
    "terms down by 2 on definite-side presentations, and there "
    "delta_lower == -sigma/4 - 2 holds instead (see the companion test)",
)
def test_criterion_6_signature_relation_as_stated(packages):
    for text in PRETZELS:
        p = packages[text]
        print(
            f"{text}: delta={p.delta} upper={p.delta_upper} "
            f"lower={p.delta_lower} sigma={p.sigma}"
        )
        assert p.sigma is not None
        assert p.delta_upper == p.delta, text
        assert p.delta_lower == -Fraction(p.sigma, 4), text


def test_criterion_6_signature_relation_normalized(packages):
    # what actually holds for definite-side pretzel presentations
    checked = 0
    for text in PRETZELS:
        strands = kn.parse_spec(text).params
        if kn.presentation(kn.KnotSpec.pretzel(*strands)).mirrored:
            continue
        p = packages[text]
        assert p.delta_upper == p.delta, text
        assert p.delta_lower == -Fraction(p.sigma, 4) - 2, text
        checked += 1
    assert checked >= 6


def test_criterion_7_scope_statement(packages):
    # full invariance and infinite-family claims rest on the finite
    # certificates of criteria 4-6; the README must say so out loud
    omegas = [packages[t].omega for t in
              ("pretzel(7,-3,5)", "pretzel(11,-5,9)", "pretzel(15,-7,13)")]
    assert omegas == [1, 2, 3]
    assert len(set(omegas)) == 3
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        text = fh.read()
    assert "out of computational scope" in text
    print("criterion 7: PASS (finite certificates present, scope documented)")
