"""Knots presented through their double branched covers.

Torus, pretzel, and Montesinos knots all have branched covers that are
Seifert fibered over the sphere, so each constructor here produces a
star-shaped negative-definite plumbing together with the right spin
characteristic vector and a recipe for the covering involution.  Mirrors
dualize the resulting chain data and connected sums tensor it, so the full
input language is

    torus(p,q) | pretzel(a1,...,ak) | montesinos(e; a1/b1, ...)
               | mirror(S) | sum(S, S, ...)

parsed by `parse_spec` and evaluated by `invariants`.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, prod
import re

from .complexes import (
    BranchedModule,
    ConsistencyError,
    GradedUModule,
    UComplex,
    UMap,
    branched_invariants,
    connected_homology_brute,
    delta_invariant,
    dual_complex,
    dual_map,
    homology,
    lift_involution,
    model_complex,
    shift_complex,
    tensor_complex,
    tensor_map,
)
from .connected import monotone_subroot, omega
from .plumbing import (
    PlumbingTree,
    determinant_magnitude,
    spin_char,
    star,
)
from .roots import GradedRoot, build_root


class KnotSpecError(ValueError):
    """The input does not describe a supported knot."""


# ---------------------------------------------------------------------------
# plumbing constructors


def negative_continued_fraction(p: int, q: int) -> list[int]:
    """Chain weights (all <= -2) whose continued fraction expands p/q.

    >>> negative_continued_fraction(7, 3)
    [-3, -2, -2]
    >>> negative_continued_fraction(5, 4)
    [-2, -2, -2, -2]
    """
    if not 0 < q < p:
        raise ValueError(f"continued fraction of {p}/{q} needs 0 < q < p")
    out = []
    while q:
        c = -((-p) // q)
        out.append(-c)
        p, q = q, c * q - p
    return out


@dataclass(frozen=True)
class Presentation:
    """A negative-definite plumbing presenting a branched double cover.

    `involution` names the symmetry the graded root should carry ("auto"
    picks the declared tree automorphism or the lattice reflection).  When
    the definite side belongs to the mirror, `mirrored` is set and consumers
    must dualize whatever they compute.
    """

    tree: PlumbingTree
    char: tuple[int, ...]
    involution: str
    mirrored: bool


def _seifert_star(extra: int, slopes: list[Fraction]) -> PlumbingTree:
    """Star plumbing bounding the Seifert space with unnormalized fiber
    slopes `slopes` over a base orbifold twisted by `extra`."""
    e0 = extra
    legs = []
    for s in slopes:
        f = s - floor(s)
        e0 += floor(s)
        if f:
            legs.append(negative_continued_fraction(f.denominator, f.numerator))
    return star(e0, legs)


def _cong(c: int, mod: int, lo: int) -> int:
    # unique x in [lo, mod) with c*x = -1 mod `mod`; callers guarantee
    # gcd(c, mod) == 1
    for x in range(lo, max(mod, lo + 1)):
        if (c * x + 1) % mod == 0:
            return x
    raise ConsistencyError("congruence has no solution in range")


def torus_plumbing(p: int, q: int) -> Presentation:
    """Minimal resolution plumbing for the double cover of the (p, q) torus
    knot, which is the link of the suspension singularity x^2 + y^p + z^q;
    p and q are those of a checked `KnotSpec`.

    For odd p*q the cover is a Brieskorn homology sphere and the covering
    involution acts trivially on the root.  For even p*q the resolution has
    two equal legs that the involution exchanges; the swap is recorded as a
    tree automorphism.
    """
    mirrored = p * q < 0
    p, q = abs(p), abs(q)
    if p > q:
        p, q = q, p
    if p % 2 and q % 2:
        # fiber orders (2, p, q), orbifold euler number -1/(2pq)
        b2 = _cong(2 * q, p, 1)
        b3 = _cong(2 * p, q, 1)
        rem = -1 - p * q - 2 * q * b2 - 2 * p * b3
        if rem % (2 * p * q):
            raise ConsistencyError("torus knot central weight is not an integer")
        e0 = rem // (2 * p * q)
        legs = [[-2], negative_continued_fraction(p, b2), negative_continued_fraction(q, b3)]
        tree = star(e0, legs)
        mode = "trivial"
    else:
        # one even parameter 2m; fiber orders (r, r, m), euler number -1/(rm)
        r, m = (q, p // 2) if p % 2 == 0 else (p, q // 2)
        b = _cong(2 * m, r, 1)
        b3 = _cong(r, m, 0)
        rem = -1 - 2 * m * b - r * b3
        if rem % (r * m):
            raise ConsistencyError("torus knot central weight is not an integer")
        e0 = rem // (r * m)
        leg = negative_continued_fraction(r, b)
        legs = [leg, leg]
        if m > 1:
            legs.append(negative_continued_fraction(m, b3))
        size = 1 + sum(len(l) for l in legs)
        perm = list(range(size))
        for i in range(len(leg)):
            perm[1 + i], perm[1 + len(leg) + i] = 1 + len(leg) + i, 1 + i
        tree = star(e0, legs, automorphism=tuple(perm))
        mode = "auto"
    return Presentation(tree, spin_char(tree), mode, mirrored)


def _seifert_det(e: int, fractions) -> int:
    """|H_1| of the cover of montesinos(e; a1/b1, ...), |e + sum b_i/a_i| *
    prod |a_i|, in integers; pretzel(a1, ...) is montesinos(0; a1/1, ...)."""
    top = prod(f.numerator for f in fractions)
    return abs(e * top + sum(f.denominator * (top // f.numerator) for f in fractions))


def seifert_plumbing(e: int, fractions) -> Presentation:
    """Seifert plumbing for the double cover of montesinos(e; a1/b1, ...),
    the fractions those of a checked `KnotSpec` as `Fraction`s: one fiber of
    slope -b_i/a_i each, orbifold euler number -e - sum(b_i/a_i).  Falls
    back to the mirror when the given orientation bounds the
    positive-definite side.  The tree's determinant is checked against
    `_seifert_det`."""
    slopes = [-1 / f for f in fractions]
    mirrored = -e + sum(slopes) > 0
    if mirrored:
        slopes = [-s for s in slopes]
    tree = _seifert_star(e if mirrored else -e, slopes)
    det = _seifert_det(e, fractions)
    if determinant_magnitude(tree) != det:
        raise ConsistencyError(
            f"plumbing determinant {determinant_magnitude(tree)} is not the "
            f"Seifert invariants' {det}"
        )
    return Presentation(tree, spin_char(tree), "auto", mirrored)


# ---------------------------------------------------------------------------
# diagram-side oracle


def goeritz_oracle(strands) -> tuple[int, int]:
    """Determinant and signature of a pretzel knot from its checkerboard
    form, independent of any plumbing.

    The Goeritz matrix of the standard diagram is tridiagonal with nonzero
    off-diagonal entries, so its leading minors obey the continuant
    recurrence and form a Sturm sequence: the determinant is the last one,
    and the negative eigenvalues are counted by the sign changes along the
    sequence, zeros skipped.  The signature needs a correction term counting
    crossings whose smoothing disagrees with the coloring.  With all strands
    odd no correction is needed; with exactly one even strand the odd strands
    contribute theirs.  Supports 3 to 5 strands.
    """
    strands = tuple(int(a) for a in strands)
    k = len(strands)
    if not 3 <= k <= 5:
        raise KnotSpecError("goeritz oracle supports pretzels with 3 to 5 strands")
    if any(a == 0 for a in strands):
        raise KnotSpecError("zero strands split the pretzel diagram")
    evens = [a for a in strands if a % 2 == 0]
    if len(evens) > 1:
        raise KnotSpecError("two even strands form a pretzel link, not a knot")
    # diagonal a_i + a_{i+1}, off-diagonal -a_{i+1}
    minors = [1, strands[0] + strands[1]]
    for i in range(1, k - 1):
        d = strands[i] + strands[i + 1]
        minors.append(d * minors[-1] - strands[i] ** 2 * minors[-2])
    det = abs(minors[-1])
    if det % 2 == 0:
        raise KnotSpecError(f"pretzel determinant {det} is even: this is a link")
    signs = [m > 0 for m in minors if m != 0]
    negative = sum(a != b for a, b in zip(signs, signs[1:]))
    sig = (k - 1) - 2 * negative
    mu = 0 if not evens else sum(a for a in strands if a % 2)
    return det, sig - mu


# ---------------------------------------------------------------------------
# the knot description language


@dataclass(frozen=True)
class KnotSpec:
    """A parsed knot description: a constructor with parameters, or a
    mirror/sum node over child specs.

    Every spec is checked once, when it is made, so that the plumbing
    constructors (`torus_plumbing`, `seifert_plumbing`) can trust its
    parameters."""

    kind: str
    params: tuple = ()
    children: tuple["KnotSpec", ...] = ()

    def __post_init__(self):
        integers = self.params if self.kind in ("torus", "pretzel") else self.params[:1]
        if any(type(x) is not int for x in integers):
            raise KnotSpecError(f"{self.kind} parameters must be integers, got {self.params}")
        if self.kind == "torus":
            p, q = self.params
            if abs(p) < 2 or abs(q) < 2:
                raise KnotSpecError("torus parameters need |p|, |q| >= 2; smaller gives the unknot")
            if gcd(p, q) != 1:
                raise KnotSpecError("torus(p, q) with gcd(p, q) > 1 is a link, not a knot")
        elif self.kind == "pretzel":
            if len(self.params) < 2:
                raise KnotSpecError("a pretzel needs at least two strands")
            if 0 in self.params:
                raise KnotSpecError("zero strands split the pretzel diagram")
            self._require_odd_det()
        elif self.kind == "montesinos":
            fractions = self.params[1:]
            if not fractions:
                raise KnotSpecError("montesinos spec needs at least one fraction")
            if 0 in fractions:
                raise KnotSpecError("zero montesinos fraction")
            if any(abs(f.numerator) < 2 for f in fractions):
                raise KnotSpecError(
                    "montesinos fraction with |numerator| < 2 is a trivial fiber; "
                    "fold it into the integer coefficient"
                )
            self._require_odd_det()
        elif self.kind == "mirror":
            if len(self.children) != 1:
                raise KnotSpecError("a mirror has exactly one child")
        elif self.kind == "sum":
            if len(self.children) < 2:
                raise KnotSpecError("a sum needs at least two summands")
        else:
            raise KnotSpecError(f"unknown knot kind {self.kind!r}")

    def _require_odd_det(self) -> None:
        det = _seifert_det(*self.seifert_invariants())
        if det == 0:
            raise KnotSpecError(f"{self.kind} determinant is zero: not a knot")
        if det % 2 == 0:
            raise KnotSpecError(f"{self.kind} determinant {det} is even: this is a link, not a knot")

    def seifert_invariants(self) -> tuple[int, tuple[Fraction, ...]]:
        """(e, fractions) of a pretzel or Montesinos spec: pretzel(a1, ...)
        is montesinos(0; a1/1, ...)."""
        e, *fractions = (0, *self.params) if self.kind == "pretzel" else self.params
        return e, tuple(map(Fraction, fractions))

    @classmethod
    def torus(cls, p: int, q: int) -> "KnotSpec":
        return cls("torus", (p, q))

    @classmethod
    def pretzel(cls, *strands: int) -> "KnotSpec":
        return cls("pretzel", strands)

    @classmethod
    def montesinos(cls, e: int, fractions) -> "KnotSpec":
        """`fractions` as `Fraction`s, integers or (numerator, denominator)
        pairs."""
        try:
            fr = tuple(
                Fraction(*f) if isinstance(f, tuple) else Fraction(f)
                for f in fractions
            )
        except ZeroDivisionError:
            raise KnotSpecError("montesinos fraction with zero denominator") from None
        return cls("montesinos", (e,) + fr)

    @classmethod
    def mirror(cls, inner: "KnotSpec") -> "KnotSpec":
        return cls("mirror", (), (inner,))

    @classmethod
    def connected_sum(cls, *specs: "KnotSpec") -> "KnotSpec":
        return cls("sum", (), tuple(specs))

    def __str__(self) -> str:
        return unparse(self)


def unparse(spec: KnotSpec) -> str:
    """Canonical textual form; `parse_spec` round-trips it.

    >>> unparse(KnotSpec.mirror(KnotSpec.torus(3, 7)))
    'mirror(torus(3,7))'
    """
    if spec.kind in ("torus", "pretzel"):
        return f"{spec.kind}({','.join(str(x) for x in spec.params)})"
    if spec.kind == "montesinos":
        fr = ",".join(f"{f.numerator}/{f.denominator}" for f in spec.params[1:])
        return f"montesinos({spec.params[0]};{fr})"
    if spec.kind == "mirror":
        return f"mirror({unparse(spec.children[0])})"
    return f"sum({','.join(unparse(c) for c in spec.children)})"


_TOKEN = re.compile(r"[a-z]+|-?\d+|[(),;/]")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise KnotSpecError(f"unexpected character {text[pos]!r} at position {pos}")
        out.append(m.group())
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def take(self):
        if self.i >= len(self.tokens):
            raise KnotSpecError("unexpected end of spec")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise KnotSpecError(f"expected {tok!r}, found {got!r}")

    def integer(self):
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise KnotSpecError(f"expected an integer, found {tok!r}") from None

    def fraction(self):
        a = self.integer()
        self.expect("/")
        return (a, self.integer())

    def listed(self, item):
        """`item` (',' `item`)* ')', as a list."""
        out = [item()]
        while self.peek() == ",":
            self.take()
            out.append(item())
        self.expect(")")
        return out

    def expr(self) -> KnotSpec:
        name = self.take()
        if name not in ("torus", "pretzel", "montesinos", "mirror", "sum"):
            if not name.isalpha():
                raise KnotSpecError(f"expected a knot spec, found {name!r}")
            raise KnotSpecError(f"unknown constructor {name!r}")
        self.expect("(")
        if name == "torus":
            p = self.integer()
            self.expect(",")
            q = self.integer()
            self.expect(")")
            return KnotSpec.torus(p, q)
        if name == "pretzel":
            return KnotSpec.pretzel(*self.listed(self.integer))
        if name == "montesinos":
            e = self.integer()
            self.expect(";")
            return KnotSpec.montesinos(e, self.listed(self.fraction))
        if name == "mirror":
            inner = self.expr()
            self.expect(")")
            return KnotSpec.mirror(inner)
        return KnotSpec.connected_sum(*self.listed(self.expr))


def parse_spec(text: str) -> KnotSpec:
    tokens = _tokenize(text)
    if not tokens:
        raise KnotSpecError("empty knot spec")
    parser = _Parser(tokens)
    spec = parser.expr()
    if parser.i != len(tokens):
        raise KnotSpecError(
            f"trailing input after spec: {''.join(tokens[parser.i:])!r}"
        )
    return spec


def presentation(spec: KnotSpec) -> Presentation:
    """The plumbing presentation of a constructor spec.  Mirrors and sums
    have no single plumbing; they live at the chain level."""
    if spec.kind == "torus":
        return torus_plumbing(*spec.params)
    if spec.kind in ("pretzel", "montesinos"):
        return seifert_plumbing(*spec.seifert_invariants())
    raise KnotSpecError(f"{spec.kind} specs do not have a plumbing presentation")


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class _Eval:
    """Chain data for a spec: a small locally equivalent representative with
    its involution, what `full` builds the full complex from (a knot's root
    and `mirrored`, or the evaluations of a mirror's one child or a sum's
    two), and diagram bookkeeping.  Plain data, so it pickles.  `direct`
    marks the small model as a monotone subroot model, whose homology is the
    connected module with no search.  A knot whose monotone subroot is its
    whole root keeps no root: its small model is the full one.  `delta` and
    `full` share the root's model complex, built once (`model`)."""

    small_cx: UComplex
    small_iota: UMap
    direct: bool
    det: int
    sigma: int | None
    root: GradedRoot | None = None
    mirrored: bool = False
    children: tuple["_Eval", ...] = ()

    def full(self) -> tuple[UComplex, UMap]:
        """The full complex with its involution, from the roots already built,
        so that a search that refuses the small model costs no full tensor."""
        if self.root is not None:
            return _root_model(self.model, self.mirrored)
        if not self.children:
            return self.small_cx, self.small_iota
        if len(self.children) == 1:
            return _dualized(*self.children[0].full())
        return _tensored(*(c.full() for c in self.children))

    def delta(self) -> Fraction:
        """delta of the full complex.  A knot's needs only its model complex,
        shifted and dualized as in `_root_model`, not the involution lift."""
        if self.root is None:
            return delta_invariant(self.full()[0])
        cx = shift_complex(self.model.cx, -2)
        return delta_invariant(dual_complex(cx) if self.mirrored else cx)

    @cached_property
    def model(self):
        return model_complex(self.root)


def _rebase(m: UMap, cx: UComplex) -> UMap:
    return UMap(cx, cx, m.degree, m.rows)


def _shifted(cx: UComplex, iota: UMap, s) -> tuple[UComplex, UMap]:
    out = shift_complex(cx, s)
    return out, _rebase(iota, out)


def _dualized(cx: UComplex, iota: UMap) -> tuple[UComplex, UMap]:
    out = dual_complex(cx)
    return out, dual_map(iota, out, out)


def _tensored(a: tuple[UComplex, UMap], b: tuple[UComplex, UMap]) -> tuple[UComplex, UMap]:
    cx = tensor_complex(a[0], b[0])
    return _shifted(cx, tensor_map(a[1], b[1], cx, cx), 2)


def _root_model(model, mirrored: bool) -> tuple[UComplex, UMap]:
    """A root's model complex with its lifted involution, shifted by -2 and
    dualized for a mirrored presentation."""
    cx, iota = _shifted(model.cx, lift_involution(model), -2)
    return _dualized(cx, iota) if mirrored else (cx, iota)


def _summed(a: _Eval, b: _Eval) -> _Eval:
    """The evaluation of the sum of two evaluated specs: the tensor of their
    small models, and of their full complexes on demand."""
    scx, siota = _tensored((a.small_cx, a.small_iota), (b.small_cx, b.small_iota))
    sigma = None if a.sigma is None or b.sigma is None else a.sigma + b.sigma
    return _Eval(scx, siota, False, a.det * b.det, sigma, children=(a, b))


def _evaluate(spec: KnotSpec, n_max) -> _Eval:
    if spec.kind == "mirror":
        ev = _evaluate(spec.children[0], n_max)
        scx, siota = _dualized(ev.small_cx, ev.small_iota)
        sigma = None if ev.sigma is None else -ev.sigma
        return _Eval(scx, siota, False, ev.det, sigma, children=(ev,))
    if spec.kind == "sum":
        parts = [_evaluate(c, n_max) for c in spec.children]
        out = parts[0]
        for nxt in parts[1:]:
            out = _summed(out, nxt)
        return out
    pres = presentation(spec)
    root = build_root(pres.tree, pres.char, involution=pres.involution, n_max=n_max)
    root.require_stable()
    sub = monotone_subroot(root)
    scx, siota = _root_model(model_complex(sub), pres.mirrored)
    sigma = None
    if spec.kind == "pretzel" and 3 <= len(spec.params) <= 5:
        sigma = goeritz_oracle(spec.params)[1]
    return _Eval(
        scx,
        siota,
        not pres.mirrored,
        determinant_magnitude(pres.tree),
        sigma,
        None if sub is root else root,
        pres.mirrored,
    )


def _connected(ev: _Eval, rank_bound: int, verify: bool) -> GradedUModule:
    """The connected module of an evaluation, from its small model: the
    homology of a direct model (cross-checked by the search with `verify`),
    else the search, which is the step that can exceed its bounds."""
    if not ev.direct:
        return connected_homology_brute(ev.small_cx, ev.small_iota, rank_bound)
    conn = homology(ev.small_cx)
    if verify:
        check = connected_homology_brute(ev.small_cx, ev.small_iota, rank_bound)
        if (check.towers, check.torsion) != (conn.towers, conn.torsion):
            raise ConsistencyError("connected homology cross-check failed")
    return conn


def _require_tower(conn: GradedUModule, delta) -> None:
    if conn.towers != (delta,):
        raise ConsistencyError(
            f"connected module towers {conn.towers} disagree with delta {delta}"
        )


def _full_invariants(ev: _Eval) -> tuple[Fraction, BranchedModule]:
    """delta and the branched module of an evaluation's full complex, with
    the check that the branched correction terms bracket delta."""
    cx, iota = ev.full()
    delta = delta_invariant(cx)
    br = branched_invariants(cx, iota)
    if not br.lower <= delta <= br.upper:
        raise ConsistencyError("branched correction terms bracket delta; got "
                               f"{br.lower}, {delta}, {br.upper}")
    return delta, br


@dataclass(frozen=True)
class InvariantPackage:
    """Everything the pipeline knows about one knot."""

    spec: KnotSpec
    delta: Fraction
    delta_upper: Fraction
    delta_lower: Fraction
    branched: GradedUModule
    connected: GradedUModule
    reduced_connected: GradedUModule
    omega: int
    det: int
    sigma: int | None

    def to_jsonable(self) -> dict:
        return {
            "schema": 1,
            "spec": unparse(self.spec),
            "delta": _rat(self.delta),
            "delta_upper": _rat(self.delta_upper),
            "delta_lower": _rat(self.delta_lower),
            "branched": _module_jsonable(self.branched),
            "connected": _module_jsonable(self.connected),
            "red_conn": _module_jsonable(self.reduced_connected)["torsion"],
            "omega": self.omega,
            "det": self.det,
            "sigma": self.sigma,
        }


def _rat(x) -> list[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _module_jsonable(m: GradedUModule) -> dict:
    return {
        "towers": [_rat(t) for t in m.towers],
        "torsion": [
            {"degree": _rat(b), "length": length} for b, length in m.torsion
        ],
    }


def invariants(
    spec: KnotSpec,
    *,
    n_max: int | None = None,
    rank_bound: int = 16,
    verify: bool = False,
) -> InvariantPackage:
    """Compute the full branched invariant package of a knot spec.

    Mirrors and sums are evaluated on small locally equivalent models, so
    the connected part of a sum stays inside `rank_bound`, which bounds the
    search's complex rank, and its dimension at `rank_bound` + 8.  With `verify`
    the fast connected computation is cross-checked against the exhaustive
    search.
    """
    ev = _evaluate(spec, n_max)
    # the search runs before the full complex is built
    conn = _connected(ev, rank_bound, verify)
    delta, br = _full_invariants(ev)
    _require_tower(conn, delta)
    return InvariantPackage(
        spec=spec,
        delta=delta,
        delta_upper=br.upper,
        delta_lower=br.lower,
        branched=br.module,
        connected=conn,
        reduced_connected=GradedUModule((), conn.torsion),
        omega=omega(conn),
        det=ev.det,
        sigma=ev.sigma,
    )
