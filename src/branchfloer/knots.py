"""Knots presented through their double branched covers.

Torus, pretzel, and Montesinos knots all have branched covers that are
Seifert fibered over the sphere, so every constructor spec reads off its
Seifert invariants and one builder, `seifert_plumbing`, produces the
star-shaped negative-definite plumbing together with the right spin
characteristic vector and a recipe for the covering involution.  A knot
presented directly has its invariants read off the graded root; mirrors
dualize the chain data of their root's model and connected sums tensor it,
so the full input language is

    torus(p,q) | pretzel(a1,...,ak) | montesinos(e; a1/b1, ...)
               | mirror(S) | sum(S, S, ...)

parsed by `parse_spec` and evaluated by `invariants`.
"""

from dataclasses import dataclass, replace
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
from .connected import _root_invariants, monotone_subroot, omega
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

    `involution` names the symmetry the graded root should carry: "trivial"
    for a torus knot, "auto" (the lattice reflection) for a pretzel or
    Montesinos knot.  The tree declares no automorphism.  When the definite
    side belongs to the mirror, `mirrored` is set and consumers must
    dualize whatever they compute.
    """

    tree: PlumbingTree
    char: tuple[int, ...]
    involution: str
    mirrored: bool


def _seifert_det(e: int, fractions) -> int:
    """|H_1| of the cover of montesinos(e; a1/b1, ...), |e + sum b_i/a_i| *
    prod |a_i|, in integers; pretzel(a1, ...) is montesinos(0; a1/1, ...)."""
    top = prod(f.numerator for f in fractions)
    return abs(e * top + sum(f.denominator * (top // f.numerator) for f in fractions))


def seifert_plumbing(e: int, fractions) -> Presentation:
    """Seifert plumbing for the double cover of montesinos(e; a1/b1, ...),
    the invariants those of a checked `KnotSpec` (`seifert_invariants`):
    one fiber of slope -b_i/a_i each, orbifold euler number
    -e - sum(b_i/a_i), a star whose centre absorbs the slopes' integer
    parts.  Falls back to the mirror when the given orientation bounds the
    positive-definite side.  The tree's determinant is checked against
    `_seifert_det`."""
    slopes = [-1 / f for f in fractions]
    mirrored = -e + sum(slopes) > 0
    if mirrored:
        slopes = [-s for s in slopes]
    centre, legs = e if mirrored else -e, []
    for s in slopes:
        f = s - floor(s)
        centre += floor(s)
        if f:
            legs.append(negative_continued_fraction(f.denominator, f.numerator))
    tree = star(centre, legs)
    det = _seifert_det(e, fractions)
    if determinant_magnitude(tree) != det:
        raise ConsistencyError(
            f"plumbing determinant {determinant_magnitude(tree)} is not the "
            f"Seifert invariants' {det}"
        )
    return Presentation(tree, spin_char(tree), "auto", mirrored)


# ---------------------------------------------------------------------------
# diagram-side oracle


def goeritz_oracle(spec: "KnotSpec") -> tuple[int, int]:
    """Determinant and signature of a pretzel knot spec from its
    checkerboard form, independent of any plumbing.

    The Goeritz matrix of the standard diagram is tridiagonal with nonzero
    off-diagonal entries, so its leading minors obey the continuant
    recurrence and form a Sturm sequence: the determinant is the last one,
    and the negative eigenvalues are counted by the sign changes along the
    sequence, zeros skipped.  The signature needs a correction term counting
    crossings whose smoothing disagrees with the coloring.  With all strands
    odd no correction is needed; with exactly one even strand the odd strands
    contribute theirs.  Supports 3 to 5 strands; the spec is checked, so
    its strands are nonzero and at most one is even.
    """
    strands = spec.params
    k = len(strands)
    if spec.kind != "pretzel" or not 3 <= k <= 5:
        raise KnotSpecError("goeritz oracle supports pretzels with 3 to 5 strands")
    # diagonal a_i + a_{i+1}, off-diagonal -a_{i+1}
    minors = [1, strands[0] + strands[1]]
    for i in range(1, k - 1):
        d = strands[i] + strands[i + 1]
        minors.append(d * minors[-1] - strands[i] ** 2 * minors[-2])
    signs = [m > 0 for m in minors if m != 0]
    negative = sum(a != b for a, b in zip(signs, signs[1:]))
    sig = (k - 1) - 2 * negative
    odd = [a for a in strands if a % 2]
    mu = sum(odd) if len(odd) < k else 0
    return abs(minors[-1]), sig - mu


# ---------------------------------------------------------------------------
# the knot description language


@dataclass(frozen=True)
class KnotSpec:
    """A parsed knot description: a constructor with parameters, or a
    mirror/sum node over child specs.

    Every spec is checked once, when it is made, so that the plumbing
    builder (`seifert_plumbing` of `seifert_invariants`) can trust its
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
        """(e, fractions) of a constructor spec in montesinos form:
        pretzel(a1, ...) is montesinos(0; a1/1, ...).

        The cover of torus(p, q) is the link of x^2 + y^p + z^q.  For odd
        p*q its fibers are (2, p, q) with orbifold euler number -1/N,
        N = 2pq; otherwise, the even parameter 2m and the odd one r, they
        are (r, r, m) with N = rm, the m-fiber left out when m = 1.  The
        fiber of order a has the slope b/a with b = -c^-1 mod a, c = 2N/a
        on the repeated r-fiber and N/a on the others, which makes
        e = 1/N + sum(b_i/a_i) an integer; it is returned with the fractions
        -a_i/b_i, both negated for the mirror (p*q < 0)."""
        if self.kind == "torus":
            p, q = sorted(map(abs, self.params))
            if p * q % 2:
                n, fibers = 2 * p * q, [(2, p * q), (p, 2 * q), (q, 2 * p)]
            else:
                r, m = (q, p // 2) if p % 2 == 0 else (p, q // 2)
                n, fibers = r * m, [(r, 2 * m), (r, 2 * m), (m, r)][: 2 + (m > 1)]
            slopes = [(a, -pow(c, -1, a) % a) for a, c in fibers]
            sign = -1 if self.params[0] * self.params[1] < 0 else 1
            e = (1 + sum(b * n // a for a, b in slopes)) // n
            return sign * e, tuple(Fraction(-sign * a, b) for a, b in slopes)
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
        """`fractions` as (numerator, denominator) pairs of integers."""
        fractions = tuple(fractions)
        if not all(
            isinstance(pair, (tuple, list)) and len(pair) == 2 and all(type(x) is int for x in pair)
            for pair in fractions
        ):
            raise KnotSpecError(f"montesinos fractions must be integer pairs, got {fractions}")
        try:
            fr = tuple(Fraction(a, b) for a, b in fractions)
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
    """The plumbing presentation of a constructor spec, `seifert_plumbing`
    of its `seifert_invariants`.  The covering involution of a torus knot's
    cover is isotopic to the identity, so it acts trivially on the root.
    Mirrors and sums have no single plumbing; they live at the chain
    level."""
    if spec.kind not in ("torus", "pretzel", "montesinos"):
        raise KnotSpecError(f"{spec.kind} specs do not have a plumbing presentation")
    pres = seifert_plumbing(*spec.seifert_invariants())
    return replace(pres, involution="trivial") if spec.kind == "torus" else pres


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class _Eval:
    """Chain data for a spec: a small locally equivalent representative with
    its involution, delta of the full complex, what `full` builds the full
    complex from (a knot's root, or the evaluations of a mirror's one child
    or a sum's two), and diagram bookkeeping.  Plain data, so it pickles.
    `direct` marks the small model as a monotone subroot model or its dual,
    whose homology is the connected module with no search.  A knot whose
    monotone subroot is its whole root keeps no root: its small model is the
    full one.  `full` builds the root's model complex once (`model`)."""

    small_cx: UComplex
    small_iota: UMap
    direct: bool
    det: int
    sigma: int | None
    delta: Fraction
    root: GradedRoot | None = None
    children: tuple["_Eval", ...] = ()

    def full(self) -> tuple[UComplex, UMap]:
        """The full complex with its involution, from the roots already built,
        so that a search that refuses the small model costs no full tensor."""
        if self.root is not None:
            return _root_model(self.model)
        if not self.children:
            return self.small_cx, self.small_iota
        if len(self.children) == 1:
            return _dualized(*self.children[0].full())
        return _tensored(*(c.full() for c in self.children))

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


def _root_model(model) -> tuple[UComplex, UMap]:
    """A root's model complex with its lifted involution, shifted by -2."""
    return _shifted(model.cx, lift_involution(model), -2)


def _mirrored(ev: _Eval) -> _Eval:
    """The evaluation of the mirror of an evaluated spec: the dual of its
    small model, and of its full complex on demand.  The dual of a direct
    model is direct."""
    scx, siota = _dualized(ev.small_cx, ev.small_iota)
    sigma = None if ev.sigma is None else -ev.sigma
    return _Eval(scx, siota, ev.direct, ev.det, sigma, -ev.delta, children=(ev,))


def _summed(a: _Eval, b: _Eval) -> _Eval:
    """The evaluation of the sum of two evaluated specs: the tensor of their
    small models, and of their full complexes on demand."""
    scx, siota = _tensored((a.small_cx, a.small_iota), (b.small_cx, b.small_iota))
    sigma = None if a.sigma is None or b.sigma is None else a.sigma + b.sigma
    return _Eval(scx, siota, False, a.det * b.det, sigma, a.delta + b.delta + 2, children=(a, b))


def _evaluate(spec: KnotSpec, n_max) -> _Eval:
    if spec.kind == "mirror":
        return _mirrored(_evaluate(spec.children[0], n_max))
    if spec.kind == "sum":
        parts = [_evaluate(c, n_max) for c in spec.children]
        out = parts[0]
        for nxt in parts[1:]:
            out = _summed(out, nxt)
        return out
    return _knot_eval(*_knot(spec, n_max))


def _knot(spec: KnotSpec, n_max) -> tuple[Presentation, GradedRoot, int | None]:
    """A constructor spec's presentation, its stable root and the signature
    of the knot the tree presents (the mirror's if mirrored)."""
    pres = presentation(spec)
    root = build_root(pres.tree, pres.char, involution=pres.involution, n_max=n_max)
    root.require_stable()
    sigma = None
    if spec.kind == "pretzel" and 3 <= len(spec.params) <= 5:
        sigma = goeritz_oracle(spec)[1] * (-1 if pres.mirrored else 1)
    return pres, root, sigma


def _knot_eval(pres: Presentation, root: GradedRoot, sigma) -> _Eval:
    """The chain evaluation of a knot from its `_knot` data: the model of its
    monotone subroot, dualized when the presentation is mirrored."""
    sub = monotone_subroot(root)
    ev = _Eval(
        *_root_model(model_complex(sub)),
        True,
        determinant_magnitude(pres.tree),
        sigma,
        root.d_invariant() - 2,
        None if sub is root else root,
    )
    return _mirrored(ev) if pres.mirrored else ev


def _check_tower(conn: GradedUModule, delta) -> None:
    if conn.towers != (delta,):
        raise ConsistencyError(f"connected module towers {conn.towers} disagree with delta {delta}")


def _check_bracket(br: BranchedModule, delta) -> None:
    if not br.lower <= delta <= br.upper:
        raise ConsistencyError("branched correction terms bracket delta; got "
                               f"{br.lower}, {delta}, {br.upper}")


def _connected(ev: _Eval, rank_bound: int, verify: bool) -> GradedUModule:
    """The connected module of an evaluation, from its small model: the
    homology of a direct model (cross-checked by the search with `verify`),
    else the search, which is the step that can exceed its bounds.  Its one
    tower is checked against the evaluation's delta."""
    if not ev.direct:
        conn = connected_homology_brute(ev.small_cx, ev.small_iota, rank_bound)
    else:
        conn = homology(ev.small_cx)
        if verify and connected_homology_brute(ev.small_cx, ev.small_iota, rank_bound) != conn:
            raise ConsistencyError("connected homology cross-check failed")
    _check_tower(conn, ev.delta)
    return conn


def _full_invariants(ev: _Eval) -> BranchedModule:
    """The branched module of an evaluation's full complex, with the checks
    that the full complex has the evaluation's delta and that the branched
    correction terms bracket it."""
    cx, iota = ev.full()
    if (delta := delta_invariant(cx)) != ev.delta:
        raise ConsistencyError(f"delta of the full complex {delta} differs from {ev.delta}")
    br = branched_invariants(cx, iota)
    _check_bracket(br, ev.delta)
    return br


@dataclass(frozen=True)
class InvariantPackage:
    """Everything the pipeline knows about one knot."""

    spec: KnotSpec
    delta: Fraction
    delta_upper: Fraction
    delta_lower: Fraction
    branched: GradedUModule
    connected: GradedUModule
    det: int
    sigma: int | None

    @property
    def reduced_connected(self) -> GradedUModule:
        return GradedUModule((), self.connected.torsion)

    @property
    def omega(self) -> int:
        return omega(self.connected)

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


def _read_off(spec: KnotSpec, pres: Presentation, root: GradedRoot, sigma) -> InvariantPackage:
    """The package of a directly presented knot read off its root
    (`connected._root_invariants`), with the checks that are cheap there."""
    delta = root.d_invariant() - 2
    br, conn = _root_invariants(root)
    _check_tower(conn, delta)
    _check_bracket(br, delta)
    det = determinant_magnitude(pres.tree)
    return InvariantPackage(spec, delta, br.upper, br.lower, br.module, conn, det, sigma)


def invariants(
    spec: KnotSpec,
    *,
    n_max: int | None = None,
    rank_bound: int = 16,
    verify: bool = False,
) -> InvariantPackage:
    """Compute the full branched invariant package of a knot spec.

    A directly presented knot (a torus, pretzel or Montesinos spec whose
    plumbing is not the mirror's) has everything but `det` and `sigma` read
    off its graded root, with no chain complex.  Mirrors and sums are
    evaluated on small locally equivalent models, so the connected part of a
    sum stays inside `rank_bound`, which bounds the search's complex rank,
    and its dimension at `rank_bound` + 8.  With `verify` the fast connected
    computation is cross-checked against the exhaustive search, and a
    directly presented knot is computed on that chain path too, which must
    agree with the read-off.
    """
    read_off = None
    if spec.kind in ("mirror", "sum"):
        ev = _evaluate(spec, n_max)
    else:
        pres, root, sigma = _knot(spec, n_max)
        if not pres.mirrored:
            read_off = _read_off(spec, pres, root, sigma)
            if not verify:
                return read_off
        ev = _knot_eval(pres, root, sigma)
    # the search runs before the full complex is built
    conn = _connected(ev, rank_bound, verify)
    br = _full_invariants(ev)
    package = InvariantPackage(
        spec=spec,
        delta=ev.delta,
        delta_upper=br.upper,
        delta_lower=br.lower,
        branched=br.module,
        connected=conn,
        det=ev.det,
        sigma=ev.sigma,
    )
    if read_off is not None and read_off != package:
        fields = ("delta", "delta_upper", "delta_lower", "branched", "connected")
        differ = ", ".join(f for f in fields if getattr(read_off, f) != getattr(package, f))
        raise ConsistencyError(f"the root read-off and the chain path disagree on {differ}")
    return package
