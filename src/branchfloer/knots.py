"""Knots presented through their double branched covers.

Torus, pretzel, and Montesinos knots all have branched covers that are
Seifert fibered over the sphere, so every constructor spec reads off its
Seifert invariants and one builder, `seifert_plumbing`, produces the
star-shaped negative-definite plumbing together with the right spin
characteristic vector and a recipe for the covering involution.  A knot has
its invariants read off the graded root, a mirror (or a mirrored
presentation) takes the dual of its knot's package, and connected sums
tensor the chain data of their roots' models (`complexes`, imported only
when a sum or `verify` needs it), so the full input language is

    torus(p,q) | pretzel(a1,...,ak) | montesinos(e; a1/b1, ...)
               | mirror(S) | sum(S, S, ...)

parsed by `parse_spec` and evaluated by `invariants`.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, reduce
from math import floor, gcd, prod
import re

from .connected import BranchedModule, GradedUModule, _dual, _root_branched, _subroot_homology
from .connected import monotone_subroot, omega
from .plumbing import ConsistencyError, PlumbingTree, determinant_magnitude, spin_char, star
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

    `involution` names how the covering involution acts on the graded root:
    "trivial" (the identity) for a torus knot, "auto" (the lattice
    reflection) for a pretzel or Montesinos knot.  When the definite side
    belongs to the mirror, `mirrored` is set and consumers must dualize
    whatever they compute.
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
    contribute theirs, and on 4 strands the even strand, with its sign, too.
    Supports 3 to 5 strands; the spec is checked, so its strands are nonzero
    and at most one is even.
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
    mu = (sum(strands) if k == 4 else sum(odd)) if len(odd) < k else 0
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
        if self.kind in ("mirror", "sum") and self.params:
            raise KnotSpecError(f"{self.kind} takes child specs, not parameters, got {self.params}")
        if self.kind in ("torus", "pretzel", "montesinos") and self.children:
            raise KnotSpecError(f"{self.kind} takes parameters, not child specs")
        if not all(isinstance(c, KnotSpec) for c in self.children):
            raise KnotSpecError(f"{self.kind} children must be knot specs, got {self.children}")
        integers = self.params if self.kind in ("torus", "pretzel") else self.params[:1]
        if any(type(x) is not int for x in integers):
            raise KnotSpecError(f"{self.kind} parameters must be integers, got {self.params}")
        if self.kind == "torus":
            if len(self.params) != 2:
                raise KnotSpecError(f"torus takes two parameters, got {self.params}")
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
            if any(type(f) is not Fraction for f in fractions):
                raise KnotSpecError(f"montesinos fractions must be Fractions, got {fractions}")
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
    Mirrors and sums have no single plumbing; they are evaluated from their
    children."""
    if spec.kind not in ("torus", "pretzel", "montesinos"):
        raise KnotSpecError(f"{spec.kind} specs do not have a plumbing presentation")
    pres = seifert_plumbing(*spec.seifert_invariants())
    return replace(pres, involution="trivial") if spec.kind == "torus" else pres


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class _Eval:
    """One node of a spec's evaluation tree: a knot over its stable `root`, a
    mirror over its one child or a sum over its two.  `det`, `sigma` and
    `delta` are set where the node is built; the rest is computed on
    demand, once, by one rule per kind:

    - `connected`: a knot's is the homology of its monotone subroot, a
      mirror's the dual of its child's, a sum's the homology of its `small`;
    - `branched`: a knot's is read off its root, a mirror's the dual of its
      child's (the corrections negated and swapped, the module shifted by
      -1), a sum's the `cone`;
    - `model`, a locally equivalent model with its involution: a knot's is
      its monotone subroot's model (the `full` one when that subroot is the
      whole root), a mirror's the dual of its child's, a sum's the tensor of
      its children's `small`s; `small` is a sum's `model` reduced, refused
      over `rank_bound`, a mirror's the dual of its child's and a knot's
      its `model`; `full`, the full complex, likewise from the root.

    `connected` must have the one tower `delta` and `branched` must bracket
    it.  The chain reference on a node is the `search` on its `model`, the
    walk that `rank_bound` + 8 bounds, and the `cone` of its `full`, whose
    delta must be the node's; `verify` checks both modules against it.
    Computed values stay on the node, so a sum node shares its children's."""

    det: int
    sigma: int | None
    delta: Fraction
    rank_bound: int
    root: GradedRoot | None = None
    children: tuple["_Eval", ...] = ()

    @cached_property
    def connected(self) -> GradedUModule:
        if self.root is not None:
            conn = _subroot_homology(monotone_subroot(self.root))
        elif len(self.children) == 1:
            conn = _dual(self.children[0].connected, 0)
        else:
            from . import complexes
            conn = complexes.homology(self.small[0])
        if conn.towers != (self.delta,):
            raise ConsistencyError(f"connected module towers {conn.towers} "
                                   f"disagree with delta {self.delta}")
        return conn

    @cached_property
    def branched(self) -> BranchedModule:
        if self.root is not None:
            br = _root_branched(self.root)
        elif len(self.children) == 1:
            child = self.children[0].branched
            br = BranchedModule(-child.lower, -child.upper, _dual(child.module, -1))
        else:
            br = self.cone
        if not br.lower <= self.delta <= br.upper:
            raise ConsistencyError("branched correction terms bracket delta; got "
                                   f"{br.lower}, {self.delta}, {br.upper}")
        return br

    @cached_property
    def small(self) -> tuple:
        from . import complexes
        if len(self.children) == 1:
            return complexes._combined([self.children[0].small])
        if self.children:
            return complexes.reduced_model(*self.model, self.rank_bound)
        return self.model

    @cached_property
    def model(self) -> tuple:
        from . import complexes
        if len(self.children) == 1:
            return complexes._combined([self.children[0].model])
        if self.children:
            return complexes._combined([c.small for c in self.children])
        sub = monotone_subroot(self.root)
        return self.full if sub is self.root else complexes._root_model(sub)

    @cached_property
    def full(self) -> tuple:
        from . import complexes
        if self.root is None:
            return complexes._combined([c.full for c in self.children])
        return complexes._root_model(self.root)

    @cached_property
    def search(self) -> GradedUModule:
        from . import complexes
        return complexes.connected_homology_brute(*self.model, self.rank_bound)

    @cached_property
    def cone(self) -> BranchedModule:
        from . import complexes
        cx, iota = self.full
        if (delta := complexes.delta_invariant(cx)) != self.delta:
            raise ConsistencyError(f"delta of the full complex {delta} differs from {self.delta}")
        return complexes.branched_invariants(cx, iota)

    def verify(self) -> None:
        """Raise unless both modules equal the chain reference on this node,
        the search first, so a sum over its bound builds no full complex.  A
        sum's `branched` is its `cone`, so for a sum only the connected
        module has a second path."""
        pairs = (("connected", self.connected, self.search), ("branched", self.branched, self.cone))
        if differ := [name for name, value, reference in pairs if value != reference]:
            raise ConsistencyError(f"the default and chain paths disagree on {', '.join(differ)}")


def _mirrored(ev: _Eval) -> _Eval:
    sigma = None if ev.sigma is None else -ev.sigma
    return _Eval(ev.det, sigma, -ev.delta, ev.rank_bound, children=(ev,))


def _summed(a: _Eval, b: _Eval) -> _Eval:
    sigma = None if a.sigma is None or b.sigma is None else a.sigma + b.sigma
    bound = min(a.rank_bound, b.rank_bound)
    return _Eval(a.det * b.det, sigma, a.delta + b.delta + 2, bound, children=(a, b))


def _evaluate(spec: KnotSpec, n_max, rank_bound: int = 16) -> _Eval:
    """The evaluation tree of a spec.  A constructor spec is a knot node over
    its stable root, under a mirror node when its presentation is the
    mirror's; its `sigma` is the Goeritz signature where that applies."""
    if spec.kind == "mirror":
        return _mirrored(_evaluate(spec.children[0], n_max, rank_bound))
    if spec.kind == "sum":
        return reduce(_summed, [_evaluate(c, n_max, rank_bound) for c in spec.children])
    pres = presentation(spec)
    root = build_root(pres.tree, pres.char, involution=pres.involution, n_max=n_max)
    root.require_stable()
    sigma = None
    if spec.kind == "pretzel" and 3 <= len(spec.params) <= 5:
        sigma = goeritz_oracle(spec)[1] * (-1 if pres.mirrored else 1)
    ev = _Eval(determinant_magnitude(pres.tree), sigma, root.d_invariant() - 2, rank_bound, root)
    return _mirrored(ev) if pres.mirrored else ev


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


def invariants(
    spec: KnotSpec,
    *,
    n_max: int | None = None,
    rank_bound: int = 16,
    verify: bool = False,
) -> InvariantPackage:
    """Compute the full branched invariant package of a knot spec.

    The spec's evaluation tree (`_Eval`) gives the connected module, then
    the branched one.  A torus, pretzel or Montesinos spec reads both off
    its graded root, with no chain complex, and a mirror (or a presentation
    whose plumbing is the mirror's) takes the duals of its knot's.  A sum
    reduces the tensor of its summands' small models, which `rank_bound`
    bounds, and reads its connected part off the homology of what is left;
    a tensor over the bound is refused before any full complex is built.
    With `verify` both modules must equal the chain reference on the same
    node, the walk on its unreduced model, whose dimension `rank_bound` + 8
    bounds, and the cone of its full complex.
    """
    ev = _evaluate(spec, n_max, rank_bound)
    conn, br = ev.connected, ev.branched
    if verify:
        ev.verify()
    return InvariantPackage(spec, ev.delta, br.upper, br.lower, br.module, conn, ev.det, ev.sigma)
