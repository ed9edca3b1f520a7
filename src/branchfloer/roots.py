"""Graded roots of negative-definite plumbing trees, with involutions.

A graded root records, level by level, the connected components of the
sublevel sets S_n = { l : chi_k(l) <= n } of the lattice together with the
inclusion maps S_n -> S_{n+1}.  Vertices carry the weight

    w = (k^2 + |tree|)/4 - 2 n,

so the maximum weight is the correction-term invariant of the plumbed
boundary.  Two engines build roots, and `build_root` picks one by the
tree's shape:

* a box engine (`build_root_box`), for any tree: eliminate the tree from the
  leaves inward to write 2 chi_k as a sum of positive squares, list each
  finite sublevel set exactly by a short-vector (Fincke-Pohst) walk, and
  union-find the sublevel graphs level by level (`_Sweep`), naming each
  level's components left to right by their least lattice points;
* a star engine (`build_root_star`), for star-shaped trees: minimize chi in
  closed form, from each leg's continued fraction and twist (`_leg_seifert`),
  on each slice of the central coordinate's range that the same elimination
  bounds (`plumbing.coordinate_range`).  A leg's share of chi is walked on
  its first 2 alpha_1 slices only and has a constant second difference in
  steps of alpha_1 after them (`_leg_shares`).  Components are the maximal
  intervals of the central profile, so the root is its merge tree, read off
  in one pass and left to right by slice (`_merge_tree`).

Both engines give their merge tree in one format, with each component's
image under the chi-preserving lattice reflection l -> -l - Q^{-1}k, and one
assembler builds the root from it (`_assembled`): it takes the reflection
when Q^{-1}k is integral, raises ConsistencyError where the reflection does
not map the root onto itself, and gives the root it or the identity.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property

from .plumbing import (
    ConsistencyError,
    PlumbingTree,
    _Record,
    check_negative_definite,
    coordinate_range,
    is_characteristic,
    k_square,
    pd_vector,
    reflect,
    spin_char,
)


class InstabilityError(RuntimeError):
    """The requested truncation parameters do not determine the root."""


class MemoryGuardError(RuntimeError):
    """The box engine would exceed its point budget."""


# Adaptive roots stop this many levels above a connected level: for the box
# engine the first level from which its probe's sublevel sets stay connected,
# for the star engine the first connected level.
_MARGIN = 2

# Most lattice points the box engine holds in one sublevel set.
_POINT_BUDGET = 1_000_000


class GradedRoot(_Record):
    """Finite part of a graded root, levels n_min..n_max.

    Vertex v has weight offset - 2 * levels[v] (`weights`), so the root
    stores the offset once.  succ[v] is the vertex one level down the tree,
    None at top-level components.  involution is the selected
    level-preserving involution.  Each level's vertices are ordered left to
    right, as both engines' merge trees name them: by the least lattice point
    of their component in the box engine, by slice in the star engine.
    """

    _fields = ("levels", "offset", "succ", "involution", "stable", "engine")

    def __init__(
        self,
        levels: tuple[int, ...],
        offset: Fraction,
        succ: tuple[int | None, ...],
        involution: tuple[int, ...],
        stable: bool,
        engine: str = "?",
    ):
        vars(self).update(
            levels=levels, offset=offset, succ=succ, involution=involution, stable=stable,
            engine=engine,
        )
        n = len(self.levels)

        def check(ok, prop):
            # raised, not asserted, so the checks hold under python -O
            if not ok:
                raise ConsistencyError(f"graded root: {prop}")

        check(
            len(self.succ) == len(self.involution) == n,
            "levels, successors and involution differ in length",
        )
        for v in range(n):
            s = self.succ[v]
            check(
                s is None or self.levels[s] == self.levels[v] + 1,
                f"successor of vertex {v} is not one level up",
            )
        j = self.involution
        check(sorted(j) == list(range(n)), "involution is not a permutation")
        for v in range(n):
            check(j[j[v]] == v, "involution does not square to the identity")
            check(
                self.levels[j[v]] == self.levels[v],
                "involution does not preserve levels",
            )
            sv, sj = self.succ[v], self.succ[j[v]]
            check(
                (sv is None) == (sj is None) and (sv is None or j[sv] == sj),
                "involution does not commute with the successor map",
            )

    def __len__(self):
        return len(self.levels)

    @property
    def n_min(self) -> int:
        return min(self.levels)

    @property
    def n_max(self) -> int:
        return max(self.levels)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """offset - 2 * level for each vertex, one `Fraction` per level."""
        at = {n: self.offset - 2 * n for n in set(self.levels)}
        return tuple(map(at.__getitem__, self.levels))

    @cached_property
    def _children(self) -> tuple[tuple[int, ...], ...]:
        """The vertices one level up from each vertex, in increasing order."""
        kids: list[list[int]] = [[] for _ in self.levels]
        for u, s in enumerate(self.succ):
            if s is not None:
                kids[s].append(u)
        return tuple(map(tuple, kids))

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    @cached_property
    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v, kids in enumerate(self._children) if not kids)

    def require_stable(self) -> None:
        """Raise InstabilityError unless the top level is one component."""
        if not self.stable:
            comps = len(self.vertices_at(self.n_max))
            raise InstabilityError(
                f"sublevel sets still split into {comps} components "
                f"at level {self.n_max}; raise --n-max"
            )

    def d_invariant(self) -> Fraction:
        """Maximum weight over the root (the tower-top grading)."""
        return self.offset - 2 * self.n_min

    def vertices_at(self, n: int) -> list[int]:
        return [v for v in range(len(self)) if self.levels[v] == n]

    # -- isomorphism ------------------------------------------------------

    def _key(self, interned: dict) -> tuple:
        """Canonical key of the root with the unbranched tail of its stem
        trimmed, up to weight-preserving isomorphism commuting with the
        involutions.  In one pass over the vertices in increasing level, a
        vertex's shape key is (weight, sorted child keys), and an invariant
        vertex's key is (weight, sorted keys of its invariant children,
        sorted shape keys of one child from each swapped pair).  Keys are
        interned in `interned`, which the roots compared share, so a
        subtree's key is one integer."""
        j, weights = self.involution, self.weights
        shape: list = [None] * len(self)
        fixed: list = [None] * len(self)

        def split(kids):
            return (
                tuple(sorted(fixed[c] for c in kids if j[c] == c)),
                tuple(sorted(shape[c] for c in kids if j[c] > c)),
            )

        for v in sorted(range(len(self)), key=self.levels.__getitem__):
            kids = self.children(v)
            key = (weights[v], tuple(sorted(shape[c] for c in kids)))
            shape[v] = interned.setdefault(key, len(interned))
            if j[v] == v:
                fixed[v] = interned.setdefault((weights[v], *split(kids)), len(interned))
        bottoms = [v for v in range(len(self)) if self.succ[v] is None]
        while len(bottoms) == 1 and len(self.children(bottoms[0])) == 1:
            bottoms = list(self.children(bottoms[0]))
        return split(bottoms)

    def is_isomorphic(self, other: "GradedRoot") -> bool:
        """Isomorphic as graded roots with involution."""
        interned: dict = {}
        return self._key(interned) == other._key(interned)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "engine": self.engine,
            "stable": self.stable,
            "vertices": [
                {
                    "id": v,
                    "level": self.levels[v],
                    "weight": [self.weights[v].numerator, self.weights[v].denominator],
                }
                for v in range(len(self))
            ],
            "successor": {
                str(v): self.succ[v] for v in range(len(self)) if self.succ[v] is not None
            },
            "leaves": list(self.leaves),
            "involution": {str(v): self.involution[v] for v in range(len(self))},
        }
        return json.dumps(doc, sort_keys=True)

    def render_dot(self) -> str:
        """Deterministic Graphviz source; stem at the bottom, leaves on top."""
        lines = [
            "digraph graded_root {",
            '  rankdir="BT";',
            "  node [shape=circle, fontsize=10];",
        ]
        for v in range(len(self)):
            w = self.weights[v]
            label = f"{w.numerator}" if w.denominator == 1 else f"{w.numerator}/{w.denominator}"
            lines.append(f'  v{v} [label="{label}"];')
        for v in range(len(self)):
            if self.succ[v] is not None:
                lines.append(f"  v{self.succ[v]} -> v{v};")
        for v in range(len(self)):
            j = self.involution[v]
            if j > v:
                lines.append(f"  v{v} -> v{j} [style=dashed, dir=both, constraint=false];")
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared assembly


def _checked_char(tree, k):
    """The characteristic vector a build uses: k itself, or the spin vector,
    whose elimination raises DefinitenessError itself."""
    if k is None:
        return spin_char(tree)
    check_negative_definite(tree)
    if not is_characteristic(tree, k):
        raise ValueError(f"{tuple(k)} is not a characteristic vector of the tree")
    return k


def _assembled(levels, tree, k, reflected, engine, select):
    """The root of a merge tree as both engines give it: (n, [record, ...])
    for each level n, components left to right, each record ending in
    (image, up), the positions of the component the lattice reflection maps
    it onto (None if none) and of the one holding it one level up.
    `select` names the involution: "reflection", defined when `reflected`
    (Q^{-1}k integral) and then required to map the root onto itself,
    "trivial" the identity, or "auto" the reflection where defined."""
    at = list(itertools.accumulate((len(comps) for _, comps in levels), initial=0))
    vertices = [(x, n, c) for x, (n, comps) in enumerate(levels) for c in comps]
    if reflected and any(c[-2] is None for _, _, c in vertices):
        raise ConsistencyError("lattice reflection does not map the root onto itself")
    if select == "auto":
        select = "reflection" if reflected else "trivial"
    if select not in ("reflection", "trivial"):
        raise ValueError(f"unknown involution {select!r}")
    if select == "reflection" and not reflected:
        raise ValueError("no lattice reflection attached to this root")
    j = range(len(vertices)) if select == "trivial" else (at[x] + c[-2] for x, _, c in vertices)
    return GradedRoot(
        levels=tuple(n for _, n, _ in vertices),
        offset=(k_square(tree, k) + len(tree)) / 4,
        succ=tuple(at[x + 1] + c[-1] if x + 1 < len(levels) else None for x, _, c in vertices),
        involution=tuple(j),
        stable=len(levels[-1][1]) == 1,
        engine=engine,
    )


# ---------------------------------------------------------------------------
# box engine


def _eliminate(tree, k):
    """2*chi_k as the tree's leaves-inward elimination writes it (each vertex
    squared against its parent), scaled to integers.

    Returns (order, parent, rows, scale, offset) with

        scale * 2 chi_k(l)
            = offset + sum_v W_v * (A_v l_v - B_v l_{parent[v]} - C_v)^2

    for rows[v] = (A_v, B_v, C_v, W_v), all integers with A_v, W_v > 0, where
    l_None = 0 and `order` lists every vertex after its parent.  Read off the
    integer passes: v's term pivot * (l_v - (l_parent + shift) / pivot)^2 is
    (2 D_v l_v - 2 P_v l_parent - Y_v)^2 / (4 P_v D_v), and the constant is
    -k.X / (4 det).
    """
    order, parent, dets, prods = tree._elimination
    ys, _, kx = tree._solve(k)
    scale = math.lcm(*(4 * p * d for p, d in zip(prods, dets)))  # vertex 0's is 4 P det
    rows = [(2 * d, 2 * p, y, scale // (4 * p * d)) for d, p, y in zip(dets, prods, ys)]
    return order, parent, rows, scale, -kx * (scale // (4 * dets[0]))


def _sublevel_set(elim, cap):
    """{point: chi} for every lattice point with chi <= cap.

    A Fincke-Pohst walk over the coordinates in elimination order: each
    coordinate steps out from the floor of its centre in both directions
    while its term fits in what the fixed coordinates leave of the budget."""
    order, parent, rows, scale, offset = elim
    x = [0] * len(order)
    found = {}

    def walk(depth, budget):
        if depth == len(order):
            if len(found) == _POINT_BUDGET:
                raise MemoryGuardError(
                    f"sublevel set at level {cap} exceeds {_POINT_BUDGET} points"
                )
            found[tuple(x)] = cap - budget // (2 * scale)
            return
        v = order[depth]
        a, b, c, w = rows[v]
        centre = c + (0 if parent[v] is None else b * x[parent[v]])  # a * mu_v
        start = centre // a
        for y, step in ((start, -1), (start + 1, 1)):
            while (rest := budget - w * (a * y - centre) ** 2) >= 0:
                x[v] = y
                walk(depth + 1, rest)
                y += step

    walk(0, 2 * cap * scale - offset)
    return found


class _Sweep:
    """Level-by-level union-find over a finite sublevel set S_cap.

    Points are placed in order of chi, each joined to its placed lattice
    neighbours at its own level.  `levels` is the merge tree in the format
    `_assembled` reads: each level's components left to right by least
    point, as [least point, image, up], where `image` is the position at
    that level of the component holding point_map(least point), None where
    no point of S_level does or there is no `point_map`.

    A point is coded as one integer in a mixed radix, first coordinate most
    significant, so integer order is tuple order.  Each coordinate's digit
    runs over the points' range padded by one on both sides: a neighbour's
    code is the point's plus or minus one stride, and never another point's.
    """

    def __init__(self, chi_of, cap, point_map=None):
        pts = sorted(chi_of, key=chi_of.get)
        chi = [chi_of[p] for p in pts]
        cols = list(zip(*pts))
        low = [min(xs) - 1 for xs in cols]
        radix = [max(xs) - lo + 2 for xs, lo in zip(cols, low)]
        strides = [math.prod(radix[v + 1:]) for v in range(len(radix))]
        base = sum(map(operator.mul, low, strides))
        codes = [sum(map(operator.mul, p, strides)) - base for p in pts]  # `code`, unchecked

        def code(point):  # the point's code, or None outside the padded box
            if all(0 <= x - lo < r for x, lo, r in zip(point, low, radix)):
                return sum(map(operator.mul, point, strides)) - base

        steps = [d * s for s in strides for d in (-1, 1)]  # to each lattice neighbour
        index = {c: i for i, c in enumerate(codes)}
        self.link = link = list(range(len(pts)))
        size = [1] * len(pts)
        least = list(codes)  # code of the least point under each root
        heads: set[int] = set()  # union-find roots of the placed points

        self.levels = []
        prev: list[int] = []  # the last level's roots, left to right
        fresh = 0
        for lev in range(chi[0], cap + 1):
            while fresh < len(pts) and chi[fresh] == lev:
                heads.add(fresh)
                c, a = codes[fresh], fresh  # a: the root of this point's component
                for step in steps:
                    b = index.get(c + step)
                    if b is None or b > fresh:
                        continue  # not placed yet; it joins this point itself
                    b = self._find(b)
                    if a == b:
                        continue
                    if size[a] > size[b]:
                        a, b = b, a
                    link[a] = b
                    size[b] += size[a]
                    least[b] = min(least[a], least[b])
                    heads.discard(a)
                    a = b
                fresh += 1
            here = sorted(heads, key=least.__getitem__)
            at = {r: p for p, r in enumerate(here)}
            for r, below in zip(prev, self.levels[-1][1] if self.levels else ()):
                below[2] = at[self._find(r)]
            comps = []
            for r in here:
                rep = pts[index[least[r]]]
                i = None if point_map is None else index.get(code(point_map(rep)))
                comps.append([rep, None if i is None or i >= fresh else at[self._find(i)], None])
            self.levels.append((lev, comps))
            prev = here

    def _find(self, i):
        while self.link[i] != i:
            i = self.link[i]
        return i


def build_root_box(
    tree: PlumbingTree,
    k: tuple[int, ...] | None = None,
    *,
    n_max: int | None = None,
    involution: str = "auto",
) -> GradedRoot:
    """Box-engine graded root from exactly enumerated sublevel sets.

    With an explicit n_max the result may be unstable (stable=False) when the
    top level still holds several components; consumers treat that as an
    error.  In adaptive mode S_cap is enumerated at the probe levels
    cap = n_min + 8, n_min + 28, ... until the top `_MARGIN + 4` levels of the
    sweep are connected; the root stops `_MARGIN` above the first level from
    which the sublevel sets stay connected.  Cutting the probe's sweep there
    is exact, since a sweep's levels up to n depend only on S_n.  When
    Q^{-1}k is integral, the root's reflection is read off the images the
    sweep finds for `plumbing.reflect`.
    """
    k = _checked_char(tree, k)
    elim = _eliminate(tree, k)
    integral = all(x.denominator == 1 for x in pd_vector(tree, k))  # as in `build_root_star`
    point_map = (lambda p: reflect(tree, k, p)) if integral else None
    if n_max is None:
        *_, scale, offset = elim
        n_min = -(-offset // (2 * scale))  # 2 chi >= offset / scale
        while not _sublevel_set(elim, n_min):
            n_min += 1
        cap = n_min + 8
        while True:
            sweep = _Sweep(_sublevel_set(elim, cap), cap, point_map)
            # the first level from which the swept levels stay connected
            split = [n for n, comps in sweep.levels if len(comps) > 1]
            stop = split[-1] + 1 if split else sweep.levels[0][0]
            if cap - stop >= _MARGIN + 4:
                break
            cap += 20
        stop += _MARGIN
    else:
        points = _sublevel_set(elim, n_max)
        if not points:
            raise InstabilityError("stop level lies below the minimum of chi")
        sweep = _Sweep(points, n_max, point_map)
        stop = n_max
    levels = sweep.levels[: stop - sweep.levels[0][0] + 1]
    return _assembled(levels, tree, k, integral, "box", involution)


# ---------------------------------------------------------------------------
# star engine


def _star_decompose(tree: PlumbingTree):
    """(center, legs): legs are chains of vertex ids, center-adjacent first.

    Raises ValueError unless the center, a vertex of largest degree, is the
    only one of degree 3 or more (`_is_star`)."""
    center = max(range(len(tree)), key=lambda v: (tree.degree(v), -v))
    if not _is_star(tree):
        raise ValueError("tree is not star-shaped")
    legs = []
    for first in sorted(tree.neighbors(center)):
        leg = [center, first]
        while tree.degree(leg[-1]) == 2:
            leg.append(next(u for u in tree.neighbors(leg[-1]) if u != leg[-2]))
        legs.append(leg[1:])
    return center, legs


def _leg_seifert(weights, ks):
    """(alpha_t, omega_t, b_t) for the vertices v_1..v_s of a leg, centre
    first, with weights w_t and k-entries k_t.  From the tip inward, with
    alpha_{s+1} = 1 and alpha_{s+2} = 0:

        alpha_t = -w_t alpha_{t+1} - alpha_{t+2}    (det -Q on v_t..v_s)
        omega_t = alpha_{t+1}
        b_t     = sum_{r >= t} alpha_{r+1} (k_r + 2 + w_r) / 2

    alpha_1/omega_1 is the leg's Seifert invariant (the weights are its
    negative continued fraction); b_t is an integer for characteristic k and
    0 for the canonical one.  If v_{t-1} takes the value y (i at the centre),
    the least minimizer of chi on the slice has
    l_{v_t} = ceil(((y - 1) omega_t + b_t) / alpha_t).

    >>> _leg_seifert([-3, -2, -2], [1, 0, 0]), _leg_seifert([-3, -2, -2], [3, 0, 0])
    ([(7, 3, 0), (3, 2, 0), (2, 1, 0)], [(7, 3, 3), (3, 2, 0), (2, 1, 0)])
    """
    out, alpha, after, twice_b = [], 1, 0, 0  # alpha_{t+1}, alpha_{t+2}, 2 b_{t+1}
    for w, kt in zip(reversed(weights), reversed(ks)):
        twice_b += alpha * (kt + 2 + w)
        alpha, after = -w * alpha - after, alpha
        out.append((alpha, after, twice_b // 2 if twice_b % 2 == 0 else Fraction(twice_b, 2)))
    return out[::-1]


def _leg_minimizer(data, i):
    """The leg's coordinates, centre first, in the least minimizer of chi on
    slice i, from its `_leg_seifert` data.  Each is the ceiling of an affine
    function of the one before with slope omega_t / alpha_t = alpha_{t+1} /
    alpha_t, so moving i by alpha_1 moves them by (omega_1, ..., omega_s):

    >>> data = _leg_seifert([-3, -2, -2], [3, 0, 0])
    >>> [(alpha, omega) for alpha, omega, _ in data]
    [(7, 3), (3, 2), (2, 1)]
    >>> _leg_minimizer(data, 4), _leg_minimizer(data, 4 + 7), _leg_minimizer(data, 4 + 14)
    ([2, 1, 0], [5, 3, 1], [8, 5, 2])
    """
    out, y = [], i
    for alpha, omega, b in data:
        y = -(-((y - 1) * omega + b) // alpha)
        out.append(y)
    return out


def _leg_shares(weights, ks, data, slices):
    """The leg's share of 2 chi at each slice's least minimizer x,

        c(i) = -sum_t (k_t x_t + w_t x_t^2 + 2 x_{t-1} x_t)    (x_0 = i),

    over the contiguous range `slices`.  Moving i by alpha_1 moves x by
    omega (`_leg_minimizer`), and the terms of c(i + alpha_1) - c(i) in x_t,
    t >= 1, cancel, since -w_t omega_t = omega_{t-1} + omega_{t+1} (omega_0 =
    alpha_1, omega_{s+1} = 0).  So that difference is affine in i with slope
    -2 omega_1, and c(i) = 2 c(i - alpha_1) - c(i - 2 alpha_1) - 2 alpha_1
    omega_1: the first 2 alpha_1 slices are walked, the rest follow."""
    alpha, omega, _ = data[0]
    shares = []
    for i in slices[: 2 * alpha]:
        c, y = 0, i
        for w, kt, x in zip(weights, ks, _leg_minimizer(data, i)):
            c -= kt * x + w * x * x + 2 * y * x
            y = x
        shares.append(c)
    bend = 2 * alpha * omega
    for p in range(2 * alpha, len(slices)):
        shares.append(2 * shares[p - alpha] - shares[p - 2 * alpha] - bend)
    return shares


def _central_profile(tree, k, center, legs, slices):
    """m(i), the minimum of chi over the slice l_center = i, for each i in
    the contiguous range `slices`: 2 m(i) is the centre's share of 2 chi
    plus each leg's (`_leg_shares`)."""
    w = tree.weights
    twice = [-k[center] * i - w[center] * i * i for i in slices]
    for leg in legs:
        ws, ks = [w[v] for v in leg], [k[v] for v in leg]
        twice = [t + c for t, c in zip(twice, _leg_shares(ws, ks, _leg_seifert(ws, ks), slices))]
    if any(t % 2 for t in twice):
        raise ConsistencyError("odd central profile: k is not characteristic")
    return [t // 2 for t in twice]


def _merge_tree(m, lo, top, rho=None):
    """The merge tree of the profile m(lo), m(lo + 1), ... up to level `top`,
    in the format `_assembled` reads: for each level n from min m, the
    maximal intervals [a, b] of {i : m(i) <= n} left to right, as
    [a, b, image, up] with `image` the position of [rho - b, rho - a] at
    level n (None where that is not an interval, or rho is None) and `up`
    the position one level up of the interval holding [a, b] (None at
    `top`).  A profile symmetric under i -> 6 - i, connected at level 1 and
    split again at level 2:

    >>> for n, intervals in _merge_tree([2, 4, 1, 0, 1, 4, 2], 0, 4, 6):
    ...     print(n, intervals)
    0 [[3, 3, 0, 0]]
    1 [[2, 4, 0, 1]]
    2 [[0, 0, 2, 0], [2, 4, 1, 1], [6, 6, 0, 2]]
    3 [[0, 0, 2, 0], [2, 4, 1, 0], [6, 6, 0, 0]]
    4 [[0, 6, 0, None]]
    """
    # Slices enter in order of m(i), each joining the intervals beside it.
    # Slice lo + p is p here, its mirror r - p; a start keeps its end, an end its start.
    order = sorted(range(len(m)), key=m.__getitem__)
    ends, starts = {}, {}
    levels, fresh, r = [], 0, None if rho is None else rho - 2 * lo
    for n in range(min(m, default=top + 1), top + 1):
        while fresh < len(order) and m[order[fresh]] == n:
            p = order[fresh]  # joins the intervals ending at p - 1 and starting at p + 1
            a, b = starts.pop(p - 1, p), ends.pop(p + 1, p)
            ends[a], starts[b] = b, a
            fresh += 1
        here = sorted(ends)
        for below in levels[-1][1] if levels else ():
            below[3] = bisect_right(here, below[0] - lo) - 1  # the last start at or before it
        comps = []
        for a in here:
            b = ends[a]
            mirrored = r is not None and ends.get(r - b) == r - a
            comps.append([a + lo, b + lo, bisect_right(here, r - b) - 1 if mirrored else None, None])
        levels.append((n, comps))
    return levels


def build_root_star(
    tree: PlumbingTree,
    k: tuple[int, ...] | None = None,
    *,
    n_max: int | None = None,
    involution: str = "auto",
) -> GradedRoot:
    """Star-engine graded root via the central-coordinate profile m.

    Slice sublevel sets are connected and meet their neighbours along a
    minimizing path, so the components of S_n are the maximal intervals of
    {i : m(i) <= n}: the root is the merge tree of m (`_merge_tree`) on the
    centre's range on S_cap (`coordinate_range`), with m exact on every slice
    (`_leg_seifert`).  An explicit n_max is that cap.  Adaptive caps are
    ceil(min chi) + 8, + 16, + 32, ... until the first connected level plus
    `_MARGIN`, where the root stops, fits under one.  The reflection, where
    Q^{-1}k is integral, maps slice i to rho - i, rho = -(Q^{-1}k)_centre.
    """
    k = _checked_char(tree, k)
    center, legs = _star_decompose(tree)
    pd = pd_vector(tree, k)
    integral = all(x.denominator == 1 for x in pd)
    ksq, span = k_square(tree, k), 8
    while True:
        # adaptive caps start above ceil(min chi), and min chi >= k^2 / 8
        cap = math.ceil(ksq / 8) + span if n_max is None else n_max
        slices = coordinate_range(tree, k, cap, center)
        m = _central_profile(tree, k, center, legs, slices)
        levels = _merge_tree(m, slices.start, cap, -int(pd[center]) if integral else None)
        # an adaptive root stops at its first connected level plus `_MARGIN`
        stop = next((n for n, c in levels if len(c) == 1), cap) + _MARGIN if n_max is None else cap
        if levels and stop <= cap:
            break
        if n_max is not None:
            raise InstabilityError("stop level lies below the minimum of chi")
        span *= 2
    return _assembled(levels[: stop - levels[0][0] + 1], tree, k, integral, "star", involution)


def _is_star(tree: PlumbingTree) -> bool:
    """At most one vertex of degree 3 or more."""
    return sum(tree.degree(v) > 2 for v in range(len(tree))) <= 1


def build_root(
    tree: PlumbingTree,
    k: tuple[int, ...] | None = None,
    *,
    n_max: int | None = None,
    involution: str = "auto",
) -> GradedRoot:
    """The star engine for a star-shaped tree (`_is_star`), else the box engine."""
    build = build_root_star if _is_star(tree) else build_root_box
    return build(tree, k, n_max=n_max, involution=involution)
