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
  union-find the sublevel graphs level by level (`_Sweep`);
* a star engine (`build_root_star`), for star-shaped trees: minimize chi in
  closed form, from each leg's continued fraction and twist (`_leg_seifert`),
  on each slice of the central coordinate's range that the same elimination
  bounds (`plumbing.coordinate_range`).  A leg's share of chi is walked on
  its first 2 alpha_1 slices only and has a constant second difference in
  steps of alpha_1 after them (`_leg_shares`).  Components are the maximal
  intervals of the central profile, so the root is its merge tree, read off
  in one pass (`_merge_tree`).

Both compute the chi-preserving lattice reflection l -> -l - Q^{-1}k when
Q^{-1}k is integral, and the root carries it or the identity, as selected.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .complexes import ConsistencyError
from .plumbing import (
    PlumbingTree,
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


@dataclass(frozen=True)
class GradedRoot:
    """Finite part of a graded root, levels n_min..n_max.

    Vertex v has weight offset - 2 * levels[v] (`weights`), so the root
    stores the offset once.  succ[v] is the vertex one level down the tree,
    None at top-level components.  involution is the selected
    level-preserving involution.  Each level's vertices are ordered left to
    right: by the least lattice point of their component in the box engine,
    by slice in the star engine.
    """

    levels: tuple[int, ...]
    offset: Fraction
    succ: tuple[int | None, ...]
    involution: tuple[int, ...]
    stable: bool
    engine: str = "?"

    def __post_init__(self):
        n = len(self.levels)

        def check(ok, prop):
            # raised, not asserted: cache entries are read back through here
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

    @classmethod
    def from_json(cls, text: str) -> "GradedRoot":
        """The root of `to_json` text, which may come from outside the
        package (a cache entry): weights that are not offset - 2 * level,
        a `stable` that is not the JSON boolean "one top vertex" or an
        `engine` that is not a string raise ConsistencyError, as
        `__post_init__`'s checks do, and a missing field raises KeyError."""
        doc = json.loads(text)
        stable, engine = doc["stable"], doc["engine"]
        if type(stable) is not bool or type(engine) is not str:
            raise ConsistencyError("graded root: stable must be a boolean and engine a string")
        vs = sorted(doc["vertices"], key=lambda v: v["id"])
        ids = {v["id"]: i for i, v in enumerate(vs)}
        levels = tuple(int(v["level"]) for v in vs)
        offsets = {Fraction(v["weight"][0], v["weight"][1]) + 2 * n for v, n in zip(vs, levels)}
        if len(offsets) > 1:
            raise ConsistencyError("graded root: weights are not an affine function of level")
        succ: list[int | None] = [None] * len(vs)
        for a, b in doc["successor"].items():
            succ[ids[int(a)]] = ids[b]
        inv = [0] * len(vs)
        for a, b in doc["involution"].items():
            inv[ids[int(a)]] = ids[b]
        root = cls(
            levels,
            offsets.pop() if offsets else Fraction(0),
            tuple(succ),
            tuple(inv),
            stable,
            engine=engine,
        )
        if stable != (len(root.vertices_at(root.n_max)) == 1):
            raise ConsistencyError("graded root: stable disagrees with its top level")
        return root

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


def _finished(fields, engine, reflection, select):
    """The root of assembled `fields` with the involution `select` names,
    validated once: "reflection" is the lattice reflection (None where it is
    undefined), "trivial" the identity, and "auto" the reflection when it is
    defined, else the identity."""
    named = {"reflection": reflection, "trivial": tuple(range(len(fields["levels"])))}
    if select == "auto":
        select = "trivial" if reflection is None else "reflection"
    if select not in named:
        raise ValueError(f"unknown involution {select!r}")
    if named[select] is None:
        raise ValueError("no lattice reflection attached to this root")
    return GradedRoot(**fields, involution=named[select], engine=engine)


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
    """Per-level union-find over a finite sublevel set S_cap.

    Points are placed in order of chi, each joined to its placed lattice
    neighbours at its own level.  Links are never compressed and keep the
    level at which they were made, so the component of any point at any
    swept level stays readable after the sweep."""

    def __init__(self, chi_of, cap):
        pts = sorted(chi_of, key=chi_of.get)
        self.chi = [chi_of[p] for p in pts]
        self.index = {p: i for i, p in enumerate(pts)}
        self.link = list(range(len(pts)))
        self.joined = [None] * len(pts)
        size = [1] * len(pts)
        least = list(pts)  # lexicographically least point under each root
        heads: set[int] = set()  # union-find roots of the placed points

        counter = itertools.count()
        self.level_comps = []
        self.parent_of = {}
        self.reps = {}
        self._comp: dict[int, dict[int, int]] = {}
        prev: dict[int, int] = {}
        fresh = 0
        for lev in range(self.chi[0], cap + 1):
            while fresh < len(pts) and self.chi[fresh] == lev:
                heads.add(fresh)
                p = pts[fresh]
                for v in range(len(p)):
                    for y in (p[v] - 1, p[v] + 1):
                        j = self.index.get(p[:v] + (y,) + p[v + 1:])
                        if j is None or j > fresh:
                            continue  # not placed yet; it joins this point itself
                        a, b = self._find(fresh, lev), self._find(j, lev)
                        if a == b:
                            continue
                        if size[a] > size[b]:
                            a, b = b, a
                        self.link[a] = b
                        self.joined[a] = lev
                        size[b] += size[a]
                        least[b] = min(least[a], least[b])
                        heads.discard(a)
                fresh += 1
            here = {r: next(counter) for r in sorted(heads)}
            for r, cid in here.items():
                self.reps[cid] = least[r]
            self.level_comps.append((lev, list(here.values())))
            for r, cid in prev.items():
                self.parent_of[cid] = here[self._find(r, lev)]
            self._comp[lev] = here
            prev = here

    def _find(self, i, level):
        while self.link[i] != i and self.joined[i] <= level:
            i = self.link[i]
        return i

    def component_at(self, point, level):
        """Component id of a lattice point at a level, or None."""
        i = self.index.get(tuple(point))
        if i is None or self.chi[i] > level:
            return None
        return self._comp[level][self._find(i, level)]


def _perm_from_map(reps, levels, comp_index, bp, point_map):
    """Vertex permutation induced by a chi-preserving lattice map, read off
    one point `reps[v]` of each vertex's component, or None."""
    perm = []
    for rep, level in zip(reps, levels):
        try:
            image = point_map(rep)
        except ValueError:
            return None
        cid = bp.component_at(image, level)
        if cid is None or cid not in comp_index:
            return None
        perm.append(comp_index[cid])
    return tuple(perm)


def _connectivity_level(level_comps):
    counts = {n: len(comps) for n, comps in level_comps}
    top = max(counts)
    return next(
        (n for n in sorted(counts) if all(counts[x] == 1 for x in range(n, top + 1))),
        None,
    )


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
    is exact, since a sweep's levels up to n depend only on S_n.
    """
    k = _checked_char(tree, k)
    elim = _eliminate(tree, k)
    if n_max is None:
        *_, scale, offset = elim
        n_min = -(-offset // (2 * scale))  # 2 chi >= offset / scale
        while not _sublevel_set(elim, n_min):
            n_min += 1
        cap = n_min + 8
        while True:
            sweep = _Sweep(_sublevel_set(elim, cap), cap)
            stop = _connectivity_level(sweep.level_comps)
            if stop is not None and cap - stop >= _MARGIN + 4:
                break
            cap += 20
        stop += _MARGIN
    else:
        points = _sublevel_set(elim, n_max)
        if not points:
            raise InstabilityError("stop level lies below the minimum of chi")
        sweep = _Sweep(points, n_max)
        stop = n_max
    # each level's components in the order of their least points
    level_comps = [(n, sorted(c, key=sweep.reps.get)) for n, c in sweep.level_comps if n <= stop]
    order = [c for _, comps in level_comps for c in comps]
    comp_index = {c: i for i, c in enumerate(order)}
    fields = dict(
        levels=tuple(n for n, comps in level_comps for _ in comps),
        offset=(k_square(tree, k) + len(tree)) / 4,
        # a top component's parent, if the sweep has one, lies above `stop`
        succ=tuple(comp_index.get(sweep.parent_of.get(c)) for c in order),
        stable=len(level_comps[-1][1]) == 1,
    )
    reps, levels = [sweep.reps[c] for c in order], fields["levels"]
    refl = _perm_from_map(reps, levels, comp_index, sweep, lambda p: reflect(tree, k, p))
    return _finished(fields, "box", refl, involution)


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


def _merge_tree(m, lo, top):
    """The merge tree of the profile m(lo), m(lo + 1), ... up to level `top`:
    for each level n from min m, the maximal intervals [a, b] of
    {i : m(i) <= n} left to right, as [a, b, up] with `up` the position one
    level up of the interval holding [a, b] (None at `top`).  A profile
    symmetric under i -> 6 - i, connected at level 1 and split again at
    level 2:

    >>> for n, intervals in _merge_tree([2, 4, 1, 0, 1, 4, 2], 0, 4):
    ...     print(n, intervals)
    0 [[3, 3, 0]]
    1 [[2, 4, 1]]
    2 [[0, 0, 0], [2, 4, 1], [6, 6, 2]]
    3 [[0, 0, 0], [2, 4, 0], [6, 6, 0]]
    4 [[0, 6, None]]
    """
    # Slices enter in order of m(i), each joining the intervals beside it.
    # Slice lo + p is p here; an interval's start keeps its end, its end its start.
    order = sorted(range(len(m)), key=m.__getitem__)
    ends, starts = {}, {}
    levels, fresh = [], 0
    for n in range(min(m, default=top + 1), top + 1):
        while fresh < len(order) and m[order[fresh]] == n:
            p = order[fresh]  # joins the intervals ending at p - 1 and starting at p + 1
            a, b = starts.pop(p - 1, p), ends.pop(p + 1, p)
            ends[a], starts[b] = b, a
            fresh += 1
        here = sorted(ends)
        for below in levels[-1][1] if levels else ():
            below[2] = bisect_right(here, below[0] - lo) - 1  # the last start at or before it
        levels.append((n, [[a + lo, ends[a] + lo, None] for a in here]))
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
    `_MARGIN`, where the root stops, fits under one.
    """
    k = _checked_char(tree, k)
    center, legs = _star_decompose(tree)
    ksq, span = k_square(tree, k), 8
    while True:
        # adaptive caps start above ceil(min chi), and min chi >= k^2 / 8
        cap = math.ceil(ksq / 8) + span if n_max is None else n_max
        slices = coordinate_range(tree, k, cap, center)
        m = _central_profile(tree, k, center, legs, slices)
        levels = _merge_tree(m, slices.start, cap)
        # an adaptive root stops at its first connected level plus `_MARGIN`
        stop = next((n for n, c in levels if len(c) == 1), cap) + _MARGIN if n_max is None else cap
        if levels and stop <= cap:
            break
        if n_max is not None:
            raise InstabilityError("stop level lies below the minimum of chi")
        span *= 2
    levels = levels[: stop - levels[0][0] + 1]

    at = list(itertools.accumulate((len(comps) for _, comps in levels), initial=0))
    vertices = [(x, n, c) for x, (n, comps) in enumerate(levels) for c in comps]
    fields = dict(
        levels=tuple(n for _, n, _ in vertices),
        offset=(ksq + len(tree)) / 4,
        succ=tuple(at[x + 1] + c[2] if x + 1 < len(levels) else None for x, _, c in vertices),
        stable=len(levels[-1][1]) == 1,
    )
    # i -> rho - i maps each level's intervals onto themselves in reverse order
    refl, pd = None, pd_vector(tree, k)
    if all(x.denominator == 1 for x in pd):
        rho = -int(pd[center])
        for _, comps in levels:
            if [[rho - b, rho - a] for a, b, _ in reversed(comps)] != [c[:2] for c in comps]:
                raise ConsistencyError("lattice reflection does not preserve the central profile")
        refl = tuple(at[x] + at[x + 1] - 1 - v for v, (x, _, _) in enumerate(vertices))
    return _finished(fields, "star", refl, involution)


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
