"""Plumbing trees, their intersection forms, and characteristic vectors.

A plumbing tree is a finite tree with an integer weight at each vertex.  Its
intersection form Q has the weights on the diagonal and a 1 for every edge.
All the downstream lattice machinery lives in the quadratic function

    chi_k(l) = -( k(l) + l^T Q l ) / 2

for a characteristic vector k, which takes integer values exactly because k is
characteristic (k(v) == Q(v,v) mod 2 for every vertex).

The lowest layer also holds what the layers above share: `ConsistencyError`,
`_F2Space`, the F_2 echelon of the Wu class here and of `complexes`, and
`_Record`, the base of every record class in the package.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property


class ConsistencyError(RuntimeError):
    """A computed result failed one of the pipeline's own cross-checks: a
    fault in the package or the truncation, not in its input."""


class DefinitenessError(ValueError):
    """Raised when an operation needs a negative-definite tree and got none."""


class _Record:
    """Base of the package's records: `==`, `hash` and `repr` over the fields
    `_fields` names, in order, and no assignment once built.  Each record's
    own constructor writes its fields into its `__dict__`, where
    `cached_property` keeps what it computes.  A plain class, because
    `dataclasses` costs every command its import (inspect, ast, dis,
    tokenize) and the generation of its methods."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PlumbingTree(_Record):
    """Weighted tree on vertices 0..n-1: `weights`, a tuple of ints, and
    `edges`, a tuple of vertex pairs, each stored in increasing order."""

    _fields = ("weights", "edges")

    def __init__(self, weights: tuple[int, ...], edges: tuple[tuple[int, int], ...]):
        n = len(weights)
        if n == 0:
            raise ValueError("the tree has no vertices")
        edges = tuple(tuple(sorted(e)) for e in edges)
        vars(self).update(weights=weights, edges=edges)
        seen = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"bad edge ({a}, {b})")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
        if len(edges) != n - 1:
            raise ValueError("not a tree: wrong edge count")
        if len(self._breadth_first[0]) != n:
            raise ValueError("edges contain a cycle")

    def __len__(self) -> int:
        return len(self.weights)

    def neighbors(self, v: int) -> list[int]:
        return list(self._adjacency[v])

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, in the order of the edges that hold them."""
        adj: list[list[int]] = [[] for _ in self.weights]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(map(tuple, adj))

    @cached_property
    def _breadth_first(self) -> tuple:
        """The vertices reached from vertex 0, breadth-first with neighbours
        in increasing order, and by vertex its parent in that pass (None at
        vertex 0)."""
        parent, order = {0: None}, [0]
        for v in order:
            for u in sorted(self._adjacency[v]):
                if u not in parent:
                    parent[u] = v
                    order.append(u)
        return tuple(order), tuple(parent.get(v) for v in range(len(self)))

    @cached_property
    def _elimination(self) -> tuple:
        """The k-independent pass of the leaves-inward elimination of -Q, in
        integers.  Vertices are taken in the breadth-first order of
        `_breadth_first` and eliminated in reverse: each completes its square
        against its parent, the only vertex it touches, so there is no
        fill-in.  Returns the order, the parents, and by vertex D_v = det(-Q)
        on the subtree at v and P_v, the product of D over v's children, so
        that v's pivot is D_v / P_v; Q is negative definite exactly when
        every D_v > 0."""
        order, parent = self._breadth_first
        # v's pivot -w_v - sum_c 1/p_c as the fraction dets[v] / prods[v]
        dets, prods = [-w for w in self.weights], [1] * len(self)
        for v in reversed(order):
            if dets[v] <= 0:
                raise DefinitenessError("intersection form is not negative definite")
            if (p := parent[v]) is not None:
                dets[p] = dets[p] * dets[v] - prods[v] * prods[p]
                prods[p] *= dets[v]
        return order, parent, tuple(dets), tuple(prods)

    @cached_property
    def _solved(self) -> dict:
        """The k-dependent passes made so far, by characteristic vector."""
        return {}

    def _solve(self, k) -> tuple:
        """(Y, X, k.X) for k, from one pass per k."""
        k = tuple(k)
        if k not in self._solved:
            self._solved[k] = self._centres(k)
        return self._solved[k]

    def _centres(self, k: tuple[int, ...]) -> tuple:
        """The k-dependent pass, two integer sweeps with exact divisions:
        inward Y_v = k_v P_v + sum_c Y_c P_v / D_c, outward X_v = (X_parent
        P_v + Y_v det) / D_v, so that X = -det Q^{-1} k and k.X = -det k^2."""
        order, parent, dets, prods = self._elimination
        ys = [x * p for x, p in zip(k, prods)]
        for v in reversed(order):
            if parent[v] is not None:
                ys[parent[v]] += ys[v] * (prods[parent[v]] // dets[v])
        det, xs = dets[0], [0] * len(self)
        for v in order:
            above = 0 if parent[v] is None else xs[parent[v]] * prods[v]
            xs[v] = (above + ys[v] * det) // dets[v]
        return tuple(ys), tuple(xs), sum(map(operator.mul, k, xs))


def check_negative_definite(tree: PlumbingTree) -> None:
    """Raises DefinitenessError unless every elimination pivot is positive."""
    tree._elimination  # raises at the first D_v <= 0


def canonical_char(tree: PlumbingTree) -> tuple[int, ...]:
    """The canonical characteristic vector k(v) = -2 - weight(v)."""
    return tuple(-2 - w for w in tree.weights)


def is_characteristic(tree: PlumbingTree, k: tuple[int, ...]) -> bool:
    """k has one entry per vertex and k(v) == weight(v) mod 2 everywhere."""
    return len(k) == len(tree) and all(
        (k[v] - tree.weights[v]) % 2 == 0 for v in range(len(tree))
    )


def _form_times(tree: PlumbingTree, v: tuple[int, ...]) -> tuple[int, ...]:
    """Q v, one vertex's weight and neighbours at a time."""
    by_vertex = zip(tree.weights, v, tree._adjacency)
    return tuple(w * x + sum(v[u] for u in adj) for w, x, adj in by_vertex)


def chi(tree: PlumbingTree, k: tuple[int, ...], ell: tuple[int, ...]) -> int:
    """chi_k(l) = -(k(l) + l^T Q l)/2, an integer for characteristic k."""
    num = -sum(x * (kx + qx) for x, kx, qx in zip(ell, k, _form_times(tree, ell)))
    if num % 2:
        raise ValueError(f"{tuple(k)} is not a characteristic vector of the tree")
    return num // 2


def pd_vector(tree: PlumbingTree, k: tuple[int, ...]) -> list[Fraction]:
    """Q^{-1} k = -X / det, X / det being twice the real minimiser of chi_k."""
    det = tree._elimination[2][0]  # |det Q|
    return [Fraction(-x, det) for x in tree._solve(k)[1]]


def coordinate_range(tree: PlumbingTree, k: tuple[int, ...], cap: int, v: int) -> range:
    """The exact integer range of the coordinate l_v over {l : chi_k(l) <= cap},
    empty where no integer fits.

    On the ellipsoid 2 chi_k(l) <= 2 cap, l_v takes exactly the values with
    (l_v - c_v)^2 <= (2 cap - k^2 / 4) sigma_v, for the real minimiser
    c = X / (2 det) and sigma_v = ((-Q)^{-1})_vv.  In integers, S = det sigma
    follows the pivots D / P along the path from the elimination's first
    vertex down to v, S_u = P_u (det D_u + S_parent P_u) / D_u^2 exactly,
    and |2 det l_v - X_v| <= sqrt((8 cap det + k.X) S_v).
    """
    _, parent, dets, prods = tree._elimination
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    det, spread = dets[0], 0
    for u in reversed(path):
        spread = prods[u] * ((det * dets[u] + spread * prods[u]) // (dets[u] * dets[u]))
    _, xs, kx = tree._solve(k)
    r2 = (8 * cap * det + kx) * spread
    if r2 < 0:
        return range(0)
    a, b, s = xs[v], 2 * det, math.isqrt(r2)  # |b l_v - a| <= sqrt(r2)
    return range(-((s - a) // b), (a + s) // b + 1)


def k_square(tree: PlumbingTree, k: tuple[int, ...]) -> Fraction:
    """k^2 = k^T Q^{-1} k = -k.X / det, four times the minimum of 2 chi_k
    over real vectors l."""
    return Fraction(-tree._solve(k)[2], tree._elimination[2][0])


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _F2Space:
    """Row space over F_2 with combination tracking (echelon insertion)."""

    def __init__(self, pivots=()):
        self.pivots = dict(pivots)  # leading bit -> (vector, combination tag)

    def reduce(self, v, tag=0):
        """Reduce v by every pivot whose bit it has, highest first.  The
        residual has no pivot bit, so it and the tag are F_2-linear in v."""
        residual = 0
        while v:
            p = v.bit_length() - 1
            hit = self.pivots.get(p)
            if hit is None:
                residual |= 1 << p
                v ^= 1 << p
            else:
                v ^= hit[0]
                tag ^= hit[1]
        return residual, tag

    def add(self, v, tag=0):
        """Insert; returns (independent?, residual tag).  Only the leading
        bit needs clearing, so this stops at the first one that is new."""
        while v:
            p = v.bit_length() - 1
            hit = self.pivots.get(p)
            if hit is None:
                self.pivots[p] = (v, tag)
                return True, tag
            v ^= hit[0]
            tag ^= hit[1]
        return False, tag

    @property
    def rank(self):
        return len(self.pivots)

    def reduced(self) -> tuple[int, ...]:
        """The reduced echelon basis, which depends on the row space alone."""
        rows = {}
        for p in sorted(self.pivots):
            v = self.pivots[p][0]
            for q in _bits(v ^ (1 << p)):
                if q in rows:
                    v ^= rows[q]
            rows[p] = v
        return tuple(rows.values())


def wu_class(tree: PlumbingTree) -> tuple[int, ...]:
    """The 0/1 vector w with Q w == diag(Q) mod 2 (always solvable).

    The columns of Q mod 2 go into an F_2 echelon tagged by their index, so
    the solution uses only the columns independent of the earlier ones."""
    space = _F2Space()
    for j, (weight, adj) in enumerate(zip(tree.weights, tree._adjacency)):  # Q is symmetric
        space.add((weight & 1) << j | sum(1 << i for i in adj), 1 << j)
    residual, w = space.reduce(sum((x & 1) << i for i, x in enumerate(tree.weights)))
    if residual:
        raise ConsistencyError("Wu equation has no solution")
    return tuple((w >> j) & 1 for j in range(len(tree)))


def spin_char(tree: PlumbingTree) -> tuple[int, ...]:
    """A characteristic vector representing the spin structure.

    The canonical vector is used when its dual Q^{-1}k is integral (then its
    spin-c class is self-conjugate, hence the unique spin class for odd
    determinant).  Otherwise k = Q w for the Wu class w; its dual is w itself,
    so the reflection below is always defined.
    """
    k = canonical_char(tree)
    det = tree._elimination[2][0]
    if all(x % det == 0 for x in tree._solve(k)[1]):
        return k
    return _form_times(tree, wu_class(tree))


def reflect(tree: PlumbingTree, k: tuple[int, ...], ell: tuple[int, ...]) -> tuple[int, ...]:
    """The chi-preserving lattice reflection l -> -l - Q^{-1}k.

    Only defined when Q^{-1}k is integral; chi-invariance is checked.
    """
    det, xs = tree._elimination[2][0], tree._solve(k)[1]
    if any(x % det for x in xs):
        raise ValueError("reflection undefined: Q^{-1}k is not integral")
    out = tuple(x // det - y for x, y in zip(xs, ell))
    if chi(tree, k, out) != chi(tree, k, ell):
        raise ConsistencyError("lattice reflection does not preserve chi")
    return out


def determinant_magnitude(tree: PlumbingTree) -> int:
    """|det Q|, D at the elimination's first vertex."""
    return tree._elimination[2][0]


# ---------------------------------------------------------------------------
# convenient builders


def star(center_weight: int, legs: list[list[int]]) -> PlumbingTree:
    """Star-shaped tree: a center and chains hanging off it.

    Each leg lists weights from the center outward.  Vertex 0 is the center;
    legs are numbered consecutively.
    """
    weights = [center_weight]
    edges = []
    for leg in legs:
        prev = 0
        for w in leg:
            weights.append(w)
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
    return PlumbingTree(tuple(weights), tuple(edges))

