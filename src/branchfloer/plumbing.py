"""Plumbing trees, their intersection forms, and characteristic vectors.

A plumbing tree is a finite tree with an integer weight at each vertex.  Its
intersection form Q has the weights on the diagonal and a 1 for every edge.
All the downstream lattice machinery lives in the quadratic function

    chi_k(l) = -( k(l) + l^T Q l ) / 2

for a characteristic vector k, which takes integer values exactly because k is
characteristic (k(v) == Q(v,v) mod 2 for every vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import invert_exact, is_negative_definite, solve_mod2


class DefinitenessError(ValueError):
    """Raised when an operation needs a negative-definite tree and got none."""


@dataclass(frozen=True)
class PlumbingTree:
    """Weighted tree on vertices 0..n-1, with an optional declared symmetry.

    `automorphism`, when present, is a permutation p of the vertices with
    weights[p[i]] == weights[i] preserving the edge set; constructors use it to
    declare a geometric symmetry (for instance the leg swap of an even torus
    knot cover) whose induced map on graded roots we need downstream.
    """

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    automorphism: tuple[int, ...] | None = None

    def __post_init__(self):
        n = len(self.weights)
        object.__setattr__(
            self, "edges", tuple(tuple(sorted(e)) for e in self.edges)
        )
        seen = set()
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"bad edge ({a}, {b})")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            ra, rb = find(a), find(b)
            if ra == rb:
                raise ValueError("edges contain a cycle")
            parent[ra] = rb
        if n and len(self.edges) != n - 1:
            raise ValueError("not a tree: wrong edge count")
        p = self.automorphism
        if p is not None:
            if sorted(p) != list(range(n)):
                raise ValueError("automorphism is not a permutation")
            if any(self.weights[p[i]] != self.weights[i] for i in range(n)):
                raise ValueError("automorphism does not preserve weights")
            mapped = {tuple(sorted((p[a], p[b]))) for a, b in self.edges}
            if mapped != set(self.edges):
                raise ValueError("automorphism does not preserve edges")

    def __len__(self) -> int:
        return len(self.weights)

    def neighbors(self, v: int) -> list[int]:
        return [b if a == v else a for a, b in self.edges if v in (a, b)]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


def intersection_form(tree: PlumbingTree) -> list[list[int]]:
    n = len(tree)
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = tree.weights[i]
    for a, b in tree.edges:
        q[a][b] = q[b][a] = 1
    return q


def check_negative_definite(tree: PlumbingTree) -> None:
    if not is_negative_definite(intersection_form(tree)):
        raise DefinitenessError("intersection form is not negative definite")


def canonical_char(tree: PlumbingTree) -> tuple[int, ...]:
    """The canonical characteristic vector k(v) = -2 - weight(v)."""
    return tuple(-2 - w for w in tree.weights)


def is_characteristic(tree: PlumbingTree, k: tuple[int, ...]) -> bool:
    """k has one entry per vertex and k(v) == weight(v) mod 2 everywhere."""
    return len(k) == len(tree) and all(
        (k[v] - tree.weights[v]) % 2 == 0 for v in range(len(tree))
    )


def chi(tree: PlumbingTree, k: tuple[int, ...], ell: tuple[int, ...]) -> int:
    """chi_k(l) = -(k(l) + l^T Q l)/2, an integer for characteristic k."""
    q = intersection_form(tree)
    kl = sum(k[i] * ell[i] for i in range(len(tree)))
    qll = sum(ell[i] * q[i][j] * ell[j] for i in range(len(tree)) for j in range(len(tree)))
    num = -(kl + qll)
    assert num % 2 == 0, "k is not characteristic"
    return num // 2


def pd_vector(tree: PlumbingTree, k: tuple[int, ...]) -> list[Fraction]:
    """Q^{-1} k: the Poincare dual of k in rational coordinates."""
    inv = invert_exact(intersection_form(tree))
    n = len(tree)
    return [sum(inv[i][j] * k[j] for j in range(n)) for i in range(n)]


def k_square(tree: PlumbingTree, k: tuple[int, ...]) -> Fraction:
    """k^2 = k^T Q^{-1} k."""
    pd = pd_vector(tree, k)
    return sum((Fraction(k[i]) * pd[i] for i in range(len(tree))), Fraction(0))


def wu_class(tree: PlumbingTree) -> tuple[int, ...]:
    """The 0/1 vector w with Q w == diag(Q) mod 2 (always solvable)."""
    q = intersection_form(tree)
    w = solve_mod2(q, [tree.weights[i] for i in range(len(tree))])
    assert w is not None, "Wu equation is always solvable for symmetric forms"
    return tuple(w)


def spin_char(tree: PlumbingTree) -> tuple[int, ...]:
    """A characteristic vector representing the spin structure.

    The canonical vector is used when its dual Q^{-1}k is integral (then its
    spin-c class is self-conjugate, hence the unique spin class for odd
    determinant).  Otherwise k = Q w for the Wu class w; its dual is w itself,
    so the reflection below is always defined.
    """
    k = canonical_char(tree)
    if all(x.denominator == 1 for x in pd_vector(tree, k)):
        return k
    q = intersection_form(tree)
    w = wu_class(tree)
    n = len(tree)
    return tuple(sum(q[i][j] * w[j] for j in range(n)) for i in range(n))


def reflect(tree: PlumbingTree, k: tuple[int, ...], ell: tuple[int, ...]) -> tuple[int, ...]:
    """The chi-preserving lattice reflection l -> -l - Q^{-1}k.

    Only defined when Q^{-1}k is integral; chi-invariance is asserted.
    """
    pd = pd_vector(tree, k)
    if any(x.denominator != 1 for x in pd):
        raise ValueError("reflection undefined: Q^{-1}k is not integral")
    out = tuple(-ell[i] - int(pd[i]) for i in range(len(tree)))
    assert chi(tree, k, out) == chi(tree, k, ell)
    return out


def determinant_magnitude(tree: PlumbingTree) -> int:
    from .exact import determinant

    return abs(determinant(intersection_form(tree)))


# ---------------------------------------------------------------------------
# convenient builders


def star(center_weight: int, legs: list[list[int]], automorphism=None) -> PlumbingTree:
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
    return PlumbingTree(tuple(weights), tuple(edges), automorphism)


def linear_chain(weights: list[int]) -> PlumbingTree:
    return PlumbingTree(
        tuple(weights), tuple((i, i + 1) for i in range(len(weights) - 1))
    )
