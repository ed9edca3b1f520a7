"""The connected homology of a symmetric graded root, with no search.

`monotone_subroot` keeps only a distinguished set of leaves, found by walking
the stem upward from the highest-weight invariant vertex and collecting
swapped leaf pairs of strictly increasing weight.  The homology of its model
complex is the connected homology of the whole root (the image of a maximal
self local equivalence, after Hendricks-Hom-Lidman), so a knot presented
directly needs no enumeration of self-equivalences; `connected_homology(...,
verify=True)` cross-checks against that enumeration when the rank allows.
Mirrors and sums still enumerate, but on the small models of monotone
subroots.  `omega` reads the torsion exponent off the result.
"""

from __future__ import annotations

from .complexes import (
    ConsistencyError,
    GradedUModule,
    RankBoundExceeded,
    connected_homology_brute,
    homology,
    lift_involution,
    model_complex,
)
from .roots import GradedRoot


def _leaves_above(root: GradedRoot) -> dict[int, frozenset]:
    """For each vertex, the set of leaves whose downward path passes it."""
    above: dict[int, frozenset] = {}
    for v in sorted(range(len(root)), key=lambda v: root.levels[v]):
        kids = root.children(v)
        if kids:
            above[v] = frozenset().union(*(above[c] for c in kids))
        else:
            above[v] = frozenset({v})
    return above


def _best_pair(root, leafset, floor):
    """Swapped pair in leafset of maximal weight (above floor, if given).

    Ties go to the pair containing the smallest vertex id.  Returns None when
    no pair qualifies."""
    j = root.involution
    best = None
    for v in sorted(leafset):
        if j[v] == v or j[v] < v or j[v] not in leafset:
            continue
        w = root.weights[v]
        if floor is not None and w <= floor:
            continue
        if best is None or w > root.weights[best]:
            best = v
    if best is None:
        return None
    return (best, j[best])


def monotone_leaves(root: GradedRoot) -> tuple[int, ...]:
    """The distinguished leaf set of the monotone subroot.

    Start at the invariant vertex of highest weight: a lone leaf over it is
    kept, otherwise one swapped pair of maximal weight.  Then walk down the
    stem; whenever the set of leaves overhead grows, adopt a swapped pair of
    maximal weight provided it strictly beats everything selected so far.
    """
    j = root.involution
    above = _leaves_above(root)
    invariant = [v for v in range(len(root)) if j[v] == v]
    if not invariant:
        raise ConsistencyError("symmetric root has no invariant vertex")
    v0 = min(invariant, key=lambda v: (-root.weights[v], v))
    selected: set[int] = set()
    if len(above[v0]) == 1:
        selected.update(above[v0])
    else:
        pair = _best_pair(root, above[v0], None)
        if pair is None:
            raise ConsistencyError("no invariant leaf and no swapped pair over v0")
        selected.update(pair)
    seen = len(above[v0])
    cur = root.succ[v0]
    while cur is not None:
        if len(above[cur]) > seen:
            floor = max(root.weights[l] for l in selected)
            pair = _best_pair(root, above[cur], floor)
            if pair is not None:
                selected.update(pair)
            seen = len(above[cur])
        cur = root.succ[cur]
    return tuple(sorted(selected))


def _subroot_spanned(root: GradedRoot, leaf_ids):
    """Smallest subroot containing the given leaves, its vertices kept in
    id order.

    The leaf set must be closed under the involution; successors, weights and
    representatives are inherited, candidate involutions are dropped."""
    keep: set[int] = set()
    for l in leaf_ids:
        v: int | None = l
        while v is not None and v not in keep:
            keep.add(v)
            v = root.succ[v]
    j = root.involution
    for v in keep:
        if j[v] not in keep:
            raise ValueError("leaf set is not closed under the involution")
    order = sorted(keep)
    index = {v: i for i, v in enumerate(order)}
    return GradedRoot(
        levels=tuple(root.levels[v] for v in order),
        weights=tuple(root.weights[v] for v in order),
        succ=tuple(
            index[root.succ[v]] if root.succ[v] is not None else None for v in order
        ),
        involution=tuple(index[j[v]] for v in order),
        stable=root.stable,
        reps=tuple(root.reps[v] for v in order) if root.reps is not None else None,
        engine=root.engine,
    )


def monotone_subroot(root: GradedRoot) -> GradedRoot:
    """Subroot spanned by the distinguished leaves; computes the connected
    homology through its model complex."""
    return _subroot_spanned(root, monotone_leaves(root))


def connected_homology(root: GradedRoot, verify: bool = False) -> GradedUModule:
    """Homology of the monotone subroot's model complex.

    With verify=True the answer is recomputed by enumerating maximal
    self-equivalences of the full model whenever its rank permits; a
    disagreement is a hard failure."""
    module = homology(model_complex(monotone_subroot(root)).cx)
    if verify:
        model = model_complex(root)
        try:
            brute = connected_homology_brute(model.cx, lift_involution(model))
        except RankBoundExceeded:
            return module
        if brute != module:
            raise ConsistencyError("monotone subroot disagrees with the brute-force image")
    return module


def omega(module: GradedUModule) -> int:
    """Smallest n with U^n killing the torsion part (0 when there is none)."""
    return max((length for _, length in module.torsion), default=0)
