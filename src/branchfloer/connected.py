"""The connected homology of a symmetric graded root, with no search.

`monotone_subroot` keeps only a distinguished set of leaves, found by walking
the stem downward from the highest-weight invariant vertex and collecting
swapped leaf pairs of strictly increasing weight; one bottom-up pass gives
every vertex its leaf count and its best swapped leaf, which is all the walk
reads.  The homology of its model complex is the connected homology of the
whole root (the image of a maximal self local equivalence, after
Hendricks-Hom-Lidman), so a knot presented directly needs no enumeration of
self-equivalences (`knots` computes it, and `invariants(verify=True)`
cross-checks it against that enumeration).  Mirrors and sums still
enumerate, but on the small models of monotone subroots.  `omega` reads the
torsion exponent off the result.
"""

from __future__ import annotations

from .complexes import ConsistencyError, GradedUModule
from .roots import GradedRoot


def monotone_leaves(root: GradedRoot) -> tuple[int, ...]:
    """The distinguished leaf set of the monotone subroot.

    Start at the invariant vertex of highest weight: a lone leaf over it is
    kept, otherwise one swapped pair of maximal weight.  Then walk down the
    stem; whenever the set of leaves overhead grows, adopt a swapped pair of
    maximal weight provided it strictly beats everything selected so far.

    One bottom-up pass gives each vertex its leaf count and its best swapped
    leaf: the least (level, id) over the leaves l above it with j(l) > l, so
    the largest weight, ties to the smaller id.  Every vertex the walk visits
    is invariant, and the leaves above an invariant vertex are closed under
    the involution, so each such leaf's partner lies above the vertex too.
    """
    j = root.involution
    invariant = [v for v in range(len(root)) if j[v] == v]
    if not invariant:
        raise ConsistencyError("symmetric root has no invariant vertex")
    count = [1] * len(root)
    best: list[tuple[int, int] | None] = [None] * len(root)
    for v in sorted(range(len(root)), key=root.levels.__getitem__):
        kids = root.children(v)
        if kids:
            count[v] = sum(count[c] for c in kids)
            best[v] = min((best[c] for c in kids if best[c] is not None), default=None)
        elif j[v] > v:
            best[v] = (root.levels[v], v)
    v0 = min(invariant, key=lambda v: (root.levels[v], v))
    if count[v0] == 1:
        leaf = v0
        while root.children(leaf):
            (leaf,) = root.children(leaf)
        floor, selected = root.levels[leaf], {leaf}
    elif best[v0] is None:
        raise ConsistencyError("no invariant leaf and no swapped pair over v0")
    else:
        floor, leaf = best[v0]
        selected = {leaf, j[leaf]}
    seen = count[v0]
    cur = root.succ[v0]
    while cur is not None:
        if count[cur] > seen:
            if best[cur] is not None and best[cur][0] < floor:
                floor, leaf = best[cur]
                selected.update((leaf, j[leaf]))
            seen = count[cur]
        cur = root.succ[cur]
    return tuple(sorted(selected))


def _subroot_spanned(root: GradedRoot, leaf_ids):
    """Smallest subroot containing the given leaves, its vertices kept in
    id order.

    The leaf set must be closed under the involution; successors, the
    weight offset and the involution are inherited."""
    keep: set[int] = set()
    for l in leaf_ids:
        v: int | None = l
        while v is not None and v not in keep:
            keep.add(v)
            v = root.succ[v]
    j = root.involution
    if any(j[v] not in keep for v in keep):
        raise ValueError("leaf set is not closed under the involution")
    order = sorted(keep)
    index = {v: i for i, v in enumerate(order)}
    return GradedRoot(
        levels=tuple(root.levels[v] for v in order),
        offset=root.offset,
        succ=tuple(
            index[root.succ[v]] if root.succ[v] is not None else None for v in order
        ),
        involution=tuple(index[j[v]] for v in order),
        stable=root.stable,
        engine=root.engine,
    )


def monotone_subroot(root: GradedRoot) -> GradedRoot:
    """Subroot spanned by the distinguished leaves; computes the connected
    homology through its model complex.  The root itself when every leaf is
    kept, so callers can tell that its model is the whole root's."""
    leaves = monotone_leaves(root)
    return root if len(leaves) == len(root.leaves) else _subroot_spanned(root, leaves)


def omega(module: GradedUModule) -> int:
    """Smallest n with U^n killing the torsion part (0 when there is none)."""
    return max((length for _, length in module.torsion), default=0)
