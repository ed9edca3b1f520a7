"""The connected homology of a symmetric graded root, with no search, and a
directly presented knot's whole package read off its root.

`monotone_subroot` keeps only a distinguished set of leaves, found by walking
the stem downward from the highest-weight invariant vertex and collecting
swapped leaf pairs of strictly increasing weight; one bottom-up pass gives
every vertex its leaf count and its best swapped leaf, which is all the walk
reads.  Its homology is the connected homology of the whole root (the image
of a maximal self local equivalence, after Hendricks-Hom-Lidman), so a knot
needs no enumeration of self-equivalences, and neither does a mirror, whose
model is the dual.  Sums still enumerate, but on the small models of
monotone subroots.

A root's homology H(R) is the F[U]-module with one generator per vertex at
its weight and U sending a vertex to its successor, a forest module that the
elder rule decomposes (`_elder`).  So `_root_invariants` reads a knot's
branched module (ker and coker of 1 + J on H(R), after Dai-Manolescu), its
two corrections and its connected module (H of the monotone subroot) off the
root, with no model complex, lift or cone; `knots.invariants(verify=True)`
rebuilds them on that chain path and cross-checks.  `omega` reads the
torsion exponent off the connected module.
"""

from __future__ import annotations

from .complexes import BranchedModule, ConsistencyError, GradedUModule
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


def _elder(root: GradedRoot, nodes, down, shift) -> tuple[list, list]:
    """(towers, torsion) of the F[U]-module with one generator per vertex of
    `root` in `nodes` at its weight + `shift`, U sending v to down(v), or to
    0 where that is None, except that the bottom vertex carries on as a
    tower.  By the elder rule: a summand runs down from its top until it
    meets an older one."""
    born: dict[int, int] = {}
    towers, torsion = [], []
    for v in sorted(nodes, key=root.levels.__getitem__):
        top = born.setdefault(v, root.levels[v])
        u = down(v)
        if u is not None:
            if u not in born:
                born[u] = top
                continue
            top, born[u] = max(top, born[u]), min(top, born[u])
        grading = root.offset + shift - 2 * top
        if root.succ[v] is None:
            towers.append(grading)
        else:
            torsion.append((grading, root.levels[v] - top + 1))
    return towers, torsion


def _module(towers, torsion) -> GradedUModule:
    """Towers descending; torsion by descending grading, then length."""
    return GradedUModule(
        tuple(sorted(towers, reverse=True)), tuple(sorted(torsion, key=lambda t: (-t[0], t[1])))
    )


def _root_invariants(root: GradedRoot) -> tuple[BranchedModule, GradedUModule]:
    """The branched and connected modules of a stable root with involution
    J, shifted by -2 as a knot's are, with no chain complex.  H(root) has
    one generator per vertex at its weight, U sending a vertex to its
    successor.  Its parity is even, so the branched cone's homology is
    ker(1 + J) at the weights plus coker(1 + J) one grading lower; both are
    spanned by J-orbits, and in ker(1 + J) a swapped pair over an invariant
    successor maps to 0.  The corrections are the top weight and that of the
    highest invariant vertex; the connected module is H of the monotone
    subroot."""
    j, succ = root.involution, root.succ
    if (bottoms := succ.count(None)) != 1:
        raise ConsistencyError(f"expected a single tower, found one over each of {bottoms} bottoms")
    orbits = [v for v in range(len(root)) if j[v] >= v]

    def coker_down(v):
        return None if succ[v] is None else min(succ[v], j[succ[v]])

    def ker_down(v):
        u = coker_down(v)
        return None if j[v] != v and u is not None and j[u] == u else u

    ker, coker = _elder(root, orbits, ker_down, -2), _elder(root, orbits, coker_down, -3)
    lower = root.offset - 2 * min(root.levels[v] for v in orbits if j[v] == v) - 2
    branched = BranchedModule(
        root.d_invariant() - 2, lower, _module(ker[0] + coker[0], ker[1] + coker[1])
    )
    sub = monotone_subroot(root)
    return branched, _module(*_elder(sub, range(len(sub)), sub.succ.__getitem__, -2))


def omega(module: GradedUModule) -> int:
    """Smallest n with U^n killing the torsion part (0 when there is none)."""
    return max((length for _, length in module.torsion), default=0)
