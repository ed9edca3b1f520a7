"""The connected homology of a symmetric graded root, with no search, a
knot's two modules read off its root, and the dual that mirrors one.  The
two module types, `GradedUModule` and the `BranchedModule` that adds the
two corrections, live here; `complexes` computes the same types on chains.

`monotone_subroot` keeps only a distinguished set of leaves, found by walking
the stem downward from the highest-weight invariant vertex and collecting
swapped leaf pairs of strictly increasing weight; one bottom-up pass gives
every vertex its leaf count and its best swapped leaf, which is all the walk
reads.  Its homology is the connected homology of the whole root (the image
of a maximal self local equivalence, after Hendricks-Hom-Lidman), so a knot
needs no enumeration of self-equivalences.  Nor does a sum: its connected
module is the homology of its tensor reduced by `complexes.reduced_model`,
and only `--verify` enumerates, as the reference.

A root's homology H(R) is the F[U]-module with one generator per vertex at
its weight and U sending a vertex to its successor, a forest module that the
elder rule decomposes (`_elder`).  So `_root_branched` reads a knot's
branched module (ker and coker of 1 + J on H(R), after Dai-Manolescu) and
its two corrections off the root, and `_subroot_homology` its connected
module off the monotone subroot, with no model complex, lift or cone; a
mirror's are the duals of its knot's (`_dual`, after Hendricks-Manolescu).
`knots._Eval` applies them, and `knots.invariants(verify=True)` checks them
against the chain path.  `omega` reads the torsion exponent off the
connected module.
"""

from __future__ import annotations

from fractions import Fraction

from .plumbing import ConsistencyError, _Record
from .roots import GradedRoot


class GradedUModule(_Record):
    """Isomorphism type of a graded F_2[U]-module of finite rank.

    towers: top gradings of the free summands, descending.
    torsion: (top grading, U-length) pairs for the F_2[U]/U^n summands.
    deep: what `complexes.homology` keeps for the layers above it, a new
    dict by default; it is not part of the value, so `==`, `hash` and
    `repr` leave it out.
    """

    _fields = ("towers", "torsion")

    def __init__(
        self,
        towers: tuple[Fraction, ...],
        torsion: tuple[tuple[Fraction, int], ...],
        deep: dict | None = None,
    ):
        vars(self).update(towers=towers, torsion=torsion, deep={} if deep is None else deep)


class BranchedModule(_Record):
    """Homology of the branched cone with its two distinguished corrections.

    upper - 1 and lower are the tops of the two infinite towers; the Q-action
    sends the deep part of the lower tower onto the deep part of the other."""

    _fields = ("upper", "lower", "module")

    def __init__(self, upper: Fraction, lower: Fraction, module: GradedUModule):
        vars(self).update(upper=upper, lower=lower, module=module)


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
        # v0 is a leaf: a lone child of v0 would be invariant one level below it
        floor, selected = root.levels[v0], {v0}
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
    """Subroot spanned by the distinguished leaves, whose homology is the
    connected module.  The root itself when every leaf is kept, so callers
    can tell that its model is the whole root's."""
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


def _dual(module: GradedUModule, shift) -> GradedUModule:
    """The universal-coefficient dual of a module, shifted by `shift`: a
    tower at g goes to -g, and F[U]/U^n with top g, whose two generators
    have dx = U^n y, to the summand of top 2n - 1 - g."""
    towers = [shift - g for g in module.towers]
    return _module(towers, [(shift + 2 * n - 1 - g, n) for g, n in module.torsion])


def _subroot_homology(sub: GradedRoot) -> GradedUModule:
    """H of a monotone subroot, shifted by -2 as a knot's: the connected module."""
    return _module(*_elder(sub, range(len(sub)), sub.succ.__getitem__, -2))


def _root_branched(root: GradedRoot) -> BranchedModule:
    """The branched module of a stable root with involution J, shifted by -2
    as a knot's is, with no chain complex.  H(root) has one generator per
    vertex at its weight, U sending a vertex to its successor.  Its parity
    is even, so the branched cone's homology is ker(1 + J) at the weights
    plus coker(1 + J) one grading lower; both are spanned by J-orbits, and
    in ker(1 + J) a swapped pair over an invariant successor maps to 0.  The
    corrections are the top weight and that of the highest invariant
    vertex."""
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
    module = _module(ker[0] + coker[0], ker[1] + coker[1])
    return BranchedModule(root.d_invariant() - 2, lower, module)


def omega(module: GradedUModule) -> int:
    """Smallest n with U^n killing the torsion part (0 when there is none)."""
    return max((length for _, length in module.torsion), default=0)
