"""Independent oracles the tests compare the pipeline against.

None of this runs in the package: each function here recomputes something
the pipeline produces by a different route, or builds a reference object.

* `standard_swap_complex`, `zero_map`, `map_sum`: the smallest nontrivial
  model complex, the zero map and the sum of two maps (rows xored), as
  fixtures.
* `nullhomotopy`: solves f = dH + Hd for H, one column per unknown entry of
  H in one echelon, for certifying that a map is nullhomotopic (ι² + 1, or
  a map's failure to commute with the involutions); the package checks
  ι² = 1 exactly instead.
* `exp_of`, `ref_slice_basis`, `ref_slice_vectors`, `ref_transport`,
  `ref_positions`: the chain-level slice routines with the U-exponent of
  every entry computed explicitly from the gradings, the reference for the
  package's slices indexed by generator and its table of allowed entries.
* `ref_slice`, `ref_allowed`: the slice masks and allowed-entry tables by a
  scan over every distinct level of the target for each slice, one
  `Fraction` step per distinct source level: the reference for the
  package's bisection of each class of levels and its integer shift
  between two grids.
* `ref_homology`, `ref_image`: barcode homology rebuilt slice by slice over
  explicit bases, with U-transport between them, for a complex or the image
  of a self-map: the reference for the package's one sweep per parity over
  generator masks.
* `image_spans`: every vector of the image of a self-map in each generator
  grading, which names the image subcomplex without any echelon form.
* `module_dim_at`, `branched_dimensions`: graded dimensions of a homology
  module, and the same dimensions predicted from a root's involution orbits.
* `is_local_equivalence`, `induces_localized_iso`: the defining test of a
  local equivalence, for certifying an explicit map.
* `self_local_equivalences`: `local_equivalences` of a complex to itself.
* `deep_iso`, `deep_kernel_ranks`, `ref_local_equivalences`, `image_key`,
  `ref_connected_homology`: the connected search one candidate map at a
  time (rows rebuilt, a `UMap` built and its deep slices reduced for each
  of the 2^dim combinations, in binary order), the reference for the
  package's Gray-code walk.  `deep_kernel_ranks` places every entry by its
  explicit exponent at a grading below all generators, once for all the
  maps of one source and target, and `ref_connected_homology` reads the
  package's list of self local equivalences, ranks each map's deep kernel
  with it and keys each maximizer's image by `image_key`, one echelon per
  generator grading of the whole map, where the package keys one parity at
  a time.
* `ref_lift_rows`: the rows of `lift_involution`, each angle's image found
  by walking the root: from each partner leaf down to the vertex where their
  paths join, collecting the angles between each branch vertex's child on
  the way and its representative child.  The reference for the package's one
  angle mask per vertex.
* `ref_monotone_leaves`: the monotone subroot's leaves with one leaf set
  per vertex and each swapped pair searched in it, testing that a leaf's
  partner lies in the set: the reference for the package's one bottom-up
  pass of leaf counts and best swapped leaves.
* `monotone_homology`: the connected homology of a root by the homology of
  its monotone subroot's model, checked against the brute-force search on
  the whole root's model whenever that search is within its default bounds.
* `ref_root_invariants`: a directly presented knot's branched module, its
  two corrections and its connected module from its root and involution
  alone, each module decomposed by the ranks of U^k between the levels of
  H(root), of ker(1 + J) and coker(1 + J) on it, or of H of the monotone
  subroot: the reference for the package's elder-rule read-off, and what
  the tests compare with the chain path (the branched cone of the lifted
  model, the homology of the subroot's model).
* `symmetric_reduction`: deletes swapped leaf pairs of a root one at a time,
  redirecting them onto an invariant vertex of the same weight, each step
  certified by an explicit local equivalence.  When it runs to completion
  the involution is trivial, which forces the reduced connected homology to
  vanish; the monotone subroot must agree.
* `ref_min_plus_first`, `ref_leg_profile`, `ref_central_profile`: the
  star engine's central profile by a min-plus dynamic program along each
  leg over every coordinate's exact range on a sublevel set that holds all
  the slice minimizers, with lex-first minimizers: the reference for the
  package's closed form from each leg's continued fraction.
* `ellipsoid`, `coordinate_ranges`: Q^{-1}k by Gaussian elimination, the
  diagonal of (-Q)^{-1} from Bareiss cofactors, and every coordinate's exact
  range on a sublevel set from them: the reference for the package's range
  of one coordinate from the integer elimination.
* `least_minimizer`: a star slice's least minimizer of chi, assembled from
  each leg's closed form, which the star engine sums but does not build.
* `ref_star_root`: the star engine reading components off the box engine's
  union-find sweep over 1-tuples (`roots._Sweep.levels`) and mapping each
  representative through the reflection, with its own ordering and
  assembly: the reference for the package's merge tree of the central
  profile, whose reflection reverses each level's intervals, and for the
  assembly both engines share.
* `ref_isomorphisms`, `ref_is_isomorphic`: the weight-preserving
  isomorphisms of two stem-trimmed graded roots that commute with the
  involutions, by backtracking over children of equal shape and dropping a
  partial map as soon as it breaks the involutions, and the test that one
  exists: the reference for the package's canonical key of a root.
* `linear_chain`: a linear plumbing, as a fixture.
* `intersection_form`: the dense intersection form of a tree, the reference
  for the package's form read off the weights and edges.
* `eliminate`: the completed-square form of 2 chi_k (order, parents,
  pivots, shifts, constant) read off the package's integer passes: what the
  tests compare the dense algebra below and the box engine's integer form
  against.
* `determinant`, `leading_minors`, `is_negative_definite`, `solve_exact`,
  `invert_exact`, `solve_mod2`: dense exact matrix algebra (Bareiss minors,
  Gauss-Jordan over the rationals and over F_2) on plain lists of lists, the
  reference for the package's leaves-inward elimination of a plumbing tree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from branchfloer import roots as rt
from branchfloer.complexes import (
    BranchedModule,
    ConsistencyError,
    GradedUModule,
    RankBoundExceeded,
    UComplex,
    UMap,
    _apply_vectors,
    _bits,
    _chain_map_basis,
    _columns,
    _deep_blocks,
    _F2Space,
    _kernel_of,
    _map_rows,
    _positions,
    compose,
    connected_homology_brute,
    homology,
    image_homology,
    lift_involution,
    local_equivalences,
    model_complex,
)
from branchfloer.connected import _subroot_spanned, monotone_subroot
from branchfloer.plumbing import PlumbingTree, chi, k_square, pd_vector
from branchfloer.roots import GradedRoot


def standard_swap_complex(top) -> tuple[UComplex, UMap]:
    """Two generators at grading `top` exchanged by the involution, bound by
    a single relator one degree below (the smallest nontrivial model)."""
    top = Fraction(top)
    cx = UComplex((top, top, top - 1), (0, 0, (1 << 0) | (1 << 1)))
    iota = UMap(cx, cx, Fraction(0), (1 << 1, 1 << 0, 1 << 2))
    return cx, iota


def zero_map(src: UComplex, tgt: UComplex, degree=Fraction(0)) -> UMap:
    return UMap(src, tgt, Fraction(degree), (0,) * len(src))


def map_sum(f: UMap, g: UMap) -> UMap:
    """f + g: two maps between the same complexes, of the same degree, with
    their rows xored."""
    if not (f.src is g.src and f.tgt is g.tgt) or f.degree != g.degree:
        raise ValueError("sum of maps between different complexes or degrees")
    return UMap(f.src, f.tgt, f.degree, tuple(a ^ b for a, b in zip(f.rows, g.rows)))


def nullhomotopy(f: UMap) -> UMap | None:
    """Solve f = dH + Hd for H of degree deg(f) + 1, if possible.

    Each unknown entry of H is a column over the equations, one per entry
    position of f; the columns go into an echelon tagged by their index, and
    f is solvable exactly when it reduces to zero, its tag then naming H."""
    src, tgt = f.src, f.tgt
    hpos = _positions(src, tgt, f.degree + 1)
    fpos = _positions(src, tgt, f.degree)
    target = 0
    for e, (j, i) in enumerate(fpos):
        target |= ((f.rows[j] >> i) & 1) << e
    equations = {p: e for e, p in enumerate(fpos)}
    space = _F2Space()
    for t, col in enumerate(_columns(src.diff, tgt.diff, hpos, equations)):
        space.add(col, 1 << t)
    residual, sol = space.reduce(target)
    if residual:
        return None
    return UMap(src, tgt, f.degree + 1, tuple(_map_rows(sol, hpos, len(src))))


def exp_of(gr_src, gr_tgt, degree):
    """U-exponent forced on an entry of a degree-`degree` map, or None."""
    e = Fraction(gr_tgt - gr_src - degree) / 2
    if e.denominator != 1 or e < 0:
        return None
    return int(e)


def ref_slice_basis(cx: UComplex, g) -> list[tuple[int, int]]:
    """Basis of the grading-g piece: pairs (generator, U-exponent)."""
    return [(j, exp_of(g, h, 0)) for j, h in enumerate(cx.gradings) if exp_of(g, h, 0) is not None]


def ref_slice_vectors(f: UMap, g) -> list[int]:
    """Images of the grading-g slice's basis under f, as bitmasks over the
    slice f.degree away, each entry placed by its explicit exponent."""
    index = {pair: t for t, pair in enumerate(ref_slice_basis(f.tgt, g + f.degree))}
    vecs = []
    for j, a in ref_slice_basis(f.src, g):
        v = 0
        for i in _bits(f.rows[j]):
            v |= 1 << index[(i, a + exp_of(f.src.gradings[j], f.tgt.gradings[i], f.degree))]
        vecs.append(v)
    return vecs


def ref_transport(cx: UComplex, vec, g_from, g_to) -> int:
    """U^((g_from - g_to)/2) times a vector over the grading-g_from slice."""
    steps = int(Fraction(g_from - g_to) / 2)
    index = {pair: t for t, pair in enumerate(ref_slice_basis(cx, g_to))}
    basis = ref_slice_basis(cx, g_from)
    out = 0
    for t in _bits(vec):
        j, a = basis[t]
        out |= 1 << index[(j, a + steps)]
    return out


def ref_slice(cx: UComplex, g) -> int:
    """Bitmask of the generators of the grading-g slice of cx, by a scan
    over its levels (`_grid`): those at or above g's level in its class mod
    2."""
    offset, levels = cx._grid
    level = g - offset
    if level.denominator != 1:
        return 0
    out = 0
    for j, h in enumerate(levels):
        if h >= level and (h - level) % 2 == 0:
            out |= 1 << j
    return out


def ref_allowed(src: UComplex, tgt: UComplex, degree) -> tuple[int, ...]:
    """Row masks of the allowed entries of a degree-`degree` map src -> tgt:
    the slice of tgt at each source generator's grading plus the degree."""
    offset, levels = src._grid
    by_level = {h: ref_slice(tgt, offset + h + degree) for h in set(levels)}
    return tuple(by_level[h] for h in levels)


def ref_homology(cx: UComplex, sub=None) -> GradedUModule:
    """Barcode homology slice by slice: every grading of each parity from its
    top generator down to five below the lowest, each slice's boundaries,
    cycles and U-transported survivors rebuilt over that slice's explicit
    basis.  With `sub`, the homology of the subcomplex spanned slice-wise by
    sub(g, basis) -> bitmask vectors over `ref_slice_basis(cx, g)`.  `deep`
    maps each parity to (lowest grading, surviving (birth, vector) pairs,
    that slice's basis)."""
    if len(cx) == 0:
        return GradedUModule((), ())
    if sub is None:
        def sub(g, basis):
            return [1 << t for t in range(len(basis))]
    d = UMap(cx, cx, Fraction(-1), cx.diff)
    gmin = min(cx.gradings)
    towers, torsion, deep = [], [], {}
    for par in sorted({Fraction(g) % 2 for g in cx.gradings}):
        gmax = max(g for g in cx.gradings if Fraction(g) % 2 == par)
        g_stop = gmin - 5 - (gmin - 5 - gmax) % 2
        alive = []  # (birth, vector over the slice two gradings up)
        g = gmax
        while g >= g_stop:
            basis = ref_slice_basis(cx, g)
            span = sub(g, basis)
            quotient = _F2Space()
            above = sub(g + 1, ref_slice_basis(cx, g + 1))
            for v in _apply_vectors(ref_slice_vectors(d, g + 1), above):
                quotient.add(v)
            kernel = _kernel_of(_apply_vectors(ref_slice_vectors(d, g), span), span)
            next_alive = []
            for birth, vec in alive:
                tv = ref_transport(cx, vec, g + 2, g)
                if quotient.add(tv)[0]:
                    next_alive.append((birth, tv))
                else:
                    torsion.append((birth, int((birth - g) / 2)))
            for v in kernel:
                if quotient.add(v)[0]:
                    next_alive.append((g, v))
            alive = next_alive
            if g == g_stop:
                deep[par] = (g, alive, basis)
                towers.extend(birth for birth, _ in alive)
            g -= 2
    towers.sort(reverse=True)
    torsion.sort(key=lambda t: (-t[0], t[1]))
    return GradedUModule(tuple(towers), tuple(torsion), deep)


def ref_image(f: UMap):
    """The `sub` of `ref_homology` for the image of a degree-0 self-map."""
    def provider(g, basis):
        return [v for v in ref_slice_vectors(f, g) if v]
    return provider


def ref_positions(src: UComplex, tgt: UComplex, degree) -> list[tuple[int, int]]:
    """Entries (j, i) that a map src -> tgt of the given degree may have."""
    return [
        (j, i)
        for j in range(len(src))
        for i in range(len(tgt))
        if exp_of(src.gradings[j], tgt.gradings[i], degree) is not None
    ]


def image_spans(f: UMap) -> tuple[frozenset[int], ...]:
    """All vectors of im f in the slice of each generator grading."""
    out = []
    for g in sorted(set(f.tgt.gradings)):
        span = {0}
        for v in ref_slice_vectors(f, g):
            span |= {w ^ v for w in span}
        out.append(frozenset(span))
    return tuple(out)


def module_dim_at(module: GradedUModule, g) -> int:
    """F_2-dimension of the module in a single grading."""
    g = Fraction(g)
    dim = 0
    for d in module.towers:
        if g <= d and (d - g) % 2 == 0:
            dim += 1
    for b, length in module.torsion:
        if (b - g) % 2 == 0 and 0 <= (b - g) / 2 < length:
            dim += 1
    return dim


def branched_dimensions(root: GradedRoot) -> dict[Fraction, int]:
    """Graded dimensions of the branched homology read off the root alone.

    On a root-backed complex the involution acts on each level by permuting
    the vertices, so the fixed and the swapped parts both contribute one
    dimension per orbit: once at the level's weight and once a grading below.
    """
    j = root.involution
    dims: dict[Fraction, int] = {}
    for n in range(root.n_min, root.n_max + 1):
        verts = root.vertices_at(n)
        if not verts:
            continue
        orbits = sum(1 for v in verts if j[v] >= v)
        w = root.weights[verts[0]]
        dims[w] = dims.get(w, 0) + orbits
        dims[w - 1] = dims.get(w - 1, 0) + orbits
    return dims


def deep_iso(blocks, f: UMap) -> bool:
    """Does f, on the deep blocks of its complexes (`_deep_blocks`), send the
    tower representatives into the boundaries plus the deep classes, with
    tags of full rank?  Below every generator a slice vector is a set of
    generators, and f maps generator j to its row."""
    if blocks is None:
        return False
    for space, reps, n in blocks:
        rows = _F2Space()
        for img in _apply_vectors(f.rows, reps):
            residual, tag = space.reduce(img)
            if residual:
                return False
            rows.add(tag)
        if rows.rank != n:
            return False
    return True


def induces_localized_iso(f: UMap, ha=None, hb=None) -> bool:
    """Does f invert the deep (U-localized) homology on every parity?"""
    ha = ha if ha is not None else homology(f.src)
    hb = hb if hb is not None else homology(f.tgt)
    return deep_iso(_deep_blocks(f.src, f.tgt, ha, hb), f)


def is_local_equivalence(f: UMap, iota_src: UMap, iota_tgt: UMap) -> bool:
    """Chain map commuting with the involutions up to homotopy and inverting
    the localized homology."""
    if not f.is_chain_map():
        return False
    if nullhomotopy(map_sum(compose(iota_tgt, f), compose(f, iota_src))) is None:
        return False
    return induces_localized_iso(f)


def deep_kernel_ranks(maps: list[UMap], ha: GradedUModule) -> list[int]:
    """Dimension of the kernel of each map on the slices of its source below
    all of its generators, at each parity of `ha` (the `homology` of that
    source), with every entry placed by its explicit exponent.  The maps
    share one source, target and degree, so each slice's bases and the place
    of every entry are built once, and each map's rows are applied through
    them."""
    if not maps:
        return []
    src, tgt, degree = maps[0].src, maps[0].tgt, maps[0].degree
    assert all(f.src is src and f.tgt is tgt and f.degree == degree for f in maps)
    low = min(src.gradings)
    slices = []  # per parity: (j, {i: the bit of entry (i, j)}) per source basis pair
    for par in ha.deep:
        g = par + 2 * ((low - par) // 2) - 2
        index = {pair: t for t, pair in enumerate(ref_slice_basis(tgt, g + degree))}
        places = []
        for j, a in ref_slice_basis(src, g):
            exps = ((i, exp_of(src.gradings[j], h, degree)) for i, h in enumerate(tgt.gradings))
            places.append((j, {i: 1 << index[(i, a + e)] for i, e in exps if e is not None}))
        slices.append(places)
    ranks = []
    for f in maps:
        total = 0
        for places in slices:
            space = _F2Space()
            for j, place in places:
                space.add(sum(place[i] for i in _bits(f.rows[j])))
            total += len(places) - space.rank
        ranks.append(total)
    return ranks


def self_local_equivalences(cx, iota, rank_bound=8) -> list[UMap]:
    """The local equivalences of a complex to itself."""
    return local_equivalences(cx, iota, cx, iota, rank_bound)


def ref_local_equivalences(src, iota_src, tgt, iota_tgt, rank_bound=8):
    """`local_equivalences` with each combination of the chain-map basis
    rebuilt as a map and tested on its own."""
    fpos, fbasis = _chain_map_basis(src, iota_src, tgt, iota_tgt, rank_bound)
    blocks = _deep_blocks(src, tgt, homology(src), homology(tgt))
    found = []
    for combo in range(1, 1 << len(fbasis)):
        fbits = 0
        for t in _bits(combo):
            fbits ^= fbasis[t]
        f = UMap(src, tgt, Fraction(0), tuple(_map_rows(fbits, fpos, len(src))))
        if deep_iso(blocks, f):
            found.append(f)
    found.sort(key=lambda f: f.rows)
    return found


def image_key(f: UMap) -> tuple:
    """Equal for two self-maps of one complex exactly when their images are
    the same subcomplex: the reduced echelon of im f in the slice of each
    generator grading, built from the map itself."""
    key = []
    for _, _, events in f.tgt._sweep:
        space = _F2Space()
        for _, _, entering, _ in events:
            if entering:
                for j in _bits(entering):
                    space.add(f.rows[j])
                key.append(space.reduced())
    return tuple(key)


def ref_connected_homology(cx, iota, rank_bound=8) -> GradedUModule:
    """`connected_homology_brute` from the list of `self_local_equivalences`:
    the deep kernel rank of each map, then one image homology per distinct
    image among the maximizers, which must all agree."""
    ha = homology(cx)
    cands = self_local_equivalences(cx, iota, rank_bound)
    ranks = deep_kernel_ranks(cands, ha)
    top = max(ranks, default=-1)
    best = [f for f, kr in zip(cands, ranks) if kr == top]
    modules = {}
    for f in best:
        key = image_key(f)
        if key not in modules:
            m = image_homology(f)
            modules[key] = (m.towers, m.torsion)
    if len(set(modules.values())) != 1:
        raise ValueError("maximal self equivalences disagree")
    return GradedUModule(*next(iter(modules.values())))


# ---------------------------------------------------------------------------
# the involution lift by walking the root


def _subtree_top(root: GradedRoot, c):
    """The first vertex from c upward with other than one child."""
    while len(root.children(c)) == 1:
        c = root.children(c)[0]
    return c


def _child_toward(root: GradedRoot, u, leaf):
    """The child of u on the path from u up to `leaf`."""
    prev = leaf
    x = root.succ[leaf]
    while x != u:
        prev = x
        x = root.succ[x]
    return prev


def chain_to_rep(model, leaf, u) -> int:
    """Angle set whose boundary joins `leaf` to the representative leaf of
    the subtree over u (with the grading-forced U-powers)."""
    root = model.root
    if leaf == model.rep_leaf[u]:
        return 0
    c = _child_toward(root, u, leaf)
    mask = chain_to_rep(model, leaf, _subtree_top(root, c))
    kids = root.children(u)
    i = kids.index(c)
    j = next(t for t, cc in enumerate(kids) if model.rep_leaf[cc] == model.rep_leaf[u])
    for s in range(min(i, j), max(i, j)):
        mask ^= 1 << model.angle_gen[(u, s)]
    return mask


def _join(root: GradedRoot, a, b):
    """The first vertex the successor chains of a and b share."""
    down = set()
    x = a
    while x is not None:
        down.add(x)
        x = root.succ[x]
    x = b
    while x not in down:
        x = root.succ[x]
    return x


def ref_lift_rows(model) -> list[int]:
    """The rows of `lift_involution(model)`: leaves to their partner leaves,
    each angle to the angle chain joining its two partner representatives
    through the vertex where their paths join."""
    root = model.root
    perm = root.involution
    rows = [0] * len(model.cx)
    for leaf, gen in model.leaf_gen.items():
        rows[gen] = 1 << model.leaf_gen[perm[leaf]]
    for (v, s), gen in model.angle_gen.items():
        kids = root.children(v)
        r1 = perm[model.rep_leaf[kids[s]]]
        r2 = perm[model.rep_leaf[kids[s + 1]]]
        u = _join(root, r1, r2)
        rows[gen] = chain_to_rep(model, r1, u) ^ chain_to_rep(model, r2, u)
    return rows


# ---------------------------------------------------------------------------
# the monotone subroot's leaves by one leaf set per vertex


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


def ref_monotone_leaves(root: GradedRoot) -> tuple[int, ...]:
    """`monotone_leaves` by walking the stem over explicit leaf sets."""
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


def monotone_homology(root: GradedRoot) -> GradedUModule:
    """The connected homology of a root as the pipeline computes it for a
    directly presented knot, the homology of its monotone subroot's model,
    checked against `connected_homology_brute` of the whole root's model
    when that model is within the search's default bounds."""
    sub = monotone_subroot(root)
    module = homology(model_complex(sub).cx)
    model = model_complex(root)
    try:
        brute = connected_homology_brute(model.cx, lift_involution(model))
    except RankBoundExceeded:
        return module
    if brute != module:
        raise ConsistencyError("monotone subroot disagrees with the brute-force image")
    return module


# ---------------------------------------------------------------------------
# a knot's package read off its root by ranks of U^k


def _f2_rank(vectors) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v and (top := v.bit_length() - 1) in pivots:
            v ^= pivots[top]
        if v:
            pivots[top] = v
    return len(pivots)


def _f2_kernel(images: dict[int, int]) -> list[int]:
    """A basis of the kernel of the map sending the bit of each key to its
    value, as bitmasks over the keys."""
    pivots: dict[int, tuple[int, int]] = {}
    out = []
    for key, v in images.items():
        combo = 1 << key
        while v and (top := v.bit_length() - 1) in pivots:
            v ^= pivots[top][0]
            combo ^= pivots[top][1]
        if v:
            pivots[top] = (v, combo)
        else:
            out.append(combo)
    return out


def _ref_bars(root: GradedRoot, part: str, shift) -> tuple[list, list]:
    """(towers, torsion) of the F_2[U]-module H(root) (`part` "all"), of the
    kernel of 1 + J on it ("ker") or of its cokernel ("coker"), graded by
    weight + `shift`: H(root) has one generator per vertex at its weight, U
    sending a vertex to its successor, and the bottom vertex of a stable root
    carries on as a tower.  From the ranks r(n, k) of U^k from level n to
    level n + k, a bar with top level n reaching level n + k is counted by
    r(n, k) - r(n - 1, k + 1); a bar reaching level n_max is a tower."""
    j = root.involution
    lo, hi = root.n_min, root.n_max
    verts = {n: root.vertices_at(n) for n in range(lo, hi + 1)}
    if part == "ker":
        gens = {n: _f2_kernel({v: (1 << v) ^ (1 << j[v]) for v in vs}) for n, vs in verts.items()}
    else:
        gens = {n: [1 << v for v in vs] for n, vs in verts.items()}
    rels = {n: [(1 << v) ^ (1 << j[v]) for v in vs] if part == "coker" else [] for n, vs in verts.items()}

    def down(vec, k):
        out = 0
        for v in _bits(vec):
            for _ in range(k):
                v = root.succ[v]
            out ^= 1 << v
        return out

    def rank(n, k):
        if n < lo:
            return 0
        images = [down(g, k) for g in gens[n]]
        return _f2_rank(images + rels[n + k]) - _f2_rank(rels[n + k])

    towers, torsion = [], []
    for n in range(lo, hi + 1):
        alive = [rank(n, k) - rank(n - 1, k + 1) for k in range(hi - n + 1)]
        grading = root.offset - 2 * n + shift
        towers += [grading] * alive[-1]
        for k in range(hi - n):
            torsion += [(grading, k + 1)] * (alive[k] - alive[k + 1])
    return towers, torsion


def _ref_module(towers, torsion) -> GradedUModule:
    return GradedUModule(
        tuple(sorted(towers, reverse=True)), tuple(sorted(torsion, key=lambda t: (-t[0], t[1])))
    )


def ref_root_invariants(root: GradedRoot) -> tuple[BranchedModule, GradedUModule]:
    """The branched module and the connected module of a stable root, shifted
    by -2 as a knot's are, with no chain complex: the branched cone's
    homology is ker(1 + J) at the weights plus coker(1 + J) one grading
    lower, its corrections the top weight and the weight of the highest
    invariant vertex; the connected module is H of the monotone subroot
    (`ref_monotone_leaves`)."""
    ker = _ref_bars(root, "ker", -2)
    coker = _ref_bars(root, "coker", -3)
    j = root.involution
    lower = max(root.weights[v] for v in range(len(root)) if j[v] == v) - 2
    branched = BranchedModule(
        root.d_invariant() - 2, lower, _ref_module(ker[0] + coker[0], ker[1] + coker[1])
    )
    sub = _subroot_spanned(root, ref_monotone_leaves(root))
    return branched, _ref_module(*_ref_bars(sub, "all", -2))


# ---------------------------------------------------------------------------
# deleting swapped leaf pairs


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of symmetric_reduction.

    root: the reduced root; its involution is trivial unless obstructed.
    deletions: number of swapped leaf pairs removed.
    obstructed: True when some pair admitted no certified deletion; the root
    then still carries the partially reduced involution.
    """

    root: GradedRoot
    deletions: int
    obstructed: bool


def _extend_to_angles(msrc, mtgt, rows):
    """Complete a leaf prescription to a chain map by solving for the angle
    entries, or return None when the linear system has no solution."""
    src, tgt = msrc.cx, mtgt.cx
    angle_src = sorted(msrc.angle_gen.values())
    angle_tgt = sorted(mtgt.angle_gen.values())
    unknowns = [
        (a, b)
        for a in angle_src
        for b in angle_tgt
        if exp_of(src.gradings[a], tgt.gradings[b], Fraction(0)) is not None
    ]
    matrix, rhs = [], []
    for a in angle_src:
        want = 0
        for i in _bits(src.diff[a]):
            want ^= rows[i]
        for t in range(len(tgt)):
            coeffs = [1 if ua == a and (tgt.diff[b] >> t) & 1 else 0 for ua, b in unknowns]
            bit = (want >> t) & 1
            if any(coeffs) or bit:
                matrix.append(coeffs)
                rhs.append(bit)
    sol = solve_mod2(matrix, rhs) if matrix else [0] * len(unknowns)
    if sol is None:
        return None
    for (a, b), x in zip(unknowns, sol):
        if x:
            rows[a] |= 1 << b
    return rows


def _delete_pair(root: GradedRoot, pair) -> GradedRoot | None:
    """Remove one swapped leaf pair, certified by a local equivalence onto
    the spanned subroot; None when every same-weight invariant target fails."""
    survivors = [l for l in root.leaves if l not in pair]
    sub = _subroot_spanned(root, survivors)
    # the subroot keeps, in id order, every vertex below a survivor
    kept = set()
    for v in survivors:
        while v is not None:
            kept.add(v)
            v = root.succ[v]
    index = {v: i for i, v in enumerate(sorted(kept))}
    msrc = model_complex(root)
    mtgt = model_complex(sub)
    iota_src = lift_involution(msrc)
    iota_tgt = lift_involution(mtgt)
    w = root.weights[pair[0]]
    j = root.involution
    targets = [
        v
        for v in range(len(root))
        if j[v] == v and root.weights[v] == w and v in index
    ]
    for x in targets:
        rows = [0] * len(msrc.cx)
        hit = mtgt.leaf_gen[mtgt.rep_leaf[index[x]]]
        for leaf, gen in msrc.leaf_gen.items():
            rows[gen] = 1 << (hit if leaf in pair else mtgt.leaf_gen[index[leaf]])
        rows = _extend_to_angles(msrc, mtgt, rows)
        if rows is None:
            continue
        f = UMap(msrc.cx, mtgt.cx, Fraction(0), tuple(rows))
        if is_local_equivalence(f, iota_src, iota_tgt):
            return sub
    return None


def symmetric_reduction(root: GradedRoot) -> ReductionReport:
    """Repeatedly delete swapped leaf pairs (smallest ids first) until the
    involution fixes every leaf, certifying each step."""
    current = root
    deletions = 0
    while True:
        j = current.involution
        moved = [l for l in current.leaves if j[l] != l]
        if not moved:
            trivial = tuple(range(len(current)))
            assert all(j[v] == v for v in range(len(current)))
            reduced = GradedRoot(
                current.levels, current.offset, current.succ, trivial, current.stable,
                current.engine,
            )
            return ReductionReport(reduced, deletions, False)
        a = min(moved)
        nxt = _delete_pair(current, (a, j[a]))
        if nxt is None:
            return ReductionReport(current, deletions, True)
        current = nxt
        deletions += 1


# ---------------------------------------------------------------------------
# star central profile by dynamic programming along the legs


def ref_min_plus_first(xs, f, mults):
    """First index j minimizing -2*a*xs[j] + f[j], for each a in `mults`.

    `xs` must be strictly increasing and `mults` nondecreasing.  Only the
    lower convex hull of the points (xs[j], f[j]) can win, and the winning
    hull vertex moves right as a grows, so one forward walk answers every
    query; ties keep the leftmost (lowest index) point.

    >>> ref_min_plus_first([0, 1, 2], [0, -1, 2], [-1, 0, 1, 2])
    [0, 1, 1, 2]
    """
    hull = []
    for j in range(len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (f[b] - f[a]) * (xs[j] - xs[b]) >= (f[j] - f[b]) * (xs[b] - xs[a]):
                hull.pop()
            else:
                break
        hull.append(j)
    out = []
    t = 0
    for a in mults:
        while t + 1 < len(hull):
            b, c = hull[t], hull[t + 1]
            if f[c] - f[b] < 2 * a * (xs[c] - xs[b]):
                t += 1
            else:
                break
        out.append(hull[t])
    return out


def ref_leg_profile(tree, k, leg, i_values, ranges):
    """Minimum over the leg coordinates of the leg's share of 2*chi, per
    central value i, with lex-first minimizers; each coordinate l_v runs over
    ranges[v].

    The share is sum_t [-k_t x_t - w_t x_t^2] - 2 i x_1 - 2 sum x_t x_{t+1}.
    Coordinates are eliminated from the tip inward, starting from a single
    zero beyond the tip; each step is a min-plus convolution handled by
    `ref_min_plus_first`.
    """
    dom, f, choice = [0], [0], []
    for v in reversed(leg):
        xs = list(ranges[v])
        best = ref_min_plus_first(dom, f, xs)
        f = [
            -k[v] * x - tree.weights[v] * x * x - 2 * x * dom[j] + f[j]
            for x, j in zip(xs, best)
        ]
        dom = xs
        choice.append((xs, best))
    mins, argmins = [], []
    for a, idx in zip(i_values, ref_min_plus_first(dom, f, i_values)):
        mins.append(-2 * a * dom[idx] + f[idx])
        coords = []
        for xs, best in reversed(choice):  # from the centre out: each vertex's own range
            coords.append(xs[idx])
            idx = best[idx]
        argmins.append(tuple(coords))
    return mins, argmins


def ref_central_profile(tree, k, center, legs, slices):
    """`roots._central_profile` by `ref_leg_profile`.

    Every slice's minimum is at most chi at its point with all leg
    coordinates 0, so every slice minimizer lies in S_cap for cap the largest
    of those values, and the leg DP runs each coordinate over its exact range
    on S_cap (`coordinate_ranges`)."""
    slices = list(slices)
    if not slices:
        return [], []
    base = [[0] * len(tree) for _ in slices]
    for point, i in zip(base, slices):
        point[center] = i
    ranges = coordinate_ranges(tree, k, max(chi(tree, k, tuple(p)) for p in base))
    total = [-k[center] * i - tree.weights[center] * i * i for i in slices]
    for leg in legs:
        mins, argmins = ref_leg_profile(tree, k, leg, slices, ranges)
        total = [a + b for a, b in zip(total, mins)]
        for point, coords in zip(base, argmins):
            for v, x in zip(leg, coords):
                point[v] = x
    return [x // 2 for x in total], [tuple(p) for p in base]


@functools.lru_cache(maxsize=64)
def ellipsoid(tree, k):
    """Q^{-1}k by Gaussian elimination, and the diagonal of (-Q)^{-1} as
    -(the cofactor of v) / det Q by Bareiss determinants.  Kept per (tree,
    k): the generator family's 68-vertex trees take about a second."""
    q = intersection_form(tree)
    det = determinant(q)
    minors = [determinant([r[:v] + r[v + 1 :] for r in q[:v] + q[v + 1 :]]) for v in range(len(q))]
    return solve_exact(q, list(k)), [Fraction(-m, det) for m in minors]


def coordinate_ranges(tree, k, cap) -> list[range]:
    """The exact integer range of every coordinate l_v over {l : chi_k(l) <=
    cap}, empty where no integer fits, from dense matrix algebra: 2 chi_k(l)
    = const + (l - c)^T (-Q) (l - c) with c = -Q^{-1}k / 2 and const =
    k^T Q^{-1} k / 4, so l_v runs over (l_v - c_v)^2 <= (2 cap - const)
    ((-Q)^{-1})_vv.  The reference for `plumbing.coordinate_range`, which
    reads c, const and that diagonal entry off the tree's integer elimination."""
    pd, spread = ellipsoid(tree, tuple(k))
    const = sum(x * y for x, y in zip(k, pd)) / 4
    out = []
    for v in range(len(tree)):
        r2, c = (2 * cap - const) * spread[v], -pd[v] / 2
        if r2 < 0:
            out.append(range(0))
            continue
        a, b = c.numerator, c.denominator
        s = math.isqrt(math.floor(r2 * b * b))  # |b l_v - a| <= s
        out.append(range(-((s - a) // b), (a + s) // b + 1))
    return out


# ---------------------------------------------------------------------------
# star roots read off the box engine's union-find sweep


def least_minimizer(tree, k, center, legs):
    """The function taking a slice i of a star to the least minimizer of chi
    on l_center = i, each leg built outward from the centre from its
    `roots._leg_seifert` data by `roots._leg_minimizer`: the closed form
    whose shares of chi the star engine sums, as a point."""
    built = [
        (leg, rt._leg_seifert([tree.weights[v] for v in leg], [k[v] for v in leg])) for leg in legs
    ]

    def minimizer(i):
        point = [0] * len(tree)
        point[center] = i
        for leg, data in built:
            for v, x in zip(leg, rt._leg_minimizer(data, i)):
                point[v] = x
        return tuple(point)

    return minimizer


def ref_star_root(tree, k=None, *, n_max=None, involution="auto") -> GradedRoot:
    """`roots.build_root_star` with components read off the box engine's
    union-find `roots._Sweep` over the 1-tuples (i,) with m(i) <= cap, and
    the reflection read off the images the same sweep finds for the map
    (i,) -> (rho - i,): the reference for the package's merge tree of the
    central profile.  Slices, profile and stop rule are the package's;
    each component's representative is the least minimizer of chi on its
    slice of least (m(i), i), built leg by leg (`roots._leg_minimizer`), and
    each level's components are sorted by their representatives.  The root
    is assembled here, not by `roots._assembled`."""
    k = rt._checked_char(tree, k)
    center, legs = rt._star_decompose(tree)
    minimizer = least_minimizer(tree, k, center, legs)
    pd = pd_vector(tree, k)
    point_map = None
    if all(x.denominator == 1 for x in pd):
        rho = -int(pd[center])
        point_map = lambda p: (rho - p[0],)

    def profile(cap):
        slices = coordinate_ranges(tree, k, cap)[center]
        m = rt._central_profile(tree, k, center, legs, slices)
        return {(i,): mi for i, mi in zip(slices, m) if mi <= cap}

    if n_max is None:
        span = 8
        while True:
            cap = math.ceil(k_square(tree, k) / 8) + span  # chi >= k^2 / 8
            m = profile(cap)
            if m:
                sweep = rt._Sweep(m, cap, point_map)
                conn = next((n for n, comps in sweep.levels if len(comps) == 1), cap)
                stop = conn + rt._MARGIN
                if stop <= cap:
                    break
            span *= 2
    else:
        stop = n_max
        m = profile(stop)
        if not m:
            raise rt.InstabilityError("stop level lies below the minimum of chi")
        sweep = rt._Sweep(m, stop, point_map)

    # a new component's least slice is its leftmost, a merged one's its
    # children's least; a component is (level, its position in the sweep)
    least = {}
    for n, comps in sweep.levels:
        for p, (point, _, up) in enumerate(comps):
            least.setdefault((n, p), (n, point))
            if up is not None:
                least[n + 1, up] = min(least.get((n + 1, up), least[n, p]), least[n, p])
    kept = [(n, comps) for n, comps in sweep.levels if n <= stop]
    order = [
        (n, p)
        for n, comps in kept
        for p in sorted(range(len(comps)), key=lambda p: minimizer(*least[n, p][1]))
    ]
    index = {v: i for i, v in enumerate(order)}
    record = {(n, p): c for n, comps in kept for p, c in enumerate(comps)}
    named = {"trivial": tuple(range(len(order)))}
    if point_map:
        refl = tuple(index.get((n, record[n, p][1])) for n, p in order)
        if None in refl:
            raise ConsistencyError("lattice reflection does not map the root onto itself")
        named["reflection"] = refl
    if involution == "auto":
        involution = "reflection" if point_map else "trivial"
    if involution not in ("reflection", "trivial"):
        raise ValueError(f"unknown involution {involution!r}")
    if involution not in named:
        raise ValueError("no lattice reflection attached to this root")
    return GradedRoot(
        levels=tuple(n for n, _ in order),
        offset=(k_square(tree, k) + len(tree)) / 4,
        succ=tuple(index.get((n + 1, record[n, p][2])) for n, p in order),
        involution=named[involution],
        stable=len(kept[-1][1]) == 1,
        engine="star",
    )


# ---------------------------------------------------------------------------
# graded root isomorphism by backtracking


def _trimmed(root) -> set[int]:
    """Vertex set with the unbranched tail of the stem removed."""
    keep = set(range(len(root)))
    bottoms = [v for v in range(len(root)) if root.succ[v] is None]
    while len(bottoms) == 1 and len(root.children(bottoms[0])) == 1:
        keep.remove(bottoms[0])
        bottoms = list(root.children(bottoms[0]))
    return keep


def _shape_key(root, v, keep) -> tuple:
    w = root.weights[v]
    childkeys = tuple(sorted(_shape_key(root, c, keep) for c in root.children(v) if c in keep))
    return ((w.numerator, w.denominator), childkeys)


def ref_isomorphisms(a, b):
    """Yield the weight-preserving isomorphisms (dicts a -> b) of the two
    stem-trimmed roots that carry a's involution to b's, matching children
    of equal shape key in every order.

    A partial map is dropped as soon as it sends some x to y and j(x) to
    anything but j(y).  Children are matched in order of shape key, then of
    the smaller id in their orbit, so the two halves of a swapped pair of
    siblings are placed one after the other and a pair that b does not swap
    is refused at once."""
    sa, sb = _trimmed(a), _trimmed(b)
    ja, jb = a.involution, b.involution
    roots_a = sorted(v for v in sa if a.succ[v] not in sa)
    roots_b = sorted(v for v in sb if b.succ[v] not in sb)

    def match(va, vb, acc):
        if a.weights[va] != b.weights[vb]:
            return
        acc = {**acc, va: vb}
        if ja[va] in acc and acc[ja[va]] != jb[vb]:
            return
        ca = [c for c in a.children(va) if c in sa]
        cb = [c for c in b.children(vb) if c in sb]
        yield from match_sets(ca, cb, acc)

    def match_sets(ca, cb, acc):
        if len(ca) != len(cb):
            return
        keys_a = {c: _shape_key(a, c, sa) for c in ca}
        keys_b = {c: _shape_key(b, c, sb) for c in cb}
        if sorted(keys_a.values()) != sorted(keys_b.values()):
            return
        ca = sorted(ca, key=lambda c: (keys_a[c], min(c, ja[c]), c))

        def assign(i, used, acc):
            if i == len(ca):
                yield acc
                return
            c = ca[i]
            for c2 in cb:
                if c2 in used or keys_b[c2] != keys_a[c]:
                    continue
                for grown in match(c, c2, acc):
                    yield from assign(i + 1, used | {c2}, grown)

        yield from assign(0, frozenset(), acc)

    yield from match_sets(roots_a, roots_b, {})


def ref_is_isomorphic(a, b) -> bool:
    """Whether some isomorphism of `ref_isomorphisms` exists."""
    return next(ref_isomorphisms(a, b), None) is not None


# ---------------------------------------------------------------------------
# plumbing fixtures and the elimination as a completed square


def linear_chain(weights: list[int]) -> PlumbingTree:
    """A linear plumbing: vertex i joined to vertex i + 1."""
    return PlumbingTree(
        tuple(weights), tuple((i, i + 1) for i in range(len(weights) - 1))
    )


def intersection_form(tree: PlumbingTree) -> list[list[int]]:
    """Q as a list of rows: the weights on the diagonal, 1 for each edge."""
    n = len(tree)
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = tree.weights[i]
    for a, b in tree.edges:
        q[a][b] = q[b][a] = 1
    return q


def eliminate(tree: PlumbingTree, k: tuple[int, ...]):
    """Leaves-inward elimination of 2 chi_k(l) = l^T (-Q) l - k(l), read off
    the package's two integer passes kept on the tree.

    Vertices are ordered breadth-first from vertex 0 and eliminated in
    reverse: each completes its square against its parent, which on a tree
    is the only vertex it touches, so there is no fill-in.  Returns (order,
    parent, pivots, shifts, const) with

        2 chi_k(l) = const + sum_v pivots[v] (l_v - (l_parent[v] + shifts[v]) / pivots[v])^2

    where l_None = 0 and `order` lists every vertex after its parent.  The
    pivots are those of -Q in this order, so Q is negative definite exactly
    when all are positive; the first that is not raises DefinitenessError.
    pivots[v] = D_v / P_v, shifts[v] = Y_v / (2 P_v) and const are made
    here, in fresh lists.
    """
    order, parent, dets, prods = tree._elimination
    ys, _, kx = tree._solve(k)
    pivots = [Fraction(d, p) for d, p in zip(dets, prods)]
    shifts = [Fraction(y, 2 * p) for y, p in zip(ys, prods)]
    return list(order), dict(enumerate(parent)), pivots, shifts, Fraction(-kx, 4 * dets[0])


# ---------------------------------------------------------------------------
# dense exact matrix algebra


def determinant(m: list[list[int]]) -> int:
    """Integer determinant by fraction-free Bareiss elimination.

    >>> determinant([[2, 1], [1, 2]])
    3
    >>> determinant([[0, 1], [1, 0]])
    -1
    """
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            # find a row below with a nonzero pivot and swap
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: exact division, stays integral
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_minors(m: list[list[int]]) -> list[int]:
    """Leading principal minors [det m[:1,:1], det m[:2,:2], ...]."""
    return [determinant([row[: k + 1] for row in m[: k + 1]]) for k in range(len(m))]


def is_negative_definite(m: list[list[int]]) -> bool:
    """Sylvester test: k-th leading minor has sign (-1)^k.

    >>> is_negative_definite([[-2, 1], [1, -2]])
    True
    >>> is_negative_definite([[-2, 3], [3, -2]])
    False
    """
    minors = leading_minors(m)
    return all((-1) ** (k + 1) * minors[k] > 0 for k in range(len(m)))


def solve_exact(m: list[list[int]], rhs: list) -> list[Fraction]:
    """Solve m x = rhs exactly; raises ValueError if m is singular.

    Entries of rhs may be ints or Fractions.
    """
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def invert_exact(m: list[list[int]]) -> list[list[Fraction]]:
    """Exact inverse of an integer matrix (columns solved one at a time)."""
    n = len(m)
    cols = [solve_exact(m, [1 if i == j else 0 for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def solve_mod2(m: list[list[int]], rhs: list[int]) -> list[int] | None:
    """One solution of m x = rhs over F_2, or None if inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [[m[i][j] & 1 for j in range(cols)] + [rhs[i] & 1] for i in range(rows)]
    pivots = []
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(rows):
            if r != rank and a[r][col]:
                a[r] = [x ^ y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
    if any(row[cols] for row in a[rank:]):
        return None
    x = [0] * cols
    for r, col in enumerate(pivots):
        x[col] = a[r][cols]
    return x
