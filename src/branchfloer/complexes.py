"""Free complexes over F_2[U] with involutions, and their homology.

Everything here is graded: U has degree -2 and a homogeneous map of degree d
can send a generator x to U^e y only when e = (gr(y) - gr(x) - d)/2 is a
nonnegative integer.  The exponent is therefore determined by the gradings,
so maps are stored as plain F_2 matrices (one bitmask row per source
generator) and composition is xor arithmetic.

The homology of such a complex is a direct sum of towers F_2[U] and torsion
pieces F_2[U]/U^n; both are read off by sweeping grading slices from the top
down and tracking which classes survive multiplication by U (a barcode).
Deep slices, below every generator, stabilize; the classes still alive there
are the towers.

The branched construction attaches the mapping cone of 1 + iota with an
extra degree -1 marker Q.  Its homology carries exactly two towers and the
Q-action on deep classes tells the upper tower apart from the lower one.

This chain layer runs only for sums and `verify`: `knots._Eval` imports it
when a node first needs a model (`_root_model`, `_combined`,
`reduced_model`), a search or a cone.  Its results are the module types of
`connected`.  A sum's connected homology is the homology of its tensor
reduced by `reduced_model`, one F_2 solve per deep boundary a round.

A vector over a grading slice is a bitmask over generator ids: bit j is x_j
at the U-power the slice forces (`_slice` gives the slice's mask).  In these
coordinates the boundary of x_j in any slice is diff[j], its image under a
degree-0 map is rows[j], and multiplication by U is the identity, so no
slice is ever re-indexed.  `homology` keeps one echelon of boundaries and
one of the slice differential per parity, both growing as generators enter
its downward sweep.  Every other chain-level job has one routine:
`_apply_vectors` for applying or composing bitmask matrices, `plumbing`'s
`_F2Space` for every F_2 echelon and `_kernel_of` for the kernel of a
linear system, `_columns` for the column of each unknown of X -> a X + X b
in the system of `_chain_map_basis`, and `_walk` for the search over the
chain maps that `local_equivalences` and `connected_homology_brute` (the
`verify` reference for sums) both run: one Gray-code walk that xors one
precomputed delta per candidate and yields the rows of each equivalence.
The model complex of a graded root keeps one angle mask per vertex
(`ModelComplex.path`), and the involution's lift reads each angle's image
off two of them; its square is checked to be the identity exactly, with no
homotopy to solve for (`lift_involution`).

Gradings are `Fraction`s at the interface only.  A complex here is one spin
structure's, so its gradings lie in one coset of Z; the public constructor
refuses any other.  Each complex holds one `Fraction` offset and integer
levels (`UComplex._grid`: gr = offset + level), and each constructor hands
levels through: a shift moves the offset, a dual negates levels, a tensor
adds them, a cone appends level - 1, a model reads -2 * level (+1 for an
angle).  `Fraction` arithmetic is left once per distinct level of a new
complex (or grading, for the public constructor), once per parity in
`_sweep` and `branched_invariants`, once per allowed-entry check
(`_allowed`: an integer shift between grids, then one bisection per source
level) and in degrees of maps; `homology` reads births off generator
gradings.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import xor
from typing import NamedTuple

from .connected import BranchedModule, GradedUModule
from .plumbing import ConsistencyError, _bits, _F2Space


class RankBoundExceeded(RuntimeError):
    """A complex or a brute-force search space exceeds the rank bound."""


@dataclass(frozen=True)
class UComplex:
    """Finitely generated free complex over F_2[U]; diff has degree -1.

    diff[j] is the bitmask of generators hit by generator j, each with the
    grading-forced power of U."""

    gradings: tuple[Fraction, ...]
    diff: tuple[int, ...]

    def __post_init__(self):
        if len(self.diff) != len(self.gradings):
            raise ConsistencyError("gradings and differential differ in length")
        bad = _invalid_entry(self.diff, _allowed(self, self, -1))
        if bad:
            raise ConsistencyError(f"differential entry {bad} has no valid U-power")
        if any(_apply_vectors(self.diff, self.diff)):
            raise ConsistencyError("differential does not square to zero")

    @classmethod
    def _on_grid(cls, offset, levels, diff, base=None):
        """The complex gr(x_j) = offset + levels[j], one `Fraction` per
        distinct level.  A shift of `base` shares its level tables and skips
        the checks: moving every grading by the same amount keeps the table
        of allowed entries, and the differential is the base's, which passed
        them."""
        num, den = offset.numerator, offset.denominator
        at = {h: Fraction(num + h * den, den) for h in set(levels)}
        self = cls.__new__(cls)
        grid = (offset, tuple(levels))
        vars(self).update(gradings=tuple(map(at.__getitem__, levels)), diff=tuple(diff), _grid=grid)
        if base is None:
            self.__post_init__()
        else:
            vars(self).update({k: getattr(base, k) for k in ("_by_level", "_classes")})
        return self

    def __len__(self):
        return len(self.gradings)

    @cached_property
    def _grid(self) -> tuple:
        """(offset, levels): gr(x_j) = offset + levels[j], the levels
        integers, with one `Fraction` step per distinct grading."""
        distinct = {}
        ids = [distinct.setdefault(g, len(distinct)) for g in self.gradings]
        offset = Fraction(min(distinct, default=0))
        rel = [g - offset for g in distinct]
        if any(r.denominator != 1 for r in rel):
            raise ConsistencyError("gradings lie in more than one coset of Z")
        return offset, tuple(rel[i].numerator for i in ids)

    @cached_property
    def _by_level(self) -> dict:
        """Each distinct level with the bitmask of its generators."""
        out = {}
        for j, level in enumerate(self._grid[1]):
            out[level] = out.get(level, 0) | 1 << j
        return out

    @cached_property
    def _classes(self) -> dict:
        """Per class of levels mod 2: its levels negated, ascending, and the
        running union of their generator masks, 0 first."""
        out = {}
        for h in sorted(self._by_level, reverse=True):
            neg, masks = out.setdefault(h % 2, ([], [0]))
            neg.append(-h)
            masks.append(masks[-1] | self._by_level[h])
        return {c: (tuple(neg), tuple(masks)) for c, (neg, masks) in out.items()}

    @cached_property
    def _sweep(self) -> tuple:
        """The downward sweep of `homology`, per parity class of levels:
        (parity, class mask, events), each event (level, its grading,
        generators entering the slice there, generators whose boundaries
        start to land there), by descending level.  A generator at level L
        enters the slices of its class at L, and its boundary lands in the
        other class from L - 1 down."""
        events = {}
        for level, gens in self._by_level.items():
            ev = events.setdefault(level, [level, None, 0, 0])
            ev[1], ev[2] = self.gradings[(gens & -gens).bit_length() - 1], gens
            events.setdefault(level - 1, [level - 1, None, 0, 0])[3] = gens
        classes = {}
        for level in sorted(events, reverse=True):
            classes.setdefault(level % 2, []).append(tuple(events[level]))
        out = []
        for c, evs in classes.items():
            mask = self._classes[c][1][-1] if c in self._classes else 0
            if mask:
                par = Fraction(self.gradings[(mask & -mask).bit_length() - 1]) % 2
                out.append((par, mask, tuple(evs)))
        return tuple(sorted(out, key=lambda c: c[0]))


def shift_complex(cx: UComplex, s) -> UComplex:
    """Add s to every grading."""
    offset, levels = cx._grid
    return UComplex._on_grid(offset + s, levels, cx.diff, base=cx)


def _transpose(rows, n):
    """Transpose of an F_2 matrix given as bitmask rows over n columns."""
    out = [0] * n
    for j, row in enumerate(rows):
        for i in _bits(row):
            out[i] |= 1 << j
    return out


def dual_complex(cx: UComplex) -> UComplex:
    """Plain graded dual: gradings negate, differential transposes."""
    offset, levels = cx._grid
    return UComplex._on_grid(-offset, [-h for h in levels], _transpose(cx.diff, len(cx)))


def tensor_complex(a: UComplex, b: UComplex) -> UComplex:
    """Tensor product over F_2[U]; generator (i, j) sits at index i*len(b)+j,
    at the sum of their levels."""
    (oa, la), (ob, lb) = a._grid, b._grid
    nb = len(b)
    levels = []
    rows = []
    for i in range(len(a)):
        for j in range(nb):
            levels.append(la[i] + lb[j])
            r = 0
            for t in _bits(a.diff[i]):
                r |= 1 << (t * nb + j)
            for t in _bits(b.diff[j]):
                r |= 1 << (i * nb + t)
            rows.append(r)
    return UComplex._on_grid(oa + ob, levels, rows)


@dataclass(frozen=True)
class UMap:
    """Homogeneous F_2[U]-linear map; rows[j] lists targets of generator j."""

    src: UComplex
    tgt: UComplex
    degree: Fraction
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.src):
            raise ConsistencyError("map rows and source generators differ in number")
        bad = _invalid_entry(self.rows, _allowed(self.src, self.tgt, self.degree))
        if bad:
            raise ConsistencyError(f"map entry {bad} has no valid U-power")

    def is_chain_map(self) -> bool:
        d_after = _apply_vectors(self.tgt.diff, self.rows)
        return d_after == _apply_vectors(self.rows, self.src.diff)


def identity_map(cx: UComplex) -> UMap:
    return UMap(cx, cx, Fraction(0), tuple(1 << j for j in range(len(cx))))


def compose(g: UMap, f: UMap) -> UMap:
    """g after f."""
    if f.tgt is not g.src:
        raise ValueError("composition of maps that do not meet")
    return UMap(f.src, g.tgt, f.degree + g.degree, tuple(_apply_vectors(g.rows, f.rows)))


def dual_map(f: UMap, dual_src: UComplex, dual_tgt: UComplex) -> UMap:
    """Transpose of an endomorphism-shaped map on the dual complexes."""
    return UMap(dual_src, dual_tgt, f.degree, tuple(_transpose(f.rows, len(f.tgt))))


def tensor_map(f: UMap, g: UMap, src: UComplex, tgt: UComplex) -> UMap:
    nb = len(g.src)
    nbt = len(g.tgt)
    rows = []
    for i in range(len(f.src)):
        for j in range(nb):
            r = 0
            for fi in _bits(f.rows[i]):
                for gj in _bits(g.rows[j]):
                    r |= 1 << (fi * nbt + gj)
            rows.append(r)
    return UMap(src, tgt, f.degree + g.degree, tuple(rows))


# ---------------------------------------------------------------------------
# grading slices


def _slice(cx: UComplex, level: int) -> int:
    """Bitmask of the generators x_j of the slice of cx at `level` (on its
    grid): those whose level lies at or above it in its class mod 2, x_j
    standing for x_j U^((gr(x_j) - gr)/2).  One bisection of the class."""
    got = cx._classes.get(level % 2)
    return got[1][bisect_right(got[0], -level)] if got else 0


def _allowed(src: UComplex, tgt: UComplex, degree) -> tuple[int, ...]:
    """Row masks of the entries a degree-`degree` map src -> tgt may have:
    generator j may hit exactly the generators of tgt's slice at gr(j) +
    degree, `shift` levels from j's, or none when that grading is off tgt's
    grid.  One slice per distinct source level."""
    (s_off, s_levels), t_off = src._grid, tgt._grid[0]
    rel = degree if s_off is t_off else s_off - t_off + degree
    if rel.denominator != 1:
        return (0,) * len(src)
    shift = rel.numerator
    by_level = {h: _slice(tgt, h + shift) for h in src._by_level}
    return tuple(map(by_level.__getitem__, s_levels))


def _invalid_entry(rows, allowed) -> str | None:
    """The first entry "j->i" of `rows` outside `allowed`, or None."""
    for j, row in enumerate(rows):
        bad = row & ~allowed[j]
        if bad:
            return f"{j}->{(bad & -bad).bit_length() - 1}"
    return None


def _apply_vectors(mapped, vectors):
    """Apply the F_2 matrix whose row t is the image of basis vector t (the
    rows of a map g) to bitmask vectors; on the rows of a map f, this gives
    the rows of g after f."""
    out = []
    for v in vectors:
        acc = 0
        for t in _bits(v):
            acc ^= mapped[t]
        out.append(acc)
    return out


def _kernel_of(images, sources):
    """Kernel vectors of a linear map given parallel image/source lists."""
    space = _F2Space()
    kernel = []
    for img, src in zip(images, sources):
        if src == 0:
            continue
        if img == 0:
            kernel.append(src)
            continue
        indep, combo = space.add(img, src)
        if not indep and combo:
            kernel.append(combo)
    return kernel


# ---------------------------------------------------------------------------
# homology as towers + torsion


class _Deep(NamedTuple):
    """One parity of a complex below all of its generators, where its slices
    no longer change: the generators of that parity, the surviving tower
    classes (top grading, vector) and the echelon pivots of the boundaries."""

    mask: int
    alive: tuple[tuple[Fraction, int], ...]
    bound: tuple


def homology(cx: UComplex, sub: tuple[int, ...] | None = None) -> GradedUModule:
    """Barcode homology, by one downward sweep per parity; with `sub`, the
    rows of a degree-0 chain self-map, the homology of its image instead.

    A vector over a slice is a bitmask over generators (see `_slice`): the
    slice at a level is spanned by the vectors (x_j, or sub[j]) of the
    generators at or above it, their boundaries are the diff[j] (or their
    sums over sub[j]), and multiplication by U is the identity.  So each
    parity keeps one echelon of the boundaries landing in it and one of the
    boundaries of its own vectors, tagged with the vectors (a relation is a
    cycle); both only grow as generators enter.  At each level where one
    does, the survivors from above are checked against the boundaries,
    oldest first (elder rule), then the new cycles against both."""
    if len(cx) == 0:
        return GradedUModule((), ())
    vectors = sub if sub is not None else tuple(1 << j for j in range(len(cx)))
    bounds = cx.diff if sub is None else _apply_vectors(cx.diff, sub)
    towers = []
    torsion = []
    deep = {}
    for par, mask, events in cx._sweep:
        bound, kernel = _F2Space(), _F2Space()
        alive = []  # (birth level, birth grading, vector)
        for level, grading, entering, sources in events:
            for j in _bits(sources):
                bound.add(bounds[j])
            born = []
            for j in _bits(entering):
                indep, combo = kernel.add(bounds[j], vectors[j])
                if not indep and combo:
                    born.append(combo)
            if not (sources or born):
                continue
            quotient = _F2Space(bound.pivots)
            next_alive = []
            for cls in alive:
                if quotient.add(cls[2])[0]:
                    next_alive.append(cls)
                else:
                    torsion.append((-cls[0], (cls[0] - level) // 2, cls[1]))
            for v in born:
                if quotient.add(v)[0]:
                    next_alive.append((level, grading, v))
            alive = next_alive
        deep[par] = _Deep(mask, tuple((g, v) for _, g, v in alive), tuple(bound.pivots.items()))
        towers.extend(alive)
    # descending by top, then ascending by length, on levels
    towers.sort(key=lambda t: -t[0])
    torsion.sort(key=lambda t: t[:2])
    return GradedUModule(
        tuple(g for _, g, _ in towers), tuple((g, n) for _, n, g in torsion), deep
    )


def _deep_echelon(deep: _Deep) -> _F2Space:
    """Echelon of the boundaries into a deep slice of `homology`, then of its
    tower classes, tagged 1 << position.  A fresh copy for each caller."""
    space = _F2Space(deep.bound)
    for t, (_, vec) in enumerate(deep.alive):
        space.add(vec, 1 << t)
    return space


def delta_invariant(cx: UComplex):
    """Top grading of the unique tower of H(cx)."""
    module = homology(cx)
    if len(module.towers) != 1:
        raise ConsistencyError(f"expected a single tower, found {module.towers}")
    return module.towers[0]


# ---------------------------------------------------------------------------
# model complex of a graded root


class ModelComplex:
    """Chain model of a graded root: one generator per leaf, one per angle
    between consecutive branches, with the grading-forced differential.

    Angles are numbered in vertex-id order, those of one vertex consecutively.
    path[v] is the set of angles whose boundary joins v's representative leaf
    to the representative leaf of the bottom of v's component: for u = succ[c]
    it is path[u] plus the angles of u between c and u's representative
    child.  So for a leaf l over u, path[l] ^ path[u] joins l to u's
    representative leaf, and path[l1] ^ path[l2] joins two leaves of one
    component, through the vertex where their paths meet."""

    def __init__(self, root):
        self.root = root
        order = sorted(range(len(root)), key=lambda v: root.levels[v])
        self.rep_leaf = {}
        for v in order:
            kids = root.children(v)
            if not kids:
                self.rep_leaf[v] = v
            else:
                # the leaf of largest weight, offset - 2 * level, then least id
                self.rep_leaf[v] = min(
                    (self.rep_leaf[c] for c in kids), key=lambda l: (root.levels[l], l)
                )
        # on the grid of the weights, offset - 2 * level; an angle one above
        self.leaf_gen = {leaf: j for j, leaf in enumerate(root.leaves)}
        levels = [-2 * root.levels[leaf] for leaf in root.leaves]
        self.angle_gen = {}
        rows = [0] * len(levels)
        for v in range(len(root)):
            kids = root.children(v)
            for s in range(len(kids) - 1):
                self.angle_gen[(v, s)] = len(levels)
                levels.append(1 - 2 * root.levels[v])
                left = self.leaf_gen[self.rep_leaf[kids[s]]]
                right = self.leaf_gen[self.rep_leaf[kids[s + 1]]]
                rows.append((1 << left) | (1 << right))
        self.cx = UComplex._on_grid(root.offset, levels, rows)
        self.path = [0] * len(root)
        for u in reversed(order):
            kids = root.children(u)
            if not kids:
                continue
            j = [self.rep_leaf[c] for c in kids].index(self.rep_leaf[u])
            first = self.angle_gen.get((u, 0), 0)
            for i, c in enumerate(kids):
                # angles (u, lo) .. (u, hi - 1), numbered on from `first`
                lo, hi = min(i, j), max(i, j)
                self.path[c] = self.path[u] ^ ((1 << hi - lo) - 1) << (first + lo)


def model_complex(root) -> ModelComplex:
    return ModelComplex(root)


def lift_involution(model: ModelComplex) -> UMap:
    """Chain-level involution of the model complex induced by the root's
    symmetry: leaves map to their partner leaves, angles to the angle chain
    joining the partner representatives, path[r1] ^ path[r2].

    Its square is the identity on the nose, not only up to homotopy, and is
    checked as such.  The angles of a vertex join the representative leaves
    of consecutive children, whose subtrees are disjoint, so the angles form
    a spanning forest on the leaves; a forest's incidence map is injective
    over F_2[U], so d is injective on the span of the angles.  The lift
    permutes the leaves by an involution and sends each angle into that
    span, so for an angle a, iota^2(a) + a lies in the span and is a cycle
    once iota is a chain map, hence 0."""
    root = model.root
    perm = root.involution
    rows = [0] * len(model.cx)
    for leaf, gen in model.leaf_gen.items():
        rows[gen] = 1 << model.leaf_gen[perm[leaf]]
    for (v, s), gen in model.angle_gen.items():
        r1, r2 = (perm[model.rep_leaf[c]] for c in root.children(v)[s : s + 2])
        rows[gen] = model.path[r1] ^ model.path[r2]
    iota = UMap(model.cx, model.cx, Fraction(0), tuple(rows))
    if not iota.is_chain_map():
        raise ConsistencyError("involution lift failed to commute with d")
    if compose(iota, iota).rows != identity_map(model.cx).rows:
        raise ConsistencyError("lifted involution does not square to the identity")
    return iota


def _root_model(root) -> tuple[UComplex, UMap]:
    """A root's model complex with its lifted involution, shifted by -2."""
    model = model_complex(root)
    return _shifted(model.cx, lift_involution(model), -2)


def _shifted(cx: UComplex, iota: UMap, s) -> tuple[UComplex, UMap]:
    out = shift_complex(cx, s)
    return out, UMap(out, out, iota.degree, iota.rows)


def _combined(parts) -> tuple[UComplex, UMap]:
    """A mirror's complex, the dual of its child's, or a sum's, the tensor."""
    if len(parts) == 2:
        (a, iota_a), (b, iota_b) = parts
        cx = tensor_complex(a, b)
        return _shifted(cx, tensor_map(iota_a, iota_b, cx, cx), 2)
    cx, iota = parts[0]
    out = dual_complex(cx)
    return out, dual_map(iota, out, out)


# ---------------------------------------------------------------------------
# the branched construction


def involutive_cone(cx: UComplex, iota: UMap):
    """Cone of 1 + iota with marker Q (degree -1, Q^2 = 0).

    Returns the cone complex and the Q-action on it as a chain map."""
    n = len(cx)
    offset, levels = cx._grid
    rows = [d | (r ^ 1 << j) << n for j, (d, r) in enumerate(zip(cx.diff, iota.rows))]
    rows += [d << n for d in cx.diff]
    cone = UComplex._on_grid(offset, levels + tuple(h - 1 for h in levels), rows)
    q = UMap(cone, cone, Fraction(-1), tuple(1 << (n + j) for j in range(n)) + (0,) * n)
    if not q.is_chain_map():
        raise ConsistencyError("cone marker Q is not a chain map")
    return cone, q


def branched_invariants(cx: UComplex, iota: UMap) -> BranchedModule:
    cone, q = involutive_cone(cx, iota)
    module = homology(cone)
    if len(module.towers) != 2:
        raise ConsistencyError(f"branched homology has towers {module.towers}, expected 2")
    if (module.towers[0] - module.towers[1]) % 2 != 1:
        raise ConsistencyError("branched towers do not alternate parity")
    hits = {}
    for par, deep in module.deep.items():
        if not deep.alive:
            continue
        if len(deep.alive) != 1:
            raise ConsistencyError("two towers share a parity in the branched cone")
        (top, vec), = deep.alive
        other = module.deep[(par - 1) % 2]
        (t_top, _), = other.alive
        # Q carries the class one slice down, into the other parity's deep
        # slice, which no longer changes either
        residual, tag = _deep_echelon(other).reduce(_apply_vectors(q.rows, [vec])[0])
        if residual:
            raise ConsistencyError("deep Q-image escapes the surviving tower")
        if tag:
            hits[top] = t_top
    if len(hits) != 1:
        raise ConsistencyError(f"deep Q-action is not rank one: {hits}")
    (source, target), = hits.items()
    upper = target + 1
    lower = source
    if lower > upper:
        raise ConsistencyError("branched tower ordering violated")
    return BranchedModule(upper, lower, module)


# ---------------------------------------------------------------------------
# homotopies and local equivalence


def _positions(src: UComplex, tgt: UComplex, degree):
    """The entries (j, i) a degree-`degree` map src -> tgt may have."""
    return [(j, i) for j, mask in enumerate(_allowed(src, tgt, degree)) for i in _bits(mask)]


def _columns(b_rows, a_rows, unknowns, equations):
    """The column of each unknown entry (j, i) of X in X -> a X + X b, for b
    on the source and a on the target given by bitmask rows, as a bitmask
    over the equations, entry position p being equation `equations[p]`:
    entry (j, i) lands at (j, t) for each t in a's row i and at (s, i) for
    each s whose b row holds j.  By grading, every such position is an
    allowed one of a X + X b, so an equation."""
    b_cols = _transpose(b_rows, len(b_rows))
    cols = []
    for j, i in unknowns:
        col = 0
        for t in _bits(a_rows[i]):
            col ^= 1 << equations[j, t]
        for s in _bits(b_cols[j]):
            col ^= 1 << equations[s, i]
        cols.append(col)
    return cols


def _map_rows(bits, positions, n):
    """Rows of the map whose entry positions[t] is set exactly where `bits`
    has bit t."""
    rows = [0] * n
    for t in _bits(bits):
        j, i = positions[t]
        rows[j] |= 1 << i
    return rows


def _deep_blocks(src: UComplex, tgt: UComplex, ha: GradedUModule, hb: GradedUModule):
    """Data for testing maps src -> tgt on deep tower classes, one block
    (echelon of the target's deep boundaries and classes, source tower
    classes, tower count) per parity with towers; None when the tower counts
    differ at some parity, so that no map is an equivalence.  A map sends
    the deep slice of a parity into the target's one as its rows say."""
    blocks = []
    for par in sorted(set(ha.deep) | set(hb.deep)):
        na = len(ha.deep[par].alive) if par in ha.deep else 0
        nb = len(hb.deep[par].alive) if par in hb.deep else 0
        if na != nb:
            return None
        if na == 0:
            continue
        reps = [vec for _, vec in ha.deep[par].alive]
        blocks.append((_deep_echelon(hb.deep[par]), reps, na))
    return blocks


# ---------------------------------------------------------------------------
# brute-force enumeration of local equivalences (small ranks only)


def _chain_map_basis(src, iota_src, tgt, iota_tgt, rank_bound, most=None):
    """The unknowns of a degree-0 map src -> tgt, and an independent basis
    (bitmasks over them) of the chain maps that commute with the involutions
    up to homotopy.  Raises RankBoundExceeded on a complex of rank above
    `rank_bound`, or a basis of more than `most` maps, whose 2^dim
    combinations `_walk` would visit."""
    if len(src) > rank_bound or len(tgt) > rank_bound:
        raise RankBoundExceeded(f"complex rank exceeds bound {rank_bound}")
    fpos = _positions(src, tgt, Fraction(0))
    hpos = _positions(src, tgt, Fraction(1))
    # chain condition d f + f d = 0 at every degree -1 position, numbered
    # first; involution condition iota_tgt f + f iota_src = d H + H d at every
    # degree 0 one
    chain = {p: e for e, p in enumerate(_positions(src, tgt, Fraction(-1)))}
    commute = {p: e for e, p in enumerate(fpos, len(chain))}
    fcols = _columns(src.diff, tgt.diff, fpos, chain)
    icols = _columns(iota_src.rows, iota_tgt.rows, fpos, commute)
    columns = [a ^ b for a, b in zip(fcols, icols)]
    columns += _columns(src.diff, tgt.diff, hpos, commute)
    # the solutions: kernel of the equations, one column per unknown
    basis = _kernel_of(columns, [1 << t for t in range(len(columns))])
    # the homotopy variables only certify solvability; project them away so
    # that each candidate chain map comes from one combination
    fmask = (1 << len(fpos)) - 1
    fspace = _F2Space()
    fbasis = []
    for v in basis:
        indep, _ = fspace.add(v & fmask)
        if indep:
            fbasis.append(v & fmask)
    if most is not None and len(fbasis) > most:
        raise RankBoundExceeded(f"search space dimension {len(fbasis)} exceeds bound {most}")
    return fpos, fbasis


def _unpack(packed, n, width):
    """The n fields of `width` bits of a packed integer, lowest first."""
    field = (1 << width) - 1
    return tuple([packed >> (t * width) & field for t in range(n)])


def _nullity(vectors) -> int:
    """The dimension of the relations among `vectors`, a list."""
    space = _F2Space()
    for v in vectors:
        space.add(v)
    return len(vectors) - space.rank


def _walk(src, tgt, fpos, fbasis, ha, hb):
    """Every nonzero combination of `fbasis` that is a local equivalence,
    as its packed rows: `len(tgt)` bits each, row 0 lowest (`_unpack` reads
    them).

    Everything read off a candidate is F_2-linear in it: its rows and the
    (residual, tag) of each tower representative's image reduced by its
    block's echelon.  So each basis map gets one packed delta of all of
    them, one field of `len(tgt)` bits each: the residuals lowest, then the
    rows, then the tags of each block.  The combinations are walked in
    Gray-code order: step k flips the basis map numbered
    `(k & -k).bit_length() - 1`, one xor into the running state.  A
    combination is an equivalence when every residual is 0 and each block's
    tags have full rank."""
    blocks = _deep_blocks(src, tgt, ha, hb)
    if blocks is None:
        return
    width, n_res = len(tgt), sum(n for _, _, n in blocks)
    deltas = []
    for fb in fbasis:
        rows = _map_rows(fb, fpos, len(src))
        residuals, tags = [], []
        for space, reps, _ in blocks:
            for residual, tag in map(space.reduce, _apply_vectors(rows, reps)):
                residuals.append(residual)
                tags.append(tag)
        deltas.append(reduce(lambda acc, v: acc << width | v, reversed(residuals + rows + tags), 0))
    checked, rows_mask = (1 << n_res * width) - 1, (1 << len(src) * width) - 1
    state = 0
    for k in range(1, 1 << len(deltas)):
        state ^= deltas[(k & -k).bit_length() - 1]
        if state & checked:
            continue
        at = n_res + len(src)
        for _, _, n in blocks:
            if _nullity(_unpack(state >> at * width, n, width)):
                break
            at += n
        else:
            yield state >> n_res * width & rows_mask


def local_equivalences(
    src: UComplex,
    iota_src: UMap,
    tgt: UComplex,
    iota_tgt: UMap,
    rank_bound: int = 8,
) -> list[UMap]:
    """All local equivalences src -> tgt, found by exhausting the affine
    space of chain maps that commute with the involutions up to homotopy.

    Maps are returned up to equality (not up to homotopy), sorted.  Raises
    RankBoundExceeded when the complexes or the search space are too big
    for `rank_bound` (see `_chain_map_basis`), the space at `rank_bound` + 8."""
    fpos, fbasis = _chain_map_basis(src, iota_src, tgt, iota_tgt, rank_bound, rank_bound + 8)
    ha = homology(src)
    hb = ha if tgt is src else homology(tgt)
    walked = _walk(src, tgt, fpos, fbasis, ha, hb)
    found = sorted(_unpack(packed, len(src), len(tgt)) for packed in walked)
    return [UMap(src, tgt, Fraction(0), rows) for rows in found]


# ---------------------------------------------------------------------------
# connected (image) homology by brute force


def image_homology(f: UMap) -> GradedUModule:
    """Homology of the subcomplex im(f) of the target of a chain self-map."""
    if f.src is not f.tgt or f.degree != 0:
        raise ValueError("image homology needs a degree-0 self-map")
    return homology(f.tgt, sub=f.rows)


def _image_part(rows, events) -> tuple:
    """The image of a self-map with these rows in one parity of its target,
    up to equality of subcomplexes: the reduced echelon of im f in the slice
    of each level of that parity's sweep `events` where generators enter.
    im f is generated over F_2[U] by the f(x_j), and f(x_j) lies in the
    slice at gr(x_j), as rows[j]; going down a parity, a slice's span only
    grows."""
    space = _F2Space()
    part = []
    for _, _, entering, _ in events:
        if entering:
            for j in _bits(entering):
                space.add(rows[j])
            part.append(space.reduced())
    return tuple(part)


def _deep_kernel_rank(rows, deep) -> int:
    """The kernel dimension of a map with these rows on the deep slices of
    its source, whose `homology(...).deep` is `deep`: per parity, its
    generators less the rank of their images."""
    return sum(_nullity([rows[j] for j in _bits(d.mask)]) for d in deep.values())


def connected_homology_brute(cx: UComplex, iota: UMap, rank_bound: int = 8) -> GradedUModule:
    """Connected homology via exhaustive search: the image homology of a
    self local equivalence whose deep kernel is as large as possible.

    All maximizers must agree on the answer; if they do not, the search is
    reported as inconclusive.  The walk yields every self local equivalence,
    whose deep kernel rank is read off its rows (`_deep_kernel_rank`); each
    maximizer's image is keyed by its `_image_part` per parity, and
    `image_homology` runs once per distinct image."""
    fpos, fbasis = _chain_map_basis(cx, iota, cx, iota, rank_bound, rank_bound + 8)
    ha = homology(cx)
    best_rank, best = -1, []
    for packed in _walk(cx, cx, fpos, fbasis, ha, ha):
        rows = _unpack(packed, len(cx), len(cx))
        kr = _deep_kernel_rank(rows, ha.deep)
        if kr > best_rank:
            best_rank, best = kr, [rows]
        elif kr == best_rank:
            best.append(rows)
    modules = {}
    for rows in best:
        key = tuple(_image_part(rows, events) for _, _, events in cx._sweep)
        if key not in modules:
            m = image_homology(UMap(cx, cx, Fraction(0), rows))
            modules[key] = (m.towers, m.torsion)
    if len(set(modules.values())) != 1:
        raise ConsistencyError("maximal self equivalences disagree; no canonical image")
    return GradedUModule(*next(iter(modules.values())))


# ---------------------------------------------------------------------------
# connected homology by iterated reduction


def reduced_model(cx: UComplex, iota: UMap, rank_bound: int = 16) -> tuple[UComplex, UMap]:
    """A model locally equivalent to (cx, iota) whose homology is its
    connected homology: while a self local equivalence f kills a nonzero
    deep boundary (`_deep_killer`), the image of its Fitting projection
    (`_fitting_image`), of lower rank.  Some f does exactly when some f has
    ker f != 0, which holds a nonzero deep cycle, a boundary since f kills
    no tower class.  So the last model's self local equivalences are all
    injective, so isomorphisms.  Raises RankBoundExceeded on a cx of rank
    above `rank_bound`."""
    while (f := _deep_killer(cx, iota, rank_bound)) is not None:
        cx, iota = _fitting_image(cx, iota, f)
    return cx, iota


def _deep_killer(cx, iota, rank_bound):
    """Rows of a self local equivalence that kills a nonzero deep boundary
    b, or None.  With one tower, f(b) = 0 and f's tag on the tower class
    being 1 are linear in the basis of `_chain_map_basis`, so each b of one
    deep slice, in Gray-code order, is one F_2 solve: one column per basis
    map, its image of b with its tag bit above, solved for the tag bit."""
    fpos, fbasis = _chain_map_basis(cx, iota, cx, iota, rank_bound)
    h = homology(cx)
    if len(h.towers) != 1:
        raise ConsistencyError(f"expected a single tower, found {h.towers}")
    (deep, rep), = [(d, vec) for d in h.deep.values() for _, vec in d.alive]
    maps = [_map_rows(fb, fpos, len(cx)) for fb in fbasis]
    echelon, top = _deep_echelon(deep), 1 << len(cx)
    tagged = [echelon.reduce(_apply_vectors(rows, [rep])[0])[1] * top for rows in maps]
    for d in h.deep.values():
        bounds = [vec for _, (vec, _) in d.bound]
        images, cols = [_apply_vectors(rows, bounds) for rows in maps], list(tagged)
        for k in range(1, 1 << len(bounds)):
            space = _F2Space()
            for i, img in enumerate(images):
                cols[i] ^= img[(k & -k).bit_length() - 1]
                space.add(cols[i], 1 << i)
            residual, combo = space.reduce(top)
            if not residual:
                return _map_rows(reduce(xor, (fbasis[i] for i in _bits(combo)), 0), fpos, len(cx))
    return None


def _fitting_image(cx, iota, f):
    """(im e, e iota) for e the Fitting projection of the self-map with rows
    f, onto im g along ker g for g = f^(2^k), 2^k > rank: a power of f, so
    a chain map that commutes with iota up to homotopy.  The basis is each
    g(x_j) new to the span of those above it, by descending level; a
    vector's coordinates are its tag in one echelon of that basis, tagged
    1 << i, and of ker g on the deep slice, tagged 0."""
    n, (offset, levels) = len(cx), cx._grid
    g = list(f)
    for _ in range(n.bit_length()):
        g = _apply_vectors(g, g)
    space, basis = _F2Space(), []
    for j in sorted(range(n), key=lambda j: -levels[j]):
        if space.add(g[j], 1 << len(basis))[0]:
            basis.append(j)
    for v in _kernel_of(g, [1 << j for j in range(n)]):
        space.add(v)
    if space.rank != n or len(basis) == n:
        raise ConsistencyError("Fitting decomposition failed to lower the rank")
    diff, rows = ([space.reduce(v)[1] for v in _apply_vectors(m, [g[j] for j in basis])]
                  for m in (cx.diff, iota.rows))
    out = UComplex._on_grid(offset, [levels[j] for j in basis], diff)
    iota_out = UMap(out, out, Fraction(0), tuple(rows))
    if not iota_out.is_chain_map():
        raise ConsistencyError("reduced involution failed to commute with d")
    return out, iota_out
