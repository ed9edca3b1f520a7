"""Command line front end for the invariant pipeline.

Subcommands:

  invariants SPEC       full invariant package for one knot spec
  root SPEC|JSON|-      graded root with involution for a cover presentation
  independence SPEC...  torsion orders per knot and per pairwise sum, plus an
                        independence certificate

A knot spec uses the grammar
``torus(p,q) | pretzel(a1,...,ak) | montesinos(e; a1/b1, ...) | mirror(S) |
sum(S, S, ...)``.  The root subcommand also accepts a plumbing tree as JSON
(``{"weights": [...], "edges": [[i,j], ...]}``, optionally with
"automorphism", "char" and "involution"; the fields are described under
"Plumbing JSON input" in README.md) either inline or on stdin via ``-``.

Exit codes: 0 success, 2 malformed input or usage, 3 no definite cover
presentation, 4 unstable truncation, 1 an internal fault (a failed
consistency check or a search bound).  Set BRANCHFLOER_CACHE_DIR to let the
root subcommand reuse graded roots across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import ConsistencyError, __version__, knots, plumbing, roots
from .connected import omega


@dataclass(frozen=True)
class RunConfig:
    """Settings of one run; a subcommand without a flag keeps its default."""

    n_max: int | None = None
    rank_bound: int = 16
    workers: int = 1
    fmt: str = "json"
    verify: bool = False

    def __post_init__(self):
        if self.rank_bound <= 0:
            raise ValueError("rank bound must be positive")
        if self.workers <= 0:
            raise ValueError("worker count must be positive")
        if self.fmt not in ("json", "text", "dot"):
            raise ValueError(f"unknown output format {self.fmt!r}")


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _module_text(mod) -> str:
    towers = ",".join(_frac(t) for t in mod.towers)
    torsion = ",".join(f"{_frac(d)}:{l}" for d, l in mod.torsion)
    return f"towers[{towers}] torsion[{torsion}]"


def cmd_invariants(text: str, config: RunConfig, out=None) -> None:
    out = out or sys.stdout
    spec = knots.parse_spec(text)
    pkg = knots.invariants(
        spec, n_max=config.n_max, rank_bound=config.rank_bound, verify=config.verify
    )
    if config.fmt == "json":
        out.write(json.dumps(pkg.to_jsonable(), sort_keys=True) + "\n")
        return
    out.write(f"spec        {knots.unparse(spec)}\n")
    out.write(f"delta       {_frac(pkg.delta)}\n")
    out.write(f"delta_upper {_frac(pkg.delta_upper)}\n")
    out.write(f"delta_lower {_frac(pkg.delta_lower)}\n")
    out.write(f"branched    {_module_text(pkg.branched)}\n")
    out.write(f"conn        {_module_text(pkg.connected)}\n")
    out.write(f"red_conn    {_module_text(pkg.reduced_connected)}\n")
    out.write(f"omega       {pkg.omega}\n")
    out.write(f"det         {pkg.det}\n")
    out.write(f"sigma       {pkg.sigma if pkg.sigma is not None else '-'}\n")


def _ints(value, field: str) -> tuple[int, ...]:
    """A JSON array of integers; anything else (a float, a bool, a string)
    is a ValueError that names `field`."""
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError(f"{field} must be a list of integers, got {json.dumps(value)}")
    return tuple(value)


def _tree_from_doc(doc) -> tuple[plumbing.PlumbingTree, tuple[int, ...] | None, str]:
    """Parse the plumbing JSON input ("Plumbing JSON input" in README.md);
    every malformed field, `char` included, is a KnotSpecError."""
    try:
        weights = _ints(doc["weights"], "weights")
        edges = tuple(_ints(e, "edges") for e in doc.get("edges", []))
        aut = doc.get("automorphism")
        tree = plumbing.PlumbingTree(
            weights, edges, automorphism=_ints(aut, "automorphism") if aut else None
        )
        char = doc.get("char")
        char = None if char is None else _ints(char, "char")
        involution = str(doc.get("involution", "auto"))
    except (KeyError, TypeError, ValueError) as err:
        raise knots.KnotSpecError(f"bad plumbing JSON: {err}")
    if char is not None and len(char) != len(tree):
        raise knots.KnotSpecError(
            f"bad plumbing JSON: char has {len(char)} entries for {len(tree)} vertices"
        )
    if char is not None and not plumbing.is_characteristic(tree, char):
        raise knots.KnotSpecError(
            f"bad plumbing JSON: char {list(char)} is not characteristic "
            "(each entry must have the parity of its vertex weight)"
        )
    return tree, char, involution


def _build_root(tree, char, involution, config: RunConfig) -> roots.GradedRoot:
    """Build a root, or read it from BRANCHFLOER_CACHE_DIR when set.  An
    entry that cannot be read back, or reads back as an inconsistent root,
    counts as a miss and is rewritten."""
    cache_dir = os.environ.get("BRANCHFLOER_CACHE_DIR")
    key_path = None
    if cache_dir:
        import hashlib  # only the cache needs these: keep start-up lean
        import tempfile

        key_doc = {
            "version": __version__,
            "weights": list(tree.weights),
            "edges": [list(e) for e in tree.edges],
            "automorphism": list(tree.automorphism) if tree.automorphism else None,
            "char": list(char) if char else None,
            "involution": involution,
            "n_max": config.n_max,
        }
        digest = hashlib.sha256(
            json.dumps(key_doc, sort_keys=True).encode()
        ).hexdigest()
        key_path = os.path.join(cache_dir, f"root-{digest}.json")
        try:
            with open(key_path) as fh:
                return roots.GradedRoot.from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError, IndexError, ConsistencyError):
            pass
    root = roots.build_root(tree, char, involution=involution, n_max=config.n_max)
    if key_path:
        os.makedirs(cache_dir, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            "w", dir=cache_dir, prefix=".root-", suffix=".tmp", delete=False
        ) as fh:
            fh.write(root.to_json())
        os.replace(fh.name, key_path)
    return root


def cmd_root(source: str, config: RunConfig, out=None) -> None:
    out = out or sys.stdout
    text = sys.stdin.read() if source == "-" else source
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as err:
            raise knots.KnotSpecError(f"bad plumbing JSON: {err}")
        tree, char, involution = _tree_from_doc(doc)
    else:
        pres = knots.presentation(knots.parse_spec(stripped))
        tree, char, involution = pres.tree, pres.char, pres.involution
    root = _build_root(tree, char, involution, config)
    root.require_stable()
    if config.verify:
        alt_engine = "box" if root.engine == "star" else "star"
        try:
            alt = roots.build_root(
                tree,
                char,
                engine=alt_engine,
                involution=involution,
                n_max=config.n_max,
            )
        except ValueError:
            alt = None  # non-star tree cannot feed the star engine
        if alt is not None and not root.is_isomorphic(alt, with_involution=True):
            raise ConsistencyError(
                "engine cross-check failed: star and box roots differ"
            )
    if config.fmt == "dot":
        out.write(root.render_dot())
    elif config.fmt == "json":
        out.write(root.to_json() + "\n")
    else:
        swaps = sorted(
            (v, j) for v, j in enumerate(root.involution) if j > v
        )
        out.write(
            f"graded root: {len(root)} vertices, levels "
            f"{min(root.levels)}..{root.n_max}, engine {root.engine}\n"
        )
        out.write(f"d_invariant {_frac(root.d_invariant())}\n")
        out.write(f"leaves      {len(root.leaves)}\n")
        out.write(f"involution  {' '.join(f'({a} {b})' for a, b in swaps) or 'id'}\n")


def _checked_omega(ev, delta, config: RunConfig) -> int:
    """omega of an evaluation whose full complex has `delta`, from its small
    model; `--verify` adds delta and the branched invariants of the full
    complex, built from the roots already built."""
    if config.verify and knots._full_invariants(ev)[0] != delta:
        raise ConsistencyError(f"delta of the full complex differs from {delta}")
    conn = knots._connected(ev, config.rank_bound, config.verify)
    knots._require_tower(conn, delta)
    return omega(conn)


def _evaluated(task):
    """First-round pool task: evaluate one knot spec, building its roots
    once, and return the evaluation, delta of its full complex and omega."""
    text, config = task
    ev = knots._evaluate(knots.parse_spec(text), config.n_max)
    delta = ev.delta()
    return ev, delta, _checked_omega(ev, delta, config)


def _omega_of(task) -> int:
    """Second-round pool task: omega of the sum of two evaluated knots, from
    the tensor of their small models, its tower checked against
    delta(a) + delta(b) + 2."""
    text, (a, delta_a), (b, delta_b), config = task
    return _checked_omega(knots._summed(a, b), delta_a + delta_b + 2, config)


def _rounds(run, names, pair_index, config: RunConfig):
    """Both rounds of `independence` through `run` (`map` or a pool's): each
    knot evaluated once, then each pair from the two evaluations."""
    evals = list(run(_evaluated, [(n, config) for n in names]))
    pairs = [
        (f"sum({names[i]},{names[j]})", evals[i][:2], evals[j][:2], config)
        for i, j in pair_index
    ]
    return [w for _, _, w in evals], list(run(_omega_of, pairs))


def cmd_independence(texts: list[str], config: RunConfig, out=None) -> None:
    out = out or sys.stdout
    specs = [knots.parse_spec(t) for t in texts]
    names = [knots.unparse(s) for s in specs]
    pair_index = [(i, j) for i in range(len(specs)) for j in range(i + 1, len(specs))]
    size = min(config.workers, max(len(names), len(pair_index)))
    if size > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        with ProcessPoolExecutor(max_workers=size) as pool:
            omegas, pair_omegas = _rounds(pool.map, names, pair_index, config)
    else:
        omegas, pair_omegas = _rounds(map, names, pair_index, config)
    certificate = all(w > 0 for w in omegas) and len(set(omegas)) == len(omegas)
    for (i, j), w in zip(pair_index, pair_omegas):
        if w != max(omegas[i], omegas[j]):
            certificate = False
    doc = {
        "schema": 1,
        "entries": [{"spec": n, "omega": w} for n, w in zip(names, omegas)],
        "pairs": [
            {"specs": [names[i], names[j]], "omega": w}
            for (i, j), w in zip(pair_index, pair_omegas)
        ],
        "certificate": certificate,
    }
    if config.fmt == "json":
        out.write(json.dumps(doc, sort_keys=True) + "\n")
        return
    for entry in doc["entries"]:
        out.write(f"omega {entry['spec']} {entry['omega']}\n")
    for pair in doc["pairs"]:
        out.write(f"omega sum({pair['specs'][0]},{pair['specs'][1]}) {pair['omega']}\n")
    out.write(f"certificate {'yes' if certificate else 'no'}\n")


# flags only some subcommands read: name -> add_argument keywords
_FLAGS = {
    "--rank-bound": dict(
        type=int, help="rank cap for the brute-force equivalence search"
    ),
    "--workers": dict(type=int, help="parallel pipelines"),
}


def _add_flags(sub, formats, *extra):
    """--n-max, the `extra` flags named, --format and --verify.  Unset flags
    stay off the parsed namespace, so RunConfig keeps its default."""
    sub.add_argument("--n-max", type=int, default=None, help="truncation level cap")
    for flag in extra:
        sub.add_argument(flag, default=argparse.SUPPRESS, **_FLAGS[flag])
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument(
        "--verify", action="store_true", help="run cross-oracle checks inline"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="branchfloer",
        description="branched double cover invariants of arborescent knots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="invariant package for one knot spec")
    p_inv.add_argument("spec", help="knot spec, e.g. 'pretzel(2,-3,-7)'")
    _add_flags(p_inv, ("json", "text"), "--rank-bound")

    p_root = sub.add_parser("root", help="graded root of a cover presentation")
    p_root.add_argument("source", help="knot spec, plumbing JSON, or - for stdin")
    p_root.add_argument("--dot", action="store_true", help="same as --format dot")
    _add_flags(p_root, ("json", "text", "dot"))

    p_ind = sub.add_parser("independence", help="omega-based independence report")
    p_ind.add_argument("specs", nargs="+", help="knot specs to compare")
    _add_flags(p_ind, ("json", "text"), "--rank-bound", "--workers")

    args = parser.parse_args(argv)
    try:
        optional = ("rank_bound", "workers")
        config = RunConfig(
            n_max=args.n_max,
            fmt="dot" if getattr(args, "dot", False) else args.format,
            verify=args.verify,
            **{name: getattr(args, name) for name in optional if hasattr(args, name)},
        )
        if args.command == "invariants":
            cmd_invariants(args.spec, config)
        elif args.command == "root":
            cmd_root(args.source, config)
        else:
            cmd_independence(args.specs, config)
    except knots.KnotSpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except plumbing.DefinitenessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except roots.InstabilityError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - rc 1 is part of the contract
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
