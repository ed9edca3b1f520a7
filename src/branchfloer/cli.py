"""Command line front end for the invariant pipeline.

Subcommands:

  invariants SPEC       full invariant package for one knot spec
  root SPEC|JSON|-      graded root with involution for a cover presentation
  independence SPEC...  torsion orders per knot and per pairwise sum, plus an
                        independence certificate

A knot spec uses the grammar
``torus(p,q) | pretzel(a1,...,ak) | montesinos(e; a1/b1, ...) | mirror(S) |
sum(S, S, ...)``.  The root subcommand also accepts a plumbing tree as JSON
(``{"weights": [...], "edges": [[i,j], ...]}``, optionally with "char"
and "involution"; the fields are described under "Plumbing JSON input" in
README.md) either inline or on stdin via ``-``.

Exit codes: 0 success, 2 malformed input or usage, 3 no definite cover
presentation, 4 unstable truncation, 1 an internal fault (a failed
consistency check or a search bound).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import knots, plumbing, roots
from .connected import omega


class RunConfig(plumbing._Record):
    """Settings of one run; a subcommand without a flag keeps its default."""

    _fields = ("n_max", "rank_bound", "fmt", "verify")

    def __init__(
        self, n_max: int | None = None, rank_bound: int = 16, fmt: str = "json",
        verify: bool = False,
    ):
        if rank_bound <= 0:
            raise ValueError("rank bound must be positive")
        if fmt not in ("json", "text", "dot"):
            raise ValueError(f"unknown output format {fmt!r}")
        vars(self).update(n_max=n_max, rank_bound=rank_bound, fmt=fmt, verify=verify)


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
    every malformed or unknown field, `char` included, is a KnotSpecError."""
    for field in doc:
        if field not in ("weights", "edges", "char", "involution"):
            raise knots.KnotSpecError(f"bad plumbing JSON: unknown field {json.dumps(field)}")
    try:
        if "weights" not in doc:
            raise ValueError(f"weights is missing, got fields {json.dumps(sorted(doc))}")
        weights = _ints(doc["weights"], "weights")
        edges = doc.get("edges", [])
        if not isinstance(edges, list) or any(type(e) is not list or len(e) != 2 for e in edges):
            raise ValueError(f"edges must be a list of integer pairs, got {json.dumps(edges)}")
        tree = plumbing.PlumbingTree(weights, tuple(_ints(e, "edges") for e in edges))
        char = _ints(doc["char"], "char") if "char" in doc else None
        involution = doc.get("involution", "auto")
        if type(involution) is not str:
            raise ValueError(f"involution must be a string, got {json.dumps(involution)}")
    except (TypeError, ValueError) as err:
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
    root = roots.build_root(tree, char, involution=involution, n_max=config.n_max)
    root.require_stable()
    if config.verify and root.engine != "star":
        print("note: --verify checked nothing: only a star has a second engine", file=sys.stderr)
    elif config.verify:
        try:
            alt = roots.build_root_box(tree, char, involution=involution, n_max=config.n_max)
        except roots.MemoryGuardError as err:
            raise roots.MemoryGuardError(f"--verify's box build failed: {err}") from err
        if roots._trimmed(root) != roots._trimmed(alt):
            raise plumbing.ConsistencyError("engine cross-check failed: star and box roots differ")
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


def _checked_omega(ev, config: RunConfig) -> int:
    """omega of an evaluation's connected module, a knot's read off and a
    sum's from its reduced tensor; `--verify` first checks both modules
    against the node's chain reference, as `invariants --verify` does."""
    if config.verify:
        ev.verify()
    return omega(ev.connected)


# perfbench/tracer.py wraps this function by name, reads the pair's text as
# `args[0][0]` and sums its spans for `cli.independence.parallel_efficiency`:
# keep the name and the (text, a, b, config) task
def _omega_of(task) -> int:
    """omega of the sum of two evaluated knots, from the tensor of their
    small models, which each knot builds once for all its pairs."""
    text, a, b, config = task
    return _checked_omega(knots._summed(a, b), config)


def cmd_independence(texts: list[str], config: RunConfig, out=None) -> None:
    """omega of each knot, then of each pairwise sum from the two knots'
    evaluations, so each root is built once."""
    out = out or sys.stdout
    specs = [knots.parse_spec(t) for t in texts]
    names = [knots.unparse(s) for s in specs]
    evals, omegas = [], []
    for spec in specs:
        evals.append(knots._evaluate(spec, config.n_max, config.rank_bound))
        omegas.append(_checked_omega(evals[-1], config))
    pair_index = [(i, j) for i in range(len(specs)) for j in range(i + 1, len(specs))]
    pair_omegas = [
        _omega_of((f"sum({names[i]},{names[j]})", evals[i], evals[j], config))
        for i, j in pair_index
    ]
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
        type=int, help="cap on each tensor's rank before its reduction; N + 8 caps --verify's walk"
    ),
    "--workers": dict(type=int, help="ignored; independence runs in one process"),
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


# exit code by the first matching cause; KnotSpecError is a ValueError
_EXIT_CODES = (
    (plumbing.DefinitenessError, 3),
    (roots.InstabilityError, 4),
    (ValueError, 2),
    (Exception, 1),
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
    if hasattr(args, "workers"):
        print("warning: --workers is ignored; independence runs in one process", file=sys.stderr)
    flags = {"rank_bound": args.rank_bound} if hasattr(args, "rank_bound") else {}
    try:
        config = RunConfig(
            n_max=args.n_max,
            fmt="dot" if getattr(args, "dot", False) else args.format,
            verify=args.verify,
            **flags,
        )
        if args.command == "invariants":
            cmd_invariants(args.spec, config)
        elif args.command == "root":
            cmd_root(args.source, config)
        else:
            cmd_independence(args.specs, config)
    except Exception as err:  # noqa: BLE001 - the exit code follows the cause
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(err, kind))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
