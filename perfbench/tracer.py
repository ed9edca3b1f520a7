"""Outside-in span tracing for the benchmark.

The pipeline looks its layer functions up as module attributes at call time
(`knots.build_root`, `plumbing.invert_exact`, `complexes.homology`, ...).
`Tracer.install` swaps every such attribute, in every loaded `branchfloer`
module that holds the function, for a timing wrapper, and `uninstall` puts
the originals back, so the package itself is never edited.

Spans are kept in memory as dicts: operation id, name, start, duration,
self time (duration minus the time its child spans cover), depth, and a few
size attributes taken from the return value.

Run as a script, this file is the launcher for traced CLI runs:

    python3 perfbench/tracer.py SPAN_FILE OP_ID -- ARGV...

It imports the package, installs the wrappers, calls
`branchfloer.cli.main(ARGV)`, writes the spans to SPAN_FILE and exits with
the CLI's exit code.  Pool workers forked by `independence --workers N`
inherit the wrappers; each rewrites its own spans to SPAN_FILE.<pid> after
every task, because pool workers exit without running exit hooks.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# module -> functions wrapped in a traced run
TARGETS = {
    "exact": ("invert_exact", "is_negative_definite"),
    "plumbing": ("pd_vector", "k_square", "reflect", "spin_char", "determinant_magnitude"),
    "roots": ("build_root",),
    "complexes": (
        "homology",
        "local_equivalences",
        "connected_homology_brute",
        "branched_invariants",
        "tensor_complex",
        "tensor_map",
        "model_complex",
        "lift_involution",
    ),
    "connected": ("monotone_subroot",),
    "knots": ("parse_spec", "presentation", "goeritz_oracle", "invariants"),
    "cli": ("_omega_of",),
}


def _root_attrs(root, args):
    tree, k = args[0], args[1] if len(args) > 1 else None
    return {
        "vertices": len(root),
        "leaves": len(root.leaves),
        "levels": root.n_max - root.n_min + 1,
        "tree": repr((tree.weights, tree.edges, k)),
    }


# name -> function(result, args) giving size attributes of a span
ATTRS = {
    "roots.build_root": _root_attrs,
    "complexes.model_complex": lambda m, a: {"rank": len(m.cx)},
    "complexes.tensor_complex": lambda cx, a: {"rank": len(cx)},
    "complexes.branched_invariants": lambda br, a: {"cone_rank": 2 * len(a[0])},
    "complexes.local_equivalences": lambda found, a: {"found": len(found)},
    "cli._omega_of": lambda w, a: {"task": a[0][0]},
}


class Tracer:
    """Span recorder; one per process."""

    def __init__(self, span_file=None):
        self.span_file = span_file
        self.pid = os.getpid()
        self.spans = []
        self.op = None
        self._stack = []  # child-time accumulators of the open spans
        self._saved = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        attrs = ATTRS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                span = {
                    "op": self.op,
                    "name": name,
                    "start": start,
                    "dur": dur,
                    "self": dur - child,
                    "depth": len(stack),
                    "pid": os.getpid(),
                }
                if result is not None and attrs:
                    span.update(attrs(result, args))
                    if name == "roots.build_root":
                        span["name"] = f"{name}.{result.engine}"
                spans.append(span)
                if self.span_file and not stack and os.getpid() != self.pid:
                    self.dump(f"{self.span_file}.{os.getpid()}")

        return wrapper

    def install(self):
        mods = {n: m for n, m in sys.modules.items() if n.startswith("branchfloer")}
        for mod_name, fns in TARGETS.items():
            mod = mods.get(f"branchfloer.{mod_name}")
            if mod is None:
                continue
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(mod, fn_name)
                wrapper = self._wrap(name, original)
                for holder in mods.values():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._saved.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def dump(self, path):
        """Write this process's spans; a forked worker also holds copies of
        the spans its parent recorded before the fork."""
        pid = os.getpid()
        with open(path, "w") as fh:
            json.dump([s for s in self.spans if s["pid"] == pid], fh)


def launch(argv):
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit("usage: tracer.py SPAN_FILE OP_ID -- ARGV...")
    span_file, op = argv[0], int(argv[1])
    import branchfloer.cli

    tracer = Tracer(span_file)
    tracer.op = op
    tracer.install()
    try:
        return branchfloer.cli.main(argv[3:])
    finally:
        tracer.uninstall()
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
