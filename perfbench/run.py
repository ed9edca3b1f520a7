"""Benchmark for branchfloer: four workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload knots --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
Workloads (see perfbench/README.md for why each was chosen):

  knots        in-process `invariants` over the acceptance corpus plus a
               5-strand pretzel, and two known-defect probes
  sums         in-process `invariants` over three connected sums
  cli          fresh `python -m branchfloer` processes: small `invariants`
               calls, `root --dot`, `root --verify`, and the box engine on a
               non-star tree with a fresh root cache (miss, then hit)
  certificate  `branchfloer independence --workers 2` on the generator pretzels

Load model: closed loop, one client, one operation at a time.  The seed only
permutes the input order within a pass.  Whole passes run until the next one
would end after `--seconds`; at least one pass runs.  Times are seconds at a
reference speed: each operation's wall time is scaled by the speed a probe
kernel measures around and during it (see `Speed`).

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one untraced
and one traced pass (tracer.py swaps the package's layer functions for timing
wrappers) and prints the per-layer metrics.  Every operation's output is
checked against expected.json, recorded at the seed commit by `--record`.
Per-input records go to stdout before the result line and, with the spans,
to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import signal
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"

HARD_LIMIT_S = 170  # a run must end within 180 s; SIGALRM stops it here
SETUP_REPEATS = 3
PROBE_INTERVAL_S = 0.1
REFERENCE_PROBE_S = 0.0005  # _probe_kernel's duration at the reference speed
CERT_WORKERS = 2

CORPUS = [
    "torus(2,3)",
    "torus(2,5)",
    "torus(2,7)",
    "torus(3,4)",
    "torus(3,5)",
    "torus(3,7)",
    "torus(4,5)",
    "pretzel(2,-3,-7)",
    "pretzel(2,-3,-9)",
    "pretzel(2,-3,-11)",
    "pretzel(-2,3,7)",
    "pretzel(7,-3,5)",
    "pretzel(11,-5,9)",
    "pretzel(15,-7,13)",
    "montesinos(0;7/3)",
    "montesinos(-2;2/1,3/2,7/6)",
    "pretzel(3,-5,-7,9,11)",
]
# Known defects (truncated star roots): both raise "expected a single tower".
PROBES = ["pretzel(3,-5,-7,9,-11)", "torus(7,13)"]
SUMS = {
    "sum(pretzel(2,-3,-7),pretzel(2,-3,-9))": ("pretzel(2,-3,-7)", "pretzel(2,-3,-9)"),
    "sum(pretzel(7,-3,5),mirror(pretzel(2,-3,-7)))": (
        "pretzel(7,-3,5)",
        "mirror(pretzel(2,-3,-7))",
    ),
    "sum(torus(3,7),mirror(pretzel(2,-3,-7)))": ("torus(3,7)", "mirror(pretzel(2,-3,-7))"),
}
GENERATORS = {"pretzel(7,-3,5)": 1, "pretzel(11,-5,9)": 2, "pretzel(15,-7,13)": 3}
# the 6-vertex non-star bush of tests/test_roots.py: only the box engine takes it
BUSH = '{"weights":[-3,-2,-2,-3,-2,-2],"edges":[[0,1],[1,2],[1,3],[3,4],[3,5]]}'
CLI_INVARIANTS = [
    ("torus(3,7)", "json"),
    ("torus(2,5)", "text"),
    ("torus(3,4)", "json"),
    ("torus(4,5)", "text"),
    ("pretzel(2,-3,-7)", "json"),
    ("pretzel(-2,3,7)", "text"),
    ("pretzel(2,-3,-9)", "json"),
    ("montesinos(0;7/3)", "json"),
    ("montesinos(-2;2/1,3/2,7/6)", "text"),
    ("mirror(pretzel(2,-3,-7))", "json"),
    ("mirror(torus(2,5))", "text"),
]
# acceptance criterion 1
TORUS_3_7_PIN = {
    "delta": [-2, 1],
    "branched": {
        "towers": [[-2, 1], [-3, 1]],
        "torsion": [{"degree": [-2, 1], "length": 1}, {"degree": [-3, 1], "length": 1}],
    },
    "connected": {"towers": [[-2, 1]], "torsion": []},
    "red_conn": [],
}
GATED = ("delta", "delta_upper", "delta_lower", "connected", "red_conn", "omega", "det", "sigma")
GATED_TEXT = ("delta", "delta_upper", "delta_lower", "conn", "red_conn", "omega", "det", "sigma")

END_TO_END = {
    "pass_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SELF_TIMES = [
    "exact.invert_exact",
    "exact.is_negative_definite",
    "plumbing.spin_char",
    "plumbing.determinant_magnitude",
    "roots.build_root.star",
    "roots.build_root.box",
    "complexes.homology",
    "complexes.local_equivalences",
    "complexes.connected_homology_brute",
    "complexes.branched_invariants",
    "complexes.tensor_complex",
    "complexes.tensor_map",
    "complexes.model_complex",
    "complexes.lift_involution",
    "connected.monotone_subroot",
    "knots.parse_spec",
    "knots.presentation",
    "knots.goeritz_oracle",
    "knots.invariants",
]
CALL_COUNTS = [
    "exact.invert_exact",
    "plumbing.pd_vector",
    "plumbing.k_square",
    "plumbing.reflect",
    "complexes.homology",
]


class HardLimit(BaseException):
    """Raised by SIGALRM when the run is about to overrun its budget; a
    BaseException, so an operation's `except Exception` does not swallow it."""


@dataclass(frozen=True)
class Op:
    """One operation: an in-process `invariants(spec)`, or one CLI
    invocation with `argv`.  `cache` ops share the pass's root-cache dir."""

    label: str
    spec: str | None = None
    argv: list | None = None
    probe: bool = False
    cache: bool = False


def workload_units(name):
    """The workload's inputs as units; the seed permutes units, and the ops
    inside a unit (cache miss, then hit) keep their order."""
    if name == "knots":
        return [[Op(s, s)] for s in CORPUS] + [[Op(s, s, probe=True)] for s in PROBES]
    if name == "sums":
        return [[Op(s, s)] for s in SUMS]
    if name == "cli":
        units = [
            [Op(f"invariants {s} {fmt}", argv=["invariants", s, "--format", fmt])]
            for s, fmt in CLI_INVARIANTS
        ]
        units.append([Op("root pretzel(7,-3,5) dot", argv=["root", "pretzel(7,-3,5)", "--dot"])])
        units.append(
            [Op("root pretzel(2,-3,-7) verify", argv=["root", "pretzel(2,-3,-7)", "--verify"])]
        )
        units.append(
            [
                Op("root bush miss", argv=["root", BUSH], cache=True),
                Op("root bush hit", argv=["root", BUSH], cache=True),
            ]
        )
        return units
    if name == "certificate":
        argv = ["independence", *GENERATORS, "--workers", str(CERT_WORKERS)]
        return [[Op("independence", argv=argv)]]
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# running operations


def _digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _json_view(doc):
    return {k: doc[k] for k in GATED}, _digest(doc["branched"])


def _text_view(stdout):
    lines = dict(line.split(None, 1) for line in stdout.splitlines() if line.strip())
    return {k: lines[k].strip() for k in GATED_TEXT}, _digest(lines["branched"])


def _cert_view(doc):
    return {
        "entries": {e["spec"]: e["omega"] for e in doc["entries"]},
        "pairs": {"+".join(sorted(p["specs"])): p["omega"] for p in doc["pairs"]},
        "certificate": doc["certificate"],
    }, None


def _view(op, stdout):
    """(gated view, branched digest) of an operation's output."""
    if op.spec is not None:
        return _json_view(stdout)
    if op.argv[0] == "independence":
        return _cert_view(json.loads(stdout))
    if op.argv[0] == "root":
        return {"stdout_sha256": _digest(stdout)}, None
    if op.argv[-1] == "text":
        return _text_view(stdout)
    return _json_view(json.loads(stdout))


def _probe_kernel():
    """Fixed pure-Python work of the pipeline's kind: Fraction arithmetic and
    dict updates.  Its duration tracks the machine's current speed."""
    acc, table = Fraction(0), {}
    for i in range(1, 150):
        acc += Fraction(i % 13 + 1, i % 11 + 2)
        table[i & 63] = table.get(i & 63, 0) ^ (i * 2654435761 >> 7)
    return acc


class Speed:
    """Speed samples of the CPU the harness runs on.

    The cores of a shared machine slow down and speed up by up to 2x for
    seconds at a time, which no number of passes averages away.  So every
    operation's wall time is scaled to a reference speed: the probe kernel
    runs 3 times before and 3 times after the operation and every
    PROBE_INTERVAL_S during it, its durations give the operation's speed
    factor, and the time the probes took is subtracted from the wall time.
    In process the probe runs from a SIGPROF handler, so it runs on the same
    core as the work; for child processes the harness polls, and it is
    pinned to one core that its children share, except for the certificate,
    whose pool needs both cores and whose probes sample either core.
    """

    def __init__(self):
        self.samples = []

    def probe(self, *_):
        t0 = time.perf_counter()
        _probe_kernel()
        self.samples.append(time.perf_counter() - t0)

    def measure(self, fn, in_process):
        """Run fn(); returns (fn's result, wall s, reference-speed s)."""
        start = len(self.samples)
        for _ in range(3):
            self.probe()
        first = len(self.samples)
        if in_process:
            signal.signal(signal.SIGPROF, self.probe)
            signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            if in_process:
                signal.setitimer(signal.ITIMER_PROF, 0)
        wall -= sum(self.samples[first:])
        for _ in range(3):
            self.probe()
        window = self.samples[start:]
        factor = statistics.fmean(REFERENCE_PROBE_S / d for d in window)
        return result, wall, wall * factor


class Runner:
    """Runs operations, in process or in child processes."""

    def __init__(self):
        self.speed = Speed()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("BRANCHFLOER_CACHE_DIR", None)

    def spawn(self, cmd, env=None):
        """Run a child in its own session, probing the speed while it runs;
        kill the whole group if the run is interrupted (HardLimit included)."""
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env or self.env,
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            while True:
                try:
                    out, err = proc.communicate(timeout=PROBE_INTERVAL_S)
                    return proc.returncode, out, err
                except subprocess.TimeoutExpired:
                    self.speed.probe()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise

    def run(self, op, cache_dir=None, launcher=None):
        """Run one op; returns a result dict with its wall seconds and its
        seconds at the reference speed."""
        res = {"op": op, "label": op.label, "probe": op.probe, "error": None, "stdout": None}
        if op.spec is not None:
            from branchfloer import knots

            def compute():
                try:
                    return knots.invariants(knots.parse_spec(op.spec)).to_jsonable(), None
                except Exception as err:  # noqa: BLE001 - a failed op is a result
                    return None, f"{type(err).__name__}: {err}"

            gc.collect()  # start every op from the same heap state, whatever ran before
            (res["stdout"], res["error"]), res["wall_s"], res["seconds"] = self.speed.measure(
                compute, in_process=True
            )
            return res
        env = self.env
        if op.cache:
            env = dict(env, BRANCHFLOER_CACHE_DIR=str(cache_dir))
            before = set(os.listdir(cache_dir)) if cache_dir.exists() else set()
        cmd = [sys.executable, "-m", "branchfloer", *op.argv]
        if launcher is not None:
            cmd = [sys.executable, str(HERE / "tracer.py"), *launcher, "--", *op.argv]
        (rc, out, err), res["wall_s"], res["seconds"] = self.speed.measure(
            lambda: self.spawn(cmd, env), in_process=False
        )
        if op.cache:
            after = set(os.listdir(cache_dir)) if cache_dir.exists() else set()
            res["cache"] = "miss" if after - before else "hit"
        if rc != 0:
            res["error"] = f"exit {rc}: {err.strip()[-300:]}"
        else:
            res["stdout"] = out
        return res


def run_pass(runner, units, rng, tag, tracer=None, span_dir=None):
    """One pass over the workload in seed order.  With `tracer` the in-process
    spans carry the op index; with `span_dir` CLI ops run under the tracer
    launcher, which writes its spans there."""
    order = rng.sample(units, len(units))
    cache_dir = OUT / f"cache-{os.getpid()}-{tag}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    results = []
    try:
        for unit in order:
            for op in unit:
                i = len(results)
                if tracer is not None:
                    tracer.op = i
                launcher = [str(span_dir / f"op{i}.json"), str(i)] if span_dir else None
                results.append(runner.run(op, cache_dir, launcher))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return results


# ---------------------------------------------------------------------------
# correctness gate


def check(workload, results, expected, summands):
    """Gate every result; returns a list of problems (empty when correct) and
    marks each result with its outcome."""
    problems = []
    exp_all = expected.get(workload, {})
    for res in results:
        exp = exp_all.get(res["label"])
        if res["probe"]:
            if res["error"] is None:
                res["outcome"] = "probe now succeeds"
            elif exp and res["error"] == exp.get("error"):
                res["outcome"] = "known defect"
            else:
                res["outcome"] = "probe error changed"
            continue
        if res["error"] is not None:
            res["outcome"] = "failed"
            problems.append(f"{res['label']}: {res['error']}")
            continue
        try:
            view, branched = _view(res["op"], res["stdout"])
        except (KeyError, ValueError) as err:
            res["outcome"] = "unparsable"
            problems.append(f"{res['label']}: unparsable output ({err})")
            continue
        if branched is not None:
            res["branched"] = "same" if exp and branched == exp["branched"] else "changed"
        if exp is None or view != exp["view"]:
            res["outcome"] = "mismatch"
            problems.append(f"{res['label']}: {view} != {exp and exp['view']}")
            continue
        res["outcome"] = "ok"
        problems += _pins(res, summands)
    return problems


def _pins(res, summands):
    """Pinned facts that hold whatever expected.json says."""
    label, out = res["label"], res["stdout"]
    bad = []
    if label == "independence":
        doc = json.loads(out)
        omegas = {e["spec"]: e["omega"] for e in doc["entries"]}
        if omegas != GENERATORS:
            bad.append(f"generator omegas {omegas}")
        pair_omegas = sorted(p["omega"] for p in doc["pairs"])
        if pair_omegas != [2, 3, 3] or doc["certificate"] is not True:
            bad.append(f"pair omegas {pair_omegas}, certificate {doc['certificate']}")
    elif label == "invariants torus(3,7) json":
        doc = json.loads(out)
        if {k: doc[k] for k in TORUS_3_7_PIN} != TORUS_3_7_PIN:
            bad.append("torus(3,7) differs from acceptance criterion 1")
    elif label in SUMS:
        a, b = SUMS[label]
        want = summands[a] + summands[b] + 2
        got = Fraction(*out["delta"])
        if got != want:
            bad.append(f"{label}: delta {got} != delta(a) + delta(b) + 2 = {want}")
    return [f"pin: {b}" for b in bad]


def summand_deltas():
    """delta of each summand in SUMS, computed untimed."""
    from branchfloer import knots

    parts = {s for pair in SUMS.values() for s in pair}
    return {s: knots.invariants(knots.parse_spec(s)).delta for s in parts}


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q):
    """Nearest-rank percentile.  It picks the same input whether a run made
    one pass or several, so the pass count does not move it."""
    xs = sorted(values)
    return xs[max(0, ceil(q * len(xs)) - 1)]


def timed(results):
    return [r for r in results if not r["probe"]]


def measure_setup(runner):
    """Fresh interpreter to `import branchfloer.cli` done, at the reference
    speed: the child's wall time, and the import time the child measures."""
    code = (
        "import time; t = time.perf_counter(); import branchfloer.cli; "
        "print(time.perf_counter() - t)"
    )
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        (rc, out, err), wall, seconds = runner.speed.measure(
            lambda: runner.spawn([sys.executable, "-c", code]), in_process=False
        )
        if rc != 0:
            raise SystemExit(f"cannot import branchfloer from {SRC}: {err.strip()[-300:]}")
        walls.append(seconds)
        imports.append(float(out) * seconds / wall)
    return statistics.median(walls), statistics.median(imports)


def end_to_end(workload, passes, setup_s):
    ops = [r["seconds"] for p in passes for r in timed(p)]
    everything = [r for p in passes for r in p]
    who = resource.RUSAGE_SELF if workload in ("knots", "sums") else resource.RUSAGE_CHILDREN
    values = {
        "pass_s": statistics.median(sum(r["seconds"] for r in timed(p)) for p in passes),
        "op_s.p50": percentile(ops, 0.5),
        "op_s.p90": percentile(ops, 0.9),
        "ok_share": sum(r["error"] is None for r in everything) / len(everything),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(spans, traced, untraced_s, traced_s, import_s, efficiency):
    """Per-layer metrics from the spans and results of one traced pass."""
    m = {}
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (sum(s["self"] for s in spans if s["name"] == name), "s")
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = (sum(s["name"] == name for s in spans), "count")
    roots_ = [s for s in spans if s["name"].startswith("roots.build_root")]
    for key in ("vertices", "leaves", "levels"):
        m[f"roots.{key}"] = (sum(s.get(key, 0) for s in roots_), "count")
    m["complexes.local_equivalences.found"] = (
        sum(s.get("found", 0) for s in spans if s["name"] == "complexes.local_equivalences"),
        "count",
    )
    for key, name, attr in (
        ("model_rank", "complexes.model_complex", "rank"),
        ("tensor_rank", "complexes.tensor_complex", "rank"),
        ("cone_rank", "complexes.branched_invariants", "cone_rank"),
    ):
        m[f"complexes.{key}"] = (sum(s.get(attr, 0) for s in spans if s["name"] == name), "count")
    m["cli.import_s"] = (import_s, "s")
    for key, outcome in (("hits", "hit"), ("misses", "miss")):
        m[f"cli.cache.{key}"] = (sum(r.get("cache") == outcome for r in traced), "count")
    # root builds that repeat an earlier build of the same tree, engine and
    # characteristic vector within one operation (independence: 9 builds, 3 trees)
    distinct = {(s["op"], s["name"], s.get("tree")) for s in roots_}
    m["cli.independence.duplicate_roots"] = (len(roots_) - len(distinct), "count")
    m["cli.independence.parallel_efficiency"] = (efficiency, "ratio")
    m["trace.overhead_share"] = (traced_s / untraced_s - 1, "ratio")
    m["trace.coverage_share"] = (sum(s["self"] for s in spans) / untraced_s, "ratio")
    return m


def records(passes, spans_by_op=None):
    """Per-input medians over the run, with outcome and root sizes."""
    by = {}
    for p in passes:
        for r in p:
            by.setdefault(r["label"], []).append(r)
    out = []
    for label, rs in sorted(by.items()):
        secs = [r["seconds"] for r in rs]
        rec = {
            "input": label,
            "n": len(secs),
            "median_s": statistics.median(secs),
            "min_s": min(secs),
            "max_s": max(secs),
            "median_wall_s": statistics.median(r["wall_s"] for r in rs),
            "outcome": sorted({r.get("outcome", "?") for r in rs}),
        }
        errors = sorted({r["error"] for r in rs if r["error"]})
        if errors:
            rec["error"] = errors
        branched = sorted({r["branched"] for r in rs if "branched" in r})
        if branched:
            rec["branched"] = branched
        if any("cache" in r for r in rs):
            rec["cache"] = sorted({r["cache"] for r in rs})
        if spans_by_op is not None and label in spans_by_op:
            rec["leaves"] = spans_by_op[label]
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# environment


def environment(seed):
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "branchfloer").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# the run


def traced_run(workload, runner, units, rng):
    """One untraced and one traced pass over the timed inputs.
    Returns (spans, [untraced, traced])."""
    from tracer import Tracer

    units = [[op for op in unit if not op.probe] for unit in units]
    units = [u for u in units if u]
    untraced = run_pass(runner, units, rng, "untraced")
    span_dir = OUT / f"spans-{os.getpid()}"
    shutil.rmtree(span_dir, ignore_errors=True)
    span_dir.mkdir(parents=True)
    try:
        if workload in ("knots", "sums"):
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(runner, units, rng, "traced", tracer=tracer)
            finally:
                tracer.uninstall()
            spans = tracer.spans
        else:
            traced = run_pass(runner, units, rng, "traced", span_dir=span_dir)
            spans = []
            for f in sorted(span_dir.iterdir()):  # opN.json and opN.json.<worker pid>
                spans += json.loads(f.read_text())
    finally:
        shutil.rmtree(span_dir, ignore_errors=True)
    for s in spans:
        res = traced[s["op"]]
        s["input"] = res["label"]
        factor = res["seconds"] / res["wall_s"]  # scale to the reference speed
        s["dur"] *= factor
        s["self"] *= factor
    return spans, [untraced, traced]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("knots", "sums", "cli", "certificate"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite expected.json from this tree")
    args = ap.parse_args(argv)
    if not (SRC / "branchfloer" / "__init__.py").is_file():
        print(f"error: no package at {SRC}/branchfloer; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")

    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(HARD_LIMIT_S)
    runner = Runner()
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # children share the core the probes sample
    setup_s, import_s = measure_setup(runner)
    if args.workload == "certificate":
        os.sched_setaffinity(0, cpus)  # the pool needs every core
    import branchfloer

    if not Path(branchfloer.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported branchfloer from {branchfloer.__file__}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    units = workload_units(args.workload)
    rng = random.Random(args.seed)
    summands = summand_deltas() if args.workload == "sums" else {}
    if args.workload in ("knots", "sums"):
        runner.run(Op("warm-up", "pretzel(2,-3,-7)"))  # lazy imports inside numpy
    OUT.mkdir(exist_ok=True)

    doc = {"workload": args.workload, "env": environment(args.seed), "trace": args.trace}
    if args.trace:
        spans, passes = traced_run(args.workload, runner, units, rng)
        untraced_s, traced_s = (sum(r["seconds"] for r in p) for p in passes)
        tasks = [s["dur"] for s in spans if s["name"] == "cli._omega_of"]
        efficiency = sum(tasks) / (CERT_WORKERS * traced_s) if tasks else 0.0
        leaves = {}
        for s in spans:
            if "leaves" in s:
                leaves.setdefault(s["input"], []).append(s["leaves"])
        layer = per_layer(spans, passes[1], untraced_s, traced_s, import_s, efficiency)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        problems = check(args.workload, [r for p in passes for r in p], expected, summands)
        doc["records"] = records(passes[:1], leaves)
        doc["traced_records"] = records(passes[1:], leaves)
        doc["spans"] = spans
    else:
        passes, t0 = [], time.perf_counter()
        while True:
            p0 = time.perf_counter()
            passes.append(run_pass(runner, units, rng, len(passes)))
            now = time.perf_counter()
            if now - t0 + (now - p0) > args.seconds:
                break
        metrics = end_to_end(args.workload, passes, setup_s)
        problems = check(args.workload, [r for p in passes for r in p], expected, summands)
        doc["records"] = records(passes)
    doc["problems"] = problems
    doc["metrics"] = metrics
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(doc, indent=1, default=str))
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(json.dumps({"env": doc["env"], "records": doc["records"]}))
    ops = [r for p in passes for r in p]
    result = {
        "correct": not problems,
        "attempted": len(timed(ops)),
        "failed": sum(r["error"] is not None for r in timed(ops)),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _alarm(signum, frame):
    raise HardLimit("run exceeded its time budget")


def record():
    """Write expected.json from one pass of every workload on this tree."""
    runner = Runner()
    expected = {}
    for workload in ("knots", "sums", "cli", "certificate"):
        exp = expected[workload] = {}
        for res in run_pass(runner, workload_units(workload), random.Random(0), "record"):
            if res["probe"]:
                exp[res["label"]] = {"error": res["error"]}
                continue
            if res["error"] is not None:
                raise SystemExit(f"{res['label']} failed: {res['error']}")
            view, branched = _view(res["op"], res["stdout"])
            exp[res["label"]] = {"view": view, "branched": branched}
            print(f"recorded {workload} {res['label']}", file=sys.stderr)
    write_expected(expected)
    return 0


def write_expected(expected):
    """One line per recorded input, so a re-recording diffs readably."""
    blocks = []
    for workload, entries in sorted(expected.items()):
        body = ",\n".join(
            f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(entries.items())
        )
        blocks.append(f" {json.dumps(workload)}: {{\n{body}\n }}")
    EXPECTED.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HardLimit as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(3)
