import io
import json
import subprocess
import sys
from dataclasses import replace

import pytest

from branchfloer import ConsistencyError, cli, complexes, knots, roots

GAMMA7_JSON = '{"weights": [-1, -2, -3, -7], "edges": [[0,1],[0,2],[0,3]]}'

GAMMA7_DOT = """digraph graded_root {
  rankdir="BT";
  node [shape=circle, fontsize=10];
  v0 [label="0"];
  v1 [label="0"];
  v2 [label="-2"];
  v3 [label="-4"];
  v4 [label="-6"];
  v2 -> v0;
  v2 -> v1;
  v3 -> v2;
  v4 -> v3;
  v0 -> v1 [style=dashed, dir=both, constraint=false];
}
"""


def run_cli(*args, stdin=None, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "branchfloer", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_invariants_torus_37_json():
    proc = run_cli("invariants", "torus(3,7)")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == 1
    assert doc["delta"] == [-2, 1]
    assert doc["red_conn"] == []
    assert doc["connected"] == {"towers": [[-2, 1]], "torsion": []}


def test_invariants_pretzel_2_3_7_json():
    proc = run_cli("invariants", "pretzel(2,-3,-7)")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["red_conn"] == [{"degree": [-2, 1], "length": 1}]
    assert doc["omega"] == 1
    assert doc["sigma"] == 8


def test_invariants_text_format():
    proc = run_cli("invariants", "pretzel(2,-3,-7)", "--format", "text")
    assert proc.returncode == 0
    lines = dict(
        line.split(None, 1) for line in proc.stdout.splitlines() if line.strip()
    )
    assert lines["delta"] == "-2"
    assert lines["delta_lower"] == "-4"
    assert lines["sigma"] == "8"


def test_invariants_is_byte_stable():
    a = run_cli("invariants", "torus(2,7)")
    b = run_cli("invariants", "torus(2,7)")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_invariants_empty_spec_is_a_parse_error():
    proc = run_cli("invariants", "")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.parametrize(
    "spec, found",
    [("mirror()", "')'"), ("sum(torus(2,3),)", "')'"), ("sum(5)", "'5'"), ("foo(1)", None)],
)
def test_invariants_names_the_token_where_a_spec_is_expected(spec, found):
    proc = run_cli("invariants", spec)
    assert proc.returncode == 2
    if found is None:
        assert "error: unknown constructor 'foo'" in proc.stderr
    else:
        assert f"error: expected a knot spec, found {found}" in proc.stderr


def test_invariants_verify_flag_passes():
    proc = run_cli("invariants", "pretzel(2,-3,-7)", "--verify")
    assert proc.returncode == 0


def test_invariants_rank_bound_failure_is_reported():
    proc = run_cli(
        "invariants", "sum(pretzel(2,-3,-7),pretzel(2,-3,-7))", "--rank-bound", "1"
    )
    assert proc.returncode == 1
    assert "bound" in proc.stderr


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 16: a sum builds its full tensor with no bound, and this "
    "one exits 1 with a bare MemoryError under the cap",
)
def test_invariants_of_a_large_sum_answer_or_name_the_full_tensor_rank():
    # the summands' root models have ranks 287 and 391 at --n-max 1, so the
    # full tensor has rank 112217; the command must answer, or fail with an
    # error that names that rank, within 60 s and 1 GiB of address space
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    spec = "sum(pretzel(27,-13,25),pretzel(31,-15,29))"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "branchfloer", "invariants", spec, "--n-max", "1"],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap,
        )
    except subprocess.TimeoutExpired:
        proc = None
    assert proc is not None, "no answer within 60 s"
    assert proc.returncode == 0 or (proc.returncode == 1 and "112217" in proc.stderr), proc.stderr


def test_root_accepts_plumbing_json_and_renders_dot():
    proc = run_cli("root", GAMMA7_JSON, "--dot")
    assert proc.returncode == 0
    assert proc.stdout == GAMMA7_DOT


def test_root_json_output_round_trips():
    proc = run_cli("root", "torus(3,7)")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == 1
    assert doc["stable"] is True
    assert doc["leaves"] == [0, 1]
    # building from the knot description declares a trivial involution here
    assert doc["involution"] == {str(v): v for v in range(5)}


def test_root_reads_stdin_stem():
    proc = run_cli("root", "-", "--format", "text", stdin='{"weights": [-1]}')
    assert proc.returncode == 0
    assert "leaves      1" in proc.stdout
    assert "involution  id" in proc.stdout


def test_root_with_tight_cap_reports_instability():
    proc = run_cli("root", "pretzel(2,-3,-7)", "--n-max", "0")
    assert proc.returncode == 4
    assert "level 0" in proc.stderr


@pytest.mark.parametrize(
    "extra, message",
    [
        # a declared leg swap, which the star engine took as the identity
        pytest.param(
            '"automorphism": [0, 2, 1]',
            'bad plumbing JSON: unknown field "automorphism"',
            id="field",
        ),
        pytest.param(
            '"involution": "automorphism"', "unknown involution 'automorphism'", id="name"
        ),
    ],
)
def test_root_rejects_a_declared_automorphism(capsys, extra, message):
    # a root carries the lattice reflection or the identity, nothing else
    doc = '{"weights": [-2, -3, -3], "edges": [[0, 1], [0, 2]], %s}' % extra
    assert cli.main(["root", doc]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


@pytest.mark.parametrize("python_flags", [(), ("-O",)])
def test_root_rejects_a_non_characteristic_char(python_flags):
    doc = '{"weights": [-2, -3], "edges": [[0, 1]], "char": [1, 1]}'
    proc = run_cli("root", doc, python_flags=python_flags)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not characteristic" in proc.stderr


def test_root_rejects_a_char_of_the_wrong_length():
    proc = run_cli("root", '{"weights": [-2, -3], "edges": [[0, 1]], "char": [0]}')
    assert proc.returncode == 2
    assert "char has 1 entries for 2 vertices" in proc.stderr


@pytest.mark.parametrize(
    "doc, field",
    [
        ('{"weights": [-2.7, -3], "edges": [[0, 1]]}', "weights"),
        ('{"weights": [-2, -3], "edges": [[0, 1]], "char": [0.5, 1]}', "char"),
        ('{"weights": [-2, -3], "edges": [[0, 1]], "char": null}', "char"),
        ('{"weights": [true, -3], "edges": [[0, 1]]}', "weights"),
        ('{"weights": "-2"}', "weights"),
        ('{"weights": [-2, -3], "edges": [[0, 1.0]]}', "edges"),
        ('{"weights": [-2, -2], "edges": [[0, true]]}', "edges"),
    ],
)
def test_root_rejects_plumbing_json_that_is_not_integer(capsys, doc, field):
    # a float, a bool, a string or null is never read as integers: exit 2, and
    # the message names the field
    assert cli.main(["root", doc]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"bad plumbing JSON: {field} must be a list of integers" in out.err


@pytest.mark.parametrize("value", ["0", "false", '""', "{}", "[]"])
def test_root_rejects_a_falsy_automorphism(capsys, value):
    # a value that is false in Python does not make the field absent: exit 2,
    # and the message names the field
    doc = '{"weights": [-2, -2], "edges": [[0, 1]], "automorphism": %s}' % value
    assert cli.main(["root", doc]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert 'bad plumbing JSON: unknown field "automorphism"' in out.err


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"weights": [-2, -2], "edges": [[0, 1, 1]]}', "edges must be a list of integer pairs"),
        ('{"weights": [-2, -2], "edges": [[0]]}', "edges must be a list of integer pairs"),
        ('{"weights": [-2, -2], "edges": {"0": 1}}', "edges must be a list of integer pairs"),
        ('{"weights": [-2, -2], "edges": "01"}', "edges must be a list of integer pairs"),
        ('{"weights": [-2], "involution": null}', "involution must be a string"),
        ('{"weights": [-2], "involution": ["trivial"]}', "involution must be a string"),
        ('{"edges": []}', "weights is missing"),
    ],
)
def test_root_rejects_plumbing_json_of_the_wrong_shape(capsys, doc, message):
    # not an unpacking error, a string's characters read as edges, or a
    # value printed into an unknown involution name
    assert cli.main(["root", doc]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: bad plumbing JSON: {message}, got " in out.err


def test_root_rejects_an_unknown_plumbing_json_field(capsys):
    # a misspelled "char" must not fall back to the default spin vector
    doc = '{"weights": [-2, -3], "edges": [[0, 1]], "chars": [0, 1]}'
    assert cli.main(["root", doc]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert 'bad plumbing JSON: unknown field "chars"' in out.err


def test_root_rejects_indefinite_tree():
    proc = run_cli("root", '{"weights": [0], "edges": []}')
    assert proc.returncode == 3


@pytest.mark.parametrize(
    "doc",
    [
        '{"weights": [-1, -1], "edges": [[0, 1]]}',
        '{"weights": [-2, 0, -2], "edges": [[0, 1], [1, 2]]}',
    ],
)
def test_root_rejects_a_singular_or_indefinite_chain(doc):
    proc = run_cli("root", doc)
    assert proc.returncode == 3
    assert "not negative definite" in proc.stderr


def test_root_rejects_a_tree_with_no_vertices():
    proc = run_cli("root", '{"weights": [], "edges": []}')
    assert proc.returncode == 2
    assert "no vertices" in proc.stderr


def test_root_accepts_a_negative_stop_level():
    # stop levels are values of chi: this root spans levels -22..-15
    plain = run_cli("root", "pretzel(11,-5,9)")
    capped = run_cli("root", "pretzel(11,-5,9)", "--n-max", "-15")
    assert plain.returncode == capped.returncode == 0
    assert capped.stdout == plain.stdout
    low = run_cli("root", "pretzel(11,-5,9)", "--n-max", "-23")
    assert low.returncode == 4
    assert "below the minimum" in low.stderr


def test_root_rejects_derived_specs():
    proc = run_cli("root", "mirror(torus(3,7))")
    assert proc.returncode == 2


def test_root_verify_cross_checks_engines():
    proc = run_cli("root", "pretzel(2,-3,-7)", "--verify")
    assert proc.returncode == 0


def test_root_verify_reports_an_engine_disagreement(monkeypatch, capsys):
    build = roots.build_root_box

    def skewed(*args, **kwargs):
        return build(*args, **{**kwargs, "involution": "trivial"})

    monkeypatch.setattr(roots, "build_root_box", skewed)
    with pytest.raises(ConsistencyError, match="engine cross-check failed"):
        cli.cmd_root(GAMMA7_JSON, cli.RunConfig(verify=True), out=io.StringIO())
    assert cli.main(["root", GAMMA7_JSON, "--verify"]) == 1
    assert "engine cross-check failed" in capsys.readouterr().err


def test_root_verify_names_the_box_build_that_ran_out_of_points(monkeypatch, capsys):
    # the star root needs no point budget; only --verify's box build does
    monkeypatch.setattr(roots, "_POINT_BUDGET", 10)
    assert cli.main(["root", "pretzel(2,-3,-7)"]) == 0
    capsys.readouterr()
    with pytest.raises(roots.MemoryGuardError, match="^--verify's box build failed: "):
        cli.cmd_root("pretzel(2,-3,-7)", cli.RunConfig(verify=True), out=io.StringIO())
    assert cli.main(["root", "pretzel(2,-3,-7)", "--verify"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --verify's box build failed: ") and "exceeds 10 points" in err


def test_root_verify_says_it_checked_nothing_on_a_non_star_tree(capsys):
    bush = '{"weights":[-3,-2,-2,-3,-2,-2],"edges":[[0,1],[1,2],[1,3],[3,4],[3,5]]}'
    assert cli.main(["root", bush]) == 0
    plain = capsys.readouterr()
    assert cli.main(["root", bush, "--verify"]) == 0
    verified = capsys.readouterr()
    assert verified.out == plain.out and plain.err == ""
    assert verified.err.startswith("note: --verify checked nothing")
    assert verified.err.count("\n") == 1


def test_internal_consistency_failure_exits_1(monkeypatch, capsys):
    # torus(7,13)'s root stops with three top components; one that claims to
    # be stable anyway gives a model complex with several towers: a fault of
    # the package, not of the input
    build = knots.build_root
    monkeypatch.setattr(
        knots, "build_root", lambda *a, **kw: replace(build(*a, **kw), stable=True)
    )
    assert cli.main(["invariants", "torus(7,13)"]) == 1
    assert "expected a single tower" in capsys.readouterr().err


def test_an_error_with_no_message_prints_its_type(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(knots, "build_root", exhausted)
    assert cli.main(["invariants", "torus(2,3)"]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


@pytest.mark.parametrize("command", ["invariants", "root"])
def test_unstable_truncation_exits_4(command):
    proc = run_cli(command, "pretzel(11,-5,9)", "--n-max", "-18")
    assert proc.returncode == 4
    assert "split into 3 components at level -18; raise --n-max" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("invariants", "torus(2,3)", "--workers", "3"),
        ("invariants", "torus(2,3)", "--box", "5"),
        ("root", "torus(2,3)", "--rank-bound", "1"),
        ("root", "torus(2,3)", "--workers", "2"),
        ("independence", "torus(2,3)", "--box", "5"),
        ("root", "torus(2,3)", "--box", "5"),
    ],
)
def test_subcommands_reject_flags_they_do_not_read(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


def test_independence_duplicate_specs_yield_no_certificate():
    proc = run_cli("independence", "torus(3,7)", "torus(3,7)")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["certificate"] is False
    assert [e["omega"] for e in doc["entries"]] == [0, 0]


WORKERS_WARNING = "warning: --workers is ignored; independence runs in one process\n"


def test_independence_is_stable_across_worker_counts():
    a = run_cli("independence", "torus(3,7)", "torus(2,7)")
    b = run_cli("independence", "torus(3,7)", "torus(2,7)", "--workers", "2")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert (a.stderr, b.stderr) == ("", WORKERS_WARNING)
    assert json.loads(a.stdout)["certificate"] is False


@pytest.mark.parametrize("workers", ["0", "8"])
def test_independence_ignores_any_worker_count_with_a_warning(workers, capsys):
    # --workers only parses: it runs nothing in parallel and rejects no count
    assert cli.main(["independence", "torus(2,3)", "torus(2,5)", "--workers", workers]) == 0
    out, err = capsys.readouterr()
    assert err == WORKERS_WARNING
    assert json.loads(out)["certificate"] is False


GENERATORS = ["pretzel(7,-3,5)", "pretzel(11,-5,9)", "pretzel(15,-7,13)"]


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_independence_builds_each_root_once_and_no_cone(monkeypatch):
    built = _counted(monkeypatch, knots, "build_root")
    branched = _counted(monkeypatch, complexes, "branched_invariants")
    cones = _counted(monkeypatch, complexes, "involutive_cone")
    out = io.StringIO()
    cli.cmd_independence(GENERATORS, cli.RunConfig(), out=out)
    assert len(built) == 3
    assert branched == [] and cones == []
    doc = json.loads(out.getvalue())
    assert [e["omega"] for e in doc["entries"]] == [1, 2, 3]
    assert [p["omega"] for p in doc["pairs"]] == [2, 3, 3]


def test_independence_verify_checks_every_cone_from_the_same_roots(monkeypatch):
    plain = io.StringIO()
    cli.cmd_independence(GENERATORS, cli.RunConfig(), out=plain)
    built = _counted(monkeypatch, knots, "build_root")
    cones = _counted(monkeypatch, complexes, "involutive_cone")
    checked = io.StringIO()
    cli.cmd_independence(GENERATORS, cli.RunConfig(verify=True), out=checked)
    assert len(built) == 3
    assert len(cones) == 6  # three knots and three pairs
    assert checked.getvalue() == plain.getvalue()


def test_independence_lifts_only_the_small_models(monkeypatch):
    # delta is read off each knot's root; the lift is for the small model
    lifts = _counted(monkeypatch, complexes, "lift_involution")
    out = io.StringIO()
    cli.cmd_independence(GENERATORS, cli.RunConfig(), out=out)
    assert len(lifts) == 3
    assert [e["omega"] for e in json.loads(out.getvalue())["entries"]] == [1, 2, 3]


def test_independence_verify_builds_each_model_once(monkeypatch):
    # each knot's monotone subroot and its whole root: delta, the knot's full
    # complex and the pairs' tensors share the root's one model
    plain = io.StringIO()
    cli.cmd_independence(GENERATORS, cli.RunConfig(), out=plain)
    models = _counted(monkeypatch, complexes, "model_complex")
    checked = io.StringIO()
    cli.cmd_independence(GENERATORS, cli.RunConfig(verify=True), out=checked)
    assert len(models) == 6
    assert len({id(root) for (root,) in models}) == 6
    assert checked.getvalue() == plain.getvalue()


@pytest.mark.parametrize(
    "text",
    # a knot, a knot whose presentation is mirrored, a mirror and a sum
    [
        "pretzel(7,-3,5)",
        "pretzel(-2,3,7)",
        "mirror(pretzel(11,-5,9))",
        "sum(torus(3,7),mirror(torus(2,5)))",
    ],
)
def test_evaluation_delta_is_the_full_complex_delta(text):
    ev = knots._evaluate(knots.parse_spec(text), None)
    assert ev.delta == complexes.delta_invariant(ev.full[0])


def test_independence_checks_each_pair_tower_against_the_summed_delta():
    config = cli.RunConfig()
    a, b = (knots._evaluate(knots.parse_spec(t), None) for t in GENERATORS[:2])
    assert cli._omega_of(("pair", a, b, config)) == 2
    with pytest.raises(ConsistencyError, match="disagree with delta"):
        cli._omega_of(("pair", a, replace(b, delta=b.delta + 2), config))


@pytest.mark.parametrize(
    "texts, entries, pair",
    [
        (["mirror(sum(pretzel(2,-3,-7),pretzel(2,-3,-9)))", "torus(2,5)"], [1, 0], 1),
        (["mirror(sum(pretzel(7,-3,5),mirror(pretzel(2,-3,-7))))", "torus(2,3)"], [0, 0], 0),
    ],
)
def test_independence_dualizes_the_search_of_a_mirrored_sum(texts, entries, pair):
    # a mirrored sum's connected module is the dual of its sum's, as in
    # `invariants`; --verify checks it against the search on the mirror's
    # own model, the dual of the sum's unreduced tensor
    for verify in (False, True):
        out = io.StringIO()
        cli.cmd_independence(texts, cli.RunConfig(verify=verify), out=out)
        doc = json.loads(out.getvalue())
        assert [e["omega"] for e in doc["entries"]] == entries
        assert [p["omega"] for p in doc["pairs"]] == [pair]
    assert knots.invariants(knots.parse_spec(texts[0])).omega == entries[0]


@pytest.mark.slow
def test_independence_certifies_the_generator_family():
    proc = run_cli(
        "independence",
        "pretzel(7,-3,5)",
        "pretzel(11,-5,9)",
        "pretzel(15,-7,13)",
        "--workers",
        "2",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert [e["omega"] for e in doc["entries"]] == [1, 2, 3]
    assert [p["omega"] for p in doc["pairs"]] == [2, 3, 3]
    assert doc["certificate"] is True
