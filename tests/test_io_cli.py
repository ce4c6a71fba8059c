"""JSON round-trips, DOT export, and the command-line surface.

CLI tests drive ``main(argv)`` in-process and freeze the printed output,
exit codes, and stderr shapes.  Every file the CLI writes must be
re-readable by the CLI.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction as F

import pytest

from ultratree.builders import fig1, fig10, four_point_space, star_vs_path
from ultratree.cli import main
from ultratree.core_tree import build_tree, distance_matrix
from ultratree.errors import InvalidDeclaration
from ultratree.seqs import (
    Const,
    Custom,
    FiniteSupport,
    Geometric,
    Harmonic,
    Modulated,
    PrimeRecip,
    Ref,
)
from ultratree.symbolic import Finite, GlueFamily, Ray
from ultratree.treeio import (
    export_dot,
    seq_from_json,
    seq_to_json,
    space_from_json,
    space_to_json,
    symbolic_from_json,
    symbolic_to_json,
    tree_from_json,
    tree_to_json,
)


def small_tree():
    return build_tree(
        ["a", "b", "c"],
        [("a", "b"), ("b", "c")],
        {"a": F(1, 3), "b": F(0), "c": F(2)},
    )


def locally_finite_family():
    # ray base with zero/positive alternation, a single edge glued at
    # every even ray vertex
    part = Finite(
        build_tree(["a", "b"], [("a", "b")], {"a": F(0), "b": F(1)})
    )
    return GlueFamily(
        Ray(Modulated(2, (Harmonic(F(1)), Const(F(0))))),
        "even",
        part,
        (("vertex", "a"),),
        Const(F(1)),
    )


# ---------------------------------------------------------------------------
# JSON round-trips


def test_tree_json_roundtrip():
    t = small_tree()
    back = tree_from_json(tree_to_json(t))
    assert back.vertices == t.vertices
    assert back.edges == t.edges
    assert back.labels == t.labels
    # labels serialize as exact rational strings, never floats
    assert tree_to_json(t)["vertices"]["a"] == "1/3"


def test_space_json_roundtrip():
    sp = four_point_space()
    back = space_from_json(space_to_json(sp))
    assert back.points == sp.points
    assert back.dist == sp.dist


def test_seq_json_roundtrip_every_kind():
    seqs = [
        Const(F(1, 2)),
        Const(Ref("site_label", F(3, 2))),
        FiniteSupport((F(2), F(1), F(1, 3))),
        Harmonic(F(1)),
        Geometric(Ref("envelope"), F(1, 2)),
        PrimeRecip(F(5)),
        Modulated(2, (Harmonic(F(1)), Const(F(0)))),
        Custom((F(1, 2),), F(1, 2), F(1, 4), F(1, 4), False),
    ]
    for seq in seqs:
        obj = seq_to_json(seq)
        again = seq_to_json(seq_from_json(obj))
        assert again == obj, obj


def test_symbolic_json_roundtrip_builtins():
    for node in (fig10(), fig1(), locally_finite_family()):
        obj = symbolic_to_json(node)
        assert symbolic_to_json(symbolic_from_json(obj)) == obj


def test_glue_family_shared_key_defaults_to_template_shared():
    obj = symbolic_to_json(fig10())
    assert obj["shared"] == "center"
    del obj["shared"]
    node = symbolic_from_json(obj)
    assert symbolic_to_json(node)["shared"] == "center"


def test_json_parsers_reject_malformed_input():
    with pytest.raises(InvalidDeclaration):
        tree_from_json({"edges": []})
    with pytest.raises(InvalidDeclaration):
        space_from_json({"points": ["a"]})
    with pytest.raises(InvalidDeclaration):
        seq_from_json({"prefix": ["1"]})
    with pytest.raises(InvalidDeclaration):
        seq_from_json({"kind": "fibonacci"})
    with pytest.raises(InvalidDeclaration):
        symbolic_from_json({"kind": "forest"})


def test_export_dot_plain():
    star, _ = star_vs_path()
    dot = export_dot(star)
    assert dot.startswith("graph ultratree {")
    assert dot.endswith("}\n")
    assert '"v1" [label="v1\\n1"];' in dot
    assert '"v1" -- "v5";' in dot
    assert "filled" not in dot
    assert "doublecircle" not in dot


def test_export_dot_highlights_generators_and_roots():
    star, _ = star_vs_path()
    dot = export_dot(star, generating=("v2", "v3"), roots=("v1",))
    assert '"v2" [label="v2\\n0", style=filled, fillcolor=lightblue];' in dot
    assert '"v1" [label="v1\\n1", shape=doublecircle];' in dot
    assert '"v4" [label="v4\\n0"];' in dot


# ---------------------------------------------------------------------------
# CLI plumbing


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def workdir(tmp_path, monkeypatch, capsys):
    """Chdir into a scratch dir pre-seeded with the built-in example files."""
    monkeypatch.chdir(tmp_path)
    for name in ("fig10", "fig1", "star-path", "four-point"):
        code = main(["example", name])
        assert code == 0
    capsys.readouterr()
    return tmp_path


def test_cli_example_outputs_are_re_readable(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, ["example", "fig10"])
    assert (code, err) == (0, "")
    assert out == "wrote fig10.json\n"
    code, out, err = run_cli(capsys, ["example", "star-path"])
    assert out == "wrote star.json\nwrote path.json\n"
    code, out, err = run_cli(capsys, ["example", "four-point"])
    assert out == "wrote four_point.json\n"
    code, out, err = run_cli(capsys, ["example", "fig1"])
    assert out == "wrote fig1.json\n"
    for flag, path in [
        ("--symbolic", "fig10.json"),
        ("--symbolic", "fig1.json"),
        ("--tree", "star.json"),
        ("--tree", "path.json"),
        ("--space", "four_point.json"),
    ]:
        code, out, err = run_cli(capsys, ["validate", flag, path])
        assert (code, out, err) == (0, "valid\n", ""), path


def test_cli_dist_on_the_labeled_star(workdir, capsys):
    code, out, err = run_cli(
        capsys, ["dist", "--tree", "star.json", "--u", "v1", "--v", "v2"]
    )
    assert (code, out, err) == (0, "1\n", "")
    code, out, _ = run_cli(
        capsys, ["dist", "--tree", "path.json", "--u", "v2", "--v", "v5"]
    )
    assert (code, out) == (0, "1\n")


def test_cli_matrix_table_and_json(workdir, capsys):
    code, out, err = run_cli(capsys, ["matrix", "--tree", "star.json"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "   v1 v2 v3 v4 v5"
    assert lines[1] == "v1  0  1  1  1  1"
    assert len(lines) == 6
    code, out, _ = run_cli(capsys, ["matrix", "--tree", "star.json", "--json"])
    star, _ = star_vs_path()
    sp = space_from_json(json.loads(out))
    assert sp.points == star.vertices
    assert sp.dist == distance_matrix(star).dist


def test_cli_hull_and_attach_point(workdir, capsys):
    code, out, err = run_cli(
        capsys, ["hull", "--tree", "star.json", "--set", "v2,v3"]
    )
    assert (code, out) == (0, "v1 v2 v3\n")
    code, out, _ = run_cli(
        capsys, ["hull", "--tree", "star.json", "--set", "v2,v3", "--json"]
    )
    sub = tree_from_json(json.loads(out))
    assert sub.vertices == ("v1", "v2", "v3")
    code, out, _ = run_cli(
        capsys,
        ["attach-point", "--tree", "star.json", "--set", "v1,v2", "--v", "v5"],
    )
    assert (code, out) == (0, "v1\n")
    code, out, _ = run_cli(
        capsys,
        [
            "attach-point", "--tree", "star.json",
            "--set", "v1,v2", "--v", "v5", "--json",
        ],
    )
    assert json.loads(out) == {
        "tooth": "v5", "root": "v1", "path": ["v1", "v5"],
    }


def test_cli_iso_tree_pair_and_space_pair(workdir, capsys):
    code, out, _ = run_cli(
        capsys, ["iso", "--tree", "star.json", "--tree", "path.json"]
    )
    assert (code, out) == (0, "none\n")
    code, out, _ = run_cli(
        capsys,
        ["iso", "--tree", "star.json", "--tree", "path.json", "--json"],
    )
    assert json.loads(out) == {"isomorphic": False, "map": None}
    code, out, _ = run_cli(
        capsys, ["iso", "--tree", "star.json", "--tree", "star.json"]
    )
    assert (code, out) == (0, "v1->v1 v2->v2 v3->v3 v4->v4 v5->v5\n")
    code, out, _ = run_cli(
        capsys,
        ["iso", "--space", "four_point.json", "--space", "four_point.json"],
    )
    assert code == 0
    assert "x1->" in out


def test_cli_classify_table_for_the_glued_family(workdir, capsys):
    code, out, err = run_cli(
        capsys, ["classify", "--symbolic", "fig10.json"]
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[2] == "totally_bounded  true"
    assert lines[3] == "discrete_and_tb  false"
    assert lines[0].startswith("complete         false")
    assert "[vanishing_ray] base/ray:1:" in lines[0]
    assert lines[1].startswith("discrete         false")
    assert lines[4].startswith("compact          false")
    code, out, _ = run_cli(
        capsys, ["classify", "--symbolic", "fig10.json", "--json"]
    )
    payload = json.loads(out)
    assert payload["totally_bounded"] is True
    assert payload["complete"] is False
    assert payload["complete_witness"]["kind"] == "vanishing_ray"
    assert payload["complete_witness"]["address"] == "base/ray:1"


def test_cli_classify_compact_example(workdir, capsys):
    code, out, _ = run_cli(
        capsys, ["classify", "--symbolic", "fig1.json", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["compact"] is True
    assert payload["complete"] is True
    assert payload["totally_bounded"] is True


def test_cli_predicates_output(workdir, capsys):
    code, out, err = run_cli(
        capsys, ["predicates", "--symbolic", "fig10.json"]
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "rayless                            false"
    assert lines[1] == "locally_finite                     false"
    assert lines[2] == "finite                             false"
    assert lines[3] == "has_adjacent_infinite_degree_pair  false"
    assert lines[4] == "countable                          true"
    assert lines[5] == "vertex classes:"
    assert lines[6].startswith("  base/ray:2: accumulation")
    assert lines[-1].startswith("note: every vertex not listed is isolated")
    code, out, _ = run_cli(
        capsys, ["predicates", "--symbolic", "fig10.json", "--json"]
    )
    payload = json.loads(out)
    assert payload["countable"] is True
    assert payload["vertex_classes"][0]["address"] == "base/ray:2"
    assert payload["vertex_classes"][0]["status"] == "accumulation"


def test_cli_witness_labeling_both_goals(workdir, capsys):
    with open("lf.json", "w", encoding="utf-8") as fh:
        json.dump(symbolic_to_json(locally_finite_family()), fh)
    code, out, err = run_cli(
        capsys, ["witness-labeling", "discrete-tb", "--symbolic", "lf.json"]
    )
    assert (code, err) == (0, "")
    first, rest = out.split("\n", 1)
    assert first.startswith("all-positive vanishing labels")
    assert "discrete_and_tb=True" in first
    relabeled = symbolic_from_json(json.loads(rest))
    assert symbolic_to_json(relabeled) == json.loads(rest)
    code, out, _ = run_cli(
        capsys,
        ["witness-labeling", "compact", "--symbolic", "fig1.json", "--json"],
    )
    payload = json.loads(out)
    assert payload["verdict"]["compact"] is True
    assert payload["summary"].startswith(
        "zero labels on infinite-degree vertices"
    )


def test_cli_witness_labeling_precondition_failure(workdir, capsys):
    # the built-in glued family has infinite-degree members, so no
    # locally finite relabeling exists
    code, out, err = run_cli(
        capsys, ["witness-labeling", "discrete-tb", "--symbolic", "fig10.json"]
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: PreconditionFailed: precondition failed: locally_finite "
        "(an infinite-degree vertex cannot carry a locally finite labeling)\n"
    )


def test_cli_truncate_payload(workdir, capsys):
    code, out, err = run_cli(
        capsys, ["truncate", "--symbolic", "fig1.json", "--budget", "3"]
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert set(payload) == {"vertices", "edges", "addresses"}
    assert len(payload["edges"]) == len(payload["vertices"]) - 1
    assert set(payload["addresses"]) == set(payload["vertices"])
    assert payload["vertices"]["base/center"] == "0"
    assert payload["vertices"]["base/leaf:1"] == "1/2"
    # the emitted tree is itself CLI-readable tree JSON
    tree_from_json({"vertices": payload["vertices"], "edges": payload["edges"]})


def test_cli_truncate_glue_site_named_through_a_part(workdir, capsys):
    # attach:0/vertex:c is the part's copy of the merged vertex base/vertex:b
    def edge(u, v):
        return {"kind": "finite", "tree": {"vertices": {u: "1/2", v: "1/4"}, "edges": [[u, v]]}}

    inner = {"kind": "glue_finite", "base": edge("b", "x"),
             "attachments": [{"site": "vertex:b", "part": edge("c", "y"), "shared": "vertex:c"}]}
    star = {"kind": "star", "center": "1/2", "leaves": {"kind": "harmonic", "a": "1/4"}}
    outs = []
    for site in ("attach:0/vertex:c", "base/vertex:b"):
        with open("glued.json", "w", encoding="utf-8") as fh:
            json.dump({"kind": "glue_finite", "base": inner,
                       "attachments": [{"site": site, "part": star, "shared": "center"}]}, fh)
        code, out, err = run_cli(capsys, ["truncate", "--symbolic", "glued.json", "--budget", "2"])
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["vertices"]["base/base/vertex:b"] == "1/2"


def test_cli_conjecture_predicate_and_representable(workdir, capsys):
    code, out, _ = run_cli(
        capsys, ["conjecture-predicate", "--space", "four_point.json"]
    )
    assert (code, out) == (0, "false (failing ball: {x1, x2, x3, x4})\n")
    code, out, _ = run_cli(
        capsys,
        ["conjecture-predicate", "--space", "four_point.json", "--json"],
    )
    payload = json.loads(out)
    assert payload["predicate"] is False
    assert payload["failing_ball"]["members"] == ["x1", "x2", "x3", "x4"]
    code, out, _ = run_cli(
        capsys, ["representable", "--space", "four_point.json"]
    )
    assert (code, out) == (0, "not representable\n")
    code, out, _ = run_cli(
        capsys, ["representable", "--space", "four_point.json", "--json"]
    )
    assert json.loads(out) == {"representable": False}


def test_cli_representable_positive_witness(workdir, capsys):
    obj = {
        "points": ["a", "b", "c"],
        "d": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
    }
    with open("uni3.json", "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    code, out, err = run_cli(
        capsys, ["representable", "--space", "uni3.json"]
    )
    assert (code, err) == (0, "")
    witness = tree_from_json(json.loads(out))
    assert distance_matrix(witness).dist == space_from_json(obj).dist


def test_cli_scan_is_deterministic_across_worker_counts(workdir, capsys):
    code, out1, err1 = run_cli(capsys, ["scan", "--n", "4", "--values", "1,2"])
    assert code == 0
    code, out2, err2 = run_cli(capsys, ["scan", "--n", "4", "--values", "1,2"])
    assert code == 0
    assert out1 == out2
    assert err1 == err2 == "scanned 5 spaces: 5 agree, 0 disagree\n"
    records = [json.loads(line) for line in out1.splitlines()]
    assert [r["space_id"] for r in records] == [
        f"n4-{i:03d}" for i in range(5)
    ]
    for rec in records:
        assert set(rec) >= {
            "space_id", "canonical_hierarchy", "predicate", "representable",
        }
        assert rec["predicate"] == rec["representable"]
        if rec["representable"]:
            tree_from_json(rec["witness_tree"])
        else:
            assert "witness_tree" not in rec
    failing = [r for r in records if not r["predicate"]]
    assert len(failing) == 1
    assert failing[0]["canonical_hierarchy"] == "(2 (1 * *) (1 * *))"


SCAN_ARGUMENT_ERRORS = [
    (["--n", "0", "--values", "1"], 1,
     "error: InvalidDeclaration: n must be at least 1, got 0\n"),
    (["--n", "-2", "--values", "1"], 1,
     "error: InvalidDeclaration: n must be at least 1, got -2\n"),
    (["--n", "3", "--values", "0,1"], 1,
     "error: InvalidDeclaration: values must be positive, got 0\n"),
    (["--n", "3", "--values", "2,-1/2"], 1,
     "error: InvalidDeclaration: values must be positive, got -1/2\n"),
    (["--n", "7", "--values", "1"], 1,
     "error: SizeCapExceeded: space enumeration size 7 exceeds cap 6\n"),
    (["--n", "3", "--values", "1,2,3,4,5"], 1,
     "error: SizeCapExceeded: distance value set size 5 exceeds cap 4\n"),
    (["--n", "3"], 2, "usage error: scan needs --n and --values\n"),
]


@pytest.mark.parametrize("argv, code, message", SCAN_ARGUMENT_ERRORS)
def test_cli_scan_argument_errors_are_named(workdir, capsys, argv, code, message):
    got, out, err = run_cli(capsys, ["scan"] + argv)
    assert (got, out, err) == (code, "", message)


def test_cli_has_no_workers_flag(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--n", "4", "--values", "1,2", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_cli_scan_out_file(workdir, capsys):
    code, out, err = run_cli(
        capsys,
        ["scan", "--n", "3", "--values", "1,2", "--out", "scan.jsonl"],
    )
    assert code == 0
    assert out == ""
    assert err == "scanned 3 spaces: 3 agree, 0 disagree\n"
    with open("scan.jsonl", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["space_id"] == "n3-000"


def test_cli_export_dot_with_generating_set(workdir, capsys):
    code, out, err = run_cli(
        capsys, ["export-dot", "--tree", "star.json", "--set", "v1,v2"]
    )
    assert (code, err) == (0, "")
    assert out == (
        "graph ultratree {\n"
        "  node [shape=circle];\n"
        '  "v1" [label="v1\\n1", style=filled, fillcolor=lightblue, '
        "shape=doublecircle];\n"
        '  "v2" [label="v2\\n0", style=filled, fillcolor=lightblue];\n'
        '  "v3" [label="v3\\n0"];\n'
        '  "v4" [label="v4\\n0"];\n'
        '  "v5" [label="v5\\n0"];\n'
        '  "v1" -- "v2";\n'
        '  "v1" -- "v3";\n'
        '  "v1" -- "v4";\n'
        '  "v1" -- "v5";\n'
        "}\n"
    )


def test_cli_out_flag_writes_file_instead_of_stdout(workdir, capsys):
    code, out, err = run_cli(
        capsys, ["matrix", "--tree", "star.json", "--out", "m.txt"]
    )
    assert (code, out, err) == (0, "", "")
    with open("m.txt", encoding="utf-8") as fh:
        assert fh.read().splitlines()[0] == "   v1 v2 v3 v4 v5"


def test_cli_usage_errors_exit_2(workdir, capsys):
    cases = [
        (["dist", "--tree", "star.json"], "dist needs --u and --v"),
        (["validate"], "validate needs --tree, --space or --symbolic"),
        (["iso", "--tree", "star.json"], "iso needs --tree twice or --space twice"),
        (["truncate", "--symbolic", "fig10.json"], "truncate needs --budget"),
        (["hull", "--tree", "star.json"], "hull needs --set"),
        (["scan", "--n", "3"], "scan needs --n and --values"),
    ]
    for argv, msg in cases:
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"usage error: {msg}\n"


def test_cli_domain_and_io_errors_exit_1(workdir, capsys):
    code, out, err = run_cli(capsys, ["validate", "--tree", "nope.json"])
    assert code == 1
    assert err.startswith("error: ")
    assert "nope.json" in err
    with open("bad.json", "w", encoding="utf-8") as fh:
        fh.write("{nope")
    code, out, err = run_cli(capsys, ["validate", "--tree", "bad.json"])
    assert code == 1
    assert err.startswith("error: invalid JSON:")
    with open("ray0.json", "w", encoding="utf-8") as fh:
        json.dump({"kind": "ray", "labels": {"kind": "const", "c": "0"}}, fh)
    # structural validation accepts the all-zero ray; classification
    # requires a non-degenerate labeling and names the offending edge
    code, out, err = run_cli(capsys, ["validate", "--symbolic", "ray0.json"])
    assert (code, out) == (0, "valid\n")
    code, out, err = run_cli(capsys, ["classify", "--symbolic", "ray0.json"])
    assert code == 1
    assert err == (
        "error: DegenerateLabeling: degenerate labeling: both endpoints of "
        "('ray:1', 'ray:2') have label 0 (consecutive ray labels are both "
        "zero)\n"
    )


RAY = {"kind": "ray", "labels": {"kind": "const", "c": "1"}}
MALFORMED_SYMBOLIC = [
    ({"kind": "ray"}, "ray JSON needs the field 'labels'"),
    ({"kind": "ray", "labels": {"kind": "harmonic"}},
     "harmonic JSON needs the field 'a'"),
    ({"kind": "glue_finite", "base": RAY, "attachments": [{"part": RAY}]},
     "attachment JSON needs the field 'site'"),
    ({"kind": "star", "center": "0"}, "star JSON needs the field 'leaves'"),
    ({"kind": "scaled", "inner": RAY}, "scaled JSON needs the field 'factor'"),
    ({"kind": "ray", "labels": {"kind": "modulated", "period": "x",
                                "seqs": [{"kind": "const", "c": "1"}]}},
     "modulated field 'period' is malformed: 'x'"),
    ({"kind": "ray", "labels": {"kind": "modulated", "period": 1, "seqs": 7}},
     "modulated field 'seqs' is malformed: 7"),
    ({"kind": "finite", "tree": {"vertices": ["a"], "edges": []}},
     "finite tree JSON needs a 'vertices' mapping"),
    ({"kind": "finite", "tree": {"vertices": {"a": "1", "b": "0"},
                                 "edges": [["a"]]}},
     "finite tree 'edges' must be a list of vertex pairs"),
    ({"kind": "glue_finite", "base": RAY, "attachments": ["ray:1"]},
     "attachment JSON must be an object"),
    ({"kind": "glue_family", "base": RAY, "sites": "all",
      "template": RAY, "shared": "ray:1"},
     "glue_family JSON needs the field 'envelope'"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_SYMBOLIC)
def test_cli_malformed_symbolic_json_is_a_named_error(workdir, capsys, doc, message):
    with open("bad_doc.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, out, err = run_cli(capsys, ["classify", "--symbolic", "bad_doc.json"])
    assert (code, out) == (1, "")
    assert err.startswith("error: InvalidDeclaration: " + message), err
    with pytest.raises(InvalidDeclaration):
        symbolic_from_json(doc)


MALFORMED_MATRIX = [
    ({"points": ["a"]}, "matrix JSON needs 'points' and 'd'"),
    ({"points": "ab", "d": [["0", "1"], ["1", "0"]]},
     "matrix field 'points' must be a list of non-empty strings, got 'ab'"),
    ({"points": [1, 2], "d": [["0", "1"], ["1", "0"]]},
     "matrix field 'points' must be a list of non-empty strings, got [1, 2]"),
    ({"points": ["a", ""], "d": [["0", "1"], ["1", "0"]]},
     "matrix field 'points' must be a list of non-empty strings"),
    ({"points": ["a"], "d": 5}, "matrix field 'd' must be a list of 1 rows, got 5"),
    ({"points": ["a", "b"], "d": [["0", "1"]]},
     "matrix field 'd' must be a list of 2 rows"),
    ({"points": ["a", "b"], "d": ["01", "10"]},
     "matrix field 'd' row 0 must be a list of 2 entries, got '01'"),
    ({"points": ["a", "b"], "d": [["0", "1"], ["1"]]},
     "matrix field 'd' row 1 must be a list of 2 entries, got ['1']"),
    ({"points": ["a", "b"], "d": [["0", 0.5], [0.5, "0"]]},
     "floats are not accepted, got 0.5"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_MATRIX)
def test_cli_malformed_matrix_json_is_a_named_error(workdir, capsys, doc, message):
    with open("bad_matrix.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, out, err = run_cli(capsys, ["validate", "--space", "bad_matrix.json"])
    assert (code, out) == (1, "")
    assert err.startswith("error: InvalidDeclaration: " + message), err
    with pytest.raises(InvalidDeclaration):
        space_from_json(doc)


def test_cli_env_cap_override(workdir, capsys, monkeypatch):
    monkeypatch.setenv("ULTRATREE_SIZE_CAP", "1000001")
    code, out, err = run_cli(
        capsys, ["truncate", "--symbolic", "fig10.json", "--budget", "8"]
    )
    assert code == 1
    assert err == (
        "error: InvalidDeclaration: ULTRATREE_SIZE_CAP=1000001 outside the "
        "guarded range 1..1000000\n"
    )
    monkeypatch.setenv("ULTRATREE_SIZE_CAP", "xx")
    code, out, err = run_cli(
        capsys, ["truncate", "--symbolic", "fig10.json", "--budget", "8"]
    )
    assert code == 1
    assert err == (
        "error: InvalidDeclaration: ULTRATREE_SIZE_CAP must be an integer, "
        "got 'xx'\n"
    )
    monkeypatch.setenv("ULTRATREE_SIZE_CAP", "4")
    code, out, err = run_cli(
        capsys, ["representable", "--space", "four_point.json", "--json"]
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"representable": False}
    # a lowered cap bites: truncating past it is refused, not silently clipped
    monkeypatch.setenv("ULTRATREE_SIZE_CAP", "5")
    code, out, err = run_cli(
        capsys, ["truncate", "--symbolic", "fig10.json", "--budget", "8"]
    )
    assert code == 1
    assert err == "error: SizeCapExceeded: truncation size 40 exceeds cap 5\n"
    monkeypatch.delenv("ULTRATREE_SIZE_CAP")
    code, out, err = run_cli(
        capsys, ["truncate", "--symbolic", "fig10.json", "--budget", "8"]
    )
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 40


def test_cli_export_dot_set_on_20000_vertex_tree_within_budget(tmp_path, monkeypatch, capsys):
    """One attachment point per vertex outside the hull of three vertices."""
    budget = 10.0
    rng = random.Random(20000)
    n = 20000
    names = [f"v{i:05d}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    tree = build_tree(names, edges, {v: rng.choice((0, 1, 2)) for v in names})
    monkeypatch.chdir(tmp_path)
    with open("big.json", "w", encoding="utf-8") as fh:
        json.dump(tree_to_json(tree), fh)
    members = rng.sample(names, 3)
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, [
        "export-dot", "--tree", "big.json", "--set", ",".join(members),
        "--out", "big.dot",
    ])
    elapsed = time.monotonic() - t0
    # the hull is the union of paths between members; the attachment roots
    # are its vertices with a neighbour outside it
    adj = {v: [] for v in names}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    prev = {members[0]: None}
    queue = [members[0]]
    for x in queue:
        for y in adj[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    inside = set()
    for a in members[1:]:
        x = a
        while x is not None:
            inside.add(x)
            x = prev[x]
    roots = sorted(h for h in inside if any(y not in inside for y in adj[h]))
    with open("big.dot", encoding="utf-8") as fh:
        dot = fh.read().splitlines()
    got = sorted(line.split('"')[1] for line in dot if "doublecircle" in line)
    filled = sorted(line.split('"')[1] for line in dot if "style=filled" in line)
    ok = (
        (code, out, err) == (0, "", "")
        and got == roots
        and filled == sorted(members)
        and elapsed < budget
    )
    with capsys.disabled():
        print(
            f"export-dot --set n=20000: {'PASS' if ok else 'FAIL'} — "
            f"{n - len(inside)} attachment points, {len(roots)} roots; "
            f"{elapsed:.2f}s of {budget}s",
            flush=True,
        )
    assert (code, out, err) == (0, "", "")
    assert got == roots and filled == sorted(members)
    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
