import json

import pytest

from conftest import run_capped
from quivercrystal import build_ar, crystal_graph, crystal_ops, parse_quiver
from quivercrystal.cli import main


# Nested past the interpreter's recursion limit, so json.loads raises RecursionError.
DEEP = "[" * 100_000 + "]" * 100_000


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quiver_validate(capsys):
    code, out, _ = run_cli(capsys, "quiver", "validate", "A3: 2->1,2->3")
    assert code == 0
    assert out == "A3: 2->1, 2->3\n"


def test_quiver_validate_json(capsys):
    code, out, _ = run_cli(capsys, "quiver", "validate", "A2: 2->1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"type": "A", "rank": 2, "arrows": [[2, 1]]}


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "quiver", "validate", "A3: 1->2, 2->1")
    assert code == 2 and "parse error" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "quiver", "validate", "D3: 1->2, 2->3")
    assert code == 1 and "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_special_e8_empty(capsys):
    code, out, _ = run_cli(capsys, "special", "E8")
    assert code == 0 and out == ""


@pytest.mark.parametrize("name, message", [
    ("A40", "A40 has 2^39 orientations, more than 200000"),
    ("A99999999999", "rank 99999999999 exceeds 200000 vertices"),
])
def test_special_on_a_large_rank_is_a_resource_limit(name, message):
    """Refused before any orientation or edge is built, in a child capped at 1 GiB."""
    proc = run_capped(["-m", "quivercrystal", "special", name])
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"resource limit: {message}\n")


def _alternating(n):
    return f"A{n}: " + ", ".join(f"{a}->{a + 1}" if a % 2 else f"{a + 1}->{a}" for a in range(1, n))


@pytest.mark.parametrize("argv, message", [
    (["epsilon", "--quiver", _alternating(22), "--module", "{}", "-i", "11"],
     "vertex 11 has more than 1000000 antichains"),
    (["epsilon", "--quiver", _alternating(26), "--module", "{}", "-i", "13"],
     "vertex 13 has more than 1000000 antichains"),
    (["ar", "--quiver", "A160: " + ", ".join(f"{a}->{a + 1}" for a in range(1, 160))],
     "Hom table of A160: 12880^2 entries exceed 67108864"),
], ids=["antichains-a22", "antichains-a26", "hom-table-a160"])
def test_a_table_past_its_budget_is_a_resource_limit(argv, message):
    """Refused with one message line while the table is built, in a child capped at 1 GiB."""
    proc = run_capped(["-m", "quivercrystal", *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"resource limit: {message}\n")


def test_antichains_stream_in_a_child_capped_at_40_mib():
    """The 24,309 antichains at the middle vertex of alternating A16 are written as they are
    read off the down-sets, in about 22 MB; the whole JSON document took 55 MB."""
    argv = ["-m", "quivercrystal", "antichains", "--quiver", _alternating(16), "-i", "9"]
    ar = build_ar(parse_quiver(_alternating(16)))
    chains = crystal_ops.antichains(crystal_ops.hom_poset(ar, 9))
    proc = run_capped([*argv, "--format", "json"], cap=40 << 20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "i": 9, "antichains": [[list(ar.indecs[x].dim) for x in a.members] for a in chains]}
    proc = run_capped(argv, cap=40 << 20)
    assert (proc.returncode, proc.stderr) == (0, "")
    head, *lines = proc.stdout.splitlines()
    assert head == "24309 antichains at vertex 9" and len(lines) == len(chains) == 24309
    assert lines[-1] == "  " + " + ".join(str(ar.indecs[x]) for x in chains[-1].members)


def test_pm_dot_streams_in_a_child_capped_at_100_mib():
    """200,003 nodes, 15.3 MB of DOT, written as the lines are made in about 69 MB; the
    text built whole took 139 MB."""
    proc = run_capped(["-m", "quivercrystal", "epsilon", "--quiver", "A3: 2->1, 2->3",
                       "--module", '{"1,1,1":100000}', "-i", "2", "--pm-dot"], cap=100 << 20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("digraph pm {\n  rankdir=LR;\n") and proc.stdout.endswith("}\n")
    assert proc.stdout.count(" [label=") == 200_003 and len(proc.stdout) == 16_044_678


def test_special_a3_all_orientations(capsys):
    code, out, _ = run_cli(capsys, "special", "A3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["orientations"]) == 4


def test_apply_a1_word(capsys):
    code, out, _ = run_cli(
        capsys, "apply", "--quiver", "A1", "--module", "{}", "--ops", "f1 f1 e1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["module"] == {"1": 1}
    assert doc["epsilon"] == {"1": 1}
    assert doc["weight"] == [-1]


def test_apply_null_on_undefined_raise(capsys):
    code, out, _ = run_cli(
        capsys, "apply", "--quiver", "A1", "--module", "{}", "--ops", "e1"
    )
    assert code == 0 and out == "null\n"
    code, out, _ = run_cli(
        capsys, "apply", "--quiver", "A1", "--module", "{}", "--ops", "e1", "--strict"
    )
    assert code == 1 and out == "null\n"


def test_apply_reads_module_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"1,1,1":2,"1,0,0":1,"0,1,1":1,"0,1,0":1}')
    code, out, _ = run_cli(
        capsys, "apply", "--quiver", "A3: 2->1, 2->3", "--module", str(path),
        "--ops", "f2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["module"] == {"0,1,0": 1, "0,1,1": 2, "1,0,0": 1, "1,1,0": 1, "1,1,1": 1}


def test_module_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(
        capsys, "apply", "--quiver", "A2: 2->1", "--module", str(path), "--ops", ""
    )
    assert code == 2 and out == "" and "cannot read module file" in err


@pytest.mark.parametrize("command", ["epsilon", "apply"])
@pytest.mark.parametrize(
    "module",
    ['{"1,1,1":1.5}', '{"0,1,0":true}', '{"1,1,1":"2"}', '{"0,1,0":' + DEEP + "}",
     '{"0,1,0":' + "1" * 5000 + "}"],
    ids=["float", "bool", "string", "deep", "too-many-digits"],
)
def test_module_multiplicity_must_be_json_integer(capsys, command, module):
    extra = ["-i", "2"] if command == "epsilon" else ["--ops", "f2"]
    code, out, err = run_cli(
        capsys, command, "--quiver", "A3: 2->1, 2->3", "--module", module, *extra
    )
    assert code == 2 and out == "" and "parse error" in err


@pytest.mark.parametrize(
    "module", ['{"1,0":-1}', '{"1,0":2,"1, 0":-1}', '{"1, 0":-1,"1,0":2}', '{"1,0":-1,"1,0":1}'],
    ids=["alone", "cancelled-after", "cancelled-before", "cancelled-by-a-repeat"],
)
def test_negative_module_entry_is_a_domain_error(capsys, module):
    code, out, err = run_cli(
        capsys, "apply", "--quiver", "A2: 2->1", "--module", module, "--ops", ""
    )
    assert code == 1 and out == "" and "negative multiplicity for (1, 0)" in err


def test_apply_bad_ops_word(capsys):
    code, _, err = run_cli(
        capsys, "apply", "--quiver", "A1", "--module", "{}", "--ops", "g1"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "apply", "--quiver", "A1", "--module", "{}", "--ops", "f9"
    )
    assert code == 2


def test_poset_chain(capsys):
    code, out, _ = run_cli(
        capsys, "poset", "--quiver", "A3: 3->2,2->1", "-i", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"] == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    assert doc["covers"] == [[0, 1], [1, 2]]


def test_poset_non_special_fails(capsys):
    code, _, err = run_cli(
        capsys, "poset", "--quiver", "D4: 2->1, 2->3, 2->4", "-i", "2"
    )
    assert code == 1 and "special" in err


def test_antichains_output(capsys):
    code, out, _ = run_cli(
        capsys, "antichains", "--quiver", "A3: 2->1,2->3", "-i", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["antichains"]) == 5


def test_epsilon_with_geometry_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "epsilon", "--quiver", "A3: 2->1,2->3",
        "--module", '{"1,1,1":2,"1,0,0":1,"0,1,1":1,"0,1,0":1}',
        "-i", "2", "--oracle", "geom", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"agree": True, "epsilon": 2, "geom": 2, "i": 2}


def test_epsilon_resource_limit(capsys):
    code, _, err = run_cli(
        capsys, "epsilon", "--quiver", "A3: 2->1,2->3",
        "--module", '{"1,1,1":2,"0,1,0":2}', "-i", "2",
        "--oracle", "geom", "--limit", "1",
    )
    assert code == 3 and "resource" in err


@pytest.mark.parametrize("command", ["graph", "check"])
def test_vertex_budget_zero_refuses_the_root(capsys, command):
    code, out, err = run_cli(capsys, command, "--quiver", "A1", "--depth", "0", "--max-vertices", "0")
    assert code == 3 and out == ""
    assert err == "resource limit: vertex budget 0 exceeded at depth 0\n"
    code, _, _ = run_cli(capsys, command, "--quiver", "A1", "--depth", "0", "--max-vertices", "1")
    assert code == 0


def test_epsilon_limit_applies_only_to_graphs_with_red_nodes(capsys):
    """--limit 1 refuses the pinned class, whose graph has red nodes, and
    answers one whose vertex-2 graph has none."""
    base = ["epsilon", "--quiver", "A3: 2->1,2->3", "-i", "2", "--oracle", "geom", "--limit", "1"]
    code, _, err = run_cli(capsys, *base, "--module", '{"1,1,1":2,"1,0,0":1,"0,1,1":1,"0,1,0":1}')
    assert code == 3 and "resource" in err
    code, out, _ = run_cli(capsys, *base, "--module", '{"0,1,0":2,"1,1,0":1,"0,1,1":1}', "--format", "json")
    assert code == 0
    assert json.loads(out) == {"agree": True, "epsilon": 4, "geom": 4, "i": 2}


def test_epsilon_answers_more_red_nodes_than_the_recursion_limit(capsys):
    """1500 reds with no white above them: a search space of 1, once 1500 levels deep."""
    code, out, err = run_cli(
        capsys, "epsilon", "--quiver", "A3: 2->1, 2->3", "--module", '{"1,1,1":1500}',
        "-i", "2", "--oracle", "geom", "--format", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"agree": True, "epsilon": 1500, "geom": 1500, "i": 2}


def test_epsilon_refuses_more_red_nodes_than_the_limit(capsys):
    """10^23 - 1 reds: refused from the red count (exit 3) before any per-red work; the
    same count of whites with no red is answered from the white count."""
    huge = "9" * 23
    base = ["epsilon", "--quiver", "A3: 2->1, 2->3", "-i", "2", "--oracle", "geom"]
    code, out, err = run_cli(capsys, *base, "--module", f'{{"1,1,1":{huge}}}')
    assert code == 3 and out == ""
    assert err == f"resource limit: morphism search over {huge} red nodes exceeds 10000000\n"
    code, out, err = run_cli(capsys, *base, "--module", f'{{"0,1,0":{huge}}}', "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"agree": True, "epsilon": int(huge), "geom": int(huge), "i": 2}


def test_e8_orientation_validates_then_special_is_empty(capsys):
    spec = "E8: 1->2, 2->3, 3->4, 4->5, 5->6, 6->7, 3->8"
    code, out, _ = run_cli(capsys, "quiver", "validate", spec)
    assert code == 0 and out.startswith("E8:")
    code, out, _ = run_cli(capsys, "special", "E8")
    assert code == 0 and out == ""


def test_epsilon_pm_dot(capsys):
    code, out, _ = run_cli(
        capsys, "epsilon", "--quiver", "A3: 2->1,2->3",
        "--module", '{"1,1,1":2,"1,0,0":1,"0,1,1":1,"0,1,0":1}',
        "-i", "2", "--pm-dot",
    )
    assert code == 0
    assert "digraph pm" in out
    assert "fillcolor=red" in out and "fillcolor=white" in out
    _, out2, _ = run_cli(
        capsys, "epsilon", "--quiver", "A3: 2->1,2->3",
        "--module", '{"1,1,1":2,"1,0,0":1,"0,1,1":1,"0,1,0":1}',
        "-i", "2", "--pm-dot",
    )
    assert out == out2


def test_epsilon_pm_dot_refuses_more_nodes_than_the_limit(capsys):
    """The node count comes from the counts, so 10^23 copies are refused before any
    per-node work; the worked example has 7 nodes."""
    base = ["epsilon", "--quiver", "A3: 2->1, 2->3", "-i", "2", "--pm-dot"]
    code, out, err = run_cli(capsys, *base, "--module", f'{{"1,1,1":{10**23}}}')
    assert code == 3 and out == ""
    assert err == f"resource limit: multiplicity graph of {2 * 10**23 + 3} nodes exceeds 10000000\n"
    worked = ["--module", '{"1,1,1":2,"1,0,0":1,"0,1,1":1,"0,1,0":1}']
    code, out, err = run_cli(capsys, *base, *worked, "--limit", "6")
    assert code == 3 and out == ""
    assert err == "resource limit: multiplicity graph of 7 nodes exceeds 6\n"
    code, out, _ = run_cli(capsys, *base, *worked, "--limit", "7")
    assert code == 0 and run_cli(capsys, *base, *worked) == (0, out, "")


def test_ar_outputs(capsys):
    code, out, _ = run_cli(capsys, "ar", "--quiver", "A2: 2->1")
    assert code == 0
    doc = json.loads(out)
    assert {x["dim"][0] for x in doc["indecs"]} == {0, 1}
    code, out, _ = run_cli(capsys, "ar", "--quiver", "A2: 2->1", "--format", "dot")
    assert code == 0 and "style=dashed" in out and "digraph" in out


def test_graph_json_round_trips(capsys):
    from quivercrystal.crystal_graph import graph_from_json

    code, out, _ = run_cli(
        capsys, "graph", "--quiver", "A2: 2->1", "--depth", "3", "--format", "json"
    )
    assert code == 0
    assert graph_from_json(out).to_json() == out.strip()


def test_byte_identical_repeated_invocations(capsys):
    args = ["graph", "--quiver", "A3: 2->1,2->3", "--depth", "3", "--format", "json"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_check_passes(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--quiver", "A3: 2->1,2->3", "--depth", "3",
        "--samples", "5", "--seed", "42",
    )
    assert code == 0
    assert "ok" in out and "0 violations" in out


def test_check_json_reports_both_outcomes(capsys, monkeypatch):
    args = ["check", "--quiver", "A3: 2->1,2->3", "--depth", "3", "--samples", "5",
            "--seed", "42"]
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "axioms": {"ok": True, "checked_edges": 36, "first_violation": None},
        "samples": {"count": 5, "violations": 0, "seed": 42},
    }
    # An off-by-one epsilon, seen by the axioms check and the samples but not
    # by generate: phi_i no longer matches the stored phi, and the samples see
    # it disagree with the geometric route.
    epsilon_i, score_pass = crystal_ops.epsilon_i, crystal_graph._score_pass
    check_axioms = crystal_graph.check_axioms

    def off_by_one(*args, **kwargs):
        eps, lowered, raised = score_pass(*args, **kwargs)
        return eps + 1, lowered, raised

    def check_off_by_one(g):
        with monkeypatch.context() as patch:
            patch.setattr(crystal_graph, "_score_pass", off_by_one)
            return check_axioms(g)

    monkeypatch.setattr(crystal_ops, "epsilon_i", lambda ar, m, i: epsilon_i(ar, m, i) + 1)
    monkeypatch.setattr(crystal_graph, "check_axioms", check_off_by_one)
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    doc = json.loads(out)
    assert code == 1
    assert doc["axioms"] == {
        "ok": False,
        "checked_edges": 0,
        "first_violation": "phi_1 identity fails at (0, 0, 0, 0, 0, 0)",
    }
    assert doc["samples"] == {"count": 5, "violations": 15, "seed": 42}
    code, text, _ = run_cli(capsys, *args)
    assert code == 1
    assert text == (
        "axioms: FAIL: phi_1 identity fails at (0, 0, 0, 0, 0, 0)\n"
        "samples: 5 random classes, 15 violations (seed 42)\n"
    )


def test_check_deterministic_given_seed(capsys):
    args = ["check", "--quiver", "A2: 2->1", "--depth", "2", "--samples", "8", "--seed", "1"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize(
    "command", [["quiver", "validate"], ["ar", "--quiver"]], ids=["validate", "ar"]
)
@pytest.mark.parametrize(
    "spec",
    [
        '{"type":"A","rank":2.7,"arrows":[[2,1]]}',
        '{"type":"A","rank":true,"arrows":[]}',
        '{"type":"A","rank":"2","arrows":[[2,1]]}',
        '{"type":"A","rank":2,"arrows":[["2",1]]}',
        '{"type":"A","rank":2,"arrows":[[2,1.0]]}',
        '{"type":5,"rank":2,"arrows":[[2,1]]}',
        '{"type":' + DEEP + ',"rank":2,"arrows":[[2,1]]}',
    ],
    ids=["float-rank", "bool-rank", "string-rank", "string-arrow", "float-arrow", "int-type",
         "deep-type"],
)
def test_quiver_json_fields_are_not_coerced(capsys, command, spec):
    code, out, err = run_cli(capsys, *command, spec)
    assert code == 2 and out == "" and "parse error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--quiver", "A2: 2->1", "--samples", "-3"],
        ["check", "--quiver", "A2: 2->1", "--limit", "-1"],
        ["check", "--quiver", "A2: 2->1", "--max-vertices", "-1"],
        ["graph", "--quiver", "A2: 2->1", "--depth", "2", "--max-vertices", "-1"],
        ["epsilon", "--quiver", "A2: 2->1", "--module", "{}", "-i", "1", "--limit", "-1"],
        ["graph", "--quiver", "A2: 2->1", "--depth", "-1"],
        ["check", "--quiver", "A2: 2->1", "--depth", "-1"],
    ],
    ids=["check-samples", "check-limit", "check-max-vertices", "graph-max-vertices",
         "epsilon-limit", "graph-depth", "check-depth"],
)
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "nonnegative" in capsys.readouterr().err
