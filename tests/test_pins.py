"""Output pins: SHA-256 digests of CLI output and of the cold-start tables.

`output_pins.json` was written from the code before the Hom table, the
root check and the vertex posets were rebuilt row by row, and before the
CLI parser became lazy; every digest must still match.  The tables digest
covers, per orientation, the indecomposables, arrows, tau ids, Hom table
and special flag, and for every vertex poset the tables it once stored:
its order, antichains and exchange sets now come from the public
functions, which read them off the down-set masks.  The `graph_d4`,
`antichains_text_e7` and `pm_dot_a3` digests were written before the
vertex records shared their statistic tuples and before `antichains` and
`epsilon --pm-dot` wrote their output as it was made.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from quivercrystal import Antichain, build_ar, crystal_ops
from quivercrystal.cli import build_parser, main
from quivercrystal.dynkin import all_orientations, diagram

PINS = json.loads((Path(__file__).parent / "output_pins.json").read_text())
CLI_MIX_E7 = "E7: 2->1, 3->2, 4->3, 3->7, 5->4, 6->5"
# E7 and E8 are covered by a fixed sample of orientations (bitmask order).
SAMPLE = {"E7": range(0, 64, 5), "E8": range(0, 128, 9)}
COMMANDS = ["quiver", "ar", "poset", "antichains", "apply", "epsilon", "graph", "special", "check"]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tables_doc(q) -> str:
    ar = build_ar(q)
    doc = {
        "indecs": [list(x) for x in ar.indecs], "arrows": ar.arrows, "tau_ids": ar.tau_ids,
        "hom": [[ar.hom_dim(x, y) for y in ar.indecs] for x in ar.indecs],
        "special": ar.is_special(), "posets": [],
    }
    if ar.is_special():
        for i in range(1, ar.rank + 1):
            p = crystal_ops.hom_poset(ar, i)
            points = [Antichain((x,)) for x in p.element_ids]
            chains = crystal_ops.antichains(p)
            doc["posets"].append({
                "elements": p.element_ids,
                "leq": [[crystal_ops.antichain_leq(p, a, b) for b in points] for a in points],
                "covers": p.covers, "antichains": [a.members for a in chains],
                "downsets": p.downsets, "plan": p.plan,
                "exchange": [[p.pos(x) for x in crystal_ops.exchange_set(p, a)] for a in chains],
                "tau_ids": p.tau_ids, "support": p.support,
            })
    return json.dumps(doc, separators=(",", ":"))


@pytest.mark.parametrize("name", ["D4", "E6", "E7"])
def test_ar_json_of_every_orientation(capsys, name):
    d = diagram(name[0], int(name[1:]))
    for q in all_orientations(d):
        code, out, err = run(capsys, ["ar", "--quiver", q.text_spec(), "--format", "json"])
        assert (code, err) == (0, "")
        assert sha(out) == PINS["ar_json"][q.text_spec()], q.text_spec()


def test_antichains_json_at_every_vertex_of_the_cli_mix_e7(capsys):
    for i in range(1, 8):
        code, out, err = run(capsys, ["antichains", "--quiver", CLI_MIX_E7, "-i", str(i),
                                      "--format", "json"])
        assert (code, err) == (0, "")
        assert sha(out) == PINS["antichains_json_e7"][str(i)], i


def test_antichains_text_at_every_vertex_of_the_cli_mix_e7(capsys):
    for i in range(1, 8):
        code, out, err = run(capsys, ["antichains", "--quiver", CLI_MIX_E7, "-i", str(i)])
        assert (code, err) == (0, "")
        assert sha(out) == PINS["antichains_text_e7"][str(i)], i


def test_cli_mix_graph_d4(capsys):
    code, out, err = run(capsys, ["graph", "--quiver", "D4: 1->2, 2->3, 2->4", "--depth", "6"])
    assert (code, err) == (0, "")
    assert sha(out) == PINS["graph_d4"]


def test_pm_dot_of_the_cli_mix_a3_class(capsys):
    code, out, err = run(capsys, ["epsilon", "--quiver", "A3: 2->1, 2->3", "--module",
                                  '{"1,1,1":2,"1,0,0":1,"0,1,1":1,"0,1,0":1}', "-i", "2",
                                  "--pm-dot"])
    assert (code, err) == (0, "")
    assert sha(out) == PINS["pm_dot_a3"]


def test_special_output(capsys):
    for name, want in PINS["special"].items():
        code, out, err = run(capsys, ["special", *name.split()])
        assert (code, err) == (0, "")
        assert sha(out) == want, name


@pytest.mark.parametrize("name", sorted(PINS["tables"]))
def test_cold_start_tables(name):
    qs = all_orientations(diagram(name[0], int(name[1:])))
    h = hashlib.sha256()
    for k in SAMPLE.get(name, range(len(qs))):
        h.update(tables_doc(qs[k]).encode())
    assert h.hexdigest() == PINS["tables"][name]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the pinned help and usage text is argparse's layout on Python 3.11")
@pytest.mark.parametrize("argv", [
    ["--help"], *([c, "--help"] for c in COMMANDS),
    [], ["nonsense"], ["ar"], ["graph", "--quiver", "A2: 2->1", "--depth", "-1"],
    ["special", "A3", "extra"], ["--bogus", "ar", "--quiver", "A2: 2->1"], ["-", "ar"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_usage_errors(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, argv)
    assert [code, sha(out), sha(err)] == PINS["argparse"][" ".join(argv)]
    assert code == (0 if "--help" in argv else 2)


@pytest.mark.parametrize("name", COMMANDS)
def test_lazy_parser_reads_as_the_complete_one(capsys, name):
    """build_parser(argv) adds the arguments of argv's command only; its help and
    usage error match the complete parser's, on any Python version."""
    for argv in ([name, "--help"], [name]):
        outputs = []
        for parser in (build_parser(), build_parser(argv)):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
