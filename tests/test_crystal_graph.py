import json
import re

import pytest

from conftest import A2, A3_LINEAR, A3_MIDDLE, ar_of, run_capped
from quivercrystal import (
    CrystalGraph,
    DomainError,
    ModuleClass,
    check_axioms,
    compare_orientations,
    f_tilde,
    generate,
    graph_from_json,
    kostant_count,
    module_to_json,
    parse_quiver,
    special_orientations,
)
from quivercrystal import crystal_graph, crystal_ops
from quivercrystal.crystal_graph import VertexData
from quivercrystal.dynkin import diagram
from quivercrystal.errors import QuiverParseError, ResourceLimitError


def test_depth_zero():
    g = generate(ar_of(A2), 0)
    assert len(g.vertices) == 1 and g.edges == []
    assert g.root == (0, 0, 0)


def test_a1_path():
    ar = ar_of("A1:")
    g = generate(ar, 5)
    assert len(g.vertices) == 6
    assert sorted(g.vertices) == [(k,) for k in range(6)]
    assert all(i == 1 for _, i, _ in g.edges)


def test_a2_weight_level_count():
    ar = ar_of(A2)
    g = generate(ar, 3)
    at_11 = [k for k in g.vertices if ModuleClass(k).dimension_vector(ar) == (1, 1)]
    assert len(at_11) == 2 == kostant_count(ar.quiver, (1, 1))


def test_kostant_examples():
    a2 = parse_quiver(A2).diagram
    q2 = parse_quiver(A2)
    assert kostant_count(q2, (1, 0)) == 1
    assert kostant_count(q2, (0, 1)) == 1
    assert kostant_count(q2, (1, 1)) == 2
    q3 = parse_quiver(A3_MIDDLE)
    assert kostant_count(q3, (1, 1, 1)) == 4
    assert kostant_count(q3, (0, 0, 0)) == 1
    with pytest.raises(DomainError):
        kostant_count(q3, (1, -1, 0))


def test_vertex_counts_match_kostant_per_weight():
    for spec in (A2, A3_MIDDLE):
        ar = ar_of(spec)
        g = generate(ar, 5)
        by_dim = {}
        for k in g.vertices:
            d = ModuleClass(k).dimension_vector(ar)
            by_dim[d] = by_dim.get(d, 0) + 1
        for d, count in by_dim.items():
            assert count == kostant_count(ar.quiver, d), d


def test_out_degree_within_depth():
    ar = ar_of(A3_MIDDLE)
    depth = 4
    g = generate(ar, depth)
    out = {}
    for s, i, t in g.edges:
        out[s] = out.get(s, 0) + 1
    for level in range(depth):
        for k in g.levels[level]:
            assert out[k] == 3


def test_check_axioms_pass():
    for spec in (A2, A3_LINEAR, A3_MIDDLE):
        g = generate(ar_of(spec), 4)
        report = check_axioms(g)
        assert report.ok, report


def test_check_axioms_fault_injection():
    g = generate(ar_of(A2), 3)
    # corrupt one edge target
    src, i, tgt = g.edges[2]
    g.edges[2] = (src, i, g.root)
    report = check_axioms(g)
    assert not report.ok
    assert "edge 2" in report.first_violation


def test_check_axioms_detects_bad_vertex_data():
    g = generate(ar_of(A2), 2)
    key = g.levels[1][0]
    g.vertices[key].epsilon = tuple(e + 1 for e in g.vertices[key].epsilon)
    report = check_axioms(g)
    assert not report.ok
    assert "epsilon" in report.first_violation


def test_check_axioms_rejects_edge_to_missing_vertex():
    ar = ar_of(A3_MIDDLE)
    g = generate(ar, 2)
    src = g.levels[2][0]
    tgt = f_tilde(ar, ModuleClass(src), 1).mults
    assert tgt not in g.vertices
    hand_built = CrystalGraph(ar, g.depth, g.vertices, g.edges + [(src, 1, tgt)], g.levels)
    report = check_axioms(hand_built)
    assert not report.ok
    assert "not a vertex" in report.first_violation


def test_check_axioms_rejects_a_level_that_is_not_the_height():
    doc = json.loads(generate(ar_of(A2), 2).to_json())
    moved = next(v for v in doc["vertices"] if v["level"] == 1)
    moved["level"] = 2
    report = check_axioms(graph_from_json(json.dumps(doc)))
    assert not report.ok
    assert "level" in report.first_violation


def test_check_axioms_reports_incomplete_and_inconsistent_graphs(monkeypatch):
    ar = ar_of(A2)
    doc = json.loads(generate(ar, 2).to_json())
    no_edges = dict(doc, edges=[])
    dropped = next(v["key"] for v in doc["vertices"] if v["level"] == 2)
    no_vertex = dict(
        doc,
        vertices=[v for v in doc["vertices"] if v["key"] != dropped],
        edges=[e for e in doc["edges"] if e[2] != dropped],
    )
    root, first, *rest = doc["vertices"]
    bad_weight = dict(doc, vertices=[root, dict(first, weight=[5, 5]), *rest])
    g1, g2, g3 = generate(ar, 1), generate(ar, 2), generate(ar, 3)
    # A depth-1 graph holding one level-2 vertex as well.
    extra = g2.levels[2][0]
    unreached = dict(g1.vertices)
    unreached[extra] = g2.vertices[extra]
    cases = [
        (graph_from_json(json.dumps(no_edges)), "no 1-edge out of (0, 0, 0)"),
        (graph_from_json(json.dumps(no_vertex)), "no 2-edge out of (0, 0, 1)"),
        (graph_from_json(json.dumps(bad_weight)), "stored weight wrong"),
        (CrystalGraph(ar, 2, g3.vertices, g3.edges, g3.levels), "leaves a vertex at level 2"),
        (CrystalGraph(ar, 2, g2.vertices, g2.edges + g2.edges[:1], g2.levels), "second"),
        (CrystalGraph(ar, 1, unreached, g1.edges, g1.levels), "no edge reaches"),
    ]
    for g, violation in cases:
        report = check_axioms(g)
        assert not report.ok and violation in report.first_violation, report
    score_pass = crystal_graph._score_pass

    def no_raising(*args, **kwargs):
        eps, lowered, _ = score_pass(*args, **kwargs)
        return eps, lowered, None

    monkeypatch.setattr(crystal_graph, "_score_pass", no_raising)
    report = check_axioms(g2)
    assert not report.ok and "does not invert" in report.first_violation, report


@pytest.mark.parametrize("label", [0, 3, "1", True])
def test_check_axioms_reports_an_edge_label_outside_the_vertices(label):
    """A hand-built graph's label that is not an int in 1..rank is a report, not an exception."""
    g = generate(ar_of(A2), 2)
    src, _, tgt = g.edges[0]
    report = check_axioms(CrystalGraph(g.ar, 2, g.vertices, [(src, label, tgt), *g.edges[1:]], g.levels))
    assert not report.ok and report.checked_edges == 0, report
    assert report.first_violation == f"edge 0: label {label!r} is not in 1..2"


@pytest.mark.parametrize("spec, depth", [(A3_MIDDLE, 4), ("D4: 1->2, 2->3, 2->4", 3)])
def test_score_pass_budget(monkeypatch, spec, depth):
    """generate and check_axioms each make exactly one score pass per distinct
    (i, class restricted to the vertex-i elements and their tau translates)."""
    distinct = {A3_MIDDLE: 72, "D4: 1->2, 2->3, 2->4": 59}[spec]
    passes = []
    scores = crystal_ops._scores
    monkeypatch.setattr(crystal_ops, "_scores", lambda p, m: passes.append(1) or scores(p, m))
    ar = ar_of(spec)
    g = generate(ar, depth)
    pairs = set()
    for i in range(1, ar.rank + 1):
        p = crystal_ops.hom_poset(ar, i)
        ids = sorted({*p.element_ids, *(t for t in p.tau_ids if t is not None)})
        for key in g.vertices:
            pairs.add((i, tuple(key[x] for x in ids)))
    assert len(pairs) == distinct < ar.rank * len(g.vertices)
    assert len(passes) == distinct
    passes.clear()
    assert check_axioms(g).ok
    assert len(passes) == distinct


@pytest.mark.parametrize("spec, depth", [(A3_MIDDLE, 4), ("D4: 1->2, 2->3, 2->4", 3)])
def test_check_axioms_reports_each_redirected_edge(spec, depth):
    """Moving one edge's target to another vertex of its level is caught at that edge."""
    g = generate(ar_of(spec), depth)

    def check_with(edges):
        return check_axioms(CrystalGraph(g.ar, depth, g.vertices, edges, g.levels))

    for k, (src, i, tgt) in enumerate(g.edges):
        level = g.levels[g.vertices[tgt].level]
        assert len(level) > 1
        other = level[(level.index(tgt) + 1) % len(level)]
        report = check_with(g.edges[:k] + [(src, i, other)] + g.edges[k + 1:])
        assert not report.ok and report.checked_edges == k, report
        assert report.first_violation == f"edge {k}: f_{i} does not map source to target"
    # An edge out of level `depth`, whose f_i image lies outside the graph.
    src, other = g.levels[depth][:2]
    k = len(g.edges)
    report = check_with(g.edges + [(src, 2, other)])
    assert not report.ok and report.checked_edges == k, report
    assert report.first_violation == f"edge {k}: f_2 does not map source to target"


@pytest.mark.parametrize("spec, depth", [(A3_MIDDLE, 4), ("D4: 1->2, 2->3, 2->4", 3)])
def test_check_axioms_reads_every_edge_from_its_passes(monkeypatch, spec, depth):
    """No public operator is called, and an edge out of level `depth` costs no pass of its own."""
    g = generate(ar_of(spec), depth)

    def refuse(*args):
        raise AssertionError("check_axioms called a public operator")

    for name in ("f_tilde", "e_tilde", "epsilon_i", "phi_i"):
        monkeypatch.setattr(crystal_graph, name, refuse)
    passes = []
    scores = crystal_ops._scores
    monkeypatch.setattr(crystal_ops, "_scores", lambda p, m: passes.append(1) or scores(p, m))
    assert check_axioms(g).ok
    complete = len(passes)
    passes.clear()
    src, other = g.levels[depth][:2]
    k = len(g.edges)
    extra = CrystalGraph(g.ar, depth, g.vertices, g.edges + [(src, 2, other)], g.levels)
    report = check_axioms(extra)
    assert not report.ok and report.checked_edges == k, report
    assert report.first_violation == f"edge {k}: f_2 does not map source to target"
    assert len(passes) == complete


def test_compare_same_quiver():
    q = parse_quiver(A3_MIDDLE)
    assert compare_orientations(q, q, 4)


def test_compare_linear_and_middle_a3():
    assert compare_orientations(parse_quiver(A3_LINEAR), parse_quiver(A3_MIDDLE), 6)


def test_compare_rejects_different_diagrams():
    with pytest.raises(DomainError):
        compare_orientations(parse_quiver(A2), parse_quiver(A3_MIDDLE), 2)


def test_compare_rejects_non_special():
    with pytest.raises(DomainError):
        compare_orientations(
            parse_quiver("D4: 2->1, 2->3, 2->4"), parse_quiver("D4: 1->2, 3->2, 4->2"), 2
        )


def test_dot_output():
    g0 = generate(ar_of(A2), 0)
    dot = g0.to_dot()
    assert dot.count("n0") == 1 and "->" not in dot.split("rankdir")[1].split("n0")[0]
    ar = ar_of("A1:")
    g = generate(ar, 2)
    dot = g.to_dot()
    assert dot.count('label="1"') == 2
    assert len([l for l in dot.splitlines() if "->" in l]) == 2


def test_dot_labels_are_well_formed_quoted_strings():
    ar = ar_of(A2)
    g = generate(ar, 2)
    lines = [line for line in g.to_dot().splitlines() if "label=" in line]
    assert len(lines) == len(g.vertices) + len(g.edges)
    quoted = re.compile(r'  n\d+( -> n\d+)? \[label="((?:[^"\\]|\\.)*)"\];')
    names = set()
    for line in lines:
        match = quoted.fullmatch(line)
        assert match, line
        if match[1] is None:
            names.add(re.sub(r"\\(.)", r"\1", match[2]))
    assert names == {module_to_json(ar, ModuleClass(k)) for k in g.vertices}


def test_json_round_trip_byte_identical():
    ar = ar_of(A3_MIDDLE)
    g = generate(ar, 3)
    text = g.to_json()
    again = graph_from_json(text)
    assert again.to_json() == text
    assert again.vertices.keys() == g.vertices.keys()
    assert generate(ar_of(A3_MIDDLE), 3).to_json() == text


def _json_dumps_export(g):
    """The export document, written by json.dumps."""
    ar = g.ar
    names = {k: module_to_json(ar, ModuleClass(k)) for k in g.vertices}
    verts = [
        {
            "key": names[k],
            "level": d.level,
            "epsilon": list(d.epsilon),
            "phi": list(d.phi),
            "weight": list(d.weight),
        }
        for k, d in sorted(g.vertices.items(), key=lambda kv: (kv[1].level, kv[0]))
    ]
    edges = sorted([names[s], i, names[t]] for s, i, t in g.edges)
    doc = {"quiver": ar.quiver.text_spec(), "depth": g.depth, "vertices": verts, "edges": edges}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _assert_written_and_read_back(g):
    text = g.to_json()
    assert text == _json_dumps_export(g)
    again = graph_from_json(text)
    assert again.depth == g.depth and again.vertices == g.vertices
    assert sorted(again.edges) == sorted(g.edges)
    assert again.to_json() == text


WRITER_CASES = [("A1:", d) for d in range(4)] + [
    (q.text_spec(), 3)
    for t, n in (("A", 2), ("A", 3), ("A", 4), ("D", 4), ("E", 6))
    for q in special_orientations(diagram(t, n))
]


@pytest.mark.parametrize("spec, depth", WRITER_CASES)
def test_export_is_json_dumps_of_the_document(spec, depth):
    g = generate(ar_of(spec), depth)
    assert bool(g.edges) == (depth > 0)
    _assert_written_and_read_back(g)


def test_export_of_a_hand_built_graph_with_negative_and_long_entries():
    ar = ar_of(A2)
    root, a, b = (0, 0, 0), (12, 0, 3), (0, 107, 0)
    vertices = {
        b: VertexData(2, (-1, 10), (-12, 345), (-107, -107)),
        root: VertexData(0, (0, 0), (0, 0), (0, 0)),
        a: VertexData(1, (-30, 7), (99, -1000), (-15, -3)),
    }
    edges = [(a, 2, b), (root, 1, a), (root, 2, b), (root, 1, b), (a, 2, b)]
    _assert_written_and_read_back(CrystalGraph(ar, 2, vertices, edges, [[root], [a], [b]]))


def test_export_of_a_bool_label_is_json_the_reader_refuses():
    """A hand-built graph's label True is written as JSON true, which graph_from_json refuses."""
    g = generate(ar_of(A2), 2)
    src, _, tgt = g.edges[0]
    text = CrystalGraph(g.ar, 2, g.vertices, [(src, True, tgt), *g.edges[1:]], g.levels).to_json()
    assert True in [label for _, label, _ in json.loads(text)["edges"]]
    with pytest.raises(QuiverParseError, match="edge label True outside 1..2"):
        graph_from_json(text)


def test_check_axioms_rederives_the_weights_generate_takes_from_edges(monkeypatch):
    """generate stores a target's weight as its source's minus alpha_i; a wrong f_i shows there."""
    ar = ar_of("D4: 1->2, 2->3, 2->4")
    root = generate(ar, 0).root
    score_pass = crystal_graph._score_pass

    def extra_summand(ar, m, i):
        eps, lowered, raised = score_pass(ar, m, i)
        if lowered is not None and m.mults == root and i == 2:
            lowered = ModuleClass((lowered.mults[0] + 1, *lowered.mults[1:]))
        return eps, lowered, raised

    monkeypatch.setattr(crystal_graph, "_score_pass", extra_summand)
    g = generate(ar, 3)
    target = next(t for s, i, t in g.edges if s == root and i == 2)
    assert target == extra_summand(ar, ModuleClass(root), 2)[1].mults
    report = check_axioms(g)
    assert not report.ok and report.first_violation == f"stored weight wrong at {target}", report


def test_graph_from_json_rejects_malformed_documents():
    doc = json.loads(generate(ar_of(A3_MIDDLE), 2).to_json())
    no_depth = {k: v for k, v in doc.items() if k != "depth"}
    too_deep = dict(doc, vertices=doc["vertices"] + [
        dict(doc["vertices"][0], key='{"1,1,1":5}', level=3)
    ])
    dangling = dict(doc, edges=doc["edges"] + [[doc["edges"][0][0], 2, '{"1,1,1":5}']])
    float_key = dict(doc, edges=doc["edges"] + [[doc["edges"][0][0], 1, '{"1,0,0":1.0}']])
    unhashable_key = dict(doc, edges=doc["edges"] + [[doc["edges"][0][0], 1, ["1,0,0"]]])

    def with_vertex(**fields):
        return dict(doc, vertices=[dict(doc["vertices"][0], **fields)] + doc["vertices"][1:])

    def with_label(label):
        s, _, t = doc["edges"][0]
        return dict(doc, edges=[[s, label, t]] + doc["edges"][1:])

    bad_lists = [
        with_vertex(**{name: value})
        for name in ("epsilon", "phi", "weight")
        for value in ([0], [0, 0, 0, 0], [0, 0.5, 0], [0, True, 0], [0, "1", 0], "000")
    ]
    bad_ints = [dict(doc, depth=v) for v in ("2", 2.9, False)]
    bad_ints += [with_vertex(level=v) for v in ("0", 0.0, False)]
    bad_ints += [with_label(v) for v in ("1", 1.7, True)]
    bad_labels = [with_label(0), with_label(4), with_label(-1)]
    duplicate = dict(doc, vertices=doc["vertices"] + [doc["vertices"][0]])
    negative_depth = dict(doc, depth=-1, vertices=[], edges=[])
    no_vertices = dict(doc, vertices=[], edges=[])
    root, first = doc["vertices"][:2]
    nonzero_root = dict(
        doc, vertices=[dict(root, level=1), dict(first, level=0)] + doc["vertices"][2:]
    )
    deep = '{"depth":' + "[" * 100_000 + "]" * 100_000 + "}"
    texts = [
        "{not json",
        deep,
        json.dumps(no_depth),
        json.dumps(too_deep),
        json.dumps(dangling),
        json.dumps(float_key),
        json.dumps(unhashable_key),
        *map(json.dumps, bad_lists + bad_ints + bad_labels),
        json.dumps(duplicate),
        json.dumps(negative_depth),
        json.dumps(no_vertices),
        json.dumps(nonzero_root),
    ]
    for text in texts:
        with pytest.raises(QuiverParseError):
            graph_from_json(text)


def test_graph_from_json_messages_for_a_missing_or_unlisted_vertex_list():
    """The vertex list is read at the depth check, after the depth itself."""
    doc = json.loads(generate(ar_of(A3_MIDDLE), 2).to_json())
    no_vertices = {k: v for k, v in doc.items() if k != "vertices"}
    cases = [
        (no_vertices, "bad graph JSON: KeyError('vertices')"),
        (dict(no_vertices, depth="2"), "depth '2' is not a nonnegative JSON integer"),
        (dict(doc, vertices=5), "bad graph JSON: TypeError(\"object of type 'int' has no len()\")"),
        (dict(doc, vertices=None),
         "bad graph JSON: TypeError(\"object of type 'NoneType' has no len()\")"),
    ]
    for bad, message in cases:
        with pytest.raises(QuiverParseError) as exc:
            graph_from_json(json.dumps(bad))
        assert str(exc.value) == message
    # The wording after "integers" varies with the Python version.
    with pytest.raises(QuiverParseError, match=r"^bad graph JSON: TypeError\(.string indices must"):
        graph_from_json(json.dumps(dict(doc, vertices="abcdefgh")))


def test_vertex_records_share_one_tuple_per_statistic_value():
    """generate and graph_from_json store one tuple object per distinct epsilon, phi and
    weight value, and every edge endpoint is the vertex key object itself."""
    g = generate(ar_of("D4: 1->2, 2->3, 2->4"), 6)
    back = graph_from_json(g.to_json())
    assert back.vertices == g.vertices and back.to_json() == g.to_json()
    for graph in (g, back):
        records = list(graph.vertices.values())
        for field in ("epsilon", "phi", "weight"):
            values = [getattr(d, field) for d in records]
            assert len({*map(id, values)}) == len(set(values)) < len(values), field
        keys = {*map(id, graph.vertices)}
        assert all(id(s) in keys and id(t) in keys for s, _, t in graph.edges)
    # Assigning a field replaces the shared tuple in that record alone.
    a, b = [d for d in g.vertices.values() if d.weight == (-1, -1, -1, 0)][:2]
    assert a.weight is b.weight
    a.weight = (0, 0, 0, 0)
    assert b.weight == (-1, -1, -1, 0)


HUGE_DEPTH = """\
import sys
from quivercrystal import QuiverParseError, graph_from_json
try:
    graph_from_json('{"quiver":"A1:","depth":10000000000,"vertices":[],"edges":[]}')
except QuiverParseError as exc:
    sys.exit(str(exc))
"""


def test_graph_from_json_refuses_a_depth_its_vertices_cannot_fill():
    """generate leaves no level empty, so depth d needs d + 1 vertices; no level is built first."""
    proc = run_capped(["-c", HUGE_DEPTH])  # capped at 1 GiB
    assert proc.stderr == "depth 10000000000 needs at least 10000000001 vertices\n"
    doc = json.loads(generate(ar_of(A3_MIDDLE), 2).to_json())
    assert graph_from_json(json.dumps(doc)).depth == 2
    with pytest.raises(QuiverParseError, match=f"depth {len(doc['vertices'])} needs at least"):
        graph_from_json(json.dumps(dict(doc, depth=len(doc["vertices"]))))


def test_vertex_budget():
    with pytest.raises(ResourceLimitError):
        generate(ar_of(A3_MIDDLE), 5, max_vertices=10)
    # A budget of exactly the vertex count passes.
    assert len(generate(ar_of(A3_MIDDLE), 3, max_vertices=29).vertices) == 29
    with pytest.raises(ResourceLimitError, match="budget 28 exceeded at depth 3"):
        generate(ar_of(A3_MIDDLE), 3, max_vertices=28)


@pytest.mark.parametrize("depth", [0, 1])
def test_vertex_budget_below_one_refuses_the_root(depth):
    for budget in (0, -1):
        with pytest.raises(ResourceLimitError, match=f"budget {budget} exceeded at depth 0"):
            generate(ar_of(A3_MIDDLE), depth, max_vertices=budget)
    assert len(generate(ar_of(A3_MIDDLE), 0, max_vertices=1).vertices) == 1


def test_epsilon_increment_along_edges():
    ar = ar_of(A3_MIDDLE)
    g = generate(ar, 4)
    for s, i, t in g.edges:
        assert g.vertices[t].epsilon[i - 1] == g.vertices[s].epsilon[i - 1] + 1
        assert g.vertices[t].weight == tuple(
            w - (1 if j == i - 1 else 0) for j, w in enumerate(g.vertices[s].weight)
        )


def _off_support(ar, i):
    support = crystal_ops.hom_poset(ar, i).support
    return [x for x in range(len(ar)) if x not in support]


@pytest.mark.parametrize("spec, depth", [(A3_MIDDLE, 4), ("D4: 1->2, 2->3, 2->4", 3)])
def test_check_axioms_catches_a_wrong_e_tilde_beside_a_right_f_tilde(monkeypatch, spec, depth):
    """e_i gains a summand away from the vertex-i support: the first i-edge fails its inverse."""
    ar = ar_of(spec)
    g = generate(ar, depth)
    j, x = next((i, xs[0]) for i in range(1, ar.rank + 1) if (xs := _off_support(ar, i)))
    score_pass = crystal_graph._score_pass

    def wrong_e(ar, m, i):
        eps, lowered, raised = score_pass(ar, m, i)
        if raised is not None and i == j:
            raised = ModuleClass(tuple(k + (y == x) for y, k in enumerate(raised.mults)))
        return eps, lowered, raised

    monkeypatch.setattr(crystal_graph, "_score_pass", wrong_e)
    k = next(k for k, (_, i, _) in enumerate(g.edges) if i == j)
    report = check_axioms(g)
    assert not report.ok and report.checked_edges == k, report
    assert report.first_violation == f"edge {k}: e_{j} does not invert f_{j}"


@pytest.mark.parametrize("spec, depth", [(A3_MIDDLE, 4), ("D4: 1->2, 2->3, 2->4", 3)])
def test_check_axioms_compares_whole_targets_not_their_support(spec, depth):
    """A target that differs from f_i(source) only away from the vertex-i support is caught."""
    ar = ar_of(spec)
    g = generate(ar, depth)
    found = 0
    for k, (src, i, tgt) in enumerate(g.edges):
        for x in _off_support(ar, i):
            other = tuple(m + (y == x) for y, m in enumerate(tgt))
            if other not in g.vertices:
                continue
            edges = g.edges[:k] + [(src, i, other)] + g.edges[k + 1:]
            report = check_axioms(CrystalGraph(ar, depth, g.vertices, edges, g.levels))
            assert not report.ok and report.checked_edges == k, report
            assert report.first_violation == f"edge {k}: f_{i} does not map source to target"
            found += 1
    assert found > 10
