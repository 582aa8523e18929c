import json

import pytest

from conftest import A2, A3_LINEAR, A3_MIDDLE, ar_of
from quivercrystal import (
    DomainError,
    ModuleClass,
    check_axioms,
    compare_orientations,
    generate,
    graph_from_json,
    kostant_count,
    parse_quiver,
)
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


def test_json_round_trip_byte_identical():
    ar = ar_of(A3_MIDDLE)
    g = generate(ar, 3)
    text = g.to_json()
    again = graph_from_json(text)
    assert again.to_json() == text
    assert again.vertices.keys() == g.vertices.keys()
    assert generate(ar_of(A3_MIDDLE), 3).to_json() == text


def test_graph_from_json_rejects_malformed_documents():
    doc = json.loads(generate(ar_of(A3_MIDDLE), 2).to_json())
    no_depth = {k: v for k, v in doc.items() if k != "depth"}
    too_deep = dict(doc, vertices=doc["vertices"] + [
        dict(doc["vertices"][0], key='{"1,1,1":5}', level=3)
    ])
    dangling = dict(doc, edges=doc["edges"] + [[doc["edges"][0][0], 2, '{"1,1,1":5}']])
    texts = ["{not json", json.dumps(no_depth), json.dumps(too_deep), json.dumps(dangling)]
    for text in texts:
        with pytest.raises(QuiverParseError):
            graph_from_json(text)


def test_vertex_budget():
    with pytest.raises(ResourceLimitError):
        generate(ar_of(A3_MIDDLE), 5, max_vertices=10)


def test_epsilon_increment_along_edges():
    ar = ar_of(A3_MIDDLE)
    g = generate(ar, 4)
    for s, i, t in g.edges:
        assert g.vertices[t].epsilon[i - 1] == g.vertices[s].epsilon[i - 1] + 1
        assert g.vertices[t].weight == tuple(
            w - (1 if j == i - 1 else 0) for j, w in enumerate(g.vertices[s].weight)
        )
