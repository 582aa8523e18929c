"""Property tests over random classes with multiplicities at most 2,
crystal graphs of depth at most 3 and command lines from a small grammar.

Classes and graphs are drawn on every special orientation of A3, A4 and
D4, and module JSON also on D4 and E6 with entries of up to 26 digits;
multiplicity graphs are also drawn over random covers and counts;
the settings are derandomized so the suite stays deterministic.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from quivercrystal import (
    ModuleClass,
    MultiplicityGraph,
    antichains,
    build_ar,
    build_pm,
    e_tilde,
    epsilon_i,
    f_tilde,
    generate,
    graph_from_json,
    hom_poset,
    min_epsilon,
    module_from_dim_dict,
    module_from_json,
    module_to_json,
    special_orientations,
    weight_of,
)
from quivercrystal import cli, crystal_ops
from quivercrystal.crystal_ops import antichain_score
from quivercrystal.ar_quiver import _read_canonical
from quivercrystal.dynkin import diagram
from preorder import enumerate_morphisms, eps_of
from test_pm_graph import _assert_matches_definition

POOL = tuple(
    build_ar(q)
    for kind, rank in (("A", 3), ("A", 4), ("D", 4))
    for q in special_orientations(diagram(kind, rank))
)

SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@st.composite
def class_and_vertex(draw):
    """An AR quiver from the pool, a class with at most six summand types
    of multiplicity 1 or 2, and a vertex."""
    ar = draw(st.sampled_from(POOL))
    support = draw(
        st.dictionaries(st.integers(0, len(ar) - 1), st.integers(1, 2), max_size=6)
    )
    mults = tuple(support.get(x, 0) for x in range(len(ar)))
    i = draw(st.integers(1, ar.rank))
    return ar, ModuleClass(mults), i


@SETTINGS
@given(class_and_vertex())
def test_three_routes_to_epsilon_agree(case):
    ar, m, i = case
    g = build_pm(ar, hom_poset(ar, i), m)
    assert min_epsilon(g) == min(eps_of(g, phi) for phi in enumerate_morphisms(g))
    assert min_epsilon(g) == epsilon_i(ar, m, i)


@st.composite
def counted_poset(draw):
    """Up to six labels listed in a linear extension of random covers, and white and red
    counts of at most 3 per label."""
    labels = tuple(f"B{k}" for k in range(draw(st.integers(0, 6))))
    pairs = [(a, b) for k, b in enumerate(labels) for a in labels[:k]]
    covers = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    counts = st.dictionaries(st.sampled_from(labels), st.integers(0, 3)) if labels else st.just({})
    return labels, covers, draw(counts), draw(counts)


@SETTINGS
@given(counted_poset())
def test_graph_and_search_guard_match_their_definition(case):
    g = MultiplicityGraph(*case)
    _assert_matches_definition(g, *case)


@SETTINGS
@given(counted_poset())
def test_dot_text_is_the_layout_drawn_in_its_colors(case):
    g = MultiplicityGraph(*case)
    names, succ, _ = g.layout()
    _, white, red_order = g.colors()
    styles = {
        (False, False): "style=dashed",
        (True, False): "style=filled, fillcolor=white",
        (False, True): "style=filled, fillcolor=red",
        (True, True): 'style=wedged, fillcolor="red:white"',
    }
    lines = ["digraph pm {", "  rankdir=LR;"]
    for u, (lab, p) in enumerate(names):
        name = f"{lab}({p})" if p else "inf"
        lines.append(f'  n{u} [label="{name}", {styles[u in white, u in red_order]}];')
    lines += [f"  n{u} -> n{v};" for u, vs in enumerate(succ) for v in vs]
    assert "".join(g.dot_lines()) == "\n".join([*lines, "}", ""])


@SETTINGS
@given(class_and_vertex())
def test_incremental_scores_equal_direct_sums(case):
    ar, m, _ = case
    for i in range(1, ar.rank + 1):
        p = hom_poset(ar, i)
        scores = [antichain_score(ar, m, i, v) for v in antichains(p)]
        best = max(scores)
        assert epsilon_i(ar, m, i) == best
        assert crystal_ops._scores(p, m) == (best, scores)


@SETTINGS
@given(class_and_vertex())
def test_lowering_is_inverted_by_raising(case):
    ar, m, i = case
    lowered = f_tilde(ar, m, i)
    assert e_tilde(ar, lowered, i) == m
    assert epsilon_i(ar, lowered, i) == epsilon_i(ar, m, i) + 1
    drop = tuple(int(j == i - 1) for j in range(ar.rank))
    assert weight_of(ar, lowered) == tuple(
        w - d for w, d in zip(weight_of(ar, m), drop)
    )


@SETTINGS
@given(class_and_vertex())
def test_module_json_round_trip(case):
    ar, m, _ = case
    assert module_from_json(ar, module_to_json(ar, m)) == m


WIDE_POOL = tuple(
    build_ar(q) for t, n in (("D", 4), ("E", 6)) for q in special_orientations(diagram(t, n))
)


@st.composite
def wide_class(draw):
    """An AR quiver of D4 or E6 and a class with entries of up to 26 digits."""
    ar = draw(st.sampled_from(WIDE_POOL))
    value = st.one_of(st.integers(0, 3), st.integers(0, 10**18 - 1), st.integers(0, 10**25))
    mults = draw(st.lists(value, min_size=len(ar), max_size=len(ar)))
    return ar, ModuleClass(tuple(k if draw(st.booleans()) else 0 for k in mults))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(wide_class())
def test_module_json_round_trip_through_the_shared_reader(case):
    ar, m = case
    text = module_to_json(ar, m)
    counts = {tuple(map(int, name.split(","))): k for name, k in json.loads(text).items()}
    assert module_from_json(ar, text) == m == module_from_dim_dict(ar, counts)
    # The reader leaves "{}" and values of 19 digits or more to json.loads.
    mults = _read_canonical(ar, text, {})
    assert mults == m.mults or (mults is None and not 0 < max(m.mults) < 10**18)


@SETTINGS
@given(st.sampled_from(POOL), st.integers(0, 3))
def test_graph_json_round_trip(ar, depth):
    g = generate(ar, depth)
    text = g.to_json()
    back = graph_from_json(text)
    assert back.vertices == g.vertices
    assert sorted(back.edges) == sorted(g.edges)
    assert back.levels == g.levels
    assert back.to_json() == text


DEEP = "[" * 100_000 + "]" * 100_000  # past the recursion limit of json.loads
QUIVERS = (
    "A2: 2->1",
    "A3: 2->1, 2->3",
    "D4: 1->2, 2->3, 2->4",
    "D4: 2->1, 2->3, 2->4",  # not special
    "A3: 1->2, 2->1",
    "D3: 1->2, 2->3",
    "Q2",
    '{"type":"A","rank":2,"arrows":[[2,1]]}',
    '{"type":"A","rank":2.7,"arrows":[[2,1]]}',
    '{"type":"A","rank":true,"arrows":[]}',
    '{"type":"A","rank":"2","arrows":[[2,1]]}',
    '{"type":"A","rank":2,"arrows":[["2",1]]}',
    '{"type":5,"rank":2,"arrows":[[2,1]]}',
    '{"type":' + DEEP + ',"rank":2,"arrows":[[2,1]]}',
)
MODULES = (
    "{}", '{"1,0":1}', '{"0,1":2,"1,1":1}', '{"1,1,1":1.5}', '{"9,9":1}', "[]", "{",
    '{"0,1,0":' + DEEP + "}",
)
VERTICES = ("-1", "0", "1", "2", "5", "x")
DEPTHS = ("-1", "0", "1", "2", "x")
COUNTS = ("-3", "-1", "0", "2", "x")


def _words(*parts):
    return st.tuples(*parts).map(lambda ps: [w for p in ps for w in p])


def _flag(name, values):
    return st.sampled_from(values).map(lambda v: [name, v])


def _maybe(name, values):
    return st.just([]) | _flag(name, values)


_QUIVER = _flag("--quiver", QUIVERS)
ARGV = st.one_of(
    _words(st.just(["quiver", "validate"]), st.sampled_from(QUIVERS).map(lambda q: [q])),
    _words(st.just(["ar"]), _QUIVER, _maybe("--format", ("json", "dot"))),
    _words(st.sampled_from((["poset"], ["antichains"])), _QUIVER, _flag("-i", VERTICES)),
    _words(
        st.just(["apply"]), _QUIVER, _flag("--module", MODULES),
        _flag("--ops", ("f1 f2", "f1 e1 e1", "e2", "f9", "g1", "")),
        st.sampled_from(([], ["--strict"])),
    ),
    _words(
        st.just(["epsilon"]), _QUIVER, _flag("--module", MODULES), _flag("-i", VERTICES),
        _maybe("--oracle", ("geom",)), _maybe("--limit", COUNTS),
    ),
    _words(st.just(["graph"]), _QUIVER, _flag("--depth", DEPTHS), _maybe("--max-vertices", COUNTS)),
    _words(st.just(["special"]), st.sampled_from(("A3", "D4", "E8", "E9", "x")).map(lambda d: [d])),
    _words(
        st.just(["check"]), _QUIVER, _flag("--depth", DEPTHS), _maybe("--samples", COUNTS),
        _maybe("--limit", COUNTS), _maybe("--max-vertices", COUNTS),
        _maybe("--format", ("text", "json")),
    ),
)


@SETTINGS
@given(ARGV)
def test_cli_ends_in_a_documented_exit_code(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
