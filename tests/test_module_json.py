"""The module wire format: `module_to_json` writes what `json.dumps` would, and
`module_from_json` reads every spelling exactly as a plain `json.loads` parser does."""

import json
import random

import pytest

from conftest import A3_MIDDLE, ar_of
from quivercrystal import (
    DomainError,
    ModuleClass,
    QuiverParseError,
    build_ar,
    generate,
    graph_from_json,
    module_from_dim_dict,
    module_from_json,
    module_to_json,
    special_orientations,
)
from quivercrystal import ar_quiver, crystal_graph
from quivercrystal.ar_quiver import _read_canonical
from quivercrystal.dynkin import diagram

DIAGRAMS = [("A", n) for n in range(1, 7)] + [("D", n) for n in (4, 5, 6)]
DIAGRAMS += [("E", n) for n in (6, 7, 8)]


def _json_dumps_reference(ar, m):
    names = {x: ",".join(map(str, ar.indecs[x].dim)) for x in range(len(ar))}
    obj = {names[x]: k for x, k in enumerate(m.mults) if k}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _Entries(list):
    """A JSON object's (name, value) entries in document order, repeats included."""


def _json_loads_reference(ar, text):
    """The parser without a fast path: json.loads, then one check per entry."""
    try:
        obj = json.loads(text, object_pairs_hook=_Entries)
    except (RecursionError, ValueError) as exc:
        raise QuiverParseError(f"bad module JSON: {exc}") from exc
    if not isinstance(obj, _Entries):
        raise QuiverParseError("module JSON must be an object")
    counts = {}
    for key, val in obj:
        if type(val) is not int:
            raise QuiverParseError(f"bad module entry {key!r}: {val!r}")
        try:
            dim = tuple(int(p) for p in key.split(","))
        except ValueError as exc:
            raise QuiverParseError(f"bad module entry {key!r}: {val!r}") from exc
        if val < 0:
            raise DomainError(f"negative multiplicity for {dim}")
        counts[dim] = counts.get(dim, 0) + val
    return module_from_dim_dict(ar, counts)


def _outcome(parse, ar, text):
    try:
        return "ok", parse(ar, text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_module_to_json_is_json_dumps_on_every_special_orientation():
    rng = random.Random(20151)
    checked = 0
    for t, n in DIAGRAMS:
        for q in special_orientations(diagram(t, n)):
            ar = build_ar(q)
            for density in (0.0, 0.2, 0.6, 1.0):
                mults = [
                    rng.choice((1, 2, 3, 9, 10, 123456789)) if rng.random() < density else 0
                    for _ in range(len(ar))
                ]
                m = ModuleClass(tuple(mults))
                text = module_to_json(ar, m)
                assert text == _json_dumps_reference(ar, m)
                assert module_from_json(ar, text) == m
                checked += 1
    assert checked == 4 * 99  # 99 special orientations; E8 has none


NON_CANONICAL = [
    # whitespace
    '{"1,0,0": 1}', ' {"1,0,0":1}', '{"1,0,0":1} ', '{ "1,0,0":1}', '{"1,0,0":1 }',
    '\n{"1,0,0":1}', '{"1,0,0":1,\t"1,1,0":2}', '{"1,0,0" :1}',
    # reordered keys
    '{"1,1,0":2,"1,0,0":1}', '{"1,1,1":1,"0,0,1":3}',
    # explicit zeros
    '{"1,0,0":0}', '{"0,0,1":0,"1,0,0":1}', '{"1,0,0":1,"1,1,1":0}',
    # duplicate names
    '{"1,0,0":1,"1,0,0":2}', '{"1,0,0":2,"1,0,0":0}', '{"0,0,1":1,"1,0,0":1,"1,0,0":4}',
    # leading zeros
    '{"1,0,0":01}', '{"1,0,0":00}', '{"1,0,0":007}',
    # floats, booleans, strings, null
    '{"1,0,0":1.0}', '{"1,0,0":1e0}', '{"1,0,0":true}', '{"1,0,0":false}',
    '{"1,0,0":"1"}', '{"1,0,0":null}',
    # unknown dimensions and other spellings of a name
    '{"2,0,0":1}', '{"1,0":1}', '{"01,0,0":1}', '{" 1,0,0":1}', '{"1,0,0,":1}', '{"a":1}',
    '{"1,0,0 ":1}', '{"1, 0, 0":1}', '{"1\\u002c0,0":1}', '{"":1}',
    # negative entries
    '{"1,0,0":-1}', '{"1,0,0":-0}', '{"1,0,0":2,"0,1,0":-1}',
    # over-long integers
    '{"1,0,0":' + "9" * 18 + "}", '{"1,0,0":' + "9" * 19 + "}",
    '{"1,0,0":' + "7" * 5000 + "}",
    # non-ASCII digits
    '{"1,0,0":٣}', '{"1,0,0":²}',
    # deep nesting
    '{"1,0,0":' + "[" * 100_000 + "]" * 100_000 + "}",
    "[" * 100_000 + "]" * 100_000,
    # broken or partial objects
    '{"}', '{"1,0,0"}', '{"1,0,0":}', '{"1,0,0":1,}', '{"1,0,0":1,"0,1,0"}', '{"1,0,0":1',
    '{"1,0,0":1}}', '{"1,0,0":1,,"0,1,0":1}', '{"1,0,0"::1}', '{"1,0,0":1"0,1,0":1}',
    # non-objects
    "{}", "[]", "1", '"x"', "null", "", " ", '["1,0,0"]',
    # canonical spellings, for contrast
    '{"1,0,0":1}', '{"0,0,1":1,"0,1,0":2,"0,1,1":3,"1,0,0":4,"1,1,0":5,"1,1,1":6}',
]


@pytest.mark.parametrize("text", NON_CANONICAL, ids=lambda t: repr(t[:40]))
def test_module_from_json_matches_the_plain_parser(text):
    ar = ar_of(A3_MIDDLE)
    assert _outcome(module_from_json, ar, text) == _outcome(_json_loads_reference, ar, text)


def test_a_repeated_name_is_read_each_time():
    """An exact repeat sums like another spelling of the name, and a negative entry is
    refused even when a repeat after it would cancel it; an array is still no object."""
    ar = ar_of(A3_MIDDLE)
    x = ar.by_dim[(1, 1, 1)].id
    for text in ('{"1,1,1":1,"1,1,1":2}', '{"1,1,1":1," 1,1,1":2}'):
        assert module_from_json(ar, text).mults[x] == 3
    with pytest.raises(DomainError, match=r"negative multiplicity for \(1, 1, 1\)"):
        module_from_json(ar, '{"1,1,1":-1,"1,1,1":1}')
    for text in ('[["1,1,1",1]]', "[]"):
        with pytest.raises(QuiverParseError, match="must be an object"):
            module_from_json(ar, text)


@pytest.mark.parametrize("value", [b'{"1,0,0":1}', bytearray(b'{"1,0,0":1}'), 5, None, ["x"]])
def test_module_from_json_matches_the_plain_parser_on_non_strings(value):
    ar = ar_of(A3_MIDDLE)
    assert _outcome(module_from_json, ar, value) == _outcome(_json_loads_reference, ar, value)


def test_module_from_json_matches_the_plain_parser_on_seeded_edits():
    """Canonical texts with one character inserted, deleted or replaced."""
    ar = ar_of(A3_MIDDLE)
    rng = random.Random(7)
    alphabet = '{}":,0123456789 -.e'
    for _ in range(400):
        m = ModuleClass(tuple(rng.choice((0, 0, 1, 2, 10)) for _ in range(len(ar))))
        text = module_to_json(ar, m)
        k = rng.randrange(len(text) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            text = text[:k] + rng.choice(alphabet) + text[k:]
        elif edit == "delete":
            text = text[:k] + text[k + 1:]
        else:
            text = text[:k] + rng.choice(alphabet) + text[k + 1:]
        assert _outcome(module_from_json, ar, text) == _outcome(_json_loads_reference, ar, text)


# Spellings the shared reader must leave to json.loads, beside NON_CANONICAL's.
MORE_SPELLINGS = [
    '{"1,0,0":+1}', '{"1,0,0":1,"1,0,0":1}', '{"1,1,0":1,"1,0,0":1}', '{"1,0,0":0001}',
    '{"1,0,0":1' + "0" * 18 + "}", '{"1,0,0":1,"1,1,1":' + "9" * 19 + "}",
    '{"1,0,0":1,"1,1,0":1,"1,1,0":1}', '{"1,0,0":1, "1,1,0":1}', '{"0,0,0":1}',
    '{"1,0,0":1,"1,0,0,0":1}', '{"1,0,0":1,}', '{"1,0,0":1,"}', '{"1,0,0":"1","1,1,0":1}',
    "{}", "",
]


@pytest.mark.parametrize("text", NON_CANONICAL + MORE_SPELLINGS, ids=lambda t: repr(t[:40]))
def test_shared_reader_takes_only_the_canonical_spelling(text):
    """_read_canonical gives json.loads' class or None, with a fresh memo or one warmed by every
    field of every other spelling; module_from_json still matches the plain parser."""
    ar = ar_of(A3_MIDDLE)
    expected = _outcome(_json_loads_reference, ar, text)
    assert _outcome(module_from_json, ar, text) == expected
    warm = {}
    for other in NON_CANONICAL + MORE_SPELLINGS + [module_to_json(ar, ModuleClass((1,) * 6))]:
        _read_canonical(ar, other, warm)
    for seen in ({}, warm):
        mults = _read_canonical(ar, text, seen)
        assert mults is None or ("ok", ModuleClass(mults)) == expected


@pytest.mark.parametrize("value", [b'{"1,0,0":1}', 5, None, ["x"], ("{", "}")])
def test_shared_reader_refuses_non_strings(value):
    assert _read_canonical(ar_of(A3_MIDDLE), value, {}) is None


def _graph_outcome(text):
    try:
        g = graph_from_json(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return "ok", g.vertices, g.edges, g.levels


@pytest.mark.parametrize(
    "spelling", NON_CANONICAL + MORE_SPELLINGS + [5, None, ["x"]], ids=lambda t: repr(t)[:40]
)
def test_graph_from_json_decodes_keys_as_the_plain_parser(monkeypatch, spelling):
    """One level-1 key respelled: the graph, or the exception, is what graph_from_json gives when
    every key goes through json.loads."""
    ar = ar_of(A3_MIDDLE)
    doc = json.loads(generate(ar, 2).to_json())
    old = next(v["key"] for v in reversed(doc["vertices"]) if v["level"] == 1)
    for v in doc["vertices"]:
        v["key"] = spelling if v["key"] == old else v["key"]
    doc["edges"] = [[spelling if x == old else x for x in edge] for edge in doc["edges"]]
    text = json.dumps(doc)
    got = _graph_outcome(text)
    monkeypatch.setattr(crystal_graph, "_read_canonical", lambda ar, text, seen: None)
    monkeypatch.setattr(ar_quiver, "module_from_json", _json_loads_reference)
    assert got == _graph_outcome(text)


def test_graph_from_json_reads_its_export_as_the_plain_parser_does(monkeypatch):
    ar = ar_of("D4: 1->2, 2->3, 2->4")
    text = generate(ar, 6).to_json()
    got = _graph_outcome(text)
    monkeypatch.setattr(crystal_graph, "_read_canonical", lambda ar, text, seen: None)
    monkeypatch.setattr(ar_quiver, "module_from_json", _json_loads_reference)
    assert got == _graph_outcome(text) and got[0] == "ok"
