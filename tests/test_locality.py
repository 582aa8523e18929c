"""The operators at vertex i depend only on a class's entries on the vertex-i support.

`generate` and `check_axioms` rely on this to make one score pass per distinct
restriction; these tests check the locality directly and compare `generate`
against a breadth-first search through the public operators.
"""

import hashlib
import random
from operator import sub

import pytest

from quivercrystal import (
    ModuleClass,
    build_ar,
    epsilon_i,
    f_tilde,
    generate,
    phi_i,
    special_orientations,
    weight_of,
    zero_module,
)
from quivercrystal import crystal_graph, crystal_ops
from quivercrystal.dynkin import diagram

DIAGRAMS = [("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("E", 6)]
ORIENTATIONS = [q for t, n in DIAGRAMS for q in special_orientations(diagram(t, n))]


def _orientation_id(q):
    return q.text_spec()


def _support(p):
    return sorted({*p.element_ids, *(t for t in p.tau_ids if t is not None)})


def _delta(moved, m):
    return None if moved is None else tuple(map(sub, moved.mults, m.mults))


@pytest.mark.parametrize("q", ORIENTATIONS, ids=_orientation_id)
def test_classes_that_agree_on_the_support_get_the_same_answers(q):
    ar = build_ar(q)
    rng = random.Random(f"locality {q.text_spec()}")
    for i in range(1, ar.rank + 1):
        p = crystal_ops.hom_poset(ar, i)
        support = _support(p)
        assert tuple(support) == p.support
        outside = [x for x in range(len(ar)) if x not in p.support]
        for _ in range(6):
            m = [rng.choice((0, 0, 0, 1, 2)) for _ in range(len(ar))]
            other = list(m)
            for x in outside:
                other[x] = rng.choice((0, 1, 3))
            first = crystal_graph._score_pass(ar, ModuleClass(tuple(m)), i)
            second = crystal_graph._score_pass(ar, ModuleClass(tuple(other)), i)
            assert first[0] == second[0]
            for k in (1, 2):
                assert _delta(first[k], ModuleClass(tuple(m))) == _delta(
                    second[k], ModuleClass(tuple(other))
                )
                moved = first[k]
                if moved is not None:
                    changed = {x for x, d in enumerate(_delta(moved, ModuleClass(tuple(m)))) if d}
                    assert changed <= set(support)


def _naive_bfs(ar, depth):
    """Vertices, levels and edges by calling the public operators on every (class, i)."""
    root = zero_module(ar)
    levels = [[root]]
    seen = {root}
    edges = []
    for level in range(depth):
        nxt = []
        for m in levels[level]:
            for i in range(1, ar.rank + 1):
                t = f_tilde(ar, m, i)
                edges.append((m.mults, i, t.mults))
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        levels.append(nxt)
    return levels, edges


@pytest.mark.parametrize("q", ORIENTATIONS, ids=_orientation_id)
def test_generate_equals_a_naive_search_through_f_tilde(q):
    ar = build_ar(q)
    for depth in (2, 4):
        levels, edges = _naive_bfs(ar, depth)
        g = generate(ar, depth)
        assert g.levels == [sorted(m.mults for m in level) for level in levels]
        assert len(g.vertices) == sum(map(len, levels))
        assert sorted(g.edges) == sorted(edges)
        assert len(g.edges) == len(edges)
        for level, members in enumerate(levels):
            for m in members:
                data = g.vertices[m.mults]
                assert data.level == level
                assert data.epsilon == tuple(epsilon_i(ar, m, i) for i in range(1, ar.rank + 1))
                assert data.phi == tuple(phi_i(ar, m, i) for i in range(1, ar.rank + 1))
                assert data.weight == weight_of(ar, m)


def test_export_digest_of_every_special_orientation_at_depth_4():
    """The exports of A1-A5, D4-D6 and E6 at depth 4 are pinned byte for byte."""
    h = hashlib.sha256()
    count = 0
    for t, ranks in (("A", range(1, 6)), ("D", range(4, 7)), ("E", (6,))):
        for n in ranks:
            for q in special_orientations(diagram(t, n)):
                h.update(generate(build_ar(q), 4).to_json().encode())
                count += 1
    assert count == 66
    assert h.hexdigest() == "0fe2fd911747ec07e9e613def04efca727a482b46af11e106c68d2bbd28ca666"
