import json
import random
from itertools import product

import pytest

from conftest import sinks
from quivercrystal import (
    DomainError,
    InvariantViolation,
    QuiverParseError,
    ResourceLimitError,
    all_orientations,
    cartan_matrix,
    coroot_pairing,
    diagram,
    parse_quiver,
    positive_roots,
    ringel_form,
    symmetrized_form,
)
from quivercrystal import dynkin


def test_parse_echoes_input():
    q = parse_quiver("A3: 2->1, 2->3")
    assert q.diagram.letter == "A" and q.diagram.rank == 3
    assert set(q.arrows) == {(2, 1), (2, 3)}


def test_parse_linear_source():
    q = parse_quiver("A3: 3->2, 2->1")
    assert q.sources() == (3,)
    assert sinks(q) == (1,)


def test_parse_whitespace_insensitive():
    assert parse_quiver("  a3:2->1 ,   2->3") == parse_quiver("A3: 2->1, 2->3")


def test_parse_json_form():
    q = parse_quiver('{"type":"A","rank":3,"arrows":[[2,1],[2,3]]}')
    assert q == parse_quiver("A3: 2->1, 2->3")
    assert json.loads(q.to_json())["arrows"] == [[2, 1], [2, 3]]


def test_parse_text_round_trip():
    for spec in ("A1:", "A3: 2->1, 2->3", "D4: 1->2, 3->2, 4->2", "E6: 1->2, 2->3, 3->4, 4->5, 6->3"):
        q = parse_quiver(spec)
        assert parse_quiver(q.text_spec()) == q


def test_parse_rejects_cycles_and_bad_arrows():
    with pytest.raises(QuiverParseError):
        parse_quiver("A3: 1->2, 2->1")  # edge oriented twice
    with pytest.raises(QuiverParseError):
        parse_quiver("A3: 1->3")  # not an edge
    with pytest.raises(QuiverParseError):
        parse_quiver("A3: 1->2")  # missing orientation
    with pytest.raises(QuiverParseError):
        parse_quiver("E8: ->")


def test_non_dynkin_rejected():
    with pytest.raises(DomainError):
        diagram("D", 3)
    with pytest.raises(DomainError):
        diagram("E", 9)
    with pytest.raises(DomainError):
        diagram("A", 0)
    with pytest.raises(DomainError):
        diagram("B", 2)


def test_cartan_matrices():
    assert cartan_matrix(diagram("A", 2)) == ((2, -1), (-1, 2))
    assert cartan_matrix(diagram("A", 3)) == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    d4 = cartan_matrix(diagram("D", 4))
    assert d4[1] == (-1, 2, -1, -1)  # center row has three -1 entries
    assert all(d4[i][i] == 2 for i in range(4))


def test_ringel_form_examples():
    q = parse_quiver("A2: 2->1")
    assert ringel_form(q, (1, 0), (0, 1)) == 0
    assert ringel_form(q, (0, 1), (1, 0)) == -1
    assert ringel_form(q, (3, 5), (0, 0)) == 0
    with pytest.raises(DomainError):
        ringel_form(q, (1, 0, 0), (0, 1))


def test_ringel_form_matches_hom_minus_ext():
    # the contract dim Hom - dim Ext^1, checked against the matrix oracle
    from oracle import HomOracle

    q = parse_quiver("A2: 2->1")
    o = HomOracle(q)
    s1, s2 = (1, 0), (0, 1)
    # Ext(S1, S2) = 0 and Ext(S2, S1) = 1 for this orientation
    assert ringel_form(q, s1, s2) == o.hom(s1, s2) - 0
    assert ringel_form(q, s2, s1) == o.hom(s2, s1) - 1


def test_positive_root_counts_and_examples():
    assert set(positive_roots(diagram("A", 2))) == {(1, 0), (0, 1), (1, 1)}
    assert len(positive_roots(diagram("A", 3))) == 6
    assert len(positive_roots(diagram("D", 4))) == 12
    assert len(positive_roots(diagram("E", 6))) == 36
    assert len(positive_roots(diagram("E", 7))) == 63
    assert len(positive_roots(diagram("E", 8))) == 120


def test_positive_roots_wrong_count_is_an_invariant_violation(monkeypatch):
    monkeypatch.setitem(dynkin._ROOT_COUNT, "A", lambda n: n)
    with pytest.raises(InvariantViolation):
        positive_roots(diagram("A", 3))


@pytest.mark.parametrize("name, highest", [
    ("A5", (1, 1, 1, 1, 1)), ("D5", (1, 2, 2, 1, 1)), ("E6", (1, 2, 3, 2, 1, 2)),
])
def test_positive_roots_are_the_vectors_of_tits_form_one(name, highest):
    """Brute force: the nonzero d with 0 <= d <= the highest root and
    sum d_i^2 - sum over edges d_a d_b = 1 are exactly the positive roots."""
    d = diagram(name[0], int(name[1:]))
    want = {
        v for v in product(*(range(h + 1) for h in highest))
        if sum(x * x for x in v) - sum(v[a - 1] * v[b - 1] for a, b in d.edges) == 1
    }
    roots = positive_roots(d)
    assert len(roots) == len(set(roots)) and set(roots) == want
    assert max(roots, key=sum) == highest


def test_positive_roots_connected_support():
    for d in (diagram("A", 4), diagram("D", 5), diagram("E", 6)):
        edges = set(d.edges)
        for r in positive_roots(d):
            support = {i + 1 for i, x in enumerate(r) if x}
            seen = {min(support)}
            frontier = [min(support)]
            while frontier:
                v = frontier.pop()
                for w in support:
                    if w not in seen and tuple(sorted((v, w))) in edges:
                        seen.add(w)
                        frontier.append(w)
            assert seen == support, f"disconnected root {r} in {d}"


def test_coroot_pairing_examples():
    a2 = diagram("A", 2)
    assert coroot_pairing(a2, 1, (-1, 0)) == -2
    assert coroot_pairing(a2, 1, (0, -1)) == 1
    assert coroot_pairing(diagram("A", 3), 2, (-1, -1, -1)) == 0


def test_coroot_pairings_are_the_cartan_matrix_applied_to_the_weight():
    rng = random.Random(7)
    for d in (diagram("A", 4), diagram("D", 5), diagram("E", 6), diagram("E", 8)):
        c = cartan_matrix(d)
        for _ in range(20):
            w = tuple(rng.randrange(-4, 5) for _ in range(d.rank))
            expected = tuple(sum(a * x for a, x in zip(row, w)) for row in c)
            assert dynkin.coroot_pairings(d, w) == expected
            assert [coroot_pairing(d, i, w) for i in range(1, d.rank + 1)] == list(expected)
    a2 = diagram("A", 2)
    with pytest.raises(DomainError, match="does not match rank 2"):
        dynkin.coroot_pairings(a2, (0, 0, 0))
    with pytest.raises(DomainError, match="does not match rank 2"):
        coroot_pairing(a2, 1, (0,))
    with pytest.raises(DomainError, match="vertex 3 out of range"):
        coroot_pairing(a2, 3, (0, 0, 0))


def test_symmetrization_identity_random_pairs():
    rng = random.Random(20260809)
    for d in (diagram("A", 4), diagram("D", 4), diagram("D", 5), diagram("E", 6)):
        q = all_orientations(d)[1]
        for _ in range(100):
            v = tuple(rng.randrange(-4, 5) for _ in range(d.rank))
            w = tuple(rng.randrange(-4, 5) for _ in range(d.rank))
            assert ringel_form(q, v, w) + ringel_form(q, w, v) == symmetrized_form(q, v, w)


def test_all_orientations_count():
    assert len(all_orientations(diagram("A", 3))) == 4
    assert len(all_orientations(diagram("D", 4))) == 8
    assert len(all_orientations(diagram("A", 1))) == 1


def test_all_orientations_refuses_more_than_the_budget_up_front(monkeypatch):
    monkeypatch.setattr(dynkin, "DEFAULT_VERTEX_BUDGET", 8)
    assert len(all_orientations(diagram("D", 4))) == 8  # exactly the budget
    monkeypatch.setattr(dynkin, "Quiver", None)  # nothing may be built before the refusal
    with pytest.raises(ResourceLimitError) as exc:
        all_orientations(diagram("D", 5))
    assert str(exc.value) == "D5 has 2^4 orientations, more than 8"
    monkeypatch.undo()
    with pytest.raises(ResourceLimitError, match="^A19 has 2\\^18 orientations, more than 200000$"):
        all_orientations(diagram("A", 19))


def test_a_huge_rank_is_refused_before_any_edge_is_built():
    with pytest.raises(ResourceLimitError, match="^rank 200001 exceeds 200000 vertices$"):
        diagram("D", 200_001)
    assert len(diagram("A", 200_000).edges) == 199_999
    with pytest.raises(DomainError):
        diagram("E", 10**11)
