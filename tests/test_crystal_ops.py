import functools
import gc
import random
import sys
import threading
import weakref

import pytest

from conftest import (
    A2, A3_LINEAR, A3_MIDDLE, alternating, ar_of, leq_elements, maximum, minimum, pos, projective,
)
from oracle import HomOracle
from quivercrystal import (
    Antichain,
    DomainError,
    InvariantViolation,
    ModuleClass,
    ResourceLimitError,
    antichains,
    e_tilde,
    epsilon_i,
    f_tilde,
    hom_poset,
    module_from_dim_dict,
    module_to_json,
    phi_i,
    special_orientations,
    weight_of,
    zero_module,
)
from quivercrystal import crystal_ops
from quivercrystal.ar_quiver import build_ar
from quivercrystal.crystal_ops import HomPoset, antichain_score
from quivercrystal.dynkin import all_orientations, diagram, parse_quiver
from quivercrystal.pm_graph import build_pm
from reference import antichain_leq, exchange_set

D4_SPECIAL = "D4: 1->2, 3->2, 4->2"


def worked_class(ar):
    return module_from_dim_dict(
        ar, {(1, 1, 1): 2, (1, 0, 0): 1, (0, 1, 1): 1, (0, 1, 0): 1}
    )


def singleton(ar, dim):
    return Antichain((ar.by_dim[dim].id,))


def test_poset_linear_chain():
    ar = ar_of(A3_LINEAR)
    p = hom_poset(ar, 3)
    dims = [ar.indecs[x].dim for x in p.element_ids]
    assert dims == [(1, 1, 1), (0, 1, 1), (0, 0, 1)]
    assert minimum(p).dim == (1, 1, 1) == projective(ar, 3).dim
    assert maximum(p).dim == (0, 0, 1) == ar.simple(3).dim
    assert leq_elements(p, ar.by_dim[(1, 1, 1)], ar.by_dim[(0, 0, 1)])
    assert not leq_elements(p, ar.by_dim[(0, 0, 1)], ar.by_dim[(1, 1, 1)])


def test_poset_middle_diamond():
    ar = ar_of(A3_MIDDLE)
    p = hom_poset(ar, 2)
    assert len(p) == 4
    assert minimum(p).dim == (1, 1, 1)
    assert maximum(p).dim == (0, 1, 0)
    a, b = ar.by_dim[(1, 1, 0)], ar.by_dim[(0, 1, 1)]
    assert not leq_elements(p, a, b) and not leq_elements(p, b, a)


def test_poset_a1():
    ar = ar_of("A1:")
    p = hom_poset(ar, 1)
    assert len(p) == 1
    assert minimum(p) == maximum(p) == ar.simple(1)


def test_poset_rejects_non_special():
    ar = ar_of("D4: 2->1, 2->3, 2->4")
    with pytest.raises(DomainError):
        hom_poset(ar, 2)


def test_poset_partial_order_validates_on_special_orientations():
    for d in (diagram("A", 4), diagram("D", 4), diagram("D", 5), diagram("E", 6)):
        for q in all_orientations(d):
            ar = build_ar(q)
            if not ar.is_special():
                continue
            for i in range(1, d.rank + 1):
                hom_poset(ar, i)  # construction checks the poset axioms


def _positions(mask):
    return {b for b in range(mask.bit_length()) if mask >> b & 1}


def test_vertex_tables_match_their_definitions():
    """Every table of a vertex poset, and what is read off it, recomputed by brute force
    from the Hom table."""
    diagrams = [diagram("A", n) for n in range(1, 7)] + [diagram("D", 4), diagram("D", 5)]
    for q in (q for d in diagrams for q in special_orientations(d)):
        ar = build_ar(q)
        for i in range(1, ar.rank + 1):
            p = hom_poset(ar, i)
            n, ids = len(p), p.element_ids
            assert n <= 12
            leq = [[ar.hom_dim(a, b) > 0 for b in ids] for a in ids]
            assert [_positions(m) for m in p.below] == [
                {a for a in range(n) if leq[a][b]} for b in range(n)
            ]
            assert [_positions(m) for m in p.above] == [
                {b for b in range(n) if leq[a][b]} for a in range(n)
            ]
            assert p.covers == tuple(
                (a, b)
                for a in range(n)
                for b in range(n)
                if a != b and leq[a][b]
                and not any(leq[a][c] and leq[c][b] for c in range(n) if c not in (a, b))
            )
            subsets = [[b for b in range(n) if s >> b & 1] for s in range(1, 1 << n)]
            chains = sorted(
                tuple(ch)
                for ch in subsets
                if not any(leq[a][b] for a in ch for b in ch if a != b)
            )
            assert [tuple(pos(p, x) for x in v.members) for v in antichains(p)] == chains
            downs = [_positions(d) for d in p.downsets]
            assert downs == [
                {b for b in range(n) if any(leq[b][c] for c in ch)} for ch in chains
            ]
            assert sorted(k for k, _, _ in p.plan) == list(range(len(chains)))
            done = {-1}
            for k, parent, x in p.plan:
                assert parent in done and x in chains[k]
                assert (downs[parent] if parent >= 0 else set()) == downs[k] - {x}
                done.add(k)
            for ch, down in zip(chains, downs):
                outside = [b for b in range(n) if b not in down]
                want = [b for b in outside if not any(leq[c][b] for c in outside if c != b)]
                got = exchange_set(p, Antichain(tuple(ids[b] for b in ch)))
                assert [pos(p, x) for x in got] == want


def _poset_with_relation(changes):
    """HomPoset at vertex 2 of a fresh A3 `2->1, 2->3`, with some Hom dimensions changed.

    `changes` maps (dim X, dim Y) to a fake dim Hom(X, Y), written into the
    Hom rows the poset reads; no Y is S(2), so which indecomposables belong
    to the poset is decided by the real table.
    """
    ar = build_ar(parse_quiver(A3_MIDDLE))
    rows = [list(row) for row in ar.hom_rows]
    for (x, y), k in changes.items():
        rows[ar.by_dim[x].id][ar.by_dim[y].id] = k
    ar.hom_rows = tuple(map(tuple, rows))
    return HomPoset(ar, 2)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({((1, 1, 1), (1, 1, 1)): 0}, "hom order not reflexive"),
        ({((1, 1, 0), (0, 1, 1)): 1, ((0, 1, 1), (1, 1, 0)): 1}, "hom order not antisymmetric"),
        ({((1, 1, 0), (0, 1, 1)): 1, ((1, 1, 1), (0, 1, 1)): 0}, "hom order not transitive"),
        ({((1, 1, 0), (0, 1, 1)): 1}, "positions do not extend the hom order"),
    ],
)
def test_poset_rejects_a_hom_relation_that_is_not_an_order(changes, message):
    with pytest.raises(InvariantViolation, match=message):
        _poset_with_relation(changes)


def test_unique_extremum_of_score_maximizers(monkeypatch):
    """Faults injected through `_scores`: a pass lowers at the OR of the best down-sets and
    raises at their AND, and refuses unless both are among them."""
    ar = ar_of(A3_MIDDLE)
    p, m = hom_poset(ar, 2), worked_class(ar)
    left, right, top, bottom = (singleton(ar, d) for d in ((1, 1, 0), (0, 1, 1), (0, 1, 0), (1, 1, 1)))
    pair = Antichain(tuple(sorted(left.members + right.members)))

    def best_at(*best):
        scores = [int(v in best) for v in antichains(p)]
        monkeypatch.setattr(crystal_ops, "_scores", lambda p, m: (1, scores))

    def moved(v, step):
        mults = list(m.mults)
        for x in exchange_set(p, v):
            mults[ar.tau(x).id] -= step
        for x in v.members:
            mults[x] += step
        return ModuleClass(tuple(mults))

    best_at(left, right)
    with pytest.raises(InvariantViolation, match="lack a unique maximal element"):
        f_tilde(ar, m, 2)
    best_at(left, right, pair)
    with pytest.raises(InvariantViolation, match="lack a unique minimal element"):
        e_tilde(ar, m, 2)
    best_at(pair, top, left, bottom)
    assert f_tilde(ar, m, 2) == moved(top, 1)
    assert e_tilde(ar, m, 2) == moved(bottom, -1)


def test_antichains_of_chain_are_singletons():
    ar = ar_of(A3_LINEAR)
    chains = antichains(hom_poset(ar, 3))
    assert len(chains) == 3
    assert all(len(a.members) == 1 for a in chains)


def test_antichains_of_diamond():
    ar = ar_of(A3_MIDDLE)
    p = hom_poset(ar, 2)
    chains = antichains(p)
    assert len(chains) == 5
    non_trivial = [a for a in chains if len(a.members) > 1]
    assert len(non_trivial) == 1
    dims = {ar.indecs[x].dim for x in non_trivial[0].members}
    assert dims == {(1, 1, 0), (0, 1, 1)}


def test_antichains_of_point():
    ar = ar_of("A1:")
    assert len(antichains(hom_poset(ar, 1))) == 1


def test_antichain_leq():
    ar = ar_of(A3_MIDDLE)
    p = hom_poset(ar, 2)
    for v in antichains(p):
        assert antichain_leq(p, v, v)
    bottom, top = singleton(ar, (1, 1, 1)), singleton(ar, (0, 1, 0))
    assert antichain_leq(p, bottom, top)
    assert not antichain_leq(p, top, bottom)
    # backed by the matrix oracle: no nonzero map S(2) -> P(2)
    assert HomOracle(ar.quiver).hom((0, 1, 0), (1, 1, 1)) == 0


def test_score_table_of_worked_example():
    ar = ar_of(A3_MIDDLE)
    p = hom_poset(ar, 2)
    m = worked_class(ar)
    pair = Antichain(tuple(sorted((ar.by_dim[(1, 1, 0)].id, ar.by_dim[(0, 1, 1)].id))))
    expected = {
        singleton(ar, (1, 1, 1)): 2,
        singleton(ar, (0, 1, 1)): 2,
        singleton(ar, (1, 1, 0)): 2,
        pair: 2,
        singleton(ar, (0, 1, 0)): 1,
    }
    for v, want in expected.items():
        assert antichain_score(ar, m, 2, v) == want
    # brute-force re-derivation straight from the definition
    for v in antichains(p):
        total = 0
        for xid in p.element_ids:
            b = ar.indecs[xid]
            if any(ar.hom_dim(b, ar.indecs[c]) for c in v.members):
                tb = ar.tau(b)
                total += m.mults[b.id] - (m.mults[tb.id] if tb else 0)
        assert total == antichain_score(ar, m, 2, v)


def test_score_trivial_cases():
    ar = ar_of(A3_MIDDLE)
    for v in antichains(hom_poset(ar, 2)):
        assert antichain_score(ar, zero_module(ar), 2, v) == 0
    s2 = module_from_dim_dict(ar, {(0, 1, 0): 1})
    assert antichain_score(ar, s2, 2, singleton(ar, (0, 1, 0))) == 1


def test_incremental_scores_equal_direct_sums_on_d5_and_e6():
    """The down-set plan gives every antichain its directly summed score, by both score
    paths: the compiled kernel (every D5 and E6 table) and the plan loop (the middle
    vertex of alternating A10, with 461 down-sets)."""
    rng = random.Random(7)
    quivers = [q for d in (diagram("D", 5), diagram("E", 6)) for q in special_orientations(d)]
    assert len(quivers) == 15
    tables = [(build_ar(q), range(1, q.diagram.rank + 1)) for q in quivers]
    tables.append((ar_of(alternating(10)), [5]))
    for ar, vertices in tables:
        for _ in range(12):
            m = ModuleClass(tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(len(ar))))
            for i in vertices:
                p = hom_poset(ar, i)
                scores = [antichain_score(ar, m, i, v) for v in antichains(p)]
                best = max(scores)
                assert epsilon_i(ar, m, i) == best
                assert crystal_ops._scores(p, m) == (best, scores)
                looped = len(p.downsets) > crystal_ops.KERNEL_MAX_DOWNSETS
                assert looped == (ar.rank == 10)
                assert looped == isinstance(p.kernel, functools.partial)


def test_threads_scoring_a_fresh_table_all_get_the_kernel_results():
    """The kernel is the one field filled after construction: threads that race to compile
    it (more threads than most hosts have cores, switching often) each make an equal
    function, and every pass reads the plan loop's scores."""
    ar = ar_of("E6: 1->2, 2->3, 3->4, 3->6, 4->5")
    rng = random.Random(3)
    m = ModuleClass(tuple(rng.randrange(3) for _ in range(len(ar))))
    n_threads = 4
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(1, ar.rank + 1):
            p = HomPoset(ar, i)
            assert p.kernel is None
            scores = crystal_ops._walk(p.plan, p.element_ids, p.tau_ids, m.mults)
            barrier = threading.Barrier(n_threads)
            results: list = [None] * n_threads

            def work(k: int) -> None:
                barrier.wait()
                results[k] = crystal_ops._scores(p, m)

            threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [(max(scores), scores)] * n_threads
            assert p.kernel.__code__.co_names == ()
    finally:
        sys.setswitchinterval(old)


def test_epsilon_examples():
    ar = ar_of(A3_MIDDLE)
    assert epsilon_i(ar, zero_module(ar), 2) == 0
    assert epsilon_i(ar, worked_class(ar), 2) == 2
    for k in (1, 2, 3):
        mk = module_from_dim_dict(ar, {(0, 1, 0): k})
        assert epsilon_i(ar, mk, 2) == k
        assert antichain_score(ar, mk, 2, singleton(ar, (0, 1, 0))) == k


def test_exchange_sets():
    ar = ar_of(A3_MIDDLE)
    p = hom_poset(ar, 2)
    assert exchange_set(p, singleton(ar, (0, 1, 0))) == ()
    pair = Antichain(tuple(sorted((ar.by_dim[(1, 1, 0)].id, ar.by_dim[(0, 1, 1)].id))))
    assert {x.dim for x in exchange_set(p, pair)} == {(0, 1, 0)}
    assert {x.dim for x in exchange_set(p, singleton(ar, (1, 1, 1)))} == {
        (1, 1, 0),
        (0, 1, 1),
    }


def test_poset_lookups_take_antichains_as_sets():
    ar = ar_of(A3_MIDDLE)
    p = hom_poset(ar, 2)
    a, b = sorted((ar.by_dim[(1, 1, 0)].id, ar.by_dim[(0, 1, 1)].id))
    for v in (Antichain((a, b)), Antichain((b, a))):
        assert antichain_score(ar, worked_class(ar), 2, v) == 2
        assert {x.dim for x in exchange_set(p, v)} == {(0, 1, 0)}
    with pytest.raises(DomainError):
        exchange_set(p, Antichain((a, a)))
    foreign = ar.by_dim[(1, 0, 0)]
    with pytest.raises(DomainError):
        antichain_score(ar, worked_class(ar), 2, Antichain((foreign.id,)))


def test_f_tilde_examples():
    ar = ar_of(A3_MIDDLE)
    z = zero_module(ar)
    assert module_to_json(ar, f_tilde(ar, z, 2)) == '{"0,1,0":1}'
    assert module_to_json(ar, f_tilde(ar, f_tilde(ar, z, 2), 2)) == '{"0,1,0":2}'
    got = f_tilde(ar, worked_class(ar), 2)
    assert (
        module_to_json(ar, got)
        == '{"0,1,0":1,"0,1,1":2,"1,0,0":1,"1,1,0":1,"1,1,1":1}'
    )


def test_e_tilde_examples():
    ar = ar_of(A3_MIDDLE)
    s2 = module_from_dim_dict(ar, {(0, 1, 0): 1})
    assert e_tilde(ar, s2, 2) == zero_module(ar)
    assert e_tilde(ar, zero_module(ar), 2) is None
    got = e_tilde(ar, worked_class(ar), 2)
    assert (
        module_to_json(ar, got)
        == '{"0,0,1":1,"0,1,0":1,"0,1,1":1,"1,0,0":2,"1,1,1":1}'
    )


def test_weight_and_phi():
    ar = ar_of(A3_MIDDLE)
    z = zero_module(ar)
    assert weight_of(ar, z) == (0, 0, 0)
    assert phi_i(ar, z, 2) == 0
    m = worked_class(ar)
    f = f_tilde(ar, m, 2)
    wf, wm = weight_of(ar, f), weight_of(ar, m)
    assert wf == tuple(a - (1 if j == 1 else 0) for j, a in enumerate(wm))


def _all_classes(ar, max_total):
    heights = [sum(x.dim) for x in ar.indecs]

    def rec(idx, left):
        if idx == len(ar):
            yield ()
            return
        for k in range(left // heights[idx] + 1):
            for rest in rec(idx + 1, left - k * heights[idx]):
                yield (k,) + rest

    for mults in rec(0, max_total):
        yield ModuleClass(mults)


def test_operator_identities_small_sweep():
    specs = [A3_LINEAR, A3_MIDDLE, D4_SPECIAL]
    for spec in specs:
        ar = ar_of(spec)
        n = ar.rank
        for m in _all_classes(ar, 4):
            for i in range(1, n + 1):
                eps = epsilon_i(ar, m, i)
                x = f_tilde(ar, m, i)
                assert epsilon_i(ar, x, i) == eps + 1
                assert x.dimension_vector(ar) == tuple(
                    d + (1 if j == i - 1 else 0)
                    for j, d in enumerate(m.dimension_vector(ar))
                )
                assert e_tilde(ar, x, i) == m
                if eps > 0:
                    assert f_tilde(ar, e_tilde(ar, m, i), i) == m
                assert phi_i(ar, m, i) == eps + sum(
                    c * w
                    for c, w in zip(
                        [2 if j == i else (-1 if tuple(sorted((i, j))) in set(ar.quiver.diagram.edges) else 0) for j in range(1, n + 1)],
                        weight_of(ar, m),
                    )
                )


def test_operator_identities_a4_full_depth():
    """Inverse pairs and statistics on every A4 orientation, total dim <= 8."""
    for q in all_orientations(diagram("A", 4)):
        ar = build_ar(q)
        for m in _all_classes(ar, 8):
            for i in range(1, 5):
                eps = epsilon_i(ar, m, i)
                x = f_tilde(ar, m, i)
                assert e_tilde(ar, x, i) == m
                assert epsilon_i(ar, x, i) == eps + 1
                if eps > 0:
                    assert f_tilde(ar, e_tilde(ar, m, i), i) == m


def test_string_length_matches_epsilon():
    ar = ar_of(A3_MIDDLE)
    for m in _all_classes(ar, 4):
        for i in range(1, 4):
            eps = epsilon_i(ar, m, i)
            cur, steps = m, 0
            while True:
                nxt = e_tilde(ar, cur, i)
                if nxt is None:
                    break
                cur, steps = nxt, steps + 1
            assert steps == eps


def test_epsilon_of_multiple_simples():
    ar = ar_of(A2)
    for k in (1, 2, 3, 4):
        m = module_from_dim_dict(ar, {(0, 1): k})
        assert epsilon_i(ar, m, 2) == k
        assert epsilon_i(ar, m, 1) == 0


def test_shared_ar_quiver_gives_identical_results_across_threads():
    ar = build_ar(parse_quiver("E6: 1->2, 2->3, 3->4, 3->6, 4->5"))  # no poset built yet
    rng = random.Random(11)
    classes = [ModuleClass(tuple(rng.randrange(3) for _ in range(len(ar)))) for _ in range(6)]
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads

    def work(k: int) -> None:
        barrier.wait()
        try:
            out = []
            for i in range(1, ar.rank + 1):
                p = hom_poset(ar, i)
                for m in classes:
                    out.append((p, epsilon_i(ar, m, i), f_tilde(ar, m, i), e_tilde(ar, m, i)))
            results[k] = out
        except Exception as exc:  # reported by the assertions below
            results[k] = exc

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(isinstance(r, list) for r in results), results
    first = results[0]
    for r in results[1:]:
        assert len(r) == len(first)
        for (p, *stats), (q, *expected) in zip(r, first):
            assert p is q and stats == expected
    for i in range(1, ar.rank + 1):
        assert hom_poset(ar, i) is first[(i - 1) * len(classes)][0]


def test_ar_quiver_is_not_written_after_construction():
    ar = build_ar(parse_quiver("E6: 1->2, 2->3, 3->4, 3->6, 4->5"))
    before = dict(vars(ar))
    dicts = {k: dict(v) for k, v in before.items() if isinstance(v, dict)}
    rng = random.Random(5)
    m = ModuleClass(tuple(rng.randrange(3) for _ in range(len(ar))))
    for i in range(1, ar.rank + 1):
        build_pm(ar, hom_poset(ar, i), m)
        epsilon_i(ar, m, i)
        e_tilde(ar, f_tilde(ar, m, i), i)
    after = vars(ar)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert {k: after[k] for k in dicts} == dicts



def test_a_vertex_table_at_its_antichain_budget(monkeypatch):
    """The diamond's 5 antichains fit a budget of 5 and are refused at 4."""
    ar = build_ar(parse_quiver(A3_MIDDLE))
    monkeypatch.setattr(crystal_ops, "ANTICHAIN_BUDGET", 5)
    assert len(HomPoset(ar, 2).downsets) == 5
    monkeypatch.setattr(crystal_ops, "ANTICHAIN_BUDGET", 4)
    with pytest.raises(ResourceLimitError, match="^vertex 2 has more than 4 antichains$"):
        HomPoset(ar, 2)


def test_vertex_tables_are_built_only_when_asked(monkeypatch):
    # Alternating A12: the source vertices' posets have up to 924 antichains,
    # while vertex 1's poset is a 12-element chain.
    spec = ", ".join(f"{a}->{a + 1}" if a % 2 else f"{a + 1}->{a}" for a in range(1, 12))
    built = []
    init = HomPoset.__init__

    def counting(self, ar, i):
        built.append(i)
        init(self, ar, i)

    monkeypatch.setattr(HomPoset, "__init__", counting)
    ar = build_ar(parse_quiver(f"A12: {spec}"))
    assert ar.is_special() and built == []
    assert len(antichains(hom_poset(ar, 1))) == 12
    epsilon_i(ar, zero_module(ar), 1)
    f_tilde(ar, zero_module(ar), 1)
    assert built == [1]


def test_vertex_tables_go_with_their_ar_quiver():
    ar = build_ar(parse_quiver(D4_SPECIAL))
    for i in range(1, ar.rank + 1):
        epsilon_i(ar, zero_module(ar), i)
    gone = weakref.ref(ar)
    del ar
    gc.collect()
    assert gone() is None
