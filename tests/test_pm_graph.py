import copy
import gc
import hashlib
import math
import random
import re
import tracemalloc
import weakref

import pytest

from conftest import A3_MIDDLE, ar_of
from quivercrystal import (
    DomainError,
    HomPoset,
    MultiplicityGraph,
    ResourceLimitError,
    build_pm,
    e_tilde,
    epsilon_i,
    f_tilde,
    hom_poset,
    kostant_count,
    min_epsilon,
    module_from_dim_dict,
    zero_module,
)
from quivercrystal.errors import DEFAULT_SEARCH_LIMIT
from quivercrystal.pm_graph import _poset_skeleton, _white_targets
from preorder import (
    AMorphism,
    F_of_subset,
    closure_H,
    closure_antichain,
    down_closure,
    enumerate_morphisms,
    eps_of,
    is_preceq,
    is_preceq_minimal,
    node_label,
    preceq_minimal_morphisms,
)


def worked_graph():
    ar = ar_of(A3_MIDDLE)
    m = module_from_dim_dict(
        ar, {(1, 1, 1): 2, (1, 0, 0): 1, (0, 1, 1): 1, (0, 1, 0): 1}
    )
    return ar, m, build_pm(ar, hom_poset(ar, 2), m)


def five_chain_graph():
    """Abstract instance: two reds feeding three chains of whites."""
    labels = ("B1", "B2", "B3", "B4", "B5")
    covers = (("B1", "B3"), ("B1", "B4"), ("B2", "B4"), ("B2", "B5"))
    whites = {"B3": 2, "B4": 2, "B5": 1}
    reds = {"B1": 1, "B2": 1}
    return MultiplicityGraph(labels, covers, whites, reds)


def node(g, label, pos):
    return g.layout()[0].index((label, pos))


def derived(g):
    """The layout, with the first and last node of each label's chain read off its names,
    and the white targets keyed by red."""
    names, succ, reach = g.layout()
    first = {lab: names.index((lab, 1)) for lab in g.labels}
    last = {lab: u for u, (lab, _) in enumerate(names[:-1])}
    targets = dict(zip(g.red_order, _white_targets(g)))
    return {"_names": names, "succ": succ, "reach": reach, "first": first, "last": last,
            "_white_targets": targets}


def test_worked_chain_lengths():
    ar, m, g = worked_graph()
    names = g.layout()[0]
    assert [sum(lab == l for lab, _ in names) for l in g.labels] == [2, 1, 1, 2]
    dims = [str(ar.indecs[l]) for l in g.labels]
    assert dims == ["(1,1,1)", "(0,1,1)", "(1,1,0)", "(0,1,0)"]
    assert len(g.white) == 4 and len(g.red) == 3


def test_zero_module_graph():
    ar = ar_of(A3_MIDDLE)
    g = build_pm(ar, hom_poset(ar, 2), zero_module(ar))
    assert len(g.nodes) == 5  # one per poset element plus the sink
    assert g.white == frozenset() and g.red == frozenset()


def test_single_simple_graph():
    ar = ar_of(A3_MIDDLE)
    m = module_from_dim_dict(ar, {(0, 1, 0): 1})
    g = build_pm(ar, hom_poset(ar, 2), m)
    s2 = ar.by_dim[(0, 1, 0)].id
    assert g.white == frozenset({node(g, s2, 1)})
    assert g.red == frozenset()


def test_enumerate_empty_red():
    ar = ar_of(A3_MIDDLE)
    g = build_pm(ar, hom_poset(ar, 2), zero_module(ar))
    morphs = list(enumerate_morphisms(g))
    assert morphs == [AMorphism(())]
    assert eps_of(g, morphs[0]) == 0


def test_enumerate_one_red_one_white():
    g = MultiplicityGraph(("a", "b"), (("a", "b"),), {"b": 1}, {"a": 1})
    morphs = list(enumerate_morphisms(g))
    targets = sorted(m.targets for m in morphs)
    assert targets == [(node(g, "b", 1),), (g.sink,)]


def test_eps_trivial_values():
    ar, m, g = worked_graph()
    all_inf = AMorphism((g.sink,) * len(g.red_order))
    assert eps_of(g, all_inf) == len(g.white)


def test_paper_pattern_morphisms_occur_and_compare():
    ar, m, g = worked_graph()
    s2 = ar.by_dim[(0, 1, 0)].id
    i11 = ar.by_dim[(0, 1, 1)].id
    s2_1, s2_2, a1 = node(g, s2, 1), node(g, s2, 2), node(g, i11, 1)
    morphs = list(enumerate_morphisms(g))

    def find(assign):
        matches = [
            mo
            for mo in morphs
            if all(mo.mapping(g)[k] == v for k, v in assign.items())
        ]
        assert matches, assign
        return matches[0]

    phi1 = find({s2_1: s2_1, s2_2: g.sink, a1: a1})
    phi2 = find({s2_1: g.sink, s2_2: g.sink, a1: a1})
    assert is_preceq(g, phi1, phi2)
    assert not is_preceq(g, phi2, phi1)


def test_preceq_reflexive():
    ar, m, g = worked_graph()
    for phi in enumerate_morphisms(g):
        assert is_preceq(g, phi, phi)


def test_subset_score_and_down_closure():
    ar, m, g = worked_graph()
    assert F_of_subset(g, frozenset()) == 0
    assert down_closure(g, {g.sink}) == frozenset(g.nodes)
    i11 = ar.by_dim[(0, 1, 1)].id
    i110 = ar.by_dim[(1, 1, 0)].id
    closed = down_closure(g, {node(g, i11, 1), node(g, i110, 1)})
    assert F_of_subset(g, closed) == 2


def test_closure_trivial_cases():
    ar, m, g = worked_graph()
    phi = next(iter(enumerate_morphisms(g)))
    assert closure_H(g, phi, frozenset()) == frozenset()
    # a set whose down closure contains no red is just closed downward
    p2 = ar.by_dim[(1, 1, 1)].id
    v = {node(g, p2, 1)}
    assert closure_H(g, phi, v) == down_closure(g, v)


def test_five_chain_worked_example():
    g = five_chain_graph()
    phi = AMorphism(
        tuple(
            {node(g, "B1", 1): node(g, "B4", 1), node(g, "B2", 1): node(g, "B4", 2)}[r]
            for r in g.red_order
        )
    )
    assert eps_of(g, phi) == 3
    assert is_preceq_minimal(g, phi)
    start = g.white - phi.image(g)
    assert start == {node(g, "B3", 1), node(g, "B3", 2), node(g, "B5", 1)}
    # one application of the step operator already stabilizes
    step1 = down_closure(
        g, {phi.mapping(g)[r] for r in g.red & down_closure(g, start)} | start
    )
    closed = closure_H(g, phi, start)
    assert closed == step1
    assert closed == down_closure(
        g, {node(g, "B5", 1), node(g, "B4", 2), node(g, "B3", 2)}
    )
    assert F_of_subset(g, closed) == eps_of(g, phi) == 3
    assert closure_antichain(g).members == ("B3", "B4", "B5")
    assert min_epsilon(g) == 3


def test_min_epsilon_examples():
    ar, m, g = worked_graph()
    assert min_epsilon(g) == 2 == epsilon_i(ar, m, 2)
    z = build_pm(ar, hom_poset(ar, 2), zero_module(ar))
    assert min_epsilon(z) == 0
    for k in (1, 2, 3):
        mk = module_from_dim_dict(ar, {(0, 1, 0): k})
        gk = build_pm(ar, hom_poset(ar, 2), mk)
        assert min_epsilon(gk) == k


def test_min_epsilon_without_red_nodes_ignores_the_limit():
    """With no red node the one morphism misses every white, whatever the limit."""
    ar = ar_of(A3_MIDDLE)
    for dims in ({(0, 1, 0): 1, (1, 1, 0): 1, (0, 1, 1): 1}, {(0, 1, 0): 2, (1, 1, 0): 1, (0, 1, 1): 1}):
        m = module_from_dim_dict(ar, dims)
        g = build_pm(ar, hom_poset(ar, 2), m)
        assert g.red_order == () and len(g.white) == sum(dims.values())
        assert min_epsilon(g) == min_epsilon(g, limit=1) == min_epsilon(g, limit=0) == len(g.white)
        assert min_epsilon(g) == epsilon_i(ar, m, 2)


def hom_poset_build(g):
    return HomPoset(ar_of(A3_MIDDLE), 2)


def kostant_count_222(g):
    return kostant_count(ar_of(A3_MIDDLE).quiver, (2, 2, 2))


def is_preceq_on_each_pair(g):
    morphs = list(enumerate_morphisms(g))
    return [is_preceq(g, phi, psi) for phi in morphs for psi in morphs]


@pytest.mark.parametrize("search", [
    min_epsilon, lambda g: list(enumerate_morphisms(g)), hom_poset_build, kostant_count_222,
    is_preceq_on_each_pair, preceq_minimal_morphisms, closure_antichain,
])
def test_searches_leave_no_reference_cycle(search):
    """With the cyclic collector off, the graph is freed as soon as the caller drops it,
    and the collector then finds nothing unreachable."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ar, m, g = worked_graph()
        gc.collect()
        alive = weakref.ref(g)
        assert search(g)
        del g
        assert alive() is None
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_min_epsilon_matches_exhaustive_enumeration():
    ar, m, g = worked_graph()
    assert min_epsilon(g) == min(eps_of(g, phi) for phi in enumerate_morphisms(g))


def test_closure_antichain_of_worked_example():
    ar, m, g = worked_graph()
    got = closure_antichain(g)
    assert [ar.indecs[x].dim for x in got.members] == [(1, 1, 1)]


def test_closure_antichain_of_single_simple():
    ar = ar_of(A3_MIDDLE)
    m = module_from_dim_dict(ar, {(0, 1, 0): 1})
    g = build_pm(ar, hom_poset(ar, 2), m)
    got = closure_antichain(g)
    assert [ar.indecs[x].dim for x in got.members] == [(0, 1, 0)]


def test_closure_antichain_rejects_zero_epsilon():
    ar = ar_of(A3_MIDDLE)
    g = build_pm(ar, hom_poset(ar, 2), zero_module(ar))
    with pytest.raises(DomainError):
        closure_antichain(g)


def test_closure_antichain_equals_raising_minimizer_on_samples():
    ar = ar_of(A3_MIDDLE)
    rng = random.Random(7)
    p = hom_poset(ar, 2)
    for _ in range(60):
        mults = [0] * len(ar)
        for _ in range(rng.randrange(1, 6)):
            x = rng.randrange(len(ar))
            if mults[x] < 2:
                mults[x] += 1
        from quivercrystal import ModuleClass

        m = ModuleClass(tuple(mults))
        if epsilon_i(ar, m, 2) == 0:
            continue
        g = build_pm(ar, p, m)
        v = closure_antichain(g)
        # the raising operator removes exactly this antichain
        raised = e_tilde(ar, m, 2)
        lowered_back = f_tilde(ar, raised, 2)
        assert lowered_back == m
        diff = {
            xid
            for xid in range(len(ar))
            if m.mults[xid] > raised.mults[xid]
        }
        assert set(v.members) == diff


def test_closure_antichain_same_for_all_minimal_morphisms():
    g = five_chain_graph()
    minimal = preceq_minimal_morphisms(g)
    assert minimal
    reach = g.layout()[2]
    results = set()
    for phi in minimal:
        closed = closure_H(g, phi, g.white - phi.image(g))
        assert g.sink not in closed
        assert F_of_subset(g, closed) == eps_of(g, phi)
        maximal = [u for u in closed if reach[u] & closed == {u}]
        results.add(tuple(sorted({node_label(g, u) for u in maximal})))
    assert results == {("B3", "B4", "B5")}


def test_subset_score_bounded_by_eps():
    ar, m, g = worked_graph()
    morphs = list(enumerate_morphisms(g))
    rng = random.Random(3)
    interior = [u for u in g.nodes if u != g.sink]
    for _ in range(40):
        v = down_closure(g, rng.sample(interior, rng.randrange(1, 5)))
        if g.sink in v:
            continue
        score = F_of_subset(g, v)
        for phi in morphs:
            assert score <= eps_of(g, phi)


def test_closure_idempotent_and_monotone():
    ar, m, g = worked_graph()
    rng = random.Random(11)
    morphs = list(enumerate_morphisms(g))
    interior = [u for u in g.nodes if u != g.sink]
    for _ in range(30):
        phi = morphs[rng.randrange(len(morphs))]
        v1 = set(rng.sample(interior, rng.randrange(0, 4)))
        v2 = v1 | set(rng.sample(interior, rng.randrange(0, 3)))
        c1, c2 = closure_H(g, phi, v1), closure_H(g, phi, v2)
        assert closure_H(g, phi, c1) == c1
        assert c1 <= c2


def test_each_carried_member_left_unmatched_by_some_optimal_morphism():
    ar, m, g = worked_graph()
    target = epsilon_i(ar, m, 2)
    v = closure_antichain(g)
    morphs = [phi for phi in enumerate_morphisms(g) if eps_of(g, phi) == target]
    for b in v.members:
        copies = {node(g, b, p + 1) for p in range(m.mults[b])}
        assert any(copies - phi.image(g) for phi in morphs)


def _box_classes(n_indecs, max_mult=2, max_summands=6):
    out = []

    def rec(idx, left, acc):
        if idx == n_indecs:
            out.append(tuple(acc))
            return
        for k in range(min(max_mult, left) + 1):
            acc.append(k)
            rec(idx + 1, left - k, acc)
            acc.pop()

    rec(0, max_summands, [])
    return out


def test_min_max_identity_exhaustive_box():
    """Minimum unmatched whites equals the crystal statistic on the whole
    multiplicity-<=2, <=6-summand box, for every special orientation of
    A3 (both shapes), A4 and D4 and every vertex."""
    from quivercrystal import ModuleClass
    from quivercrystal.ar_quiver import build_ar
    from quivercrystal.dynkin import diagram
    from quivercrystal import special_orientations

    pool = [ar_of("A3: 3->2, 2->1"), ar_of(A3_MIDDLE)]
    pool += [build_ar(q) for q in special_orientations(diagram("A", 4))]
    pool += [build_ar(q) for q in special_orientations(diagram("D", 4))]
    for ar in pool:
        for mults in _box_classes(len(ar)):
            m = ModuleClass(mults)
            for i in range(1, ar.rank + 1):
                g = build_pm(ar, hom_poset(ar, i), m)
                assert min_epsilon(g) == epsilon_i(ar, m, i), (
                    ar.quiver.text_spec(),
                    mults,
                    i,
                )


def test_resource_guard():
    ar, m, g = worked_graph()
    with pytest.raises(ResourceLimitError):
        list(enumerate_morphisms(g, limit=2))
    with pytest.raises(ResourceLimitError):
        min_epsilon(g, limit=1)


def test_graph_is_not_written_after_construction():
    ar, m, g = worked_graph()
    before = copy.deepcopy(vars(g))
    laid_out = g.layout()
    g.reach, g.nodes, g.to_dot()
    [node_label(g, u) for u in g.nodes]
    morphs = list(enumerate_morphisms(g))
    assert min_epsilon(g) == 2
    assert all(is_preceq(g, phi, phi) for phi in morphs)
    minimal = preceq_minimal_morphisms(g)
    assert is_preceq_minimal(g, minimal[0])
    closure_H(g, minimal[0], g.white - minimal[0].image(g))
    closure_antichain(g)
    assert vars(g) == before
    assert g.layout() == laid_out


def test_reach_is_the_third_part_of_the_layout():
    for g in (worked_graph()[2], five_chain_graph(), MultiplicityGraph((), (), {}, {})):
        assert g.reach == g.layout()[2]


def test_labels_must_extend_covers():
    with pytest.raises(DomainError):
        MultiplicityGraph(("b", "a"), (("a", "b"),), {}, {})


def test_dot_escapes_quotes_and_backslashes_in_labels():
    g = MultiplicityGraph(('a"b', "c\\d"), (('a"b', "c\\d"),), {"c\\d": 1}, {'a"b': 1})
    dot = g.to_dot()
    assert 'n0 [label="a\\"b(1)", style=filled, fillcolor=red];' in dot
    assert 'n1 [label="c\\\\d(1)", style=filled, fillcolor=white];' in dot
    assert 'label="a"b(1)"' not in dot


def _by_definition(labels, covers, whites, reds):
    """Every attribute of the graph rebuilt from the chain, cover and sink rules."""
    top = {lab: max(1, whites.get(lab, 0), reds.get(lab, 0)) for lab in labels}
    names = [(lab, p) for lab in labels for p in range(1, top[lab] + 1)] + [("inf", 0)]
    at = {name: u for u, name in enumerate(names)}
    sink = len(names) - 1
    succ = [[] for _ in names]
    for lab, p in names[:-1]:
        if p < top[lab]:
            succ[at[lab, p]].append(at[lab, p + 1])
    for a, b in covers:
        succ[at[a, top[a]]].append(at[b, 1])
    for lab in labels:
        if all(a != lab for a, _ in covers):
            succ[at[lab, top[lab]]].append(sink)
    reach = []
    for u in range(len(names)):
        seen, stack = {u}, [u]
        while stack:
            for v in succ[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach.append(frozenset(seen))
    white = frozenset(at[lab, p] for lab in labels for p in range(1, whites.get(lab, 0) + 1))
    red = frozenset(at[lab, p] for lab in labels for p in range(1, reds.get(lab, 0) + 1))
    return {
        "labels": tuple(labels),
        "_names": names,
        "first": {lab: at[lab, 1] for lab in labels},
        "last": {lab: at[lab, top[lab]] for lab in labels},
        "sink": sink,
        "succ": tuple(tuple(sorted(s)) for s in succ),
        "reach": tuple(reach),
        "white": white,
        "red": red,
        "red_order": tuple(sorted(red)),
        "_white_targets": {r: tuple(sorted(reach[r] & white)) for r in sorted(red)},
    }


# What a graph stores: its counts and skeleton.  The sink and colors come from colors(),
# names, succ and reach from layout(), first and last from the names, targets from
# _white_targets.
STORED = {"labels", "_skeleton", "_whites", "_reds"}


GUARD_LIMITS = (0, 1, 2, 10, 1000, DEFAULT_SEARCH_LIMIT)


def _assert_matches_definition(g, *inputs):
    want = _by_definition(*inputs)
    assert vars(g).keys() == STORED
    assert len(g._whites) == len(g.labels) and len(g._reds) <= len(g.labels)
    got = derived(g)
    for name, value in want.items():
        assert (got[name] if name in got else getattr(g, name)) == value, name
    # The guard refuses a graph with reds exactly when the reds, or the candidates
    # (the product over reds of their white targets plus one), exceed the limit.
    targets = [want["_white_targets"][r] for r in want["red_order"]]
    candidates = math.prod(len(t) + 1 for t in targets)
    for limit in GUARD_LIMITS:
        refused = bool(targets) and (len(targets) > limit or candidates > limit)
        try:
            enumerate_morphisms(g, limit)
        except ResourceLimitError:
            assert refused, limit
        else:
            assert not refused, limit


@pytest.mark.parametrize("kind,rank", [("D", 5), ("E", 6), ("E", 7)])
def test_graph_matches_its_definition(kind, rank):
    from quivercrystal import ModuleClass, special_orientations
    from quivercrystal.ar_quiver import build_ar, tau_inv_class
    from quivercrystal.dynkin import diagram

    rng = random.Random(rank)
    seen_unit = seen_longer = seen_red_side = 0
    for q in special_orientations(diagram(kind, rank)):
        ar = build_ar(q)
        for i in range(1, rank + 1):
            p = hom_poset(ar, i)
            labels = p.element_ids
            covers = tuple((labels[a], labels[b]) for a, b in p.covers)
            classes = [
                ModuleClass(tuple(rng.choice((0, 0, top)) for _ in range(len(ar))))
                for top in (1, 1, 2, 3)
            ]
            # Two copies of tau B for every label B: red counts of 2 over white counts of 0 or 2.
            taus = set(p.tau_ids) - {None}
            classes.append(ModuleClass(tuple(2 * (x in taus) for x in range(len(ar)))))
            for m in classes:
                tm = tau_inv_class(ar, m)
                whites = {x: m.mults[x] for x in labels}
                reds = {x: tm.mults[x] for x in labels}
                g = build_pm(ar, p, m)
                _assert_matches_definition(g, labels, covers, whites, reds)
                if g.sink == len(labels):
                    seen_unit += 1
                else:
                    seen_longer += 1
                seen_red_side += any(reds[x] > max(1, whites[x]) for x in labels)
    assert seen_unit and seen_longer
    assert seen_red_side


@pytest.mark.parametrize("kind,rank", [("D", 5), ("E", 6)])
def test_build_pm_equals_the_graph_built_from_dicts(kind, rank):
    """build_pm and the public constructor give the same graph, on sparse classes (at most
    6 summands, multiplicity at most 2) and dense ones (every multiplicity in 0..2)."""
    from quivercrystal import ModuleClass, special_orientations
    from quivercrystal.ar_quiver import build_ar, tau_inv_class
    from quivercrystal.dynkin import diagram

    rng = random.Random(100 + rank)
    ar = build_ar(next(iter(special_orientations(diagram(kind, rank)))))
    classes = []
    for _ in range(15):
        mults = [0] * len(ar)
        for _ in range(rng.randrange(7)):
            x = rng.randrange(len(ar))
            mults[x] = min(2, mults[x] + 1)
        classes.append(ModuleClass(tuple(mults)))
        classes.append(ModuleClass(tuple(rng.randrange(3) for _ in range(len(ar)))))
    seen_unit = seen_longer = 0
    for m in classes:
        tm = tau_inv_class(ar, m)
        for i in range(1, rank + 1):
            p = hom_poset(ar, i)
            labels = p.element_ids
            covers = tuple((labels[a], labels[b]) for a, b in p.covers)
            g = build_pm(ar, p, m)
            h = MultiplicityGraph(
                labels,
                covers,
                {x: m.mults[x] for x in labels},
                {x: tm.mults[x] for x in labels},
            )
            assert vars(g) == vars(h), (m.mults, i)
            assert g.layout() == h.layout(), (m.mults, i)
            if g.sink == len(labels):
                seen_unit += 1
            else:
                seen_longer += 1
    assert seen_unit and seen_longer


@pytest.mark.parametrize("kind,rank", [("A", 4), ("D", 4), ("D", 5), ("E", 6)])
def test_skeleton_up_closures_are_the_hom_table(kind, rank):
    """Each label's up-closure, filled from the covers alone, is the positions of the
    other labels it maps to."""
    from quivercrystal import build_ar, diagram, special_orientations

    for q in special_orientations(diagram(kind, rank)):
        ar = build_ar(q)
        for i in range(1, rank + 1):
            labels, _, ups, _ = _poset_skeleton(ar, i)[0]
            for a, x in enumerate(labels):
                assert ups[a] == tuple(
                    b for b, y in enumerate(labels) if b != a and ar.hom_dim(x, y) >= 1
                ), (q.text_spec(), i, x)


def _skeleton_by_hom_dim(ar, i):
    """The skeleton as it was read before the Hom rows: n^2 hom_dim calls and a cubic
    cover scan."""
    labels = tuple(x.id for x in ar.indecs if ar.hom_dim(x, ar.simple(i)) >= 1)
    above = {a: [b for b in labels if b != a and ar.hom_dim(a, b) >= 1] for a in labels}
    covers = [(a, b) for a in labels for b in above[a] if all(b not in above[c] for c in above[a])]
    return MultiplicityGraph(labels, covers, {}, {})._skeleton


@pytest.mark.parametrize("kind,rank", [("D", 4), ("D", 5), ("D", 6), ("D", 7), ("E", 6), ("E", 7)])
def test_skeleton_from_the_hom_rows_is_unchanged(kind, rank):
    """The skeleton read row by row equals the one read by hom_dim calls, and the
    pickers read mu_B and mu_{tau B} at the labels, on every special orientation."""
    from quivercrystal import build_ar, diagram, special_orientations

    for q in special_orientations(diagram(kind, rank)):
        ar = build_ar(q)
        probe = tuple(range(len(ar)))
        for i in range(1, rank + 1):
            sk, pick_white, red_pos, pick_red = _poset_skeleton(ar, i)
            assert sk == _skeleton_by_hom_dim(ar, i), (q.text_spec(), i)
            assert pick_white(probe) == sk[0]
            assert red_pos == tuple(k for k, x in enumerate(sk[0]) if ar.tau_ids[x] is not None)
            assert pick_red(probe) == tuple(ar.tau_ids[sk[0][k]] for k in red_pos)


def test_a_redundant_cover_leaves_the_up_closures_unchanged():
    ar = ar_of(A3_MIDDLE)
    p = hom_poset(ar, 2)
    labels = p.element_ids
    covers = [(labels[a], labels[b]) for a, b in p.covers]
    assert (labels[0], labels[-1]) not in covers  # the diamond's bottom and top
    g = MultiplicityGraph(labels, [*covers, (labels[0], labels[-1])], {}, {})
    assert g._skeleton[2] == _poset_skeleton(ar, 2)[0][2] == ((1, 2, 3), (3,), (3,), ())


def test_five_chain_graph_matches_its_definition():
    g = five_chain_graph()
    _assert_matches_definition(
        g,
        ("B1", "B2", "B3", "B4", "B5"),
        (("B1", "B3"), ("B1", "B4"), ("B2", "B4"), ("B2", "B5")),
        {"B3": 2, "B4": 2, "B5": 1},
        {"B1": 1, "B2": 1},
    )


def test_bad_input_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(DomainError, match="linear extension"):
            MultiplicityGraph(("b", "a"), (("a", "b"),), {}, {})
    for _ in range(2):
        with pytest.raises(DomainError, match="label 'a' is repeated"):
            MultiplicityGraph(("a", "a"), (), {}, {})
        # Every cover is a pair of labels, and every count is keyed by a label.
        for cover in (("a", "z"), ("a",), ("a", "b", "c"), "a", 1):
            message = re.escape(f"cover {cover!r} is not a pair of labels")
            with pytest.raises(DomainError, match=message):
                MultiplicityGraph(("a", "b"), (cover,), {}, {})
        with pytest.raises(DomainError, match="color count at 'zz', which is not a label"):
            MultiplicityGraph(("a", "b"), (("a", "b"),), {"zz": 5}, {})
        with pytest.raises(DomainError, match="color count at 'zz', which is not a label"):
            MultiplicityGraph(("a", "b"), (("a", "b"),), {}, {"zz": 0})
        # A count is an int >= 0: nothing is clamped or coerced.
        for count in (-1, 1.0, True, "1"):
            with pytest.raises(DomainError, match=f"color count {count!r} at 'b' is not"):
                MultiplicityGraph(("a", "b"), (("a", "b"),), {"b": count}, {})
            with pytest.raises(DomainError, match=f"color count {count!r} at 'a' is not"):
                MultiplicityGraph(("a", "b"), (("a", "b"),), {}, {"a": count})


def test_empty_graph_is_one_sink():
    g = MultiplicityGraph((), (), {}, {})
    _, succ, reach = g.layout()
    assert g.nodes == (0,) and g.sink == 0 and succ == ((),) and reach == (frozenset({0}),)
    d = derived(g)
    assert g.labels == () and d["first"] == d["last"] == {} and node_label(g, 0) == "inf"
    assert g.white == g.red == frozenset() and g.red_order == () and _white_targets(g) == []
    assert min_epsilon(g) == 0


def test_covers_may_be_a_list_of_pairs():
    g = MultiplicityGraph(("a", "b", "c"), [["a", "b"], ("a", "c")], {"b": 2}, {"a": 1})
    h = MultiplicityGraph(("a", "b", "c"), (("a", "b"), ("a", "c")), {"b": 2}, {"a": 1})
    assert vars(g) == vars(h)


def test_graphs_of_one_poset_share_no_mutable_attribute():
    ar = ar_of(A3_MIDDLE)
    p = hom_poset(ar, 2)
    pairs = [
        (zero_module(ar), module_from_dim_dict(ar, {(0, 1, 0): 1})),  # unit chains
        (module_from_dim_dict(ar, {(0, 1, 0): 2}), worked_graph()[1]),  # longer chains
    ]
    for m1, m2 in pairs:
        g1 = build_pm(ar, p, m1)
        before = copy.deepcopy(vars(g1))
        g2 = build_pm(ar, p, m2)
        assert vars(g1) == before
        for part, other in zip(g1.layout(), g2.layout()):
            assert part is not other


def test_dot_output_is_unchanged(capsys):
    """SHA-256 of the worked example's `epsilon --pm-dot` output and of the five-chain
    graph's DOT text, both recorded before nodes and covers were derived on read."""
    from quivercrystal.cli import main

    code = main(["epsilon", "--quiver", A3_MIDDLE, "--module",
                 '{"1,1,1":2,"1,0,0":1,"0,1,1":1,"0,1,0":1}', "-i", "2", "--pm-dot"])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "415e3118dfbdb9a121a2bcaadaff613b108fbbb52671b7ceb55fcc05fa02047d"
    )
    assert hashlib.sha256(five_chain_graph().to_dot().encode()).hexdigest() == (
        "9e5f5b4ad7b298fb84f30bca5c5d644422784b7e570694b6d889d1e5002d68c0"
    )


def test_to_dot_memory_is_linear_in_the_nodes():
    """2,000 copies of (1,1,1) at vertex 2: two chains of 2,000 in a 4,003-node graph.  DOT
    reads names and successors alone, so no per-node reach set is built (333 MiB did)."""
    ar = ar_of(A3_MIDDLE)
    g = build_pm(ar, hom_poset(ar, 2), module_from_dim_dict(ar, {(1, 1, 1): 2000}))
    assert len(g.nodes) == 4003
    tracemalloc.start()
    try:
        dot = g.to_dot()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dot.count("\n") == 8009
    assert peak < 20 * 2**20, peak


def _reds_without_whites_above(n):
    """n copies of (1,1,1) at vertex 2: n reds, none of them below a white."""
    ar = ar_of(A3_MIDDLE)
    m = module_from_dim_dict(ar, {(1, 1, 1): n})
    g = build_pm(ar, hom_poset(ar, 2), m)
    assert len(g.red_order) == n and not any(_white_targets(g))
    return ar, m, g


def test_more_reds_than_the_limit_are_refused_from_the_counts():
    """10^23 reds with no white above them give one candidate but are refused by their count
    before any per-red work; 10^23 whites with no red are answered from their count."""
    ar = ar_of(A3_MIDDLE)
    p = hom_poset(ar, 2)
    g = build_pm(ar, p, module_from_dim_dict(ar, {(1, 1, 1): 10**23}))
    for search in (min_epsilon, enumerate_morphisms):
        with pytest.raises(ResourceLimitError, match=f"search over {10**23} red nodes exceeds"):
            search(g)
        with pytest.raises(ResourceLimitError, match="red nodes exceeds 1499$"):
            search(_reds_without_whites_above(1500)[2], limit=1499)
    m = module_from_dim_dict(ar, {(0, 1, 0): 10**23})
    assert min_epsilon(build_pm(ar, p, m), limit=0) == epsilon_i(ar, m, 2) == 10**23


def test_searches_answer_more_red_nodes_than_the_recursion_limit():
    """Every red has only the sink to go to; a search that recursed once per red
    would pass Python's recursion limit here."""
    ar, m, g = _reds_without_whites_above(1500)
    assert min_epsilon(g) == epsilon_i(ar, m, 2) == 1500
    assert list(enumerate_morphisms(g)) == [AMorphism((g.sink,) * 1500)]
