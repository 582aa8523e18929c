"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import functools
import itertools
import random
import time

from conftest import maximum, minimum, projective
from reference import antichain_leq, compare_orientations
from quivercrystal import (
    ModuleClass,
    antichains,
    build_ar,
    build_pm,
    diagram,
    e_tilde,
    epsilon_i,
    f_tilde,
    generate,
    hom_poset,
    kostant_count,
    min_epsilon,
    module_from_dim_dict,
    module_to_json,
    all_orientations,
    parse_quiver,
    phi_i,
    coroot_pairing,
    special_orientations,
    weight_of,
)
from preorder import (
    F_of_subset,
    closure_H,
    closure_antichain,
    enumerate_morphisms,
    eps_of,
    node_label,
    preceq_minimal_morphisms,
)

A3_LINEAR = "A3: 3->2, 2->1"
A3_MIDDLE = "A3: 2->1, 2->3"


def _report(name: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    line = f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)"
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s budget ({elapsed:.2f}s)"
        line += f" [budget {budget:.0f}s]"
    print(line)


@functools.lru_cache(maxsize=None)
def _sample_pool():
    """The shared random sample for criteria 5 and 6."""
    ars = []
    for d in (diagram("A", 3), diagram("A", 4), diagram("D", 4)):
        ars += [build_ar(q) for q in special_orientations(d)]
    rng = random.Random(20260809)
    samples = []
    for _ in range(500):
        ar = ars[rng.randrange(len(ars))]
        mults = [0] * len(ar)
        for _ in range(rng.randrange(7)):
            x = rng.randrange(len(ar))
            if mults[x] < 2 and sum(mults) < 6:
                mults[x] += 1
        samples.append((ar, ModuleClass(tuple(mults))))
    return samples


def test_criterion_1_linear_chain_poset():
    started = time.perf_counter()
    ar = build_ar(parse_quiver(A3_LINEAR))
    p = hom_poset(ar, 3)
    assert len(p) == 3
    assert minimum(p) == projective(ar, 3)
    assert maximum(p) == ar.simple(3)
    for a in range(3):
        for b in range(3):
            assert bool(p.above[a] >> b & 1) == (a <= b)
    chains = antichains(p)
    assert len(chains) == 3
    assert all(len(a.members) == 1 for a in chains)
    assert {a.members[0] for a in chains} == set(p.element_ids)
    _report("1 (end-vertex chain poset)", started, budget=1.0)


def _maximal_chains(p, chains):
    below = {
        (v, w): antichain_leq(p, v, w) and v != w
        for v in chains
        for w in chains
    }
    covers = {
        v: [
            w
            for w in chains
            if below[(v, w)]
            and not any(below[(v, u)] and below[(u, w)] for u in chains)
        ]
        for v in chains
    }
    minimal = [v for v in chains if not any(below[(w, v)] for w in chains)]
    out = []

    def extend(path):
        succs = covers[path[-1]]
        if not succs:
            out.append(tuple(path))
            return
        for w in succs:
            extend(path + [w])

    for v in minimal:
        extend([v])
    return out


def test_criterion_2_middle_vertex_antichains():
    started = time.perf_counter()
    ar = build_ar(parse_quiver(A3_MIDDLE))
    p = hom_poset(ar, 2)
    assert len(p) == 4
    chains = antichains(p)
    assert len(chains) == 5
    non_singletons = [a for a in chains if len(a.members) > 1]
    assert len(non_singletons) == 1
    pair = non_singletons[0]
    assert {ar.indecs[x].dim for x in pair.members} == {(0, 1, 1), (1, 1, 0)}

    maximal_chains = _maximal_chains(p, chains)
    def dims(chain):
        return tuple(
            tuple(sorted(ar.indecs[x].dim for x in a.members)) for a in chain
        )
    got = {dims(c) for c in maximal_chains}
    bottom, top = ((1, 1, 1),), ((0, 1, 0),)
    middle = tuple(sorted([(0, 1, 1), (1, 1, 0)]))
    want = {
        (bottom, ((0, 1, 1),), middle, top),
        (bottom, ((1, 1, 0),), middle, top),
    }
    assert got == want
    _report("2 (middle-vertex antichain order)", started)


def test_criterion_3_special_classification():
    started = time.perf_counter()
    for n in range(1, 6):
        orientations = all_orientations(diagram("A", n))
        assert len(orientations) == 2 ** (n - 1)
        assert all(build_ar(q).is_special() for q in orientations)
    e8 = diagram("E", 8)
    assert len(all_orientations(e8)) == 128
    assert special_orientations(e8) == ()
    for d in (diagram("A", 4), diagram("D", 4), diagram("D", 5), diagram("E", 6)):
        by_criterion = set(special_orientations(d))
        by_definition = {q for q in all_orientations(d) if build_ar(q).is_special()}
        assert by_criterion == by_definition
    _report("3 (special-orientation classification)", started, budget=30.0)


def _classes_of_total_dim(ar, max_total):
    heights = [sum(x.dim) for x in ar.indecs]
    out = []

    def rec(idx, left, acc):
        if idx == len(heights):
            out.append(tuple(acc))
            return
        for k in range(left // heights[idx] + 1):
            acc.append(k)
            rec(idx + 1, left - k * heights[idx], acc)
            acc.pop()

    rec(0, max_total, [])
    return out


def test_criterion_4_operator_identities():
    started = time.perf_counter()
    quivers = list(special_orientations(diagram("A", 3)))
    quivers += list(special_orientations(diagram("D", 4)))
    violations = 0
    for q in quivers:
        ar = build_ar(q)
        n = ar.rank
        for mults in _classes_of_total_dim(ar, 8):
            m = ModuleClass(mults)
            wt = weight_of(ar, m)
            dim = m.dimension_vector(ar)
            for i in range(1, n + 1):
                eps = epsilon_i(ar, m, i)
                x = f_tilde(ar, m, i)
                if e_tilde(ar, x, i) != m:
                    violations += 1
                if eps > 0 and f_tilde(ar, e_tilde(ar, m, i), i) != m:
                    violations += 1
                if epsilon_i(ar, x, i) != eps + 1:
                    violations += 1
                if weight_of(ar, x) != tuple(
                    w - (1 if j == i - 1 else 0) for j, w in enumerate(wt)
                ):
                    violations += 1
                if phi_i(ar, m, i) != eps + coroot_pairing(q, i, wt):
                    violations += 1
    assert violations == 0
    _report("4 (operator identities, total dim <= 8)", started)


def test_criterion_5_min_max_identity():
    started = time.perf_counter()
    samples = _sample_pool()
    assert len(samples) >= 500
    violations = 0
    for ar, m in samples:
        for i in range(1, ar.rank + 1):
            g = build_pm(ar, hom_poset(ar, i), m)
            if min_epsilon(g) != epsilon_i(ar, m, i):
                violations += 1
    assert violations == 0
    _report("5 (min-max identity on 500 samples)", started, budget=60.0)


def test_criterion_6_minimal_morphism_antichains():
    started = time.perf_counter()
    samples = _sample_pool()
    for ar, m in samples:
        for i in range(1, ar.rank + 1):
            eps = epsilon_i(ar, m, i)
            if eps == 0:
                continue
            g = build_pm(ar, hom_poset(ar, i), m)
            minimal = preceq_minimal_morphisms(g)
            assert minimal
            names, _, reach = g.layout()
            carried = set()
            for phi in minimal:
                closed = closure_H(g, phi, g.white - phi.image(g))
                assert g.sink not in closed
                assert F_of_subset(g, closed) == eps_of(g, phi) == eps
                maximal = [u for u in closed if reach[u] & closed == {u}]
                carried.add(tuple(sorted({node_label(g, u) for u in maximal})))
            assert len(carried) == 1
            v = closure_antichain(g)
            assert v.members == next(iter(carried))
            # the raising operator removes exactly this antichain
            raised = e_tilde(ar, m, i)
            removed = {
                x for x in range(len(ar)) if m.mults[x] > raised.mults[x]
            }
            assert set(v.members) == removed
            # each member is left unmatched by some morphism attaining eps
            all_morphs = None
            for b in v.members:
                copies = {names.index((b, p + 1)) for p in range(m.mults[b])}
                if any(copies - phi.image(g) for phi in minimal):
                    continue
                if all_morphs is None:
                    all_morphs = [
                        phi
                        for phi in enumerate_morphisms(g)
                        if eps_of(g, phi) == eps
                    ]
                assert any(copies - phi.image(g) for phi in all_morphs), (
                    module_to_json(ar, m),
                    i,
                    b,
                )
    _report("6 (minimal-morphism antichain laws)", started)


def test_criterion_7_worked_instance():
    started = time.perf_counter()
    ar = build_ar(parse_quiver(A3_MIDDLE))
    m = module_from_dim_dict(
        ar, {(1, 1, 1): 2, (1, 0, 0): 1, (0, 1, 1): 1, (0, 1, 0): 1}
    )
    assert epsilon_i(ar, m, 2) == 2
    assert (
        module_to_json(ar, f_tilde(ar, m, 2))
        == '{"0,1,0":1,"0,1,1":2,"1,0,0":1,"1,1,0":1,"1,1,1":1}'
    )
    assert (
        module_to_json(ar, e_tilde(ar, m, 2))
        == '{"0,0,1":1,"0,1,0":1,"0,1,1":1,"1,0,0":2,"1,1,1":1}'
    )
    g = build_pm(ar, hom_poset(ar, 2), m)
    names = g.layout()[0]
    assert [sum(lab == l for lab, _ in names) for l in g.labels] == [2, 1, 1, 2]
    assert [ar.indecs[l].dim for l in g.labels] == [
        (1, 1, 1),
        (0, 1, 1),
        (1, 1, 0),
        (0, 1, 0),
    ]
    _report("7 (worked instance)", started)


def test_criterion_8_global_crystal_shape():
    started = time.perf_counter()
    for d in (diagram("A", 2), diagram("A", 3), diagram("D", 4)):
        quivers = special_orientations(d)
        for q in quivers:
            ar = build_ar(q)
            g = generate(ar, 6)
            seen = set(g.vertices)
            for mults in _classes_of_total_dim(ar, 6):
                assert mults in seen
            by_dim = {}
            for k in g.vertices:
                dv = ModuleClass(k).dimension_vector(ar)
                by_dim[dv] = by_dim.get(dv, 0) + 1
            for dv, count in by_dim.items():
                assert count == kostant_count(q, dv), (q.text_spec(), dv)
        for qa, qb in itertools.combinations(quivers, 2):
            assert compare_orientations(qa, qb, 6)
    _report("8 (global crystal shape, depth 6)", started, budget=30.0)
