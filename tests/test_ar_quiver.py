import json
from collections import defaultdict

import pytest

from conftest import (
    A2, A3_LINEAR, A3_MIDDLE, ar_of, ext_dim, hom_to_simple, injective, projective, tau_inv,
)
from oracle import HomOracle
from quivercrystal import (
    DomainError,
    all_orientations,
    build_ar,
    diagram,
    module_from_dim_dict,
    module_from_json,
    module_to_json,
    parse_quiver,
    positive_roots,
    ringel_form,
    special_orientations,
    tau_inv_class,
    thick_vertices,
    zero_module,
)


def worked_class(ar):
    return module_from_dim_dict(
        ar, {(1, 1, 1): 2, (1, 0, 0): 1, (0, 1, 1): 1, (0, 1, 0): 1}
    )


def test_a2_hand_knit():
    ar = ar_of(A2)
    dims = {x.dim for x in ar.indecs}
    assert dims == {(1, 0), (1, 1), (0, 1)}
    assert projective(ar, 1).dim == (1, 0)
    assert projective(ar, 2).dim == (1, 1)
    assert injective(ar, 2).dim == (0, 1)
    assert ar.tau(ar.simple(2)).dim == (1, 0)


def test_a3_middle_tau_links():
    ar = ar_of(A3_MIDDLE)
    assert ar.tau(ar.by_dim[(0, 1, 0)]).dim == (1, 1, 1)
    assert tau_inv(ar, ar.by_dim[(1, 0, 0)]).dim == (0, 1, 1)


def test_a1_single_indec():
    ar = ar_of("A1:")
    assert len(ar) == 1
    x = ar.indecs[0]
    assert x.is_projective and x.is_injective
    assert ar.tau(x) is None and tau_inv(ar, x) is None


def test_tau_projective_absent_and_round_trip():
    for spec in (A2, A3_LINEAR, A3_MIDDLE, "D4: 1->2, 3->2, 4->2"):
        ar = ar_of(spec)
        for x in ar.indecs:
            assert (ar.tau(x) is None) == x.is_projective
            assert (tau_inv(ar, x) is None) == x.is_injective
            if not x.is_projective:
                assert tau_inv(ar, ar.tau(x)) == x


def test_every_root_appears_once():
    for d in (diagram("A", 4), diagram("D", 4), diagram("D", 5), diagram("E", 6)):
        for q in all_orientations(d):
            ar = build_ar(q)
            assert sorted(x.dim for x in ar.indecs) == sorted(positive_roots(d))
            for i in range(1, d.rank + 1):
                want = tuple(
                    len(_directed_paths(q, i, j)) for j in range(1, d.rank + 1)
                )
                assert projective(ar, i).dim == want


def _directed_paths(q, src, dst):
    if src == dst:
        return [(src,)]
    out = []
    for a, b in q.arrows:
        if a == src:
            out += [(src,) + p for p in _directed_paths(q, b, dst)]
    return out


def test_mesh_additivity_explicit():
    for d in (diagram("A", 4), diagram("D", 4), diagram("D", 5), diagram("E", 6)):
        for q in all_orientations(d):
            ar = build_ar(q)
            into = defaultdict(list)
            for a, b in ar.arrows:
                into[b].append(a)
            for z in ar.indecs:
                tz = ar.tau(z)
                if tz is None:
                    continue
                mids = [ar.indecs[a].dim for a in into[z.id]]
                summed = tuple(sum(v) for v in zip(*mids))
                assert summed == tuple(a + b for a, b in zip(tz.dim, z.dim))


def test_arrows_symmetric_under_meshes():
    ar = ar_of(A3_MIDDLE)
    outs = defaultdict(set)
    ins = defaultdict(set)
    for a, b in ar.arrows:
        outs[a].add(b)
        ins[b].add(a)
    for z in ar.indecs:
        tz = ar.tau(z)
        if tz is None:
            continue
        # arrows into z correspond to arrows out of tau z
        assert {ar.indecs[a].dim for a in ins[z.id]} == {
            ar.indecs[b].dim for b in outs[tz.id]
        }


def test_hom_examples():
    ar = ar_of(A3_MIDDLE)
    for x in ar.indecs:
        assert ar.hom_dim(x, x) == 1
    assert ar.hom_dim(ar.by_dim[(0, 1, 1)], ar.by_dim[(1, 1, 1)]) == 0
    assert ar.hom_dim(ar.by_dim[(1, 1, 1)], ar.by_dim[(0, 1, 1)]) == 1
    oracle = HomOracle(ar.quiver)
    assert oracle.hom((0, 1, 1), (1, 1, 1)) == 0
    assert oracle.hom((1, 1, 1), (0, 1, 1)) == 1


def test_hom_matches_matrix_oracle():
    diagrams = [diagram("A", n) for n in (1, 2, 3, 4)] + [diagram("D", 4)]
    for d in diagrams:
        for q in all_orientations(d):
            ar = build_ar(q)
            oracle = HomOracle(q)
            for x in ar.indecs:
                for y in ar.indecs:
                    assert ar.hom_dim(x, y) == oracle.hom(x.dim, y.dim), (
                        q.text_spec(),
                        x.dim,
                        y.dim,
                    )


def test_hom_minus_ext_equals_ringel():
    diagrams = [diagram("A", 4), diagram("D", 4), diagram("E", 6)]
    for d in diagrams:
        for q in all_orientations(d):
            ar = build_ar(q)
            for x in ar.indecs:
                for y in ar.indecs:
                    assert ar.hom_dim(x, y) - ext_dim(ar, x, y) == ringel_form(
                        q, x.dim, y.dim
                    )


def test_ext_via_tau_convention():
    ar = ar_of(A3_MIDDLE)
    for x in ar.indecs:
        for y in ar.indecs:
            if x.is_projective:
                assert ext_dim(ar, x, y) == 0
            else:
                assert ext_dim(ar, x, y) == ar.hom_dim(y, ar.tau(x))


def test_hom_to_simple_examples():
    ar = ar_of(A3_MIDDLE)
    assert hom_to_simple(ar, zero_module(ar), 2) == 0
    m1 = module_from_dim_dict(ar, {(0, 1, 0): 1})
    assert hom_to_simple(ar, m1, 2) == 1
    assert hom_to_simple(ar, worked_class(ar), 2) == 4


def test_special_quivers():
    for n in (1, 2, 3, 4, 5):
        for q in all_orientations(diagram("A", n)):
            assert build_ar(q).is_special()
    assert not ar_of("D4: 2->1, 2->3, 2->4").is_special()
    e8 = all_orientations(diagram("E", 8))
    for q in (e8[0], e8[37], e8[127]):
        assert not build_ar(q).is_special()


def test_special_hom_bound():
    for spec in (A3_LINEAR, A3_MIDDLE, "D4: 1->2, 3->2, 4->2"):
        ar = ar_of(spec)
        assert ar.is_special()
        for i in range(1, ar.rank + 1):
            s = ar.simple(i)
            for x in ar.indecs:
                assert ar.hom_dim(x, s) in (0, 1)


def test_thick_vertices():
    assert thick_vertices(ar_of("A4: 1->2, 2->3, 3->4")) == frozenset()
    assert thick_vertices(ar_of("D4: 1->2, 3->2, 4->2")) == frozenset({2})
    ar_e6 = build_ar(all_orientations(diagram("E", 6))[0])
    roots = positive_roots(diagram("E", 6))
    by_scan = {i for i in range(1, 7) if any(r[i - 1] >= 2 for r in roots)}
    assert thick_vertices(ar_e6) == frozenset(by_scan)
    assert by_scan == {2, 3, 4, 6}  # everything but the two long-arm ends


def test_special_orientations_match_brute_force():
    for d in (diagram("A", 4), diagram("D", 4), diagram("D", 5), diagram("E", 6)):
        expected = tuple(
            q for q in all_orientations(d) if build_ar(q).is_special()
        )
        assert special_orientations(d) == expected


def test_special_orientation_counts():
    assert len(special_orientations(diagram("A", 3))) == 4
    assert len(special_orientations(diagram("E", 8))) == 0
    assert len(special_orientations(diagram("D", 4))) == 7


def test_e7_sources_covered_by_single_minuscule_vertex():
    d = diagram("E", 7)
    thick = {i for i in range(1, 8) if any(r[i - 1] >= 2 for r in positive_roots(d))}
    assert thick == set(range(1, 8)) - {6}
    for q in special_orientations(d):
        assert set(q.sources()) <= {6}


def test_module_class_json_round_trip():
    ar = ar_of(A3_MIDDLE)
    m = worked_class(ar)
    text = module_to_json(ar, m)
    assert text == '{"0,1,0":1,"0,1,1":1,"1,0,0":1,"1,1,1":2}'
    assert module_from_json(ar, text) == m
    with pytest.raises(DomainError):
        module_from_dim_dict(ar, {(1, 0, 1): 1})


def test_module_from_dim_dict_refuses_rather_than_coerces():
    """A key is a tuple of ints naming an indecomposable and a count an int >= 0; anything
    else is a DomainError, never a coerced class or another exception."""
    ar = ar_of(A2)
    for count in (1.5, True, "1", None):
        with pytest.raises(DomainError, match=f"multiplicity {count!r} for \\(1, 0\\) is not"):
            module_from_dim_dict(ar, {(1, 0): count})
    with pytest.raises(DomainError, match=r"negative multiplicity for \(1, 0\)"):
        module_from_dim_dict(ar, {(1, 0): -1})
    for key in (5, None, "1,0", (1.0, 0), (True, False), ("1", "0"), (1, 0, 0)):
        with pytest.raises(DomainError, match="is not an indecomposable dimension vector"):
            module_from_dim_dict(ar, {key: 1})
    assert module_from_dim_dict(ar, {(1, 0): 2}).mults == (2, 0, 0)


def test_tau_inv_class_of_worked_example():
    ar = ar_of(A3_MIDDLE)
    tm = tau_inv_class(ar, worked_class(ar))
    assert module_to_json(ar, tm) == '{"0,1,0":2,"0,1,1":1}'


def test_ar_json_shape():
    ar = ar_of(A2)
    doc = json.loads(ar.to_json())
    assert [x["dim"] for x in doc["indecs"]] == [[1, 0], [1, 1], [0, 1]]
    assert doc["indecs"][0]["proj"] == 1
    assert doc["tau"] == [[2, 0]]
    assert doc["arrows"] == [[0, 1], [1, 2]]


def test_deterministic_indec_order():
    ar1 = build_ar(parse_quiver(A3_MIDDLE))
    ar2 = build_ar(parse_quiver(A3_MIDDLE))
    assert [x.dim for x in ar1.indecs] == [x.dim for x in ar2.indecs]
    assert ar1.to_json() == ar2.to_json()
