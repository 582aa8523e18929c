"""Property tests over random classes with multiplicities at most 2.

Classes are drawn on every special orientation of A3, A4 and D4; the
settings are derandomized so the suite stays deterministic.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from quivercrystal import (
    ModuleClass,
    build_ar,
    build_pm,
    e_tilde,
    enumerate_morphisms,
    eps_of,
    epsilon_i,
    f_tilde,
    hom_poset,
    min_epsilon,
    module_from_json,
    module_to_json,
    special_orientations,
    weight_of,
)
from quivercrystal.dynkin import diagram

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
