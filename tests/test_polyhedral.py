"""generate's graph on isomorphism classes against the polyhedral realization of B(infinity).

check_axioms checks local axioms against the operators that built the graph; this test checks
the whole bounded graph, with epsilon, phi and weight at every vertex, against a realization
that shares no code with them (tests/polyhedral.py).
"""

import pytest

from polyhedral import Polyhedral, TruncationError
from quivercrystal import build_ar, generate, special_orientations
from quivercrystal.dynkin import diagram

DEPTHS = {("A", 2): 8, ("A", 3): 6, ("A", 4): 4, ("A", 5): 3, ("D", 4): 4, ("D", 5): 3,
          ("E", 6): 3}
CASES = [(q, depth) for (t, n), depth in DEPTHS.items()
         for q in special_orientations(diagram(t, n))]


@pytest.mark.parametrize("q, depth", CASES, ids=lambda c: str(c))
def test_bounded_graph_is_the_polyhedral_crystal(q, depth):
    g = generate(build_ar(q), depth)
    n = q.diagram.rank
    nz = Polyhedral(q.diagram, depth + 2)
    out = {(s, i): t for s, i, t in g.edges}
    image = {g.root: (0,) * len(nz.word)}
    preimage = {image[g.root]: g.root}
    for level in g.levels:  # rooted, label-matching: f_i of a matched pair is a matched pair
        for key in level:
            x = image[key]
            for i in range(1, n + 1):
                if g.vertices[key].level == depth:
                    assert (key, i) not in out
                    continue
                tgt, y = out[key, i], nz.f(x, i)
                assert image.setdefault(tgt, y) == y
                assert preimage.setdefault(y, tgt) == tgt
    assert len(image) == len(preimage) == len(g.vertices)
    for key, data in g.vertices.items():
        x = image[key]
        assert data.level == sum(x)
        assert data.weight == nz.weight(x)
        assert data.epsilon == tuple(nz.epsilon(x, i) for i in range(1, n + 1))
        assert data.phi == tuple(nz.phi(x, i) for i in range(1, n + 1))
    for s, i, t in g.edges:
        assert nz.e(image[t], i) == image[s]
    assert nz.e(image[g.root], 1) is None


def test_a_step_into_the_last_period_raises():
    a2 = diagram("A", 2)
    # f_1 f_2 (0) is x_3 = 1 for the word 1, 2, 1, 2, ...: inside three periods, not two.
    assert Polyhedral(a2, 3).f(Polyhedral(a2, 3).f((0,) * 6, 2), 1) == (0, 1, 1, 0, 0, 0)
    with pytest.raises(TruncationError):
        Polyhedral(a2, 2).f(Polyhedral(a2, 2).f((0,) * 4, 2), 1)
