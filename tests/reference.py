"""Reference definitions the suite checks the library and the paper's claims against.

The package does not export these; nothing but the tests calls them.

* `compare_orientations`: the crystal graph does not depend on the special
  orientation.  Each bounded graph's vertices are numbered in the order a
  breadth-first walk from the root reaches them, taking the labels 1..rank in
  turn, and the two sorted, numbered edge lists are compared; a vertex the walk
  misses makes the answer False.
* `antichain_leq` and `exchange_set`: the antichain order and the exchange sets
  of a vertex poset, which the table pins in `output_pins.json` cover.
* `ringel_form`: the Euler form of an orientation, dim Hom - dim Ext^1.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from conftest import pos
from quivercrystal import crystal_graph, crystal_ops
from quivercrystal.ar_quiver import build_ar
from quivercrystal.errors import DomainError


def compare_orientations(q1, q2, depth: int) -> bool:
    """Whether the bounded graphs agree once each is numbered by a breadth-first walk."""
    if q1.diagram != q2.diagram:
        raise DomainError("orientations of different diagrams cannot be compared")
    ar1, ar2 = build_ar(q1), build_ar(q2)
    if not (ar1.is_special() and ar2.is_special()):
        raise DomainError("both orientations must be special")
    rank = q1.diagram.rank
    edges1 = _numbered_edges(crystal_graph.generate(ar1, depth), rank)
    return edges1 is not None and edges1 == _numbered_edges(crystal_graph.generate(ar2, depth), rank)


def _numbered_edges(g, rank: int) -> list[tuple[int, int, int]] | None:
    """The sorted edges, each vertex numbered in the order a breadth-first walk from the root
    reaches it, taking labels 1..rank in turn; None when the walk misses a vertex."""
    out = {(s, i): t for s, i, t in g.edges}
    root = g.levels[0][0]
    order = [root]
    number = {root: 0}
    for u in order:  # the list grows as the walk reaches new vertices
        for i in range(1, rank + 1):
            t = out.get((u, i))
            if t is not None and t not in number:
                number[t] = len(order)
                order.append(t)
    if len(number) != len(g.vertices):
        return None
    return sorted([(number[s], i, number[t]) for s, i, t in g.edges])


def antichain_leq(p, v, w) -> bool:
    """v <= w iff every member of v has a nonzero map to some member of w."""
    down = reduce(or_, [p.below[pos(p, c)] for c in w.members])
    return all(down >> pos(p, b) & 1 for b in v.members)


def exchange_set(p, v) -> tuple:
    """Minimal elements among those not below v; their tau translates get swapped."""
    return tuple([p.elements[b] for b in crystal_ops._exchange(p, crystal_ops._downset(p, v))])


def ringel_form(q, d, e) -> int:
    """Euler form of the orientation: sum_i d_i e_i - sum_{a->b} d_a e_b.

    For modules with these dimension vectors this equals dim Hom - dim Ext^1.
    """
    total = sum(x * y for x, y in zip(d, e))
    for a, b in q.arrows:
        total -= d[a - 1] * e[b - 1]
    return total
