"""Exhaustive reference for the morphism preorder on a multiplicity graph.

Morphisms send each red node to a white node at or above it, injectively off
the sink (Kashiwara-Saito, Duke Math. J. 89 (1997)).  Here they are listed
one by one, ordered by pushing images along paths, and the closure of the
unmatched whites of a minimal one is collapsed to a poset antichain.  The
library's `min_epsilon` prunes the same search; this module enumerates it
all, so the suite can check the min-max identity, the closure antichain
against the raising operator, and the acceptance criteria by brute force.
`enumerate_morphisms` refuses through the library's search guard, so the
tests check the guard through it.  `layout` builds the node names,
successors and reach sets node by node, in one sweep from the sink down; the
library reads its `reach` off the label counts instead, and the tests check
that closed form against this sweep.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, NamedTuple

from quivercrystal.crystal_ops import Antichain
from quivercrystal.errors import DEFAULT_SEARCH_LIMIT, DomainError, InvariantViolation
from quivercrystal.pm_graph import MultiplicityGraph, _guard_search_space, _white_targets


def layout(g: MultiplicityGraph) -> tuple[list, tuple, tuple]:
    """(names, succ, reach) from the offsets in one O(nodes) sweep, never cached.

    names[u] is (label, position in its chain), ("inf", 0) at the sink; succ[u]
    the sorted successors of u; reach[u] the nodes u reaches, u included.
    """
    firsts = g._offsets()
    names, succ = _chains(g.labels, g._skeleton[1], firsts)
    # Every successor comes after its node, so one sweep from the sink down
    # gives each node's reach from its successors' reach.
    sink = firsts[-1]
    reach: list = [None] * (sink + 1)
    reach[sink] = frozenset((sink,))
    for u in range(sink - 1, -1, -1):
        vs = succ[u]
        r = reach[vs[0]]  # a copy plus one node is cheaper than a union from scratch
        if len(vs) > 1:
            r = r.union(*[reach[v] for v in vs[1:]])
        reach[u] = r | {u}
    if any(sink not in r for r in reach):
        raise InvariantViolation("sink not reachable from every node")
    return names, succ, tuple(reach)


def _chains(labels: tuple, heads: tuple, firsts) -> tuple[list, tuple]:
    """Node names and sorted successors of the chain-expanded graph, in O(nodes).

    Label k's chain runs from node firsts[k] to firsts[k + 1] - 1; the last
    entry of `firsts` is the sink.  Each chain node points to the next one, and
    a chain's last node to the first nodes of the chains over it (or the sink).
    """
    sink = firsts[-1]
    names = [(lab, p) for lab, a, b in zip(labels, firsts, firsts[1:]) for p in range(1, b - a + 1)]
    names.append(("inf", 0))
    succ = [(v,) for v in range(1, sink + 1)]
    for end, hs in zip(firsts[1:], heads):
        succ[end - 1] = tuple([firsts[h] for h in hs]) or (sink,)
    succ.append(())
    return names, tuple(succ)


class AMorphism(NamedTuple):
    """A morphism out of the red set: targets aligned with `graph.red_order`."""

    targets: tuple[int, ...]

    def mapping(self, g: MultiplicityGraph) -> dict[int, int]:
        firsts, _, red_order = g.colors()  # the sink goes to itself
        return dict(zip(red_order + firsts[-1:], self.targets + firsts[-1:]))

    def image(self, g: MultiplicityGraph) -> frozenset[int]:
        return frozenset(self.targets)


def enumerate_morphisms(
    g: MultiplicityGraph, limit: int = DEFAULT_SEARCH_LIMIT
) -> Iterator[AMorphism]:
    """All morphisms red -> white, each exactly once, in DFS order."""
    _guard_search_space(g, limit)
    return _morphisms(_white_targets(g), g.sink, [], set())


def _morphisms(targets: list, sink: int, chosen: list, used: set[int]) -> Iterator[AMorphism]:
    """The morphisms that send the first len(chosen) reds to `chosen`.

    `used` holds the whites in `chosen`.  Each further red takes a free white
    among its targets or the sink, in that order.  The sink branch is taken in
    this frame, so the recursion is only as deep as the reds that take a white.
    """
    start = len(chosen)
    for red_targets in targets[start:]:
        for w in red_targets:
            if w not in used:
                chosen.append(w)
                used.add(w)
                yield from _morphisms(targets, sink, chosen, used)
                used.discard(w)
                chosen.pop()
        chosen.append(sink)
    yield AMorphism(tuple(chosen))
    del chosen[start:]


def eps_of(g: MultiplicityGraph, phi: AMorphism) -> int:
    """Number of white nodes missed by the image of the red set."""
    return len(g.white - phi.image(g))


def F_of_subset(g: MultiplicityGraph, nodes) -> int:
    """Whites minus reds inside the subset."""
    s = frozenset(nodes)
    _, white, red_order = g.colors()
    return len(s & white) - len(s.intersection(red_order))


def down_closure(g: MultiplicityGraph, nodes) -> frozenset[int]:
    """Everything at or below some node of the subset."""
    return _down(layout(g)[2], frozenset(nodes))


def _down(reach: tuple, s: frozenset[int]) -> frozenset[int]:
    return frozenset(u for u, up in enumerate(reach) if not up.isdisjoint(s))


def closure_H(g: MultiplicityGraph, phi: AMorphism, nodes) -> frozenset[int]:
    """Least fixed point of V -> (phi(red below V) union V) downward-closed."""
    mapping = phi.mapping(g)
    red = g.red
    reach = layout(g)[2]
    cur = frozenset(nodes)
    while True:
        moved = {mapping[r] for r in red & _down(reach, cur)}
        nxt = _down(reach, moved | cur)
        if nxt == cur:
            return cur
        cur = nxt


def _image_pushes(reach: tuple, sink: int, src: frozenset[int], dst: frozenset[int]) -> bool:
    """Whether some endomorphism of the whites carries src onto dst as sets."""
    src_w = sorted(src - {sink})
    dst_w = sorted(dst - {sink})
    spare = len(src_w) - len(dst_w)
    # The spare src whites go to the sink, so it is in dst exactly when it is in
    # src or some src white is spare.
    if not (spare >= 0 and (sink in dst) == (sink in src or spare > 0)):
        return False
    targets = [[k for k, w in enumerate(dst_w) if w in reach[s]] for s in src_w]
    return _covers(targets, [False] * len(dst_w), 0, len(dst_w))


def _covers(targets: list, taken: list, idx: int, need: int) -> bool:
    """Whether src whites idx.. can injectively take `need` more dst whites.

    `targets[s]` lists the dst whites above src white s, and `taken` marks the
    dst whites matched so far.  A src white that takes none goes to the sink
    within this frame, so the recursion is only as deep as the matches.
    """
    while 0 < need <= len(targets) - idx:
        for k in targets[idx]:
            if not taken[k]:
                taken[k] = True
                if _covers(targets, taken, idx + 1, need - 1):
                    return True
                taken[k] = False
        idx += 1  # the sink
    return need == 0


def is_preceq(g: MultiplicityGraph, phi: AMorphism, psi: AMorphism) -> bool:
    """phi precedes psi when psi's image is phi's image pushed along paths."""
    return _image_pushes(layout(g)[2], g.sink, phi.image(g), psi.image(g))


def preceq_minimal_morphisms(g: MultiplicityGraph) -> tuple[AMorphism, ...]:
    """Morphisms preceded only by morphisms they also precede, in DFS order.

    The preorder only sees images, so the exhaustive minimality test runs
    once per distinct image.  Each call enumerates the morphisms afresh.
    """
    morphs = tuple(enumerate_morphisms(g))
    images = list(dict.fromkeys(phi.image(g) for phi in morphs))
    reach, sink = layout(g)[2], g.sink
    minimal = {
        img
        for img in images
        if not any(
            other != img
            and _image_pushes(reach, sink, other, img)
            and not _image_pushes(reach, sink, img, other)
            for other in images
        )
    }
    return tuple(phi for phi in morphs if phi.image(g) in minimal)


def is_preceq_minimal(g: MultiplicityGraph, phi: AMorphism) -> bool:
    """Whether every morphism preceding phi is also preceded by it."""
    img = phi.image(g)
    return any(psi.image(g) == img for psi in preceq_minimal_morphisms(g))


def closure_antichain(g: MultiplicityGraph) -> Antichain:
    """Collapse the closed set of any minimal morphism to a poset antichain.

    The result is the maximal chain labels of the closure of the
    unmatched whites; it does not depend on which minimal morphism is
    used, and it reproduces the minimal best-scoring antichain of the
    raising operator.
    """
    minimal = preceq_minimal_morphisms(g)
    if not minimal:
        raise InvariantViolation("no minimal morphism found")
    phi = minimal[0]
    firsts, white, _ = g.colors()
    unmatched = white - phi.image(g)
    if not unmatched:
        raise DomainError("closure antichain undefined when epsilon is zero")
    closed = closure_H(g, phi, unmatched)
    if firsts[-1] in closed:
        raise InvariantViolation("closure of a minimal morphism contains the sink")
    reach = layout(g)[2]
    maximal = [u for u in closed if reach[u] & closed == {u}]
    return Antichain(tuple(sorted({node_label(g, u) for u in maximal})))


def node_label(g: MultiplicityGraph, u: int):
    """The label of the chain that holds node u, "inf" at the sink."""
    firsts = g.colors()[0]
    return "inf" if u == firsts[-1] else g.labels[bisect_right(firsts, u) - 1]
