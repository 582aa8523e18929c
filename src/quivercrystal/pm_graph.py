"""Chain-expanded multiplicity graphs and their morphism combinatorics.

Each poset element B is blown up into a chain of max(1, mu_B(M),
mu_B(tau^{-1}M)) copies; Hasse covers connect the last copy of the lower
chain to the first copy of the upper one, and maximal chains feed a sink
node.  White nodes mark summands of M, red nodes summands of tau^{-1}M
(a node may be both).  Morphisms send red nodes upward, injectively off
the sink; the minimum number of unmatched whites over all morphisms is
an independent route to the crystal string statistic.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .ar_quiver import ARQuiver, ModuleClass, tau_inv_class
from .crystal_ops import Antichain, HomPoset
from .errors import DEFAULT_SEARCH_LIMIT, DomainError, InvariantViolation, ResourceLimitError

__all__ = [
    "MultiplicityGraph",
    "AMorphism",
    "build_pm",
    "enumerate_morphisms",
    "eps_of",
    "F_of_subset",
    "down_closure",
    "closure_H",
    "is_preceq",
    "is_preceq_minimal",
    "preceq_minimal_morphisms",
    "min_epsilon",
    "closure_antichain",
]


class MultiplicityGraph:
    """The expanded graph: chain nodes per label, a sink, and the two color sets.

    Nodes are integers.  Labels must be listed in a linear extension of
    the cover relation.  Nothing is written to the graph after `__init__`.
    """

    def __init__(
        self,
        labels: tuple,
        covers: tuple[tuple[object, object], ...],
        lengths: dict,
        white_counts: dict,
        red_counts: dict,
    ):
        self.labels = tuple(labels)
        pos_of = {lab: k for k, lab in enumerate(self.labels)}
        for a, b in covers:
            if pos_of[a] >= pos_of[b]:
                raise DomainError("labels are not in a linear extension of the covers")
        self._names: list[tuple] = []
        self.first: dict = {}
        self.last: dict = {}
        for lab in self.labels:
            length = max(1, int(lengths.get(lab, 1)))
            self.first[lab] = len(self._names)
            for p in range(1, length + 1):
                self._names.append((lab, p))
            self.last[lab] = len(self._names) - 1
        self.sink = len(self._names)
        self._names.append(("inf", 0))
        n = len(self._names)

        succ: list[list[int]] = [[] for _ in range(n)]
        for lab in self.labels:
            for u in range(self.first[lab], self.last[lab]):
                succ[u].append(u + 1)
        for a, b in covers:
            succ[self.last[a]].append(self.first[b])
        has_out = {a for a, _ in covers}
        for lab in self.labels:
            if lab not in has_out:
                succ[self.last[lab]].append(self.sink)
        self.succ = tuple(tuple(sorted(s)) for s in succ)

        whites, reds = set(), set()
        for lab in self.labels:
            if max(white_counts.get(lab, 0), red_counts.get(lab, 0)) > lengths.get(lab, 1):
                raise DomainError(f"color counts exceed chain length at {lab}")
            for p in range(int(white_counts.get(lab, 0))):
                whites.add(self.first[lab] + p)
            for p in range(int(red_counts.get(lab, 0))):
                reds.add(self.first[lab] + p)
        self.white = frozenset(whites)
        self.red = frozenset(reds)
        self.red_order = tuple(sorted(self.red))

        # succ only points to larger indices, so one sweep each way suffices.
        up: list[set[int]] = [set() for _ in range(n)]
        for u in range(n - 1, -1, -1):
            s = {u}
            for v in self.succ[u]:
                s |= up[v]
            up[u] = s
        self.reach = tuple(frozenset(s) for s in up)

        if any(self.sink not in r for r in self.reach):
            raise InvariantViolation("sink not reachable from every node")

        self._white_targets = {
            r: tuple(sorted(self.reach[r] & self.white)) for r in self.red_order
        }

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(range(len(self._names)))

    def node_label(self, u: int):
        return self._names[u][0]

    def to_dot(self) -> str:
        lines = ["digraph pm {", "  rankdir=LR;"]
        for u in range(len(self._names)):
            lab, p = self._names[u]
            name = "inf" if u == self.sink else f"{lab}({p})"
            if u in self.white and u in self.red:
                style = 'style=wedged, fillcolor="red:white"'
            elif u in self.red:
                style = "style=filled, fillcolor=red"
            elif u in self.white:
                style = "style=filled, fillcolor=white"
            else:
                style = "style=dashed"
            lines.append(f'  n{u} [label="{name}", {style}];')
        for u in range(len(self._names)):
            for v in self.succ[u]:
                lines.append(f"  n{u} -> n{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_pm(ar: ARQuiver, p: HomPoset, m: ModuleClass) -> MultiplicityGraph:
    """Expand the vertex-i poset by the multiplicities of M and tau^{-1}M."""
    tm = tau_inv_class(ar, m)
    labels = p.element_ids
    covers = tuple((labels[a], labels[b]) for a, b in p.covers)
    lengths = {xid: max(1, m.mults[xid], tm.mults[xid]) for xid in labels}
    whites = {xid: m.mults[xid] for xid in labels}
    reds = {xid: tm.mults[xid] for xid in labels}
    return MultiplicityGraph(labels, covers, lengths, whites, reds)


class AMorphism(NamedTuple):
    """A morphism out of the red set: targets aligned with `graph.red_order`."""

    targets: tuple[int, ...]

    def mapping(self, g: MultiplicityGraph) -> dict[int, int]:
        out = dict(zip(g.red_order, self.targets))
        out[g.sink] = g.sink
        return out

    def image(self, g: MultiplicityGraph) -> frozenset[int]:
        return frozenset(self.targets)


def _guard_search_space(g: MultiplicityGraph, limit: int) -> None:
    size = 1
    for r in g.red_order:
        size *= len(g._white_targets[r]) + 1
        if size > limit:
            raise ResourceLimitError(f"morphism search space exceeds {limit} candidates")


def enumerate_morphisms(
    g: MultiplicityGraph, limit: int = DEFAULT_SEARCH_LIMIT
) -> Iterator[AMorphism]:
    """All morphisms red -> white, each exactly once, in DFS order."""
    _guard_search_space(g, limit)
    reds = g.red_order

    def rec(idx: int, chosen: list[int], used: set[int]) -> Iterator[AMorphism]:
        if idx == len(reds):
            yield AMorphism(tuple(chosen))
            return
        for w in g._white_targets[reds[idx]]:
            if w not in used:
                chosen.append(w)
                used.add(w)
                yield from rec(idx + 1, chosen, used)
                used.discard(w)
                chosen.pop()
        chosen.append(g.sink)
        yield from rec(idx + 1, chosen, used)
        chosen.pop()

    return rec(0, [], set())


def eps_of(g: MultiplicityGraph, phi: AMorphism) -> int:
    """Number of white nodes missed by the image of the red set."""
    return len(g.white - phi.image(g))


def F_of_subset(g: MultiplicityGraph, nodes) -> int:
    """Whites minus reds inside the subset."""
    s = frozenset(nodes)
    return len(s & g.white) - len(s & g.red)


def down_closure(g: MultiplicityGraph, nodes) -> frozenset[int]:
    """Everything at or below some node of the subset."""
    s = frozenset(nodes)
    return frozenset(u for u, up in enumerate(g.reach) if not up.isdisjoint(s))


def closure_H(g: MultiplicityGraph, phi: AMorphism, nodes) -> frozenset[int]:
    """Least fixed point of V -> (phi(red below V) union V) downward-closed."""
    mapping = phi.mapping(g)
    cur = frozenset(nodes)
    while True:
        moved = {mapping[r] for r in g.red & down_closure(g, cur)}
        nxt = down_closure(g, moved | cur)
        if nxt == cur:
            return cur
        cur = nxt


def _image_pushes(g: MultiplicityGraph, src: frozenset[int], dst: frozenset[int]) -> bool:
    """Whether some endomorphism of the whites carries src onto dst as sets."""
    src_w = sorted(src - {g.sink})
    dst_w = sorted(dst - {g.sink})
    sink_in_src = g.sink in src
    sink_in_dst = g.sink in dst
    spare = len(src_w) - len(dst_w)
    if spare < 0:
        return False
    if sink_in_src and not sink_in_dst:
        return False
    if spare > 0 and not sink_in_dst:
        return False
    if sink_in_dst and not sink_in_src and spare == 0:
        return False
    # Injectively match every dst white to a src white below it; the
    # spare src whites go to the sink.
    targets = [[k for k, w in enumerate(dst_w) if w in g.reach[s]] for s in src_w]
    taken = [False] * len(dst_w)

    def match(idx: int, matched: int) -> bool:
        if matched == len(dst_w):
            return True
        if idx == len(src_w) or len(src_w) - idx < len(dst_w) - matched:
            return False
        for k in targets[idx]:
            if not taken[k]:
                taken[k] = True
                if match(idx + 1, matched + 1):
                    return True
                taken[k] = False
        return match(idx + 1, matched)

    return match(0, 0)


def is_preceq(g: MultiplicityGraph, phi: AMorphism, psi: AMorphism) -> bool:
    """phi precedes psi when psi's image is phi's image pushed along paths."""
    return _image_pushes(g, phi.image(g), psi.image(g))


def preceq_minimal_morphisms(
    g: MultiplicityGraph, limit: int = DEFAULT_SEARCH_LIMIT
) -> tuple[AMorphism, ...]:
    """Morphisms preceded only by morphisms they also precede, in DFS order.

    The preorder only sees images, so the exhaustive minimality test runs
    once per distinct image.  Each call enumerates the morphisms afresh.
    """
    morphs = tuple(enumerate_morphisms(g, limit))
    images = list(dict.fromkeys(phi.image(g) for phi in morphs))
    minimal = {
        img
        for img in images
        if not any(
            other != img
            and _image_pushes(g, other, img)
            and not _image_pushes(g, img, other)
            for other in images
        )
    }
    return tuple(phi for phi in morphs if phi.image(g) in minimal)


def is_preceq_minimal(
    g: MultiplicityGraph, phi: AMorphism, limit: int = DEFAULT_SEARCH_LIMIT
) -> bool:
    """Whether every morphism preceding phi is also preceded by it."""
    img = phi.image(g)
    return any(psi.image(g) == img for psi in preceq_minimal_morphisms(g, limit))


def min_epsilon(g: MultiplicityGraph, limit: int = DEFAULT_SEARCH_LIMIT) -> int:
    """Minimum of eps_of over all morphisms, by pruned DFS."""
    _guard_search_space(g, limit)
    reds = g.red_order
    n_white = len(g.white)
    best = n_white
    used: set[int] = set()

    def rec(idx: int, matched: int) -> None:
        nonlocal best
        remaining = len(reds) - idx
        if n_white - matched - remaining >= best:
            return
        if idx == len(reds):
            best = min(best, n_white - matched)
            return
        for w in g._white_targets[reds[idx]]:
            if w not in used:
                used.add(w)
                rec(idx + 1, matched + 1)
                used.discard(w)
        rec(idx + 1, matched)

    rec(0, 0)
    return best


def closure_antichain(g: MultiplicityGraph, limit: int = DEFAULT_SEARCH_LIMIT) -> Antichain:
    """Collapse the closed set of any minimal morphism to a poset antichain.

    The result is the maximal chain labels of the closure of the
    unmatched whites; it does not depend on which minimal morphism is
    used, and it reproduces the minimal best-scoring antichain of the
    raising operator.
    """
    minimal = preceq_minimal_morphisms(g, limit)
    if not minimal:
        raise InvariantViolation("no minimal morphism found")
    phi = minimal[0]
    if eps_of(g, phi) == 0:
        raise DomainError("closure antichain undefined when epsilon is zero")
    closed = closure_H(g, phi, g.white - phi.image(g))
    if g.sink in closed:
        raise InvariantViolation("closure of a minimal morphism contains the sink")
    maximal = [u for u in closed if g.reach[u] & closed == {u}]
    labels = sorted({g.node_label(u) for u in maximal})
    return Antichain(tuple(labels))
