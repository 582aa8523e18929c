"""Chain-expanded multiplicity graphs and their morphism combinatorics.

Each poset element B is blown up into a chain of max(1, mu_B(M),
mu_B(tau^{-1}M)) copies; Hasse covers connect the last copy of the lower
chain to the first copy of the upper one, and maximal chains feed a sink
node.  White nodes mark summands of M, red nodes summands of tau^{-1}M
(a node may be both).  Morphisms send red nodes upward, injectively off
the sink; the minimum number of unmatched whites over all morphisms is
an independent route to the crystal string statistic.

What depends on a poset alone is built once per `HomPoset`, from the Hom
table and tau of the AR quiver rather than from the poset's own covers,
and kept while the poset lives: the labels, the upper covers and the
up-closure of each, the linear-extension and sink checks, the unit chain
offsets, and pickers that read mu_B(M) for every label B and mu_{tau B}(M)
for every non-projective one, each in one C call.  A graph stores only its
labels, sink, colors, red order and white targets (the whites each red may
map to, read off its chain offsets and the label up-closures), and its
layout: that skeleton, which holds no mutable container, and its chain
offsets.  `succ`, `reach`, `_names`, `first` and `last` are laid out
afresh on every read and never cached, so a caller binds each once.  The
public constructor takes a white and a red count per label, each an
int >= 0, and lays out through the same step.  A graph with no red node
has one morphism, so `min_epsilon` returns its white count before the
search guard.  The searches send each red to the sink within one frame and
recurse only for the reds that take a white, so any number of reds with
no white above them is searched; the guard's product bound keeps the
others to about log2(limit).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain, compress
from operator import itemgetter
from typing import Iterator, NamedTuple
from weakref import WeakKeyDictionary

# tau_inv_class goes unused here: perfbench/tracing.py patches it.
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

    Nodes are integers.  Labels must be distinct and listed in a linear extension
    of the covers.  Each label's counts (ints >= 0, 0 if absent) give it a chain
    max(1, white, red) long.  Stored: `labels`, `sink`, `white`, `red`,
    `red_order`, `_white_targets` and the layout.  `succ`, `reach`, `_names`,
    `first` and `last` are rebuilt from the layout on every read.  Nothing is
    written to the graph after construction.
    """

    def __init__(self, labels: tuple, covers, white_counts: dict, red_counts: dict):
        sk = _skeleton(tuple(labels), covers)
        whites = [white_counts.get(lab, 0) for lab in sk[0]]
        reds = [red_counts.get(lab, 0) for lab in sk[0]]
        for lab, c in [*zip(sk[0], whites), *zip(sk[0], reds)]:
            if type(c) is not int or c < 0:
                raise DomainError(f"color count {c!r} at {lab!r} is not an integer >= 0")
        self._lay_out(sk, whites, range(len(whites)), reds)

    def _lay_out(self, sk: tuple, whites, red_pos, reds):
        """Offsets and colors: a white count per label, a red count per position in
        `red_pos` (ascending); each chain is max(1, white, red) long."""
        self._skeleton = sk
        self.labels, _, ups, units = sk
        if max(whites + reds, default=0) < 2:
            firsts = units  # unit chains: the skeleton's offsets
        else:
            lengths = [max(1, c) for c in whites]
            for k, c in zip(red_pos, reds):
                lengths[k] = max(lengths[k], c)
            firsts = (0, *accumulate(lengths))
        self._firsts, self.sink = firsts, firsts[-1]
        # Label k's whites open its chain; the chain is numbered upward.
        at = [()] * len(whites)
        for k, c in compress(enumerate(whites), whites):
            at[k] = range(firsts[k], firsts[k] + c)
        self.white = frozenset(chain.from_iterable(at))
        # Chains are numbered in label order, so reds come out ascending, and a
        # red reaches the rest of its chain and every chain above its label.
        red_order = []
        targets = {}
        for k, c in compress(zip(red_pos, reds), reds):
            above = [w for j in ups[k] for w in at[j]]
            top = firsts[k] + whites[k]
            for r in range(firsts[k], firsts[k] + c):
                red_order.append(r)
                targets[r] = (*range(r, top), *above)
        self.red_order = red_order = tuple(red_order)
        self.red = frozenset(red_order)
        self._white_targets = targets

    def _expanded(self) -> tuple:
        """`_names`, `succ` and `reach`, laid out afresh."""
        labels, heads, _, _ = self._skeleton
        return _expand(labels, heads, self._firsts)

    @property
    def _names(self) -> list:
        """(label, position in its chain) per node; ("inf", 0) for the sink."""
        return self._expanded()[0]

    @property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        """The sorted successors of each node."""
        return self._expanded()[1]

    @property
    def reach(self) -> tuple[frozenset[int], ...]:
        """The nodes each node reaches, itself included."""
        return self._expanded()[2]

    @property
    def first(self) -> dict:
        """The first node of each label's chain."""
        return dict(zip(self.labels, self._firsts))

    @property
    def last(self) -> dict:
        """The last node of each label's chain."""
        return dict(zip(self.labels, [f - 1 for f in self._firsts[1:]]))

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(range(self.sink + 1))

    def node_label(self, u: int):
        return "inf" if u == self.sink else self.labels[bisect_right(self._firsts, u) - 1]

    def to_dot(self) -> str:
        names, succ, _ = self._expanded()
        lines = ["digraph pm {", "  rankdir=LR;"]
        for u, (lab, p) in enumerate(names):
            name = "inf" if u == self.sink else f"{lab}({p})"
            # as a DOT quoted string: backslashes and double quotes escaped
            name = name.replace("\\", "\\\\").replace('"', '\\"')
            if u in self.white and u in self.red:
                style = 'style=wedged, fillcolor="red:white"'
            elif u in self.red:
                style = "style=filled, fillcolor=red"
            elif u in self.white:
                style = "style=filled, fillcolor=white"
            else:
                style = "style=dashed"
            lines.append(f'  n{u} [label="{name}", {style}];')
        for u, vs in enumerate(succ):
            for v in vs:
                lines.append(f"  n{u} -> n{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _skeleton(labels: tuple, covers) -> tuple:
    """The labels, the sorted positions covering each and above each, and the unit
    chain offsets, all immutable."""
    pos = {lab: k for k, lab in enumerate(labels)}
    if len(pos) < len(labels):
        repeated = next(lab for k, lab in enumerate(labels) if pos[lab] != k)
        raise DomainError(f"label {repeated!r} is repeated")
    heads: list[list[int]] = [[] for _ in labels]
    for a, b in covers:
        if pos[a] >= pos[b]:
            raise DomainError("labels are not in a linear extension of the covers")
        heads[pos[a]].append(pos[b])
    heads_t = tuple(tuple(sorted(h)) for h in heads)
    units = tuple(range(len(labels) + 1))
    reach = _expand(labels, heads_t, units)[2]
    ups = tuple(tuple(sorted(reach[k] - {k, units[-1]})) for k in range(len(labels)))
    return labels, heads_t, ups, units


def _expand(labels: tuple, heads: tuple, firsts) -> tuple[list, tuple, tuple]:
    """Nodes, successors and reach of the chain-expanded graph.

    Label k's chain runs from node firsts[k] to firsts[k + 1] - 1; the last
    entry of `firsts` is the sink.  One sweep from the top label down: a
    chain's last node reaches the chains over it (or the sink), and each
    node below it in the chain reaches what the node above it does.
    """
    sink = firsts[-1]
    n = sink + 1
    names: list = [None] * n
    succ: list = [None] * n
    reach: list = [None] * n
    names[sink] = ("inf", 0)
    succ[sink] = ()
    reach[sink] = frozenset((sink,))
    for k in range(len(labels) - 1, -1, -1):
        lab = labels[k]
        first = firsts[k]
        u = firsts[k + 1] - 1
        hs = heads[k]
        if hs:
            out = []
            up = {u}
            for h in hs:
                v = firsts[h]
                out.append(v)
                up |= reach[v]
            succ[u] = tuple(out)
        else:
            succ[u] = (sink,)
            up = {u, sink}
        r = frozenset(up)
        names[u] = (lab, u - first + 1)
        reach[u] = r
        while u > first:
            u -= 1
            names[u] = (lab, u - first + 1)
            succ[u] = (u + 1,)
            reach[u] = r = r | {u}
    if any(sink not in r for r in reach):
        raise InvariantViolation("sink not reachable from every node")
    return names, tuple(succ), tuple(reach)


# Per poset: its skeleton, and the pickers of mu_B(M) for every label B and of
# mu_{tau B}(M) = mu_B(tau^{-1}M) for every non-projective one (at red_pos).
_by_poset: WeakKeyDictionary[HomPoset, tuple] = WeakKeyDictionary()


def _poset_skeleton(ar: ARQuiver, i: int) -> tuple:
    """The vertex-i skeleton and pickers, read from the Hom table of `ar` alone."""
    labels = tuple(x.id for x in ar.indecs if ar.hom_dim(x, ar.simple(i)) >= 1)
    above = {a: [b for b in labels if b != a and ar.hom_dim(a, b) >= 1] for a in labels}
    # The covers: the transitive reduction of Hom != 0.
    covers = [(a, b) for a in labels for b in above[a] if all(b not in above[c] for c in above[a])]
    red_pos = tuple(k for k, x in enumerate(labels) if ar.tau_ids[x] is not None)
    pick_red = _picker(tuple(ar.tau_ids[labels[k]] for k in red_pos))
    return _skeleton(labels, covers), _picker(labels), red_pos, pick_red


def _picker(ids: tuple[int, ...]):
    """mults -> the tuple of mults at ids, in one C call (a slice for fewer than two ids)."""
    if len(ids) > 1:
        return itemgetter(*ids)
    return itemgetter(slice(ids[0], ids[0] + 1) if ids else slice(0))


def build_pm(ar: ARQuiver, p: HomPoset, m: ModuleClass) -> MultiplicityGraph:
    """Expand the vertex-i poset by the multiplicities of M and tau^{-1}M."""
    try:
        sk, pick_white, red_pos, pick_red = _by_poset[p]
    except KeyError:
        sk, pick_white, red_pos, pick_red = _by_poset[p] = _poset_skeleton(ar, p.vertex)
    g = MultiplicityGraph.__new__(MultiplicityGraph)
    g._lay_out(sk, pick_white(m.mults), red_pos, pick_red(m.mults))
    return g


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
    return _morphisms([g._white_targets[r] for r in g.red_order], g.sink, [], set())


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
    return len(s & g.white) - len(s & g.red)


def down_closure(g: MultiplicityGraph, nodes) -> frozenset[int]:
    """Everything at or below some node of the subset."""
    return _down(g.reach, frozenset(nodes))


def _down(reach: tuple, s: frozenset[int]) -> frozenset[int]:
    return frozenset(u for u, up in enumerate(reach) if not up.isdisjoint(s))


def closure_H(g: MultiplicityGraph, phi: AMorphism, nodes) -> frozenset[int]:
    """Least fixed point of V -> (phi(red below V) union V) downward-closed."""
    mapping = phi.mapping(g)
    reach = g.reach
    cur = frozenset(nodes)
    while True:
        moved = {mapping[r] for r in g.red & _down(reach, cur)}
        nxt = _down(reach, moved | cur)
        if nxt == cur:
            return cur
        cur = nxt


def _image_pushes(reach: tuple, sink: int, src: frozenset[int], dst: frozenset[int]) -> bool:
    """Whether some endomorphism of the whites carries src onto dst as sets."""
    src_w = sorted(src - {sink})
    dst_w = sorted(dst - {sink})
    sink_in_src = sink in src
    sink_in_dst = sink in dst
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
    targets = [[k for k, w in enumerate(dst_w) if w in reach[s]] for s in src_w]
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
    return _image_pushes(g.reach, g.sink, phi.image(g), psi.image(g))


def preceq_minimal_morphisms(
    g: MultiplicityGraph, limit: int = DEFAULT_SEARCH_LIMIT
) -> tuple[AMorphism, ...]:
    """Morphisms preceded only by morphisms they also precede, in DFS order.

    The preorder only sees images, so the exhaustive minimality test runs
    once per distinct image.  Each call enumerates the morphisms afresh.
    """
    morphs = tuple(enumerate_morphisms(g, limit))
    images = list(dict.fromkeys(phi.image(g) for phi in morphs))
    reach, sink = g.reach, g.sink
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


def is_preceq_minimal(
    g: MultiplicityGraph, phi: AMorphism, limit: int = DEFAULT_SEARCH_LIMIT
) -> bool:
    """Whether every morphism preceding phi is also preceded by it."""
    img = phi.image(g)
    return any(psi.image(g) == img for psi in preceq_minimal_morphisms(g, limit))


def min_epsilon(g: MultiplicityGraph, limit: int = DEFAULT_SEARCH_LIMIT) -> int:
    """Minimum of eps_of over all morphisms, by pruned DFS."""
    reds = g.red_order
    n_white = len(g.white)
    if not reds:  # one morphism, which misses every white; the guard's bound is 1
        return n_white
    _guard_search_space(g, limit)
    targets = g._white_targets
    return _fewest_unmatched([targets[r] for r in reds], 0, n_white, set(), n_white)


def _fewest_unmatched(targets: list, idx: int, unmatched: int, used: set[int], best: int) -> int:
    """The least of `best` and the whites left unmatched when reds idx.. are placed too.

    Reds before idx are placed, `unmatched` whites are left and `used` holds the
    whites taken.  Each red takes a free white among its targets or the sink, in
    that order; a branch stops once it cannot beat `best` even if every
    remaining red matches.  The sink branch is taken in this frame, so the
    recursion is only as deep as the reds that take a white.
    """
    n = len(targets)
    while unmatched - (n - idx) < best:
        if idx == n:
            return unmatched
        for w in targets[idx]:
            if w not in used:
                used.add(w)
                best = _fewest_unmatched(targets, idx + 1, unmatched - 1, used, best)
                used.discard(w)
        idx += 1  # the sink
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
    reach = g.reach
    maximal = [u for u in closed if reach[u] & closed == {u}]
    labels = sorted({g.node_label(u) for u in maximal})
    return Antichain(tuple(labels))
