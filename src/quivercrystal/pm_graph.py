"""Chain-expanded multiplicity graphs and the geometric string statistic.

Each poset element B is blown up into a chain of max(1, mu_B(M),
mu_B(tau^{-1}M)) copies; Hasse covers connect the last copy of the lower
chain to the first copy of the upper one, and maximal chains feed a sink
node.  White nodes mark summands of M, red nodes summands of tau^{-1}M
(a node may be both).  Morphisms send red nodes upward, injectively off
the sink.  The least number of whites a morphism leaves unmatched, which
`min_epsilon` finds, is an independent route to the crystal string
statistic.  The exhaustive morphism preorder and its closure operator are
reference code in the test suite (tests/preorder.py).

What depends on a poset alone is built once per `HomPoset`, from the Hom
table and tau of the AR quiver rather than from the poset's own covers,
and kept while the poset lives: the labels, the upper covers and the
up-closure of each (from the covers, last label first), the linear-extension
check, the unit chain offsets, and pickers that read mu_B(M) for every label
B and mu_{tau B}(M) for every non-projective one, each in one C call.  A
graph stores that skeleton, its labels, the white count of each label and
the red count of each label that has reds: nothing per node, so `build_pm`
is O(labels).  `colors()` derives the chain offsets, white set and red
order, `layout()` the node names, successors and reach sets (in its own
sweep from the sink down); neither caches, so each reader calls one once.
`dot_lines` reads the names and successors alone, in O(nodes), and makes
the DOT text a line at a time; `to_dot` joins it.  `sink`,
`white`, `red`, `red_order` and `reach` alias their parts because the
benchmark tracer reads them.  The search guard decides from the counts,
and only a graph that passes it gets its white targets.  The search sends
each red to the sink within one frame and recurses only for those that
take a white, so the recursion is about log2(limit) deep.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, chain, compress
from operator import itemgetter, or_
from typing import Iterator
from weakref import WeakKeyDictionary

# tau_inv_class goes unused here: perfbench/tracing.py patches it.
from .ar_quiver import ARQuiver, ModuleClass, tau_inv_class
from .crystal_ops import HomPoset
from .errors import DEFAULT_SEARCH_LIMIT, DomainError, InvariantViolation, ResourceLimitError

__all__ = ["MultiplicityGraph", "build_pm", "min_epsilon"]


class MultiplicityGraph:
    """The expanded graph: chain nodes per label, a sink, and the two color sets.

    Nodes are integers.  Labels must be distinct and listed in a linear extension
    of the covers.  Each label's counts (ints >= 0, 0 if absent) give it a chain
    max(1, white, red) long.  Stored: `labels`, the poset skeleton, `_whites` (a
    count per label) and `_reds` (position -> count, for labels with reds); the
    rest is derived per call.  Nothing is written to the graph after construction.
    """

    def __init__(self, labels: tuple, covers, white_counts: dict, red_counts: dict):
        sk = _skeleton(tuple(labels), covers)
        known = set(sk[0])
        for lab in chain(white_counts, red_counts):
            if lab not in known:
                raise DomainError(f"color count at {lab!r}, which is not a label")
        whites = tuple([white_counts.get(lab, 0) for lab in sk[0]])
        reds = [red_counts.get(lab, 0) for lab in sk[0]]
        for lab, c in [*zip(sk[0], whites), *zip(sk[0], reds)]:
            if type(c) is not int or c < 0:
                raise DomainError(f"color count {c!r} at {lab!r} is not an integer >= 0")
        self._store(sk, whites, range(len(reds)), reds)

    def _store(self, sk: tuple, whites: tuple, red_pos, reds):
        """A white count per label, a red count per position in `red_pos` (ascending)."""
        self._skeleton = sk
        self.labels = sk[0]
        self._whites = whites
        self._reds = dict(compress(zip(red_pos, reds), reds))

    def _offsets(self) -> tuple:
        """The first node of each label's chain, then the sink."""
        if max((*self._whites, *self._reds.values()), default=0) < 2:
            return self._skeleton[3]  # unit chains: the skeleton's offsets
        lengths = [max(1, c) for c in self._whites]
        for k, c in self._reds.items():
            lengths[k] = max(lengths[k], c)
        return (0, *accumulate(lengths))

    def colors(self) -> tuple[tuple, frozenset, tuple]:
        """(offsets, white, red_order), never cached: label k's whites and reds each open
        its chain, which starts at offsets[k], so reds come out ascending."""
        firsts = self._offsets()
        white = (range(firsts[k], firsts[k] + c) for k, c in enumerate(self._whites))
        reds = (range(firsts[k], firsts[k] + c) for k, c in self._reds.items())
        return firsts, frozenset(chain.from_iterable(white)), tuple(chain.from_iterable(reds))

    def layout(self) -> tuple[list, tuple, tuple]:
        """(names, succ, reach) from the offsets in one O(nodes) sweep, never cached.

        names[u] is (label, position in its chain), ("inf", 0) at the sink; succ[u]
        the sorted successors of u; reach[u] the nodes u reaches, u included.
        """
        firsts = self._offsets()
        names, succ = _chains(self.labels, self._skeleton[1], firsts)
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

    # Aliases that derive afresh on each read, kept because perfbench/tracing.py reads them.
    sink = property(lambda self: self._offsets()[-1])
    white = property(lambda self: self.colors()[1])
    red = property(lambda self: frozenset(self.colors()[2]))
    red_order = property(lambda self: self.colors()[2])
    reach = property(lambda self: self.layout()[2])

    nodes = property(lambda self: tuple(range(self.sink + 1)))

    def to_dot(self) -> str:
        return "".join(self.dot_lines())

    def dot_lines(self) -> Iterator[str]:
        """The lines of the DOT text, each ending in a newline, made one at a time."""
        firsts, white, red_order = self.colors()
        red = frozenset(red_order)
        names, succ = _chains(self.labels, self._skeleton[1], firsts)
        yield "digraph pm {\n"
        yield "  rankdir=LR;\n"
        for u, (lab, p) in enumerate(names):
            name = f"{lab}({p})" if p else "inf"  # chain positions start at 1, the sink's is 0
            # as a DOT quoted string: backslashes and double quotes escaped
            name = name.replace("\\", "\\\\").replace('"', '\\"')
            if u in white and u in red:
                style = 'style=wedged, fillcolor="red:white"'
            elif u in red:
                style = "style=filled, fillcolor=red"
            elif u in white:
                style = "style=filled, fillcolor=white"
            else:
                style = "style=dashed"
            yield f'  n{u} [label="{name}", {style}];\n'
        for u, vs in enumerate(succ):
            for v in vs:
                yield f"  n{u} -> n{v};\n"
        yield "}\n"


def _skeleton(labels: tuple, covers) -> tuple:
    """The labels, the sorted positions covering each and above each, and the unit
    chain offsets, all immutable."""
    pos = {lab: k for k, lab in enumerate(labels)}
    if len(pos) < len(labels):
        repeated = next(lab for k, lab in enumerate(labels) if pos[lab] != k)
        raise DomainError(f"label {repeated!r} is repeated")
    heads: list[list[int]] = [[] for _ in labels]
    for cover in covers:
        try:
            a, b = cover
            pa, pb = pos[a], pos[b]
        except (KeyError, TypeError, ValueError):
            raise DomainError(f"cover {cover!r} is not a pair of labels") from None
        if pa >= pb:
            raise DomainError("labels are not in a linear extension of the covers")
        heads[pa].append(pb)
    heads_t = tuple(tuple(sorted(h)) for h in heads)
    ups: list = [()] * len(labels)
    for k in range(len(labels) - 1, -1, -1):  # heads come later, so theirs are filled
        ups[k] = tuple(sorted(set(heads_t[k]).union(*[ups[h] for h in heads_t[k]])))
    return labels, heads_t, tuple(ups), tuple(range(len(labels) + 1))


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


# Per poset: its skeleton, and the pickers of mu_B(M) for every label B and of
# mu_{tau B}(M) = mu_B(tau^{-1}M) for every non-projective one (at red_pos).
_by_poset: WeakKeyDictionary[HomPoset, tuple] = WeakKeyDictionary()


def _poset_skeleton(ar: ARQuiver, i: int) -> tuple:
    """The vertex-i skeleton and pickers, read from the Hom rows of `ar` alone."""
    rows = ar.hom_rows
    labels = tuple(compress(range(len(rows)), map(itemgetter(ar.simple(i).id), rows)))
    bits = [1 << k for k in range(len(labels))]
    # ups[k]: the labels strictly above label k, as a mask; cuts[k]: its covers, in no up-set of those.
    ups = [sum(compress(bits, map(rows[a].__getitem__, labels))) & ~bit for a, bit in zip(labels, bits)]
    cuts = [up & ~reduce(or_, compress(ups, map(up.__and__, bits)), 0) for up in ups]
    covers = [(a, b) for a, cut in zip(labels, cuts) for b in compress(labels, map(cut.__and__, bits))]
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
    g._store(sk, pick_white(m.mults), red_pos, pick_red(m.mults))
    return g


def _guard_search_space(g: MultiplicityGraph, limit: int) -> None:
    """Refuse, from the counts, more than `limit` candidates or reds (a search touches each).

    The red at chain position j of label k has max(0, w_k - j) + (whites above k)
    targets, and the candidates are the product of (targets + 1) over the reds.
    """
    reds, whites, ups = g._reds, g._whites, g._skeleton[2]
    if not reds:
        return
    if limit < 1:  # reds with no target still make one candidate
        raise ResourceLimitError(f"morphism search space exceeds {limit} candidates")
    size = 1
    for k, c in reds.items():
        above = 0
        for j in ups[k]:
            above += whites[j]
        w = whites[k]
        for j in range(c if above else min(c, w)):
            size *= (w - j if j < w else 0) + above + 1
            if size > limit:
                raise ResourceLimitError(f"morphism search space exceeds {limit} candidates")
    if (n_red := sum(reds.values())) > limit:
        raise ResourceLimitError(f"morphism search over {n_red} red nodes exceeds {limit}")


def _white_targets(g: MultiplicityGraph) -> list[tuple[int, ...]]:
    """The whites each red may map to, in red order: those of its own chain at or
    above it, then those of every label above its own."""
    firsts, whites, ups = g._offsets(), g._whites, g._skeleton[2]
    targets = []
    for k, c in g._reds.items():
        above = [w for j in ups[k] for w in range(firsts[j], firsts[j] + whites[j])]
        top = firsts[k] + whites[k]
        targets += [(*range(r, top), *above) for r in range(firsts[k], firsts[k] + c)]
    return targets


def min_epsilon(g: MultiplicityGraph, limit: int = DEFAULT_SEARCH_LIMIT) -> int:
    """The fewest whites left unmatched when each red takes a distinct white at or
    above it, or the sink; by pruned DFS."""
    n_white = sum(g._whites)
    if not g._reds:  # one morphism, which misses every white; the guard's bound is 1
        return n_white
    _guard_search_space(g, limit)
    return _fewest_unmatched(_white_targets(g), 0, n_white, set(), n_white)


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
