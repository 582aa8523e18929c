"""Crystal operators on isomorphism classes of quiver representations.

For a vertex i, the indecomposables with a nonzero map onto the simple
S(i) form a poset under "Hom is nonzero".  Each nonempty antichain V
gets an integer score: the net multiplicity, below V, of summands of M
counted against their tau translates.  The lowering operator swaps the
exchange set of the maximal best-scoring antichain against that
antichain; the raising operator inverts this using the minimal one.
These recipes require the orientation to be special and reject any
other quiver up front.  The poset and every table the operators read
(`HomPoset`) live here, built once per AR quiver and vertex.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import and_, itemgetter, neg, or_, truth
from threading import Lock
from typing import NamedTuple
from weakref import WeakKeyDictionary

from .ar_quiver import ARQuiver, Indec, ModuleClass
from .dynkin import Weight, coroot_pairing
from .errors import DomainError, InvariantViolation

__all__ = [
    "HomPoset",
    "Antichain",
    "hom_poset",
    "antichains",
    "antichain_leq",
    "antichain_score",
    "epsilon_i",
    "exchange_set",
    "f_tilde",
    "e_tilde",
    "weight_of",
    "phi_i",
]


class Antichain(NamedTuple("Antichain", [("members", tuple[int, ...])])):
    """A nonempty set of pairwise incomparable poset elements (Indec ids)."""

    __slots__ = ()

    def __new__(cls, members: tuple[int, ...]):
        if not members:
            raise DomainError("antichains are nonempty")
        return tuple.__new__(cls, (members,))


class HomPoset:
    """Poset of indecomposables mapping onto S(i), ordered by Hom != 0.

    Besides the order it holds every table the crystal operators read:
    the antichains, their down-sets (as bit masks over positions), the
    plan that builds each down-set from a smaller one, their exchange sets
    and the tau translates of the elements.
    """

    def __init__(self, ar: ARQuiver, i: int):
        if not 1 <= i <= ar.rank:
            raise DomainError(f"vertex {i} out of range")
        if not ar.is_special():
            raise DomainError(
                f"{ar.quiver.text_spec()} is not special; crystal recipes do not apply"
            )
        self.vertex = i
        # The elements by position, read off the column of S(i); the poset keeps no reference to ar.
        hom = ar.hom_rows
        ids = self.element_ids = tuple(compress(range(len(hom)), map(itemgetter(ar.simple(i).id), hom)))
        self.elements = tuple(map(ar.indecs.__getitem__, ids))
        self._pos = {xid: k for k, xid in enumerate(ids)}
        n = len(ids)
        leq = self.leq = tuple(tuple(map(truth, map(hom[a].__getitem__, ids))) for a in ids)
        # below[b] has bit a set exactly when a <= b; above is its transpose.
        bits = [1 << a for a in range(n)]
        below = [sum(compress(bits, col)) for col in zip(*leq)]
        above = [sum(compress(bits, row)) for row in leq]
        for a in range(n):
            if not leq[a][a]:
                raise InvariantViolation("hom order not reflexive")
            if above[a] & below[a] != 1 << a:
                raise InvariantViolation("hom order not antisymmetric")
            if below[a] & ~reduce(and_, compress(below, leq[a])):
                raise InvariantViolation("hom order not transitive")
        # ups[a]: the upper covers of a, each b above a whose interval holds only a and b.
        ups = [
            [b for b in compress(range(n), leq[a]) if a != b and above[a] & below[b] == 1 << a | 1 << b]
            for a in range(n)
        ]
        self.covers = tuple((a, b) for a in range(n) for b in ups[a])
        chains: list[tuple[int, ...]] = []
        downs: list[int] = []
        _extend(below, chains, downs, 0, (), 0, 0)
        self.antichains = tuple(Antichain(tuple(map(ids.__getitem__, ch))) for ch in chains)
        self._index = {a.members: idx for idx, a in enumerate(self.antichains)}
        # v <= w among antichains exactly when downsets[v] is a submask of downsets[w].
        self.downsets = tuple(downs)
        # Down-set plan, smallest first: (antichain, the down-set left when
        # one of its members is removed, that member).  -1 is the empty one.
        parent = {0: -1, **{d: k for k, d in enumerate(downs)}}
        self.plan = tuple(
            (k, parent[downs[k] & ~(1 << chains[k][-1])], chains[k][-1])
            for k in sorted(range(len(chains)), key=list(map(int.bit_count, downs)).__getitem__)
        )
        # Exchange set: the minimal elements outside a down-set.  A plan step adds x
        # to its parent, so x leaves and the upper covers of x now minimal join.
        exchange = {-1: tuple(b for b in range(n) if below[b] == 1 << b)}
        for k, par, x in self.plan:
            gained = [c for c in ups[x] if below[c] & ~downs[k] == 1 << c]
            exchange[k] = tuple(sorted([b for b in exchange[par] if b != x] + gained))
        self.exchange = tuple(exchange[k] for k in range(len(downs)))
        # tau ids by position, None on the projective; support: the ids a pass reads or writes.
        self.tau_ids = tuple(map(ar.tau_ids.__getitem__, ids))
        self.support = tuple(sorted({*self.element_ids, *self.tau_ids} - {None}))

    def __len__(self) -> int:
        return len(self.element_ids)

    def pos(self, x: Indec | int) -> int:
        xid = x.id if isinstance(x, Indec) else x
        try:
            return self._pos[xid]
        except KeyError:
            raise DomainError(f"{x} is not an element of this poset") from None

    def index_of(self, v: Antichain) -> int:
        try:
            return self._index[tuple(sorted(v.members))]
        except KeyError:
            raise DomainError(f"{v} is not an antichain of this poset") from None


def _extend(below: list[int], chains: list, downs: list, start: int, chosen: tuple[int, ...],
            mask: int, down: int) -> None:
    """Append, depth first, each antichain that adds positions >= start to `chosen`
    (members `mask`, down-set `down`) and its down-set mask."""
    for k in range(start, len(below)):
        if not (below[k] & mask or down >> k & 1):
            chains.append(chosen + (k,))
            downs.append(down | below[k])
            _extend(below, chains, downs, k + 1, chains[-1], mask | 1 << k, downs[-1])


# Vertex tables by AR quiver, each built on first use.  The keys are weak
# and a HomPoset keeps no reference to its AR quiver, so the tables go
# when the AR quiver goes; the AR quiver itself is never written.
_tables: WeakKeyDictionary[ARQuiver, dict[int, HomPoset]] = WeakKeyDictionary()
_building = Lock()


def hom_poset(ar: ARQuiver, i: int) -> HomPoset:
    """The poset for vertex i, built once per AR quiver; DomainError if there is none."""
    try:
        return _tables[ar][i]
    except KeyError:
        pass
    with _building:
        per_vertex = _tables.setdefault(ar, {})
        if i not in per_vertex:
            per_vertex[i] = HomPoset(ar, i)
        return per_vertex[i]


def antichains(p: HomPoset) -> tuple[Antichain, ...]:
    """All nonempty antichains, in lexicographic order of member positions."""
    return p.antichains


def antichain_leq(p: HomPoset, v: Antichain, w: Antichain) -> bool:
    """v <= w iff every member of v has a nonzero map to some member of w."""
    return all(
        any(p.leq[p.pos(b)][p.pos(c)] for c in w.members) for b in v.members
    )


def _contributions(p: HomPoset, m: ModuleClass) -> list[int]:
    """mu_B(M) - mu_{tau B}(M) for each poset element B, by position."""
    mults = m.mults
    return [
        mults[xid] - (mults[t] if t is not None else 0)
        for xid, t in zip(p.element_ids, p.tau_ids)
    ]


def antichain_score(ar: ARQuiver, m: ModuleClass, i: int, v: Antichain) -> int:
    """Net multiplicity below v: sum of mu_B(M) - mu_{tau B}(M) over B <= v."""
    p = hom_poset(ar, i)
    contrib = _contributions(p, m)
    down = p.downsets[p.index_of(v)]
    return sum(c for b, c in enumerate(contrib) if down >> b & 1)


def _scores(p: HomPoset, m: ModuleClass) -> tuple[int, list[int]]:
    """One score pass: the string statistic and the score of every antichain."""
    contrib = _contributions(p, m)
    scores = [0] * (len(p.plan) + 1)  # the last slot stays 0: the empty down-set
    for k, parent, b in p.plan:
        scores[k] = scores[parent] + contrib[b]
    scores.pop()
    best = max(scores)
    if best < 0:
        raise InvariantViolation("maximal antichain score is negative")
    return best, scores


def epsilon_i(ar: ARQuiver, m: ModuleClass, i: int) -> int:
    """The string statistic: the maximal antichain score, never negative."""
    return _scores(hom_poset(ar, i), m)[0]


def exchange_set(p: HomPoset, v: Antichain) -> tuple[Indec, ...]:
    """Minimal elements among those not below v; their tau translates get swapped."""
    return tuple(p.elements[b] for b in p.exchange[p.index_of(v)])


def _unique_extremum(p: HomPoset, candidates: list[int], maximal: bool) -> int:
    """The candidate whose down-set holds (maximal) or lies in (minimal) all the others'."""
    down = p.downsets
    bound = reduce(or_ if maximal else and_, [down[v] for v in candidates])
    for v in candidates:
        if down[v] == bound:
            return v
    raise InvariantViolation(
        f"score maximizers lack a unique {'maximal' if maximal else 'minimal'} element"
    )


def f_tilde(ar: ARQuiver, m: ModuleClass, i: int) -> ModuleClass:
    """Lowering operator: swap tau of the exchange set against the maximal maximizer."""
    return _score_pass(ar, m, i)[1]


def e_tilde(ar: ARQuiver, m: ModuleClass, i: int) -> ModuleClass | None:
    """Raising operator: absent when the string statistic is zero."""
    return _score_pass(ar, m, i)[2]


def _score_pass(ar: ARQuiver, m: ModuleClass, i: int) -> tuple[int, ModuleClass, ModuleClass | None]:
    """epsilon_i(m), f_tilde(m) and e_tilde(m) from one score pass; m is read on the support."""
    p = hom_poset(ar, i)
    best, scores = _scores(p, m)
    candidates = [k for k, s in enumerate(scores) if s == best]
    lowered = _swap(p, m, _unique_extremum(p, candidates, maximal=True), 1)
    raised = _swap(p, m, _unique_extremum(p, candidates, maximal=False), -1) if best else None
    return best, lowered, raised


def _swap(p: HomPoset, m: ModuleClass, v: int, step: int) -> ModuleClass:
    """Move `step` summands from tau of the exchange set of v onto v (-1: back)."""
    mults = list(m.mults)
    for b in p.exchange[v]:
        t = p.tau_ids[b]
        if t is None:
            raise InvariantViolation("exchange set contains the projective cover")
        mults[t] -= step
    for xid in p.antichains[v].members:
        mults[xid] += step
    if min(mults) < 0:
        raise InvariantViolation("swapped-out summand missing from the class")
    return ModuleClass._make((tuple(mults),))  # _make skips __new__'s second scan


def weight_of(ar: ARQuiver, m: ModuleClass) -> Weight:
    """Weight in simple-root coordinates: the negated dimension vector."""
    return tuple(map(neg, m.dimension_vector(ar)))


def phi_i(ar: ARQuiver, m: ModuleClass, i: int) -> int:
    return epsilon_i(ar, m, i) + coroot_pairing(ar.quiver, i, weight_of(ar, m))
