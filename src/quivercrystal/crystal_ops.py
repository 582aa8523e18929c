"""Crystal operators on isomorphism classes of quiver representations.

For a vertex i, the indecomposables with a nonzero map onto the simple
S(i) form a poset under "Hom is nonzero".  Each nonempty antichain V
gets an integer score: the net multiplicity, below V, of summands of M
counted against their tau translates.  The lowering operator swaps the
exchange set of the maximal best-scoring antichain against that
antichain; the raising operator inverts this using the minimal one.
These recipes require the orientation to be special and reject any
other quiver up front.  The vertex table (`HomPoset`), built once per AR
quiver and vertex, is the order and the down-set plan; an antichain and
its exchange set are read off a down-set mask when asked.  A table's
first score pass compiles its plan into one straight-line function of
the multiplicities, which every later pass calls; a table with more than
KERNEL_MAX_DOWNSETS down-sets walks the plan step by step instead.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import compress
from operator import and_, itemgetter, neg, or_
from threading import Lock
from typing import Callable, Iterator, NamedTuple
from weakref import WeakKeyDictionary

from .ar_quiver import ARQuiver, ModuleClass
from .dynkin import Weight, coroot_pairing
from .errors import ANTICHAIN_BUDGET, DomainError, InvariantViolation, ResourceLimitError

__all__ = [
    "HomPoset",
    "Antichain",
    "hom_poset",
    "antichains",
    "epsilon_i",
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

    Positions follow the AR order, which extends the Hom order (checked).  The
    order is stored as bit masks over positions: below[b] has bit a set exactly
    when a <= b, and above is its transpose.  Each nonempty down-set is a mask,
    in lexicographic order of its antichain's positions; the plan builds each
    from a smaller one.  `kernel`, the plan's score pass, is filled by the first
    pass; threads that race to fill it compile equal functions.
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
        n = len(ids)
        rows = [tuple(map(hom[a].__getitem__, ids)) for a in ids]
        bits = [1 << a for a in range(n)]
        below = self.below = tuple([sum(compress(bits, col)) for col in zip(*rows)])
        above = self.above = tuple([sum(compress(bits, row)) for row in rows])
        for a in range(n):
            if not above[a] >> a & 1:
                raise InvariantViolation("hom order not reflexive")
            if above[a] & below[a] != 1 << a:
                raise InvariantViolation("hom order not antisymmetric")
            if below[a] & ~reduce(and_, compress(below, rows[a])):
                raise InvariantViolation("hom order not transitive")
        if any(below[b] >> b != 1 for b in range(n)):
            raise InvariantViolation("positions do not extend the hom order")
        # (a, b) is a cover when b is above a and their interval holds only a and b.
        self.covers = tuple((a, b) for a in range(n) for b in compress(range(n), rows[a])
                            if a != b and above[a] & below[b] == 1 << a | 1 << b)
        downs: list[int] = []
        _extend(self, downs, (1 << n) - 1, 0)
        self.downsets = tuple(downs)
        # Plan, smallest first: (down-set, the one left without its top position, that position);
        # -1 is the empty one.  The top position is maximal, so a member: positions extend the order.
        parent = {0: -1, **{d: k for k, d in enumerate(downs)}}
        tops = [d.bit_length() - 1 for d in downs]
        order = sorted(range(len(downs)), key=list(map(int.bit_count, downs)).__getitem__)
        self.plan = tuple([(k, parent[downs[k] ^ 1 << tops[k]], tops[k]) for k in order])
        # tau ids by position, None on the projective; support: the ids a pass reads or writes.
        self.tau_ids = tuple(map(ar.tau_ids.__getitem__, ids))
        self.support = tuple(sorted({*self.element_ids, *self.tau_ids} - {None}))
        self.kernel = None  # multiplicities -> scores by down-set, made by the first score pass

    def __len__(self) -> int:
        return len(self.element_ids)


def _extend(p: HomPoset, downs: list[int], free: int, down: int) -> None:
    """Append, depth first, the down-set mask of each antichain that adds positions of
    the mask `free` to an antichain with down-set `down`; refuse past ANTICHAIN_BUDGET.
    `free` holds later positions only, and no later position is below an earlier one."""
    while free:
        k = (free & -free).bit_length() - 1
        free ^= 1 << k
        if len(downs) == ANTICHAIN_BUDGET:
            raise ResourceLimitError(f"vertex {p.vertex} has more than {ANTICHAIN_BUDGET} antichains")
        downs.append(down | p.below[k])
        _extend(p, downs, free & ~p.above[k], downs[-1])


def _maximal(p: HomPoset, down: int) -> list[int]:
    """A down-set's antichain: the positions of the mask with nothing else of it above."""
    return [b for b, up in enumerate(p.above) if up & down == 1 << b]


def _exchange(p: HomPoset, down: int) -> list[int]:
    """A down-set's exchange set: the positions outside it with all else below them inside."""
    return [b for b, low in enumerate(p.below) if low & ~down == 1 << b]


def _downset(p: HomPoset, v: Antichain) -> int:
    """The down-set mask of v, in any member order; DomainError unless v is an antichain of p."""
    pos = sorted([p.element_ids.index(x) if x in p.element_ids else -1 for x in v.members])
    down = reduce(or_, [p.below[b] for b in pos if b >= 0], 0)
    if _maximal(p, down) != pos:
        raise DomainError(f"{v} is not an antichain of this poset")
    return down


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
    return tuple(map(Antichain, _antichain_ids(p)))


def _antichain_ids(p: HomPoset) -> Iterator[tuple[int, ...]]:
    """The member ids of each nonempty antichain, in the order of `antichains`, each read
    off its down-set mask when asked."""
    ids = p.element_ids
    for d in p.downsets:
        yield tuple([ids[b] for b in _maximal(p, d)])


def _contributions(ids: tuple[int, ...], taus: tuple[int | None, ...], mults) -> list[int]:
    """mu_B(M) - mu_{tau B}(M) for each poset element B, by position."""
    return [mults[x] - (mults[t] if t is not None else 0) for x, t in zip(ids, taus)]


# Not exported and called by no pass: perfbench/tracing.py patches it by name.
def antichain_score(ar: ARQuiver, m: ModuleClass, i: int, v: Antichain) -> int:
    """Net multiplicity below v: sum of mu_B(M) - mu_{tau B}(M) over B <= v."""
    p = hom_poset(ar, i)
    down = _downset(p, v)
    contrib = _contributions(p.element_ids, p.tau_ids, m.mults)
    return sum(c for b, c in enumerate(contrib) if down >> b & 1)


def _scores(p: HomPoset, m: ModuleClass) -> tuple[int, list[int]]:
    """One score pass: the string statistic and the score of every antichain, by the
    table's kernel, compiled on its first pass."""
    kernel = p.kernel
    if kernel is None:
        kernel = p.kernel = _compile(p)
    scores = kernel(m.mults)
    best = max(scores)
    if best < 0:
        raise InvariantViolation("maximal antichain score is negative")
    return best, scores


# A compiled pass runs 3-10x faster than the plan loop, but compiling costs about 0.1 ms
# plus 17 us per down-set (Python 3.11, 2 vCPUs), the price of 200-500 passes.  Up to 256
# down-sets a first pass pays at most about 4.5 ms; the bound holds every table of the
# special D<=8, E6, E7 and A<=9 quivers (at most 251), while the middle table of an
# alternating A12 has 1,715 down-sets and takes 28 ms, and one near ANTICHAIN_BUDGET 17 s.
KERNEL_MAX_DOWNSETS = 256


def _compile(p: HomPoset) -> Callable[[tuple[int, ...]], list[int]]:
    """The score pass of p as a function of the multiplicities: one subtraction per element,
    one addition per plan step, written out as straight-line source from integers alone.
    A table past KERNEL_MAX_DOWNSETS gets the plan loop instead."""
    if len(p.downsets) > KERNEL_MAX_DOWNSETS:
        return partial(_walk, p.plan, p.element_ids, p.tau_ids)
    lines = ["def kernel(m):"]
    for b, (x, t) in enumerate(zip(p.element_ids, p.tau_ids)):
        lines.append(f" c{b:d} = m[{x:d}]" + ("" if t is None else f" - m[{t:d}]"))
    for k, parent, b in p.plan:
        lines.append(f" s{k:d} = " + ("" if parent < 0 else f"s{parent:d} + ") + f"c{b:d}")
    lines.append(" return [" + ", ".join([f"s{k:d}" for k in range(len(p.plan))]) + "]")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


def _walk(plan, ids, taus, mults) -> list[int]:
    """The score pass of a plan, step by step."""
    contrib = _contributions(ids, taus, mults)
    scores = [0] * (len(plan) + 1)  # the last slot stays 0: the empty down-set
    for k, parent, b in plan:
        scores[k] = scores[parent] + contrib[b]
    scores.pop()
    return scores


def epsilon_i(ar: ARQuiver, m: ModuleClass, i: int) -> int:
    """The string statistic: the maximal antichain score, never negative."""
    return _scores(hom_poset(ar, i), m)[0]


def f_tilde(ar: ARQuiver, m: ModuleClass, i: int) -> ModuleClass:
    """Lowering operator: swap tau of the exchange set against the maximal maximizer."""
    return _score_pass(ar, m, i)[1]


def e_tilde(ar: ARQuiver, m: ModuleClass, i: int) -> ModuleClass | None:
    """Raising operator: absent when the string statistic is zero."""
    return _score_pass(ar, m, i)[2]


def _score_pass(ar: ARQuiver, m: ModuleClass, i: int) -> tuple[int, ModuleClass, ModuleClass | None]:
    """epsilon_i(m), f_tilde(m) and e_tilde(m) from one score pass; m is read on the support.
    The maximal maximizer is the OR of the best down-sets and the minimal one their AND,
    as the best down-sets are closed under union and intersection (checked; the AND only
    when e_tilde(m) exists)."""
    p = hom_poset(ar, i)
    best, scores = _scores(p, m)
    best_downs = list(compress(p.downsets, map(best.__eq__, scores)))
    top = reduce(or_, best_downs)
    bottom = reduce(and_, best_downs) if best else top
    for down, kind in ((top, "maximal"), (bottom, "minimal")):
        if down not in best_downs:
            raise InvariantViolation(f"score maximizers lack a unique {kind} element")
    return best, _swap(p, m, top, 1), _swap(p, m, bottom, -1) if best else None


def _swap(p: HomPoset, m: ModuleClass, down: int, step: int) -> ModuleClass:
    """Move `step` summands from tau of the exchange set onto the antichain of a down-set (-1: back)."""
    mults = list(m.mults)
    for b in _exchange(p, down):
        t = p.tau_ids[b]
        if t is None:
            raise InvariantViolation("exchange set contains the projective cover")
        mults[t] -= step
    for b in _maximal(p, down):
        mults[p.element_ids[b]] += step
    if min(mults) < 0:
        raise InvariantViolation("swapped-out summand missing from the class")
    return ModuleClass._make((tuple(mults),))  # _make skips __new__'s second scan


def weight_of(ar: ARQuiver, m: ModuleClass) -> Weight:
    """Weight in simple-root coordinates: the negated dimension vector."""
    return tuple(map(neg, m.dimension_vector(ar)))


def phi_i(ar: ARQuiver, m: ModuleClass, i: int) -> int:
    return epsilon_i(ar, m, i) + coroot_pairing(ar.quiver, i, weight_of(ar, m))
