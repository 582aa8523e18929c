"""Crystal operators on isomorphism classes of quiver representations.

For a vertex i, the indecomposables with a nonzero map onto the simple
S(i) form a poset under "Hom is nonzero".  Each nonempty antichain V
gets an integer score: the net multiplicity, below V, of summands of M
counted against their tau translates.  The lowering operator swaps the
exchange set of the maximal best-scoring antichain against that
antichain; the raising operator inverts this using the minimal one.
These recipes require the orientation to be special and reject any
other quiver up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg

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


@dataclass(frozen=True)
class Antichain:
    """A nonempty set of pairwise incomparable poset elements (Indec ids)."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise DomainError("antichains are nonempty")


class HomPoset:
    """Poset of indecomposables mapping onto S(i), ordered by Hom != 0.

    Besides the order it holds every table the crystal operators read:
    the antichains, their down-sets (as position sets), their exchange
    sets and the tau translates of the elements.
    """

    def __init__(self, ar: ARQuiver, i: int):
        if not 1 <= i <= ar.rank:
            raise DomainError(f"vertex {i} out of range")
        if not ar.is_special():
            raise DomainError(
                f"{ar.quiver.text_spec()} is not special; crystal recipes do not apply"
            )
        self.ar = ar
        self.vertex = i
        s = ar.simple(i)
        self.element_ids = tuple(
            x.id for x in ar.indecs if ar.hom_dim(x, s) >= 1
        )
        self._pos = {xid: k for k, xid in enumerate(self.element_ids)}
        n = len(self.element_ids)
        leq = self.leq = tuple(
            tuple(
                ar.hom_dim(a, b) >= 1
                for b in self.element_ids
            )
            for a in self.element_ids
        )
        self._check_partial_order()
        self.covers = tuple(
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b
            and leq[a][b]
            and not any(
                leq[a][c] and leq[c][b] for c in range(n) if c not in (a, b)
            )
        )
        chains: list[tuple[int, ...]] = []

        def extend(start: int, chosen: list[int]) -> None:
            for k in range(start, n):
                if all(not (leq[c][k] or leq[k][c]) for c in chosen):
                    chosen.append(k)
                    chains.append(tuple(chosen))
                    extend(k + 1, chosen)
                    chosen.pop()

        extend(0, [])
        self.antichains = tuple(
            Antichain(tuple(self.element_ids[k] for k in ch)) for ch in chains
        )
        self._index = {a.members: idx for idx, a in enumerate(self.antichains)}
        # v <= w among antichains exactly when downsets[v] <= downsets[w].
        self.downsets = tuple(
            frozenset(b for b in range(n) if any(leq[b][c] for c in ch))
            for ch in chains
        )
        self.exchange = tuple(
            tuple(
                b
                for b in range(n)
                if b not in down
                and not any(leq[c][b] for c in range(n) if c != b and c not in down)
            )
            for down in self.downsets
        )
        # tau ids aligned with positions; None marks the projective.
        self.tau_ids = tuple(ar.tau_ids[xid] for xid in self.element_ids)

    def _check_partial_order(self) -> None:
        n = len(self.element_ids)
        for a in range(n):
            if not self.leq[a][a]:
                raise InvariantViolation("hom order not reflexive")
            for b in range(n):
                if a != b and self.leq[a][b] and self.leq[b][a]:
                    raise InvariantViolation("hom order not antisymmetric")
                for c in range(n):
                    if self.leq[a][b] and self.leq[b][c] and not self.leq[a][c]:
                        raise InvariantViolation("hom order not transitive")

    def __len__(self) -> int:
        return len(self.element_ids)

    def pos(self, x: Indec | int) -> int:
        xid = x.id if isinstance(x, Indec) else x
        return self._pos[xid]

    def leq_elements(self, a: Indec | int, b: Indec | int) -> bool:
        return self.leq[self.pos(a)][self.pos(b)]

    def minimum(self) -> Indec:
        lows = [
            a
            for a in range(len(self.element_ids))
            if all(self.leq[a][b] for b in range(len(self.element_ids)))
        ]
        if len(lows) != 1:
            raise InvariantViolation("hom poset has no unique minimum")
        return self.ar.indecs[self.element_ids[lows[0]]]

    def maximum(self) -> Indec:
        highs = [
            b
            for b in range(len(self.element_ids))
            if all(self.leq[a][b] for a in range(len(self.element_ids)))
        ]
        if len(highs) != 1:
            raise InvariantViolation("hom poset has no unique maximum")
        return self.ar.indecs[self.element_ids[highs[0]]]

    def index_of(self, v: Antichain) -> int:
        try:
            return self._index[tuple(v.members)]
        except KeyError:
            raise DomainError(f"{v} is not an antichain of this poset") from None


# The operators call _poset, not hom_poset, so a wrapper installed on the
# public name (as perfbench's tracer does) sees only outside callers.
def _poset(ar: ARQuiver, i: int) -> HomPoset:
    p = ar._posets.get(i)
    return p if p is not None else ar._posets.setdefault(i, HomPoset(ar, i))


def hom_poset(ar: ARQuiver, i: int) -> HomPoset:
    """The poset for vertex i, built once per AR quiver.

    Concurrent first calls may each build it, but all of them return the
    one object that was stored first.
    """
    return _poset(ar, i)


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
    p = _poset(ar, i)
    contrib = _contributions(p, m)
    return sum(contrib[b] for b in p.downsets[p.index_of(v)])


def _stats(p: HomPoset, m: ModuleClass) -> tuple[int, list[int]]:
    """One score pass: the string statistic and the indices of its maximizers."""
    at = _contributions(p, m).__getitem__
    scores = [sum(map(at, down)) for down in p.downsets]
    best = max(scores)
    if best < 0:
        raise InvariantViolation("maximal antichain score is negative")
    return best, [k for k, s in enumerate(scores) if s == best]


def epsilon_i(ar: ARQuiver, m: ModuleClass, i: int) -> int:
    """The string statistic: the maximal antichain score, never negative."""
    return _stats(_poset(ar, i), m)[0]


def exchange_set(p: HomPoset, v: Antichain) -> tuple[Indec, ...]:
    """Minimal elements among those not below v; their tau translates get swapped."""
    return tuple(p.ar.indecs[p.element_ids[b]] for b in p.exchange[p.index_of(v)])


def _unique_extremum(p: HomPoset, candidates: list[int], maximal: bool) -> int:
    down = p.downsets
    if maximal:
        extreme = [
            v for v in candidates if not any(down[v] < down[w] for w in candidates)
        ]
    else:
        extreme = [
            v for v in candidates if not any(down[w] < down[v] for w in candidates)
        ]
    if len(extreme) != 1:
        raise InvariantViolation(
            f"score maximizers lack a unique {'maximal' if maximal else 'minimal'} element"
        )
    return extreme[0]


def f_tilde(ar: ARQuiver, m: ModuleClass, i: int) -> ModuleClass:
    """Lowering operator: swap tau of the exchange set against the maximal maximizer."""
    p = _poset(ar, i)
    _, candidates = _stats(p, m)
    v0 = _unique_extremum(p, candidates, maximal=True)
    mults = list(m.mults)
    for b in p.exchange[v0]:
        t = p.tau_ids[b]
        if t is None:
            raise InvariantViolation("exchange set contains the projective cover")
        mults[t] -= 1
        if mults[t] < 0:
            raise InvariantViolation("swapped-out summand missing from the class")
    for xid in p.antichains[v0].members:
        mults[xid] += 1
    return ModuleClass(tuple(mults))


def e_tilde(ar: ARQuiver, m: ModuleClass, i: int) -> ModuleClass | None:
    """Raising operator: absent when the string statistic is zero."""
    p = _poset(ar, i)
    best, candidates = _stats(p, m)
    if best == 0:
        return None
    v0 = _unique_extremum(p, candidates, maximal=False)
    mults = list(m.mults)
    for xid in p.antichains[v0].members:
        mults[xid] -= 1
        if mults[xid] < 0:
            raise InvariantViolation("minimal maximizer is not a summand of the class")
    for b in p.exchange[v0]:
        t = p.tau_ids[b]
        if t is None:
            raise InvariantViolation("exchange set contains the projective cover")
        mults[t] += 1
    return ModuleClass(tuple(mults))


def weight_of(ar: ARQuiver, m: ModuleClass) -> Weight:
    """Weight in simple-root coordinates: the negated dimension vector."""
    return tuple(map(neg, m.dimension_vector(ar)))


def phi_i(ar: ARQuiver, m: ModuleClass, i: int) -> int:
    return epsilon_i(ar, m, i) + coroot_pairing(ar.quiver, i, weight_of(ar, m))
