"""Auslander-Reiten quivers of Dynkin quivers, built by knitting.

The AR quiver is knitted slice by slice along ZQ^op: slice 0 holds the
projectives, and slice k+1 holds tau^{-1}X for each non-injective X of
slice k, with dim tau^{-1}X read additively off the mesh from X.  Hom and Ext
dimensions are then computed by walking tau orbits back to projectives,
with Ext obtained from Hom through Auslander-Reiten duality.  The poset
of a vertex (`HomPoset`) is built from an AR quiver but not stored on it.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from operator import mul
from typing import NamedTuple

from .dynkin import DimVector, Diagram, Quiver, all_orientations, positive_roots
from .errors import DomainError, InvariantViolation, QuiverParseError

__all__ = [
    "Indec",
    "ARQuiver",
    "Antichain",
    "HomPoset",
    "ModuleClass",
    "build_ar",
    "thick_vertices",
    "special_orientations",
    "module_from_dim_dict",
    "module_from_json",
    "module_to_json",
    "tau_inv_class",
]


class Indec(NamedTuple):
    """An indecomposable representation, identified with its dimension vector."""

    id: int
    dim: DimVector
    projective_vertex: int | None = None
    injective_vertex: int | None = None

    @property
    def is_projective(self) -> bool:
        return self.projective_vertex is not None

    @property
    def is_injective(self) -> bool:
        return self.injective_vertex is not None

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.dim) + ")"


def _paths_dims(q: Quiver, forward: bool) -> dict[int, DimVector]:
    """dim P(i) when forward (paths i -> j), dim I(i) otherwise (paths j -> i)."""
    n = q.diagram.rank
    succ = defaultdict(list)
    for a, b in q.arrows:
        if forward:
            succ[a].append(b)
        else:
            succ[b].append(a)
    out = {}
    for i in range(1, n + 1):
        reach = {i}
        stack = [i]
        while stack:
            v = stack.pop()
            for w in succ[v]:
                if w not in reach:
                    reach.add(w)
                    stack.append(w)
        out[i] = tuple(1 if j in reach else 0 for j in range(1, n + 1))
    return out


class ARQuiver:
    """Immutable AR quiver: indecomposables, irreducible arrows, tau links."""

    def __init__(
        self,
        quiver: Quiver,
        indecs: tuple[Indec, ...],
        arrows: tuple[tuple[int, int], ...],
        tau_pairs: tuple[tuple[int, int], ...],
    ):
        self.quiver = quiver
        self.indecs = indecs
        self.arrows = arrows
        tau = dict(tau_pairs)
        # tau_ids[x] is the id of tau X, None exactly on projectives.
        self.tau_ids = tuple(tau.get(x.id) for x in indecs)
        self._tau_inv = {x: z for z, x in tau_pairs}
        self.by_dim = {x.dim: x for x in indecs}
        # dim_columns[j][x] is the j-th coordinate of dim X.
        self.dim_columns = tuple(zip(*(x.dim for x in indecs)))
        # json_fields: ('"1,1,0":', id) in sort order; json_names: "1,1,0" -> (that position, id).
        names = sorted((",".join(map(str, x.dim)), x.id) for x in indecs)
        self.json_fields = tuple((f'"{name}":', x) for name, x in names)
        self.json_names = {name: (pos, x) for pos, (name, x) in enumerate(names)}
        self._proj = {x.projective_vertex: x for x in indecs if x.is_projective}
        self._inj = {x.injective_vertex: x for x in indecs if x.is_injective}
        self._hom = self._hom_table()
        simples = [self.simple(i).id for i in range(1, self.rank + 1)]
        self._special = all(row[s] <= 1 for row in self._hom for s in simples)

    def _hom_table(self) -> tuple[tuple[int, ...], ...]:
        """dim Hom(X, Y) for every pair, by shifting both back along tau orbits.

        Rows are filled in id order; tau X always has a smaller id than X,
        so the row it refers to already exists.  Hom(X, P) = 0 unless X is
        projective: kQ is hereditary, so a nonzero image in P splits off X.
        """
        rows: list[tuple[int, ...]] = []
        for x in self.indecs:
            if x.is_projective:
                row = tuple(y.dim[x.projective_vertex - 1] for y in self.indecs)
            else:
                prev = rows[self.tau_ids[x.id]]
                row = tuple(
                    0 if y.is_projective else prev[self.tau_ids[y.id]]
                    for y in self.indecs
                )
            rows.append(row)
        return tuple(rows)

    @property
    def rank(self) -> int:
        return self.quiver.diagram.rank

    def __len__(self) -> int:
        return len(self.indecs)

    def indec(self, x: Indec | int) -> Indec:
        return x if isinstance(x, Indec) else self.indecs[x]

    def projective(self, i: int) -> Indec:
        return self._proj[i]

    def injective(self, i: int) -> Indec:
        return self._inj[i]

    def simple(self, i: int) -> Indec:
        dim = tuple(1 if j == i else 0 for j in range(1, self.rank + 1))
        return self.by_dim[dim]

    def tau(self, x: Indec | int) -> Indec | None:
        """AR translate; absent exactly on projectives."""
        tid = self.tau_ids[self.indec(x).id]
        return None if tid is None else self.indecs[tid]

    def tau_inv(self, x: Indec | int) -> Indec | None:
        """Inverse AR translate; absent exactly on injectives."""
        xid = self.indec(x).id
        tid = self._tau_inv.get(xid)
        return None if tid is None else self.indecs[tid]

    def hom_dim(self, x: Indec | int, y: Indec | int) -> int:
        """dim Hom(X, Y), read from the table filled at construction."""
        return self._hom[self.indec(x).id][self.indec(y).id]

    def ext_dim(self, x: Indec | int, y: Indec | int) -> int:
        """dim Ext^1(X, Y) = dim Hom(Y, tau X), zero when X is projective."""
        x, y = self.indec(x), self.indec(y)
        if x.is_projective:
            return 0
        return self.hom_dim(y, self.tau(x))

    def hom_to_simple(self, m: "ModuleClass", i: int) -> int:
        """dim Hom(M, S(i)) of a class, additive over summands."""
        s = self.simple(i)
        return sum(k * self.hom_dim(b, s) for b, k in zip(self.indecs, m.mults) if k)

    def is_special(self) -> bool:
        """Whether every indecomposable maps to each simple with multiplicity <= 1."""
        return self._special

    def to_json(self) -> str:
        objs = []
        for x in self.indecs:
            o: dict = {"id": x.id, "dim": list(x.dim)}
            if x.is_projective:
                o["proj"] = x.projective_vertex
            if x.is_injective:
                o["inj"] = x.injective_vertex
            objs.append(o)
        doc = {
            "quiver": self.quiver.text_spec(),
            "indecs": objs,
            "arrows": [list(a) for a in self.arrows],
            "tau": [[z, x] for z, x in enumerate(self.tau_ids) if x is not None],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def to_dot(self) -> str:
        lines = ["digraph ar {", "  rankdir=LR;"]
        for x in self.indecs:
            tags = []
            if x.is_projective:
                tags.append(f"P({x.projective_vertex})")
            if x.is_injective:
                tags.append(f"I({x.injective_vertex})")
            label = str(x) + (" " + "/".join(tags) if tags else "")
            lines.append(f'  n{x.id} [label="{label}"];')
        for a, b in self.arrows:
            lines.append(f"  n{a} -> n{b};")
        for z, x in enumerate(self.tau_ids):
            if x is not None:
                lines.append(f'  n{z} -> n{x} [style=dashed, constraint=false, label="tau"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


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
        s = ar.simple(i)
        # The elements by position; the poset keeps no reference to ar.
        self.elements = tuple(x for x in ar.indecs if ar.hom_dim(x, s) >= 1)
        self.element_ids = tuple(x.id for x in self.elements)
        self._pos = {xid: k for k, xid in enumerate(self.element_ids)}
        n = len(self.element_ids)
        leq = self.leq = tuple(
            tuple(ar.hom_dim(a, b) >= 1 for b in self.element_ids) for a in self.element_ids
        )
        # below[b] has bit a set exactly when a <= b; above is its transpose.
        below = [sum(1 << a for a in range(n) if leq[a][b]) for b in range(n)]
        above = [sum(1 << b for b in range(n) if leq[a][b]) for a in range(n)]
        for a in range(n):
            if not leq[a][a]:
                raise InvariantViolation("hom order not reflexive")
            if above[a] & below[a] != 1 << a:
                raise InvariantViolation("hom order not antisymmetric")
            if any(below[a] & ~below[b] for b in range(n) if leq[a][b]):
                raise InvariantViolation("hom order not transitive")
        self.covers = tuple(
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and above[a] & below[b] == 1 << a | 1 << b
        )
        chains: list[tuple[int, ...]] = []
        downs: list[int] = []

        def extend(start: int, chosen: tuple[int, ...], mask: int, down: int) -> None:
            for k in range(start, n):
                if not (below[k] & mask or down >> k & 1):
                    chains.append(chosen + (k,))
                    downs.append(down | below[k])
                    extend(k + 1, chains[-1], mask | 1 << k, downs[-1])

        extend(0, (), 0, 0)
        self.antichains = tuple(
            Antichain(tuple(self.element_ids[k] for k in ch)) for ch in chains
        )
        self._index = {a.members: idx for idx, a in enumerate(self.antichains)}
        # v <= w among antichains exactly when downsets[v] is a submask of downsets[w].
        self.downsets = tuple(downs)
        # Down-set plan, smallest first: (antichain, the down-set left when
        # one of its members is removed, that member).  -1 is the empty one.
        parent = {0: -1, **{d: k for k, d in enumerate(downs)}}
        self.plan = tuple(
            (k, parent[downs[k] & ~(1 << chains[k][-1])], chains[k][-1])
            for k in sorted(range(len(chains)), key=lambda k: downs[k].bit_count())
        )
        # Exchange set: the minimal elements outside a down-set.  A plan step adds x
        # to its parent, so x leaves and the upper covers of x now minimal join.
        ups = [[b for a, b in self.covers if a == x] for x in range(n)]
        exchange = {-1: tuple(b for b in range(n) if below[b] == 1 << b)}
        for k, par, x in self.plan:
            gained = [c for c in ups[x] if below[c] & ~downs[k] == 1 << c]
            exchange[k] = tuple(sorted([b for b in exchange[par] if b != x] + gained))
        self.exchange = tuple(exchange[k] for k in range(len(downs)))
        # tau ids by position, None on the projective; support: the ids a pass reads or writes.
        self.tau_ids = tuple(ar.tau_ids[xid] for xid in self.element_ids)
        self.support = tuple(sorted({*self.element_ids, *self.tau_ids} - {None}))

    def __len__(self) -> int:
        return len(self.element_ids)

    def pos(self, x: Indec | int) -> int:
        xid = x.id if isinstance(x, Indec) else x
        try:
            return self._pos[xid]
        except KeyError:
            raise DomainError(f"{x} is not an element of this poset") from None

    def leq_elements(self, a: Indec | int, b: Indec | int) -> bool:
        return self.leq[self.pos(a)][self.pos(b)]

    def minimum(self) -> Indec:
        return self._unique([a for a, row in enumerate(self.leq) if all(row)], "minimum")

    def maximum(self) -> Indec:
        return self._unique([b for b, col in enumerate(zip(*self.leq)) if all(col)], "maximum")

    def _unique(self, found: list[int], what: str) -> Indec:
        if len(found) != 1:
            raise InvariantViolation(f"hom poset has no unique {what}")
        return self.elements[found[0]]

    def index_of(self, v: Antichain) -> int:
        try:
            return self._index[tuple(sorted(v.members))]
        except KeyError:
            raise DomainError(f"{v} is not an antichain of this poset") from None

def build_ar(q: Quiver) -> ARQuiver:
    """Knit the AR quiver of a Dynkin quiver slice by slice along ZQ^op.

    Slice 0 holds the projectives P(i) (paths-from-i dimension vectors).
    Slice k+1 holds tau^{-1} of each non-injective (k, i) of slice k.  The
    middle terms of its mesh, (k, a) for each arrow a -> i and (k+1, b) for
    each arrow i -> b, are the sources of the arrows into tau^{-1}(k, i), and
    its dimension vector is their sum minus dim (k, i).  Vertices are visited
    targets first (dim P(b) < dim P(i) for i -> b), so each (k+1, b) is
    knitted before it is needed.
    """
    roots = set(positive_roots(q))
    inj_of = {dim: i for i, dim in _paths_dims(q, forward=False).items()}
    cur = _paths_dims(q, forward=True)
    proj_of = {dim: i for i, dim in cur.items()}
    targets_first = sorted(cur, key=lambda i: sum(cur[i]))
    nodes: set[DimVector] = set()
    arrows_out: dict[DimVector, list[DimVector]] = defaultdict(list)
    tau_dims: list[tuple[DimVector, DimVector]] = []
    for a, b in q.arrows:
        arrows_out[cur[b]].append(cur[a])
    while cur:
        for dim in cur.values():
            if dim not in roots:
                raise InvariantViolation(f"knitting produced non-root {dim} for {q}")
            if dim in nodes:
                raise InvariantViolation(f"knitting produced duplicate {dim} for {q}")
            nodes.add(dim)
        prev, cur = cur, {}
        for i in targets_first:
            x = prev.get(i)
            if x is None or x in inj_of:
                continue
            middles = [prev[a] for a, b in q.arrows if b == i and a in prev]
            middles += [cur[b] for a, b in q.arrows if a == i and b in cur]
            cur[i] = tuple(sum(col) - v for v, *col in zip(x, *middles))
            tau_dims.append((cur[i], x))
            for e in middles:
                arrows_out[e].append(cur[i])

    if nodes != roots:
        raise InvariantViolation(f"knitting missed roots for {q}")

    order = _topological_ids(nodes, arrows_out)
    indecs = tuple(
        Indec(order[dim], dim, proj_of.get(dim), inj_of.get(dim))
        for dim in sorted(nodes, key=lambda d: order[d])
    )
    arrow_ids = tuple(
        sorted((order[a], order[b]) for a, outs in arrows_out.items() for b in outs)
    )
    tau_pairs = tuple(sorted((order[z], order[x]) for z, x in tau_dims))
    ar = ARQuiver(q, indecs, arrow_ids, tau_pairs)
    _check_meshes(ar)
    return ar


def _topological_ids(nodes: set, arrows_out: dict) -> dict[DimVector, int]:
    """Kahn order on the irreducible arrows, ties broken by dimension vector."""
    indeg = {dim: 0 for dim in nodes}
    for src, outs in arrows_out.items():
        for dst in outs:
            indeg[dst] += 1
    heap = [dim for dim, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order: dict[DimVector, int] = {}
    while heap:
        dim = heapq.heappop(heap)
        order[dim] = len(order)
        for dst in arrows_out.get(dim, ()):
            indeg[dst] -= 1
            if indeg[dst] == 0:
                heapq.heappush(heap, dst)
    if len(order) != len(nodes):
        raise InvariantViolation("AR quiver contains a cycle")
    return order


def _check_meshes(ar: ARQuiver) -> None:
    """Mesh additivity: dim tau Z + dim Z equals the sum over arrows into Z."""
    into = defaultdict(list)
    for a, b in ar.arrows:
        into[b].append(a)
    for z in ar.indecs:
        tz = ar.tau(z)
        if tz is None:
            continue
        mid = [ar.indecs[a].dim for a in into[z.id]]
        total = tuple(sum(d[j] for d in mid) for j in range(ar.rank))
        want = tuple(tz.dim[j] + z.dim[j] for j in range(ar.rank))
        if total != want:
            raise InvariantViolation(f"mesh additivity fails at {z} for {ar.quiver}")


class ModuleClass(NamedTuple("ModuleClass", [("mults", tuple[int, ...])])):
    """An isomorphism class of representations: multiplicities per Indec id."""

    __slots__ = ()

    def __new__(cls, mults: tuple[int, ...]):
        if min(mults, default=0) < 0:
            raise DomainError(f"negative multiplicity in {mults}")
        return tuple.__new__(cls, (mults,))

    def mult(self, x: Indec | int) -> int:
        return self.mults[x.id if isinstance(x, Indec) else x]

    def dimension_vector(self, ar: ARQuiver) -> DimVector:
        mults = self.mults
        return tuple([sum(map(mul, mults, col)) for col in ar.dim_columns])


def zero_module(ar: ARQuiver) -> ModuleClass:
    return ModuleClass((0,) * len(ar))


def module_from_dim_dict(ar: ARQuiver, counts: dict[DimVector, int]) -> ModuleClass:
    """Build a class from {dimension vector: multiplicity}."""
    mults = [0] * len(ar)
    for dim, k in counts.items():
        dim = tuple(dim)
        if dim not in ar.by_dim:
            raise DomainError(f"{dim} is not an indecomposable dimension vector")
        if k < 0:
            raise DomainError(f"negative multiplicity for {dim}")
        mults[ar.by_dim[dim].id] += k
    return ModuleClass(tuple(mults))


def _read_canonical(ar: ARQuiver, text: str, seen: dict) -> tuple[int, ...] | None:
    """The multiplicities if text is module_to_json's spelling of a class, else None.  seen
    memoizes each validated field ('1,1,0":2' -> (sort position, id, value)) across calls."""
    if not (isinstance(text, str) and text[:2] == '{"' and text[-1:] == "}"):
        return None
    mults, prev = [0] * len(ar), -1
    for field in text[2:-1].split(',"'):
        hit = seen.get(field)
        if hit is None:
            name, _, val = field.partition('":')
            at = ar.json_names.get(name)
            if not (at and val.isdigit() and val.isascii() and val[0] != "0" and len(val) <= 18):
                return None
            hit = seen[field] = (*at, int(val))
        pos, x, k = hit
        if pos <= prev:  # sorted names, each once
            return None
        mults[x], prev = k, pos
    return tuple(mults)


def module_from_json(ar: ARQuiver, text: str) -> ModuleClass:
    """Parse the `{"1,1,1":2,"1,0,0":1}` wire format; module_to_json's spelling skips json.loads."""
    mults = _read_canonical(ar, text, {})
    if mults is not None:
        return ModuleClass._make((mults,))
    try:
        obj = json.loads(text)
    except (RecursionError, ValueError) as exc:  # ValueError: JSONDecodeError, over-long ints
        raise QuiverParseError(f"bad module JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise QuiverParseError("module JSON must be an object")
    counts: dict[DimVector, int] = {}
    for key, val in obj.items():
        if type(val) is not int:  # rejects floats, strings and booleans alike
            raise QuiverParseError(f"bad module entry {key!r}: {val!r}")
        try:
            dim = tuple(int(p) for p in key.split(","))
        except ValueError as exc:
            raise QuiverParseError(f"bad module entry {key!r}: {val!r}") from exc
        if val < 0:  # per entry, so another spelling of dim cannot cancel it
            raise DomainError(f"negative multiplicity for {dim}")
        counts[dim] = counts.get(dim, 0) + val
    return module_from_dim_dict(ar, counts)


def module_to_json(ar: ARQuiver, m: ModuleClass) -> str:
    mults = m.mults  # written as json.dumps(..., sort_keys=True, separators=(",", ":")) would
    return "{" + ",".join([f"{field}{mults[x]}" for field, x in ar.json_fields if mults[x]]) + "}"


def tau_inv_class(ar: ARQuiver, m: ModuleClass) -> ModuleClass:
    """Class of tau^{-1}M: mu_B(tau^{-1}M) = mu_{tau B}(M); injectives drop out."""
    mults = m.mults  # every entry is one of m's or 0, so nothing to re-check
    return ModuleClass._make((tuple([0 if t is None else mults[t] for t in ar.tau_ids]),))


def thick_vertices(ar: ARQuiver | Diagram) -> frozenset[int]:
    """Vertices where some indecomposable (a positive root) has dimension >= 2."""
    diag = ar if isinstance(ar, Diagram) else ar.quiver.diagram
    top = [max(col) for col in zip(*positive_roots(diag))]
    return frozenset(i for i, t in enumerate(top, 1) if t >= 2)


def special_orientations(diag: Diagram) -> tuple[Quiver, ...]:
    """All orientations in which no thick vertex is a source.

    A source vertex i admits dim Hom(X, S(i)) = dim X_i, so this matches
    filtering all orientations by the direct <= 1 condition.
    """
    thick = thick_vertices(diag)
    return tuple(
        q for q in all_orientations(diag) if not (thick & set(q.sources()))
    )
