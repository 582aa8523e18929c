"""Auslander-Reiten quivers of Dynkin quivers, built by knitting.

The AR quiver is knitted slice by slice along ZQ^op: slice 0 holds the
projectives, and slice k+1 holds tau^{-1}X for each non-injective X of
slice k, with dim tau^{-1}X read additively off the mesh from X.  Each
knitted vector must be nonnegative with Tits form 1 (a positive root, by
Gabriel's theorem), and the count must be the type's root count; `positive_roots` is
left to `thick_vertices` and `crystal_graph.kostant_count`.  The Hom table is
filled row by row: the row of a non-projective X is the row of tau X read
through the tau ids, 0 on projectives.  Classes of representations
(`ModuleClass`) and their JSON wire format live here too.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from operator import add, itemgetter, mul, sub
from typing import NamedTuple

from .dynkin import _ROOT_COUNT, DimVector, Diagram, Quiver, all_orientations, positive_roots
from .errors import HOM_TABLE_BUDGET, DomainError, InvariantViolation, QuiverParseError, ResourceLimitError

__all__ = [
    "Indec",
    "ARQuiver",
    "ModuleClass",
    "build_ar",
    "thick_vertices",
    "special_orientations",
    "module_from_dim_dict",
    "module_from_json",
    "module_to_json",
    "tau_inv_class",
    "zero_module",
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
        self.by_dim = {x.dim: x for x in indecs}
        # dim_columns[j][x] is the j-th coordinate of dim X.
        self.dim_columns = tuple(zip(*(x.dim for x in indecs)))
        # json_fields: ('"1,1,0":', id) in sort order; json_names: "1,1,0" -> (that position, id).
        names = sorted((",".join(map(str, x.dim)), x.id) for x in indecs)
        self.json_fields = tuple((f'"{name}":', x) for name, x in names)
        self.json_names = {name: (pos, x) for pos, (name, x) in enumerate(names)}
        # hom_rows[x][y] = dim Hom(X, Y).
        self.hom_rows = self._hom_table()
        simples = [self.simple(i).id for i in range(1, self.rank + 1)]
        self._special = max(max(map(itemgetter(s), self.hom_rows)) for s in simples) <= 1

    def _hom_table(self) -> tuple[tuple[int, ...], ...]:
        """dim Hom(X, Y) for every pair, by shifting both back along tau orbits.

        Rows are filled in id order; tau X always has a smaller id than X,
        so the row it refers to already exists.  Hom(X, P) = 0 unless X is
        projective: kQ is hereditary, so a nonzero image in P splits off X.
        Each row is one pass: Hom(P(j), Y) = dim Y_j, and otherwise
        Hom(X, Y) = Hom(tau X, tau Y), read from the row padded with that 0.
        """
        back = [-1 if t is None else t for t in self.tau_ids]
        shift = itemgetter(*back)  # one index gives no tuple, but a lone indecomposable is projective
        rows: list[tuple[int, ...]] = []
        for x in self.indecs:
            if x.is_projective:
                rows.append(self.dim_columns[x.projective_vertex - 1])
            else:
                rows.append(shift(rows[back[x.id]] + (0,)))
        return tuple(rows)

    @property
    def rank(self) -> int:
        return self.quiver.diagram.rank

    def __len__(self) -> int:
        return len(self.indecs)

    def indec(self, x: Indec | int) -> Indec:
        return x if isinstance(x, Indec) else self.indecs[x]

    def simple(self, i: int) -> Indec:
        dim = tuple(1 if j == i else 0 for j in range(1, self.rank + 1))
        return self.by_dim[dim]

    def tau(self, x: Indec | int) -> Indec | None:
        """AR translate; absent exactly on projectives."""
        tid = self.tau_ids[self.indec(x).id]
        return None if tid is None else self.indecs[tid]

    def hom_dim(self, x: Indec | int, y: Indec | int) -> int:
        """dim Hom(X, Y), read from the table filled at construction."""
        return self.hom_rows[self.indec(x).id][self.indec(y).id]

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


def build_ar(q: Quiver) -> ARQuiver:
    """Knit the AR quiver of a Dynkin quiver slice by slice along ZQ^op.

    Slice 0 holds the projectives P(i) (paths-from-i dimension vectors).
    Slice k+1 holds tau^{-1} of each non-injective (k, i) of slice k.  The
    middle terms of its mesh, (k, a) for each arrow a -> i and (k+1, b) for
    each arrow i -> b, are the sources of the arrows into tau^{-1}(k, i), and
    its dimension vector is their sum minus dim (k, i).  Vertices are visited
    targets first (dim P(b) < dim P(i) for i -> b), so each (k+1, b) is
    knitted before it is needed.  A knitted vector d >= 0 is a positive root
    exactly when its Tits form sum d_i^2 - sum_{a->b} d_a d_b is 1 (Gabriel),
    and distinct roots as many as the type has are all of them.  A Hom table of
    more than HOM_TABLE_BUDGET entries is refused before knitting.
    """
    n_roots = _ROOT_COUNT[q.diagram.letter](q.diagram.rank)
    if n_roots * n_roots > HOM_TABLE_BUDGET:
        raise ResourceLimitError(f"Hom table of {q.diagram}: {n_roots}^2 entries exceed {HOM_TABLE_BUDGET}")
    heads = [a - 1 for a, _ in q.arrows]
    tails = [b - 1 for _, b in q.arrows]
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
            pairs = sum(map(mul, map(dim.__getitem__, heads), map(dim.__getitem__, tails)))
            if sum(map(mul, dim, dim)) - pairs != 1 or min(dim) < 0:
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
            # The middles' sum minus x; x rides in the zip so no middles still gives -x.
            cur[i] = tuple(map(sub, map(sum, zip(x, *middles)), map(add, x, x)))
            tau_dims.append((cur[i], x))
            for e in middles:
                arrows_out[e].append(cur[i])

    if len(nodes) != n_roots:
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
        total = tuple(map(sum, zip(*[ar.indecs[a].dim for a in into[z.id]])))
        if total != tuple(map(add, tz.dim, z.dim)):
            raise InvariantViolation(f"mesh additivity fails at {z} for {ar.quiver}")


class ModuleClass(NamedTuple("ModuleClass", [("mults", tuple[int, ...])])):
    """An isomorphism class of representations: multiplicities per Indec id."""

    __slots__ = ()

    def __new__(cls, mults: tuple[int, ...]):
        if min(mults, default=0) < 0:
            raise DomainError(f"negative multiplicity in {mults}")
        return tuple.__new__(cls, (mults,))

    def dimension_vector(self, ar: ARQuiver) -> DimVector:
        mults = self.mults
        return tuple([sum(map(mul, mults, col)) for col in ar.dim_columns])


def zero_module(ar: ARQuiver) -> ModuleClass:
    return ModuleClass((0,) * len(ar))


def module_from_dim_dict(ar: ARQuiver, counts: dict[DimVector, int]) -> ModuleClass:
    """Build a class from {dimension vector: multiplicity}.  A key that is not a tuple of
    ints, or a count that is not an int >= 0, is refused, never coerced."""
    mults = [0] * len(ar)
    for dim, k in counts.items():
        ints = isinstance(dim, tuple) and all(type(c) is int for c in dim)
        if not (ints and dim in ar.by_dim):
            raise DomainError(f"{dim!r} is not an indecomposable dimension vector")
        if type(k) is not int:
            raise DomainError(f"multiplicity {k!r} for {dim} is not an integer")
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
    try:  # objects as tuples of their entries in order, so a repeated name is read each time
        obj = json.loads(text, object_pairs_hook=tuple)
    except (RecursionError, ValueError) as exc:  # ValueError: JSONDecodeError, over-long ints
        raise QuiverParseError(f"bad module JSON: {exc}") from exc
    if type(obj) is not tuple:  # arrays decode as lists
        raise QuiverParseError("module JSON must be an object")
    counts: dict[DimVector, int] = {}
    for key, val in obj:
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
    quivers = all_orientations(diag)  # its resource check runs before any root is computed
    thick = thick_vertices(diag)
    return tuple(q for q in quivers if not (thick & set(q.sources())))
