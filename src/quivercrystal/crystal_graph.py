"""Bounded generation of the crystal graph and its global consistency checks."""

from __future__ import annotations

import json
from collections import defaultdict
from operator import add, itemgetter, sub

from .ar_quiver import ARQuiver, ModuleClass, _read_canonical, build_ar, module_to_json, zero_module
# Unused here, patched by perfbench/tracing.py: e_tilde, epsilon_i, f_tilde, phi_i, coroot_pairing.
from .crystal_ops import _score_pass, e_tilde, epsilon_i, f_tilde, hom_poset, phi_i, weight_of
from .dynkin import DimVector, Quiver, cartan_matrix, coroot_pairing, coroot_pairings
from .dynkin import Weight, parse_quiver, positive_roots
from .errors import DEFAULT_VERTEX_BUDGET, KOSTANT_BUDGET, DomainError, QuiverParseError
from .errors import ResourceLimitError

__all__ = [
    "CrystalGraph",
    "generate",
    "kostant_count",
    "check_axioms",
    "graph_from_json",
]

Key = tuple[int, ...]


class _Record:
    """Mutable fields named in ``__slots__``; equal when the class and every field are."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class VertexData(_Record):
    __slots__ = ("level", "epsilon", "phi", "weight")

    def __init__(self, level: int, epsilon: tuple[int, ...], phi: tuple[int, ...],
                 weight: tuple[int, ...]):
        self.level, self.epsilon, self.phi, self.weight = level, epsilon, phi, weight


class CrystalGraph(_Record):
    """Rooted edge-labeled graph of classes reachable within `depth` steps."""

    __slots__ = ("ar", "depth", "vertices", "edges", "levels")

    def __init__(self, ar: ARQuiver, depth: int, vertices: dict[Key, VertexData],
                 edges: list[tuple[Key, int, Key]], levels: list[list[Key]] | None = None):
        self.ar, self.depth, self.vertices, self.edges = ar, depth, vertices, edges
        self.levels = [] if levels is None else levels

    def to_json(self) -> str:
        """json.dumps, no spaces, of dicts built in sorted key order; edges and vertices sorted."""
        ar = self.ar
        names = {k: module_to_json(ar, ModuleClass._make((k,))) for k in self.vertices}
        doc = {
            "depth": self.depth,
            "edges": sorted([(names[s], i, names[t]) for s, i, t in self.edges]),
            "quiver": ar.quiver.text_spec(),
            "vertices": [
                {"epsilon": d.epsilon, "key": names[k], "level": d.level, "phi": d.phi,
                 "weight": d.weight}
                for k, d in sorted(self.vertices.items(), key=lambda kv: (kv[1].level, kv[0]))
            ],
        }
        return json.dumps(doc, separators=(",", ":"), check_circular=False)  # doc is acyclic

    def to_dot(self) -> str:
        ar = self.ar
        names = {  # as DOT quoted strings: backslashes and double quotes escaped
            k: module_to_json(ar, ModuleClass._make((k,))).replace("\\", "\\\\").replace('"', '\\"')
            for k in self.vertices
        }
        order = sorted(self.vertices, key=lambda k: (self.vertices[k].level, k))
        index = {k: n for n, k in enumerate(order)}
        lines = ["digraph crystal {", "  rankdir=TB;"]
        for k, n in index.items():
            lines.append(f'  n{n} [label="{names[k]}"];')
        for s, i, t in sorted(self.edges):
            lines.append(f'  n{index[s]} -> n{index[t]} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _passes_by_support(ar: ARQuiver):
    """(key, i) -> epsilon_i, f_tilde(key) - key, key - e_tilde(key) (None when epsilon_i is 0)."""
    # A pass at i reads and a swap writes only hom_poset(ar, i).support; the rest stays nonnegative.
    # So answers and InvariantViolations depend on (i, key on support) alone: one dict per i keyed
    # by the restriction.  Callers pass valid keys only, so a miss builds its class unchecked.
    memos = [None] * (ar.rank + 1)  # [i]: (support getter, memo dict)

    def passes(key: Key, i: int) -> tuple[int, Key, Key | None]:
        memo = memos[i]
        if memo is None:
            memo = memos[i] = itemgetter(*hom_poset(ar, i).support), {}
        get, seen = memo
        local = get(key)
        hit = seen.get(local)
        if hit is None:
            eps, lowered, raised = _score_pass(ar, ModuleClass._make((key,)), i)
            hit = seen[local] = (eps, tuple(map(sub, lowered.mults, key)),
                                 raised and tuple(map(sub, key, raised.mults)))
        return hit

    return passes


def generate(
    ar: ARQuiver, depth: int, max_vertices: int = DEFAULT_VERTEX_BUDGET
) -> CrystalGraph:
    """Lower breadth-first from zero, one score pass per distinct support restriction per call."""
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if max_vertices < 1:  # the root alone exceeds it
        raise ResourceLimitError(f"vertex budget {max_vertices} exceeded at depth 0")
    n = ar.rank
    passes = _passes_by_support(ar)
    columns = [None, *zip(*cartan_matrix(ar.quiver))]
    root, zero = zero_module(ar).mults, (0,) * n
    # Keys in discovery order, each holding (weight, pairings) until it is expanded: f_i lowers
    # the weight by alpha_i, so the discovering edge gives them (check_axioms re-derives weights).
    vertices: dict[Key, VertexData | tuple[Weight, Weight]] = {root: (zero, zero)}
    levels: list[list[Key]] = [[root]]
    edges: list[tuple[Key, int, Key]] = []
    same: dict[Key, Key] = {}  # one tuple per distinct edge target, epsilon, phi and weight value
    for level in range(depth + 1):
        nxt: list[Key] = []
        for key in levels[level]:
            wt, pairings = vertices[key]
            eps = []
            for i in range(1, n + 1):
                e, step, _ = passes(key, i)
                eps.append(e)
                if level == depth:
                    continue
                tgt = tuple(map(add, key, step))
                tgt = same.setdefault(tgt, tgt)
                if tgt not in vertices:
                    if len(vertices) >= max_vertices:
                        raise ResourceLimitError(
                            f"vertex budget {max_vertices} exceeded at depth {level + 1}"
                        )
                    vertices[tgt] = ((*wt[:i - 1], wt[i - 1] - 1, *wt[i:]),
                                     tuple(map(sub, pairings, columns[i])))
                    nxt.append(tgt)
                edges.append((key, i, tgt))
            eps = tuple(eps)
            eps = same.setdefault(eps, eps)
            phi = tuple(map(add, eps, pairings))
            vertices[key] = VertexData(level, eps, same.setdefault(phi, phi), same.setdefault(wt, wt))
        if level < depth:
            levels.append(sorted(nxt))
    return CrystalGraph(ar, depth, vertices, edges, levels)


def kostant_count(q: Quiver, beta: DimVector) -> int:
    """Number of ways to write beta as a sum of positive roots with repetition."""
    if len(beta) != q.diagram.rank:
        raise DomainError(f"{beta} does not match rank {q.diagram.rank}")
    if any(b < 0 for b in beta):
        raise DomainError(f"{beta} has a negative entry")
    # One sweep over the roots, largest first: ways maps each remainder of beta to the
    # number of ways the roots swept so far take it off beta.  There are at most
    # prod(beta_i + 1) remainders, each a dict entry: refused past KOSTANT_BUDGET.
    size = 1
    for b in beta:
        size *= b + 1
        if size > KOSTANT_BUDGET:
            raise ResourceLimitError(f"Kostant count of {beta}: prod(beta_i + 1) exceeds {KOSTANT_BUDGET}")
    ways = {tuple(beta): 1}
    for r in sorted(positive_roots(q), key=lambda r: (-sum(r), r)):
        left: dict[DimVector, int] = {}
        for rem, w in ways.items():
            while True:
                left[rem] = left.get(rem, 0) + w
                if any(c < x for c, x in zip(rem, r)):
                    break
                rem = tuple(map(sub, rem, r))
        ways = left
    return ways.get((0,) * len(beta), 0)


class CheckReport(_Record):
    __slots__ = ("ok", "checked_edges", "first_violation")

    def __init__(self, ok: bool, checked_edges: int, first_violation: str | None = None):
        self.ok, self.checked_edges, self.first_violation = ok, checked_edges, first_violation

    def __str__(self) -> str:
        if self.ok:
            return f"ok: {self.checked_edges} edges checked"
        return f"FAIL: {self.first_violation}"


def check_axioms(g: CrystalGraph) -> CheckReport:
    """Re-derive each statistic, level (the height) and edge: one score pass per distinct support
    restriction per call.  Then check that the graph is complete: one i-edge for each i out of
    every vertex below `depth`, none out of level `depth`, one into every other vertex.
    """
    ar = g.ar
    n = ar.rank
    passes = _passes_by_support(ar)
    # Per vertex: f_1..f_n's changes, then e_1..e_n's negated (key - e_i key); memo hits share them.
    moves: dict[Key, list[Key | None]] = {}
    for key, data in g.vertices.items():
        wt = weight_of(ar, ModuleClass(key))
        if wt != data.weight:
            return CheckReport(False, 0, f"stored weight wrong at {key}")
        if data.level != -sum(wt):
            return CheckReport(False, 0, f"stored level is not the height at {key}")
        moves[key] = row = [None] * (2 * n)
        for i, pairing in enumerate(coroot_pairings(ar.quiver, wt), 1):
            eps, row[i - 1], row[n + i - 1] = passes(key, i)
            if eps + pairing != data.phi[i - 1]:
                return CheckReport(False, 0, f"phi_{i} identity fails at {key}")
            if eps != data.epsilon[i - 1]:
                return CheckReport(False, 0, f"stored epsilon_{i} wrong at {key}")
    # The vertex loop has verified every stored statistic against fresh
    # operator output, so the edge checks below read the stored ones.
    # Completeness violations count only once every edge has passed them.
    alphas = [None, *(tuple(int(i == j) for j in range(n)) for i in range(n))]  # simple roots
    out_labels: defaultdict[Key, set[int]] = defaultdict(set)
    pending: list[CheckReport] = []
    for k, (src, i, tgt) in enumerate(g.edges):
        if type(i) is not int or not 1 <= i <= n:
            return CheckReport(False, k, f"edge {k}: label {i!r} is not in 1..{n}")
        sd, td = g.vertices.get(src), g.vertices.get(tgt)
        if sd is None or td is None:
            return CheckReport(False, k, f"edge {k}: endpoint is not a vertex")
        step = tuple(map(sub, tgt, src))
        if moves[src][i - 1] != step:
            return CheckReport(False, k, f"edge {k}: f_{i} does not map source to target")
        if moves[tgt][n + i - 1] != step:
            return CheckReport(False, k, f"edge {k}: e_{i} does not invert f_{i}")
        if td.epsilon[i - 1] != sd.epsilon[i - 1] + 1:
            return CheckReport(False, k, f"edge {k}: epsilon_{i} does not increase by 1")
        # Both weights verified above: rank entries, and 1 <= i <= rank.
        if tuple(map(sub, sd.weight, td.weight)) != alphas[i]:
            return CheckReport(False, k, f"edge {k}: weight does not drop by alpha_{i}")
        labels = out_labels[src]
        if sd.level == g.depth:
            pending.append(CheckReport(False, k, f"edge {k}: leaves a vertex at level {g.depth}"))
        elif i in labels:
            pending.append(CheckReport(False, k, f"edge {k}: second {i}-edge out of {src}"))
        labels.add(i)
    if pending:
        return pending[0]
    reached = {tgt for _, _, tgt in g.edges}
    for key, data in g.vertices.items():
        labels = out_labels.get(key, ())
        if data.level < g.depth and len(labels) < n:  # every label is in 1..n by now
            missing = next(i for i in range(1, n + 1) if i not in labels)
            return CheckReport(False, len(g.edges), f"no {missing}-edge out of {key}")
        if data.level and key not in reached:  # level 0 holds only the zero class
            return CheckReport(False, len(g.edges), f"no edge reaches {key}")
    return CheckReport(True, len(g.edges))


def graph_from_json(text: str) -> CrystalGraph:
    """Rebuild a generated graph from its JSON export.

    Malformed or inconsistent documents raise QuiverParseError: depth, levels
    and edge labels must be JSON integers in range (0 <= depth < vertex count),
    every vertex lists `rank` JSON integers for epsilon, phi and weight,
    no vertex key appears twice, and level 0 holds exactly the zero class.
    """
    from .ar_quiver import module_from_json

    # Each distinct key string is parsed and validated once per call, each canonical field once;
    # the vertex records share one tuple per distinct epsilon, phi and weight value.
    parsed: dict[str, Key] = {}
    fields: dict[str, tuple[int, int, int]] = {}
    same: dict[Key, Key] = {}

    def key_of(name: str) -> Key:
        key = parsed.get(name)
        if key is None:
            key = _read_canonical(ar, name, fields) or module_from_json(ar, name).mults
            parsed[name] = key
        return key

    def ints(v: dict, field: str) -> tuple[int, ...]:
        xs = v[field]
        if type(xs) is not list or len(xs) != n or {*map(type, xs)} != {int}:
            raise QuiverParseError(f"vertex {field} must be a list of {n} JSON integers")
        xs = tuple(xs)
        return same.setdefault(xs, xs)

    try:
        doc = json.loads(text)
        ar = build_ar(parse_quiver(doc["quiver"]))
        n = ar.rank
        depth = doc["depth"]
        if type(depth) is not int or depth < 0:
            raise QuiverParseError(f"depth {depth!r} is not a nonnegative JSON integer")
        if depth >= len(doc["vertices"]):  # generate leaves no level empty
            raise QuiverParseError(f"depth {depth} needs at least {depth + 1} vertices")
        vertices: dict[Key, VertexData] = {}
        levels: list[list[Key]] = [[] for _ in range(depth + 1)]
        for v in doc.pop("vertices"):  # the parsed list goes once read, before the edges
            key = key_of(v["key"])
            if key in vertices:
                raise QuiverParseError(f"vertex {v['key']!r} listed twice")
            level = v["level"]
            if type(level) is not int or not 0 <= level <= depth:
                raise QuiverParseError(f"vertex level {level!r} outside 0..{depth}")
            vertices[key] = VertexData(level, ints(v, "epsilon"), ints(v, "phi"), ints(v, "weight"))
            levels[level].append(key)
        edges = [(key_of(s), i, key_of(t)) for s, i, t in doc["edges"]]
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise QuiverParseError(f"bad graph JSON: {exc!r}") from exc
    for s, i, t in edges:
        if type(i) is not int or not 1 <= i <= n:
            raise QuiverParseError(f"edge label {i!r} outside 1..{n}")
        if s not in vertices or t not in vertices:
            raise QuiverParseError("edge endpoint is not a vertex of the graph")
    if levels[0] != [zero_module(ar).mults]:
        raise QuiverParseError("level 0 must hold exactly the zero class")
    levels = [sorted(level) for level in levels]
    return CrystalGraph(ar, depth, vertices, edges, levels)
