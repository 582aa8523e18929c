"""Bounded generation of the crystal graph and its global consistency checks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .ar_quiver import ARQuiver, ModuleClass, build_ar, module_to_json, zero_module
from .crystal_ops import e_tilde, epsilon_i, f_tilde, phi_i, weight_of
from .dynkin import DimVector, Quiver, coroot_pairing, parse_quiver, positive_roots
from .errors import DomainError, QuiverParseError, ResourceLimitError

__all__ = [
    "CrystalGraph",
    "CheckReport",
    "generate",
    "kostant_count",
    "check_axioms",
    "compare_orientations",
    "graph_from_json",
]

DEFAULT_VERTEX_BUDGET = 200_000

Key = tuple[int, ...]


@dataclass
class VertexData:
    level: int
    epsilon: tuple[int, ...]
    phi: tuple[int, ...]
    weight: tuple[int, ...]


@dataclass
class CrystalGraph:
    """Rooted edge-labeled graph of classes reachable within `depth` steps."""

    ar: ARQuiver
    depth: int
    vertices: dict[Key, VertexData]
    edges: list[tuple[Key, int, Key]]
    levels: list[list[Key]] = field(default_factory=list)

    @property
    def root(self) -> Key:
        return self.levels[0][0]

    def out_edges(self) -> dict[tuple[Key, int], Key]:
        return {(src, i): tgt for src, i, tgt in self.edges}

    def to_json(self) -> str:
        ar = self.ar
        verts = [
            {
                "key": module_to_json(ar, ModuleClass(k)),
                "level": d.level,
                "epsilon": list(d.epsilon),
                "phi": list(d.phi),
                "weight": list(d.weight),
            }
            for k, d in sorted(self.vertices.items(), key=lambda kv: (kv[1].level, kv[0]))
        ]
        edges = sorted(
            [module_to_json(ar, ModuleClass(s)), i, module_to_json(ar, ModuleClass(t))]
            for s, i, t in self.edges
        )
        doc = {
            "quiver": ar.quiver.text_spec(),
            "depth": self.depth,
            "vertices": verts,
            "edges": edges,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def to_dot(self) -> str:
        ar = self.ar
        names = {
            k: module_to_json(ar, ModuleClass(k))
            for k in self.vertices
        }
        index = {
            k: n
            for n, k in enumerate(
                sorted(self.vertices, key=lambda k: (self.vertices[k].level, k))
            )
        }
        lines = ["digraph crystal {", "  rankdir=TB;"]
        for k, n in index.items():
            lines.append(f'  n{n} [label="{names[k]}"];')
        for s, i, t in sorted(self.edges):
            lines.append(f'  n{index[s]} -> n{index[t]} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def generate(
    ar: ARQuiver, depth: int, max_vertices: int = DEFAULT_VERTEX_BUDGET
) -> CrystalGraph:
    """Apply every lowering operator breadth-first from the zero class."""
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    n = ar.rank
    root = zero_module(ar).mults
    vertices: dict[Key, VertexData] = {root: _vertex_data(ar, root, 0)}
    levels: list[list[Key]] = [[root]]
    edges: list[tuple[Key, int, Key]] = []
    for level in range(depth):
        nxt: list[Key] = []
        for key in levels[level]:
            m = ModuleClass(key)
            for i in range(1, n + 1):
                tgt = f_tilde(ar, m, i).mults
                if tgt not in vertices:
                    if len(vertices) >= max_vertices:
                        raise ResourceLimitError(
                            f"vertex budget {max_vertices} exceeded at depth {level + 1}"
                        )
                    vertices[tgt] = _vertex_data(ar, tgt, level + 1)
                    nxt.append(tgt)
                edges.append((key, i, tgt))
        levels.append(sorted(nxt))
    return CrystalGraph(ar, depth, vertices, edges, levels)


def _vertex_data(ar: ARQuiver, key: Key, level: int) -> VertexData:
    m = ModuleClass(key)
    wt = weight_of(ar, m)
    eps = tuple(epsilon_i(ar, m, i) for i in range(1, ar.rank + 1))
    phi = tuple(e + coroot_pairing(ar.quiver, i, wt) for i, e in enumerate(eps, 1))
    return VertexData(level, eps, phi, wt)


def kostant_count(q: Quiver, beta: DimVector) -> int:
    """Number of ways to write beta as a sum of positive roots with repetition."""
    if len(beta) != q.diagram.rank:
        raise DomainError(f"{beta} does not match rank {q.diagram.rank}")
    if any(b < 0 for b in beta):
        raise DomainError(f"{beta} has a negative entry")
    roots = sorted(positive_roots(q), key=lambda r: (-sum(r), r))
    memo: dict[tuple[int, DimVector], int] = {}

    def count(idx: int, rem: DimVector) -> int:
        if not any(rem):
            return 1
        if idx == len(roots):
            return 0
        state = (idx, rem)
        if state in memo:
            return memo[state]
        r = roots[idx]
        total = 0
        cur = rem
        while True:
            total += count(idx + 1, cur)
            if all(c >= x for c, x in zip(cur, r)):
                cur = tuple(c - x for c, x in zip(cur, r))
            else:
                break
        memo[state] = total
        return total

    return count(0, tuple(beta))


@dataclass
class CheckReport:
    ok: bool
    checked_edges: int
    first_violation: str | None = None

    def __str__(self) -> str:
        if self.ok:
            return f"ok: {self.checked_edges} edges checked"
        return f"FAIL: {self.first_violation}"


def check_axioms(g: CrystalGraph) -> CheckReport:
    """Re-derive every edge and every vertex statistic from the operators."""
    ar = g.ar
    n = ar.rank
    for key, data in g.vertices.items():
        m = ModuleClass(key)
        wt = weight_of(ar, m)
        if wt != data.weight:
            return CheckReport(False, 0, f"stored weight wrong at {key}")
        for i in range(1, n + 1):
            eps = epsilon_i(ar, m, i)
            if eps != data.epsilon[i - 1]:
                return CheckReport(False, 0, f"stored epsilon_{i} wrong at {key}")
            expected_phi = eps + coroot_pairing(ar.quiver, i, wt)
            if data.phi[i - 1] != expected_phi or phi_i(ar, m, i) != expected_phi:
                return CheckReport(False, 0, f"phi_{i} identity fails at {key}")
    for k, (src, i, tgt) in enumerate(g.edges):
        sm, tm = ModuleClass(src), ModuleClass(tgt)
        if f_tilde(ar, sm, i).mults != tgt:
            return CheckReport(False, k, f"edge {k}: f_{i} does not map source to target")
        back = e_tilde(ar, tm, i)
        if back is None or back.mults != src:
            return CheckReport(False, k, f"edge {k}: e_{i} does not invert f_{i}")
        if epsilon_i(ar, tm, i) != epsilon_i(ar, sm, i) + 1:
            return CheckReport(False, k, f"edge {k}: epsilon_{i} does not increase by 1")
        if weight_of(ar, tm) != tuple(
            w - (1 if j == i - 1 else 0) for j, w in enumerate(weight_of(ar, sm))
        ):
            return CheckReport(False, k, f"edge {k}: weight does not drop by alpha_{i}")
    return CheckReport(True, len(g.edges))


def compare_orientations(q1: Quiver, q2: Quiver, depth: int) -> bool:
    """Forced label-matching BFS from the roots of both bounded graphs."""
    if q1.diagram != q2.diagram:
        raise DomainError("orientations of different diagrams cannot be compared")
    ar1, ar2 = build_ar(q1), build_ar(q2)
    if not (ar1.is_special() and ar2.is_special()):
        raise DomainError("both orientations must be special")
    g1, g2 = generate(ar1, depth), generate(ar2, depth)
    if len(g1.vertices) != len(g2.vertices):
        return False
    out1, out2 = g1.out_edges(), g2.out_edges()
    pair = {g1.root: g2.root}
    rev = {g2.root: g1.root}
    queue = [(g1.root, g2.root)]
    while queue:
        u, v = queue.pop()
        for i in range(1, q1.diagram.rank + 1):
            t1, t2 = out1.get((u, i)), out2.get((v, i))
            if (t1 is None) != (t2 is None):
                return False
            if t1 is None:
                continue
            if t1 in pair:
                if pair[t1] != t2:
                    return False
            elif t2 in rev:
                return False
            else:
                pair[t1] = t2
                rev[t2] = t1
                queue.append((t1, t2))
    return len(pair) == len(g1.vertices)


def graph_from_json(text: str) -> CrystalGraph:
    """Rebuild a generated graph from its JSON export.

    Malformed or inconsistent documents raise QuiverParseError.
    """
    from .ar_quiver import module_from_json

    try:
        doc = json.loads(text)
        ar = build_ar(parse_quiver(doc["quiver"]))
        depth = int(doc["depth"])
        vertices: dict[Key, VertexData] = {}
        levels: list[list[Key]] = [[] for _ in range(depth + 1)]
        for v in doc["vertices"]:
            key = module_from_json(ar, v["key"]).mults
            level = int(v["level"])
            if not 0 <= level <= depth:
                raise QuiverParseError(f"vertex level {level} outside 0..{depth}")
            vertices[key] = VertexData(
                level,
                tuple(v["epsilon"]),
                tuple(v["phi"]),
                tuple(v["weight"]),
            )
            levels[level].append(key)
        edges = [
            (module_from_json(ar, s).mults, int(i), module_from_json(ar, t).mults)
            for s, i, t in doc["edges"]
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise QuiverParseError(f"bad graph JSON: {exc!r}") from exc
    for s, _, t in edges:
        if s not in vertices or t not in vertices:
            raise QuiverParseError("edge endpoint is not a vertex of the graph")
    levels = [sorted(level) for level in levels]
    return CrystalGraph(ar, depth, vertices, edges, levels)
