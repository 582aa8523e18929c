"""Simply-laced Dynkin diagrams, quiver orientations, roots and bilinear forms.

Vertex labelling is fixed once and for all so that every example in the
package is reproducible:

* A_n: a path 1 - 2 - ... - n.
* D_n: a tail 1 - 2 - ... - (n-2) with the fork tips n-1 and n both
  attached to n-2.
* E_n (n = 6, 7, 8): a path 1 - 2 - ... - (n-1) with the extra vertex n
  attached to the branch vertex 3.

Dimension vectors and weights are plain integer tuples whose entry order
is the vertex label order.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .errors import DomainError, InvariantViolation, QuiverParseError

DimVector = tuple[int, ...]
Weight = tuple[int, ...]


class Diagram(NamedTuple):
    """An A/D/E diagram: a tree on vertices 1..rank with the fixed labelling."""

    letter: str
    rank: int
    edges: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"


def diagram(letter: str, rank: int) -> Diagram:
    """Build the standard diagram of the given type, validating type and rank."""
    letter = letter.upper()
    if letter == "A":
        if rank < 1:
            raise DomainError(f"type A requires rank >= 1, got {rank}")
        edges = [(i, i + 1) for i in range(1, rank)]
    elif letter == "D":
        if rank < 4:
            raise DomainError(f"type D requires rank >= 4, got {rank}")
        edges = [(i, i + 1) for i in range(1, rank - 2)]
        edges += [(rank - 2, rank - 1), (rank - 2, rank)]
    elif letter == "E":
        if rank not in (6, 7, 8):
            raise DomainError(f"type E requires rank in 6..8, got {rank}")
        edges = [(i, i + 1) for i in range(1, rank - 1)]
        edges.append((3, rank))
    else:
        raise DomainError(f"unknown Dynkin type {letter!r}")
    return Diagram(letter, rank, tuple(sorted(tuple(sorted(e)) for e in edges)))


class Quiver(NamedTuple):
    """A diagram with one orientation per edge.

    `arrows[k]` is the (source, target) orientation of `diagram.edges[k]`.
    """

    diagram: Diagram
    arrows: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        return self.text_spec()

    def text_spec(self) -> str:
        """Canonical one-line description, re-parsable by `parse_quiver`."""
        head = f"{self.diagram.letter}{self.diagram.rank}:"
        if not self.arrows:
            return head
        return head + " " + ", ".join(f"{a}->{b}" for a, b in self.arrows)

    def to_json(self) -> str:
        obj = {
            "type": self.diagram.letter,
            "rank": self.diagram.rank,
            "arrows": [list(a) for a in self.arrows],
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def sources(self) -> tuple[int, ...]:
        """Vertices with no incoming arrow (an isolated vertex counts)."""
        targets = {b for _, b in self.arrows}
        return tuple(v for v in range(1, self.diagram.rank + 1) if v not in targets)


def _orient(diag: Diagram, arrow_list: list[tuple[int, int]]) -> Quiver:
    """Validate that `arrow_list` orients each diagram edge exactly once."""
    seen: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in arrow_list:
        key = tuple(sorted((a, b)))
        if a == b or key not in set(diag.edges):
            raise QuiverParseError(f"{a}->{b} is not an edge of {diag}")
        if key in seen:
            raise QuiverParseError(f"edge {key} oriented more than once")
        seen[key] = (a, b)
    missing = [e for e in diag.edges if e not in seen]
    if missing:
        raise QuiverParseError(f"unoriented edges in {diag}: {missing}")
    return Quiver(diag, tuple(seen[e] for e in diag.edges))


_HEAD_RE = re.compile(r"^\s*([A-Za-z])\s*(\d+)\s*(?::(.*))?$", re.S)
_ARROW_RE = re.compile(r"^\s*(\d+)\s*->\s*(\d+)\s*$")


def parse_quiver(spec: str) -> Quiver:
    """Parse `A3: 2->1, 2->3` style text or the JSON alternative.

    The JSON form is `{"type":"A","rank":3,"arrows":[[2,1],[2,3]]}`, with
    a string type and JSON integers for the rank and arrow endpoints.
    """
    spec = spec.strip()
    if spec.startswith("{"):
        try:
            obj = json.loads(spec)
            letter, rank = obj["type"], obj["rank"]
            arrows = [(a, b) for a, b in obj["arrows"]]
        except (json.JSONDecodeError, KeyError, RecursionError, TypeError, ValueError) as exc:
            raise QuiverParseError(f"bad quiver JSON: {exc}") from exc
        # JSON integers only: floats, strings and booleans are not coerced.
        ints = [rank, *(v for arrow in arrows for v in arrow)]
        if type(letter) is not str or any(type(x) is not int for x in ints):
            raise QuiverParseError("quiver JSON needs a string type and integer rank and arrows")
        return _orient(diagram(letter, rank), arrows)
    m = _HEAD_RE.match(spec)
    if not m:
        raise QuiverParseError(f"cannot parse quiver spec {spec!r}")
    letter, rank, rest = m.group(1), int(m.group(2)), m.group(3) or ""
    arrows = []
    for part in rest.split(","):
        if not part.strip():
            continue
        am = _ARROW_RE.match(part)
        if not am:
            raise QuiverParseError(f"bad arrow {part.strip()!r}")
        arrows.append((int(am.group(1)), int(am.group(2))))
    return _orient(diagram(letter, rank), arrows)


def all_orientations(diag: Diagram) -> tuple[Quiver, ...]:
    """Every orientation of the diagram, in a fixed bitmask order."""
    out = []
    n_edges = len(diag.edges)
    for mask in range(1 << n_edges):
        arrows = tuple(
            (u, v) if not (mask >> k) & 1 else (v, u)
            for k, (u, v) in enumerate(diag.edges)
        )
        out.append(Quiver(diag, arrows))
    return tuple(out)


def _diagram_of(q: Quiver | Diagram) -> Diagram:
    return q.diagram if isinstance(q, Quiver) else q


@lru_cache(maxsize=None)
def cartan_matrix(q: Quiver | Diagram) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix: 2 on the diagonal, -1 exactly on diagram edges."""
    diag = _diagram_of(q)
    n = diag.rank
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
    for a, b in diag.edges:
        rows[a - 1][b - 1] = -1
        rows[b - 1][a - 1] = -1
    return tuple(tuple(r) for r in rows)


def _check_rank(q: Quiver | Diagram, *vectors: tuple[int, ...]) -> None:
    rank = _diagram_of(q).rank
    for v in vectors:
        if len(v) != rank:
            raise DomainError(f"vector {v} does not match rank {rank}")


def ringel_form(q: Quiver, d: DimVector, e: DimVector) -> int:
    """Euler form of the orientation: sum_i d_i e_i - sum_{a->b} d_a e_b.

    For modules with these dimension vectors this equals
    dim Hom - dim Ext^1.
    """
    _check_rank(q, d, e)
    total = sum(x * y for x, y in zip(d, e))
    for a, b in q.arrows:
        total -= d[a - 1] * e[b - 1]
    return total


def symmetrized_form(q: Quiver | Diagram, d: DimVector, e: DimVector) -> int:
    """d . Cartan . e, the symmetrization of the Euler form."""
    _check_rank(q, d, e)
    cartan = cartan_matrix(q)
    return sum(d[i] * cartan[i][j] * e[j] for i in range(len(d)) for j in range(len(e)))


_ROOT_COUNT = {"A": lambda n: n * (n + 1) // 2, "D": lambda n: n * (n - 1), "E": {6: 36, 7: 63, 8: 120}.get}


def positive_roots(q: Quiver | Diagram) -> tuple[DimVector, ...]:
    """All positive roots, computed by reflecting the simple roots.

    Sorted by (height, entries); the count is checked against the
    closed-form value for the type.
    """
    diag = _diagram_of(q)
    n = diag.rank
    adj = {v: [b if a == v else a for a, b in diag.edges if v in (a, b)] for v in range(1, n + 1)}
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(1, n + 1):
                entry = -v[i - 1] + sum(v[w - 1] for w in adj[i])
                r = v[: i - 1] + (entry,) + v[i:]
                if all(x >= 0 for x in r) and any(x > 0 for x in r) and r not in roots:
                    roots.add(r)
                    nxt.append(r)
        frontier = nxt
    expected = _ROOT_COUNT[diag.letter](n)
    if len(roots) != expected:
        raise InvariantViolation(f"{diag}: got {len(roots)} roots, expected {expected}")
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


def coroot_pairing(q: Quiver | Diagram, i: int, w: Weight) -> int:
    """<h_i, w> for a weight written in simple-root coordinates."""
    diag = _diagram_of(q)
    if not 1 <= i <= diag.rank:
        raise DomainError(f"vertex {i} out of range for {diag}")
    return coroot_pairings(diag, w)[i - 1]


def coroot_pairings(q: Quiver | Diagram, w: Weight) -> tuple[int, ...]:
    """<h_i, w> for every vertex i in order, checking the weight's rank once."""
    diag = _diagram_of(q)
    if len(w) != diag.rank:
        raise DomainError(f"vector {w} does not match rank {diag.rank}")
    return tuple([sum(map(mul, row, w)) for row in cartan_matrix(diag)])
