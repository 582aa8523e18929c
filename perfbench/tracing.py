"""Span tracing for the traced run (``--trace 1``).

The package is not edited.  While a ``Tracer`` is installed, every module
attribute listed in ``TARGETS`` is replaced by a wrapper that records one
span per call: name, start, end, parent span and the workload operation
id.  Spans are kept in flat arrays in memory; ``aggregate`` derives calls,
total time and self time per name, and ``write`` stores the spans at the
end of the run.  A function reachable through several attributes gets a
single wrapper, so each call is recorded once whichever module made it.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import weakref
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# Span name -> the attributes through which callers reach the function.
# "module.Class" entries patch a method on the class.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "dynkin.parse_quiver": (
        ("dynkin", "parse_quiver"), ("crystal_graph", "parse_quiver"), ("cli", "parse_quiver"),
    ),
    "dynkin.positive_roots": (
        ("dynkin", "positive_roots"), ("ar_quiver", "positive_roots"),
        ("crystal_graph", "positive_roots"),
    ),
    "dynkin.coroot_pairing": (("crystal_ops", "coroot_pairing"), ("crystal_graph", "coroot_pairing")),
    "ar_quiver.build_ar": (("ar_quiver", "build_ar"), ("crystal_graph", "build_ar"), ("cli", "build_ar")),
    "ar_quiver.hom_dim": (("ar_quiver.ARQuiver", "hom_dim"),),
    "ar_quiver.module_to_json": (("crystal_graph", "module_to_json"), ("cli", "module_to_json")),
    "ar_quiver.module_from_json": (("ar_quiver", "module_from_json"), ("cli", "module_from_json")),
    "ar_quiver.tau_inv_class": (("pm_graph", "tau_inv_class"),),
    "crystal_ops.hom_poset": (("crystal_ops", "hom_poset"),),
    "crystal_ops.epsilon_i": (("crystal_ops", "epsilon_i"), ("crystal_graph", "epsilon_i")),
    "crystal_ops.phi_i": (("crystal_ops", "phi_i"), ("crystal_graph", "phi_i")),
    "crystal_ops.f_tilde": (("crystal_ops", "f_tilde"), ("crystal_graph", "f_tilde")),
    "crystal_ops.e_tilde": (("crystal_ops", "e_tilde"), ("crystal_graph", "e_tilde")),
    "crystal_ops.weight_of": (("crystal_ops", "weight_of"), ("crystal_graph", "weight_of")),
    "crystal_ops.antichain_score": (("crystal_ops", "antichain_score"),),
    "pm_graph.build_pm": (("pm_graph", "build_pm"),),
    "pm_graph.min_epsilon": (("pm_graph", "min_epsilon"),),
    "crystal_graph.generate": (("crystal_graph", "generate"),),
    "crystal_graph.to_json": (("crystal_graph.CrystalGraph", "to_json"),),
    "crystal_graph.check_axioms": (("crystal_graph", "check_axioms"),),
    "crystal_graph.graph_from_json": (("crystal_graph", "graph_from_json"),),
    "cli.run": (("cli", "run"),),
}

# Calls that each make one antichain-score pass over the vertex poset
# (phi_i makes its pass through epsilon_i).
SCORE_PASS_SPANS = (
    "crystal_ops.epsilon_i", "crystal_ops.f_tilde", "crystal_ops.e_tilde",
    "crystal_ops.antichain_score",
)


def _resolve(path: str):
    """``"cli"`` -> module quivercrystal.cli; ``"ar_quiver.ARQuiver"`` -> that class."""
    mod_name, _, cls_name = path.partition(".")
    mod = importlib.import_module(f"quivercrystal.{mod_name}")
    return getattr(mod, cls_name) if cls_name else mod


class Counts:
    """Counters taken at the span boundaries of one traced pass."""

    def __init__(self) -> None:
        self.score_pairs: set = set()
        self.ar_ids: dict[int, tuple[int, object]] = {}  # id -> (index, AR quiver kept alive)
        self.refused = 0
        self.expanded_nodes = 0
        self.red_nodes = 0
        self.white_nodes = 0
        self.search_log10: list[float] = []  # accepted min_epsilon calls only
        self.vertices = 0
        self.edges = 0
        self.levels = 0
        self.max_level_size = 0
        self.context_build_ns = 0


class Tracer:
    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.op_id = 0
        self.errors: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self._first_poset: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.counts = Counts()

    def reset(self) -> None:
        """Drop recorded spans and counters; installed wrappers keep working."""
        for col in (self.name, self.start, self.end, self.parent, self.op):
            del col[:]
        self._stack[:] = [-1]
        self.counts = Counts()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for k, (span, places) in enumerate(TARGETS.items()):
            for owner_path, attr in places:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(k, original, self._observer(span))
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, k: int, fn, observe):
        name, start, end, parent, op = self.name, self.start, self.end, self.parent, self.op
        stack, errors, tracer = self._stack, self.errors, self

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(k)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[idx] = perf_counter_ns()
                stack.pop()
                errors[(tracer.names[k], type(exc).__name__)] += 1
                if observe is not None:
                    observe(args, exc, idx)
                raise
            end[idx] = perf_counter_ns()
            stack.pop()
            if observe is not None:
                observe(args, result, idx)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    # -- counters -------------------------------------------------------

    def _observer(self, span: str):
        if span in SCORE_PASS_SPANS:
            def observe(args, result, idx):
                ar, m, i = args[0], args[1], args[2]
                ids = self.counts.ar_ids
                entry = ids.get(id(ar))
                if entry is None:
                    entry = ids[id(ar)] = (len(ids), ar)
                self.counts.score_pairs.add((entry[0], m.mults, i))
            return observe
        if span == "crystal_ops.hom_poset":
            def observe(args, result, idx):
                ar, i = args[0], args[1]
                seen = self._first_poset.setdefault(ar, set())
                if i not in seen and not isinstance(result, Exception):
                    seen.add(i)
                    self.counts.context_build_ns += self.end[idx] - self.start[idx]
            return observe
        if span == "pm_graph.build_pm":
            def observe(args, g, idx):
                if isinstance(g, Exception):
                    return
                self.counts.expanded_nodes += g.sink + 1
                self.counts.red_nodes += len(g.red)
                self.counts.white_nodes += len(g.white)
            return observe
        if span == "pm_graph.min_epsilon":
            def observe(args, result, idx):
                if isinstance(result, Exception):
                    if type(result).__name__ == "ResourceLimitError":
                        self.counts.refused += 1
                    return
                g = args[0]
                self.counts.search_log10.append(
                    sum(math.log10(len(g.reach[r] & g.white) + 1) for r in g.red_order)
                )
            return observe
        if span == "crystal_graph.generate":
            def observe(args, g, idx):
                if isinstance(g, Exception):
                    return
                self.counts.vertices += len(g.vertices)
                self.counts.edges += len(g.edges)
                self.counts.levels += len(g.levels)
                self.counts.max_level_size = max(
                    self.counts.max_level_size, max(len(level) for level in g.levels)
                )
            return observe
        return None

    # -- derived numbers ------------------------------------------------

    def aggregate(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, total ns, self ns).

        Self time is a span's duration minus the time its direct children
        cover.  Total time counts only spans whose parent has another name,
        so the recursion of ``hom_dim`` is not counted twice.
        """
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for j, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[j]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        name, parent = self.name, self.parent
        for j in range(n):
            k = name[j]
            calls[k] += 1
            own[k] += dur[j] - child[j]
            p = parent[j]
            if p < 0 or name[p] != k:
                total[k] += dur[j]
        return {s: (calls[k], total[k], own[k]) for k, s in enumerate(self.names)}

    def score_passes(self, agg: dict[str, tuple[int, int, int]]) -> int:
        return sum(agg[s][0] for s in SCORE_PASS_SPANS)

    def write(self, path: Path) -> None:
        """Store the recorded spans: a JSON header and the raw column arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [("name", self.name), ("start_ns", self.start), ("end_ns", self.end),
                   ("parent", self.parent), ("op", self.op)]
        bin_path = path.with_suffix(".bin")
        with open(bin_path, "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "byteorder": sys.byteorder,
            "columns": [[c, col.typecode, col.itemsize] for c, col in columns],
            "data": bin_path.name,
        }
        path.write_text(json.dumps(header, indent=1) + "\n")
