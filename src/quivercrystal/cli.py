"""Command-line interface.

Exit codes: 0 success, 1 domain error or failed check, 2 parse or usage
error, 3 resource bound exceeded.  All output is deterministic: repeated
identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from itertools import chain, islice

# Each subcommand imports the modules it needs beyond these: crystal_ops
# for the operators, crystal_graph for graph and check, pm_graph only on
# the geometric route.  A cold start then compiles no unused module.
from .ar_quiver import ModuleClass, build_ar, module_from_json, module_to_json, special_orientations
from .dynkin import coroot_pairings, diagram, parse_quiver
from .errors import (
    DEFAULT_SEARCH_LIMIT,
    DEFAULT_VERTEX_BUDGET,
    DomainError,
    QuiverCrystalError,
    QuiverParseError,
    ResourceLimitError,
)

_OP_RE = re.compile(r"^([fe])(\d+)$")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _stream(parts) -> None:
    """Write the strings of an iterable to stdout, joined 4,096 at a time: a long output
    is never held whole, nor sent to a pipe in many small writes."""
    parts = iter(parts)
    while chunk := "".join(islice(parts, 4096)):
        sys.stdout.write(chunk)


def _parse_diagram(text: str):
    m = re.match(r"^\s*([A-Za-z])\s*(\d+)\s*$", text)
    if not m:
        raise QuiverParseError(f"cannot parse diagram {text!r}")
    return diagram(m.group(1), int(m.group(2)))


def _nonnegative(text: str) -> int:
    """argparse type of counts and bounds: a nonnegative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return n


def _load_module(ar, spec: str) -> ModuleClass:
    text = spec.strip()
    if not text.startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise QuiverParseError(f"cannot read module file {spec!r}: {exc}") from exc
    return module_from_json(ar, text)


def _cmd_quiver(args) -> int:
    q = parse_quiver(args.spec)
    print(q.to_json() if args.format == "json" else q.text_spec())
    return 0


def _cmd_ar(args) -> int:
    ar = build_ar(parse_quiver(args.quiver))
    print(ar.to_dot() if args.format == "dot" else ar.to_json(), end="")
    if args.format == "json":
        print()
    return 0


def _hom_poset_doc(p):
    return {
        "i": p.vertex,
        "elements": [list(x.dim) for x in p.elements],
        "leq": [[a, b] for a, up in enumerate(p.above) for b in range(len(p)) if up >> b & 1],
        "covers": [list(c) for c in p.covers],
    }


def _cmd_poset(args) -> int:
    from . import crystal_ops
    ar = build_ar(parse_quiver(args.quiver))
    p = crystal_ops.hom_poset(ar, args.i)
    if args.format == "json":
        print(_dump(_hom_poset_doc(p)))
        return 0
    print(f"poset at vertex {p.vertex}: {len(p)} elements")
    for x in p.elements:
        tags = []
        if x.projective_vertex == p.vertex:
            tags.append("min=P(%d)" % p.vertex)
        if x.dim == ar.simple(p.vertex).dim:
            tags.append("max=S(%d)" % p.vertex)
        print("  " + str(x) + ("  " + " ".join(tags) if tags else ""))
    for a, b in p.covers:
        print(f"cover: {p.elements[a]} <= {p.elements[b]}")
    return 0


def _cmd_antichains(args) -> int:
    """Each antichain is written as it is read off its down-set mask; the JSON is
    _dump's text of {"i": vertex, "antichains": [the member dims of each]}."""
    from . import crystal_ops
    ar = build_ar(parse_quiver(args.quiver))
    p = crystal_ops.hom_poset(ar, args.i)
    members = crystal_ops._antichain_ids(p)
    if args.format == "json":
        dims = {xid: _dump(list(ar.indecs[xid].dim)) for xid in p.element_ids}
        rows = (",[" + ",".join(map(dims.__getitem__, ids)) + "]" for ids in members)
        # The poset holds S(i), so there is a first antichain: it alone loses its comma.
        _stream(chain(['{"antichains":[', next(rows)[1:]], rows, [f'],"i":{p.vertex}}}\n']))
        return 0
    names = {xid: str(ar.indecs[xid]) for xid in p.element_ids}
    _stream(chain([f"{len(p.downsets)} antichains at vertex {p.vertex}\n"],
                  ("  " + " + ".join(map(names.__getitem__, ids)) + "\n" for ids in members)))
    return 0


def _parse_ops(text: str, rank: int) -> list[tuple[str, int]]:
    ops = []
    for token in text.split():
        m = _OP_RE.match(token)
        if not m:
            raise QuiverParseError(f"bad operator token {token!r}")
        i = int(m.group(2))
        if not 1 <= i <= rank:
            raise QuiverParseError(f"vertex {i} out of range in {token!r}")
        ops.append((m.group(1), i))
    return ops


def _class_stats(ar, m: ModuleClass) -> dict:
    from . import crystal_ops
    eps = [crystal_ops.epsilon_i(ar, m, i) for i in range(1, ar.rank + 1)]
    wt = crystal_ops.weight_of(ar, m)
    phi = [e + h for e, h in zip(eps, coroot_pairings(ar.quiver, wt))]
    return {
        "module": json.loads(module_to_json(ar, m)),
        "epsilon": {str(i): e for i, e in enumerate(eps, 1)},
        "phi": {str(i): x for i, x in enumerate(phi, 1)},
        "weight": list(wt),
    }


def _cmd_apply(args) -> int:
    ar = build_ar(parse_quiver(args.quiver))
    m: ModuleClass | None = _load_module(ar, args.module)
    from . import crystal_ops
    for kind, i in _parse_ops(args.ops, ar.rank):
        if kind == "f":
            m = crystal_ops.f_tilde(ar, m, i)
        else:
            m = crystal_ops.e_tilde(ar, m, i)
            if m is None:
                break
    if m is None:
        print("null")
        return 1 if args.strict else 0
    stats = _class_stats(ar, m)
    if args.format == "json":
        print(_dump(stats))
    else:
        print(_dump(stats["module"]))
        print("epsilon " + _dump(stats["epsilon"]))
        print("phi " + _dump(stats["phi"]))
        print("weight " + _dump(stats["weight"]))
    return 0


def _cmd_epsilon(args) -> int:
    ar = build_ar(parse_quiver(args.quiver))
    m = _load_module(ar, args.module)
    from . import crystal_ops
    if args.pm_dot:
        from . import pm_graph
        g = pm_graph.build_pm(ar, crystal_ops.hom_poset(ar, args.i), m)
        n = g.sink + 1  # from the counts, before any per-node work
        if n > args.limit:
            raise ResourceLimitError(f"multiplicity graph of {n} nodes exceeds {args.limit}")
        _stream(g.dot_lines())
        return 0
    eps = crystal_ops.epsilon_i(ar, m, args.i)
    doc: dict = {"i": args.i, "epsilon": eps}
    if args.oracle == "geom":
        from . import pm_graph
        g = pm_graph.build_pm(ar, crystal_ops.hom_poset(ar, args.i), m)
        geom = pm_graph.min_epsilon(g, args.limit)
        doc["geom"] = geom
        doc["agree"] = geom == eps
    if args.format == "json":
        print(_dump(doc))
    else:
        line = f"epsilon_{args.i} = {eps}"
        if "geom" in doc:
            line += f"  geom = {doc['geom']}  {'agree' if doc['agree'] else 'DISAGREE'}"
        print(line)
    return 0 if doc.get("agree", True) else 1


def _cmd_graph(args) -> int:
    from . import crystal_graph
    ar = build_ar(parse_quiver(args.quiver))
    g = crystal_graph.generate(ar, args.depth, args.max_vertices)
    print(g.to_dot() if args.format == "dot" else g.to_json(), end="")
    if args.format == "json":
        print()
    return 0


def _cmd_special(args) -> int:
    diag = _parse_diagram(args.diagram)
    quivers = special_orientations(diag)
    if args.format == "json":
        print(_dump({"diagram": str(diag), "orientations": [q.text_spec() for q in quivers]}))
    else:
        for q in quivers:
            print(q.text_spec())
    return 0


def _random_class(rng: random.Random, ar, max_mult: int, max_summands: int) -> ModuleClass:
    mults = [0] * len(ar)
    for _ in range(rng.randrange(max_summands + 1)):
        xid = rng.randrange(len(ar))
        if mults[xid] < max_mult:
            mults[xid] += 1
    return ModuleClass(tuple(mults))


def _cmd_check(args) -> int:
    from . import crystal_graph
    ar = build_ar(parse_quiver(args.quiver))
    g = crystal_graph.generate(ar, args.depth, args.max_vertices)
    report = crystal_graph.check_axioms(g)
    axioms = {"ok": report.ok, "checked_edges": report.checked_edges,
              "first_violation": report.first_violation}
    doc: dict = {"axioms": axioms}
    if args.format == "text":
        print(f"axioms: {report}")
    failures = 0 if report.ok else 1
    if args.samples:
        from . import crystal_ops, pm_graph
        rng = random.Random(args.seed)
        bad = 0
        for _ in range(args.samples):
            m = _random_class(rng, ar, 2, 6)
            for i in range(1, ar.rank + 1):
                eps = crystal_ops.epsilon_i(ar, m, i)
                pg = pm_graph.build_pm(ar, crystal_ops.hom_poset(ar, i), m)
                if pm_graph.min_epsilon(pg, args.limit) != eps:
                    bad += 1
                x = crystal_ops.f_tilde(ar, m, i)
                back = crystal_ops.e_tilde(ar, x, i)
                if back is None or back.mults != m.mults:
                    bad += 1
        doc["samples"] = {"count": args.samples, "violations": bad, "seed": args.seed}
        if args.format == "text":
            print(f"samples: {args.samples} random classes, {bad} violations (seed {args.seed})")
        failures += bad
    if args.format == "json":
        print(_dump(doc))
    return 0 if failures == 0 else 1


def _arg(*flags, **kwargs):
    return flags, kwargs


_QUIVER = _arg("--quiver", required=True)
_VERTEX = _arg("-i", type=int, required=True)
_TEXT = _arg("--format", choices=["text", "json"], default="text")
_DOT = _arg("--format", choices=["json", "dot"], default="json")
_LIMIT = _arg("--limit", type=_nonnegative, default=DEFAULT_SEARCH_LIMIT)
_MAX_VERTICES = _arg("--max-vertices", type=_nonnegative, default=DEFAULT_VERTEX_BUDGET)

# name: (help, handler, arguments); the arguments are added for the chosen command only.
_COMMANDS = {
    "quiver": ("validate and normalize a quiver description", _cmd_quiver,
               [_arg("action", choices=["validate"]), _arg("spec"), _TEXT]),
    "ar": ("emit the Auslander-Reiten quiver", _cmd_ar, [_QUIVER, _DOT]),
    "poset": ("poset of indecomposables mapping onto S(i)", _cmd_poset, [_QUIVER, _VERTEX, _TEXT]),
    "antichains": ("all nonempty antichains of the poset", _cmd_antichains, [_QUIVER, _VERTEX, _TEXT]),
    "apply": ("apply an operator word to a class", _cmd_apply, [
        _QUIVER, _arg("--module", required=True, help="inline JSON or a file path"),
        _arg("--ops", required=True, help='word like "f2 f2 e1", applied left to right'),
        _arg("--strict", action="store_true", help="exit 1 when a raise is undefined"), _TEXT]),
    "epsilon": ("string statistic of a class at a vertex", _cmd_epsilon, [
        _QUIVER, _arg("--module", required=True), _VERTEX, _arg("--oracle", choices=["geom"], default=None),
        _LIMIT, _arg("--pm-dot", action="store_true",
                     help="emit the expanded multiplicity graph as DOT instead"), _TEXT]),
    "graph": ("generate the crystal graph to a depth", _cmd_graph,
              [_QUIVER, _arg("--depth", type=_nonnegative, required=True), _MAX_VERTICES, _DOT]),
    "special": ("orientations with no thick source", _cmd_special,
                [_arg("diagram", help="diagram name like A3 or E8"), _TEXT]),
    "check": ("run axiom checks, exit 1 on violation", _cmd_check, [
        _QUIVER, _arg("--depth", type=_nonnegative, default=4), _MAX_VERTICES,
        _arg("--samples", type=_nonnegative, default=0, help="extra randomized checks"),
        _arg("--seed", type=int, default=0), _LIMIT, _TEXT]),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser, complete when argv is None.  Otherwise only the command argv names
    gets its arguments: the first string not starting with "-", since the top level
    has no option that takes a value.  Help and errors read the same either way."""
    chosen = None if argv is None else next((a for a in argv if not a.startswith("-")), "")
    parser = argparse.ArgumentParser(
        prog="quivercrystal",
        description="Crystal operators on classes of Dynkin quiver representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if chosen in (None, name):
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
    return parser


def run(argv: list[str]) -> int:
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except QuiverParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuiverCrystalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        raise


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
