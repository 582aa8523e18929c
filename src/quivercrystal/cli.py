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


def _hom_poset_doc(ar, p):
    return {
        "i": p.vertex,
        "elements": [list(ar.indecs[xid].dim) for xid in p.element_ids],
        "leq": [
            [a, b]
            for a in range(len(p))
            for b in range(len(p))
            if p.leq[a][b]
        ],
        "covers": [list(c) for c in p.covers],
    }


def _cmd_poset(args) -> int:
    from . import crystal_ops
    ar = build_ar(parse_quiver(args.quiver))
    p = crystal_ops.hom_poset(ar, args.i)
    if args.format == "json":
        print(_dump(_hom_poset_doc(ar, p)))
        return 0
    print(f"poset at vertex {p.vertex}: {len(p)} elements")
    for xid in p.element_ids:
        x = ar.indecs[xid]
        tags = []
        if x.projective_vertex == p.vertex:
            tags.append("min=P(%d)" % p.vertex)
        if x.dim == ar.simple(p.vertex).dim:
            tags.append("max=S(%d)" % p.vertex)
        print("  " + str(x) + ("  " + " ".join(tags) if tags else ""))
    for a, b in p.covers:
        print(f"cover: {ar.indecs[p.element_ids[a]]} <= {ar.indecs[p.element_ids[b]]}")
    return 0


def _cmd_antichains(args) -> int:
    from . import crystal_ops
    ar = build_ar(parse_quiver(args.quiver))
    p = crystal_ops.hom_poset(ar, args.i)
    chains = crystal_ops.antichains(p)
    if args.format == "json":
        doc = {
            "i": p.vertex,
            "antichains": [
                [list(ar.indecs[xid].dim) for xid in a.members] for a in chains
            ],
        }
        print(_dump(doc))
        return 0
    print(f"{len(chains)} antichains at vertex {p.vertex}")
    for a in chains:
        print("  " + " + ".join(str(ar.indecs[xid]) for xid in a.members))
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
        print(g.to_dot(), end="")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivercrystal",
        description="Crystal operators on classes of Dynkin quiver representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quiver", help="validate and normalize a quiver description")
    p.add_argument("action", choices=["validate"])
    p.add_argument("spec")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_quiver)

    p = sub.add_parser("ar", help="emit the Auslander-Reiten quiver")
    p.add_argument("--quiver", required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_ar)

    p = sub.add_parser("poset", help="poset of indecomposables mapping onto S(i)")
    p.add_argument("--quiver", required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("antichains", help="all nonempty antichains of the poset")
    p.add_argument("--quiver", required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_antichains)

    p = sub.add_parser("apply", help="apply an operator word to a class")
    p.add_argument("--quiver", required=True)
    p.add_argument("--module", required=True, help="inline JSON or a file path")
    p.add_argument("--ops", required=True, help='word like "f2 f2 e1", applied left to right')
    p.add_argument("--strict", action="store_true", help="exit 1 when a raise is undefined")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("epsilon", help="string statistic of a class at a vertex")
    p.add_argument("--quiver", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("--oracle", choices=["geom"], default=None)
    p.add_argument("--limit", type=_nonnegative, default=DEFAULT_SEARCH_LIMIT)
    p.add_argument("--pm-dot", action="store_true",
                   help="emit the expanded multiplicity graph as DOT instead")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_epsilon)

    p = sub.add_parser("graph", help="generate the crystal graph to a depth")
    p.add_argument("--quiver", required=True)
    p.add_argument("--depth", type=_nonnegative, required=True)
    p.add_argument("--max-vertices", type=_nonnegative, default=DEFAULT_VERTEX_BUDGET)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("special", help="orientations with no thick source")
    p.add_argument("diagram", help="diagram name like A3 or E8")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_special)

    p = sub.add_parser("check", help="run axiom checks, exit 1 on violation")
    p.add_argument("--quiver", required=True)
    p.add_argument("--depth", type=_nonnegative, default=4)
    p.add_argument("--max-vertices", type=_nonnegative, default=DEFAULT_VERTEX_BUDGET)
    p.add_argument("--samples", type=_nonnegative, default=0, help="extra randomized checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=_nonnegative, default=DEFAULT_SEARCH_LIMIT)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_check)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
