"""The package surface: lazy exports, per-subcommand imports, defaults, value types."""

import ast
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import quivercrystal
from conftest import A3_MIDDLE, ar_of
from quivercrystal import (
    Antichain,
    Diagram,
    DomainError,
    Indec,
    ModuleClass,
    Quiver,
    diagram,
    parse_quiver,
)
from quivercrystal import cli, crystal_graph, pm_graph
from quivercrystal.crystal_graph import CheckReport, CrystalGraph, VertexData
from preorder import AMorphism

SRC = Path(__file__).resolve().parent.parent / "src"

# The package's public surface, pinned: removing a name takes a deliberate edit here.
EXPORTS = {
    "ar_quiver": [
        "ARQuiver", "Indec", "ModuleClass", "build_ar", "module_from_dim_dict",
        "module_from_json", "module_to_json", "special_orientations", "tau_inv_class",
        "thick_vertices", "zero_module",
    ],
    "crystal_graph": [
        "CrystalGraph", "check_axioms", "compare_orientations", "generate", "graph_from_json",
        "kostant_count",
    ],
    "crystal_ops": [
        "Antichain", "HomPoset", "antichain_leq", "antichain_score", "antichains", "e_tilde",
        "epsilon_i", "exchange_set", "f_tilde", "hom_poset", "phi_i", "weight_of",
    ],
    "dynkin": [
        "Diagram", "Quiver", "all_orientations", "cartan_matrix", "coroot_pairing", "diagram",
        "parse_quiver", "positive_roots", "ringel_form", "symmetrized_form",
    ],
    "errors": [
        "DomainError", "InvariantViolation", "QuiverCrystalError", "QuiverParseError",
        "ResourceLimitError",
    ],
    "pm_graph": ["MultiplicityGraph", "build_pm", "min_epsilon"],
}
SUBMODULES = [*EXPORTS, "cli"]


def run_fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter that loads the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# -- which modules each subcommand loads --------------------------------------

LOADED_BY = """\
import contextlib, io, json, sys
before = set(sys.modules)
from quivercrystal import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

MODULE = '{"1,1,1":2,"1,0,0":1,"0,1,1":1,"0,1,0":1}'
COMMANDS = {
    "validate": ["quiver", "validate", A3_MIDDLE],
    "ar": ["ar", "--quiver", A3_MIDDLE],
    "special": ["special", "E8"],
    "poset": ["poset", "--quiver", A3_MIDDLE, "-i", "2"],
    "antichains": ["antichains", "--quiver", A3_MIDDLE, "-i", "2"],
    "apply": ["apply", "--quiver", A3_MIDDLE, "--module", MODULE, "--ops", "f2 e1"],
    "epsilon": ["epsilon", "--quiver", A3_MIDDLE, "--module", MODULE, "-i", "2"],
    "epsilon_geom": ["epsilon", "--quiver", A3_MIDDLE, "--module", MODULE, "-i", "2",
                     "--oracle", "geom"],
    "epsilon_pm_dot": ["epsilon", "--quiver", A3_MIDDLE, "--module", MODULE, "-i", "2",
                       "--pm-dot"],
    "graph": ["graph", "--quiver", A3_MIDDLE, "--depth", "2"],
    "check": ["check", "--quiver", A3_MIDDLE, "--depth", "2"],
    "check_samples": ["check", "--quiver", A3_MIDDLE, "--depth", "2", "--samples", "2"],
}
NEEDS_PM_GRAPH = {"epsilon_geom", "epsilon_pm_dot", "check_samples"}
NEEDS_CRYSTAL_GRAPH = {"graph", "check", "check_samples"}
# The vertex posets live in crystal_ops, so commands that build none never load it.
NEEDS_CRYSTAL_OPS = set(COMMANDS) - {"validate", "ar", "special"}


@pytest.mark.parametrize("name", COMMANDS)
def test_subcommands_import_only_what_they_use(name):
    code, loaded = json.loads(run_fresh(LOADED_BY, *COMMANDS[name]).splitlines()[-1])
    assert code == 0
    assert "dataclasses" not in loaded
    assert ("quivercrystal.pm_graph" in loaded) == (name in NEEDS_PM_GRAPH), loaded
    assert ("quivercrystal.crystal_graph" in loaded) == (name in NEEDS_CRYSTAL_GRAPH), loaded
    assert ("quivercrystal.crystal_ops" in loaded) == (name in NEEDS_CRYSTAL_OPS), loaded


@pytest.mark.parametrize("name", ["apply", "epsilon"])
def test_a_bad_module_is_rejected_before_the_operators_load(name):
    argv = [*COMMANDS[name]]
    argv[argv.index(MODULE)] = '{"1,1,x":1}'
    code, loaded = json.loads(run_fresh(LOADED_BY, *argv).splitlines()[-1])
    assert code == 2
    assert "quivercrystal.crystal_ops" not in loaded, loaded


def test_importing_the_package_loads_no_submodule():
    out = run_fresh("import sys, quivercrystal; print(sorted(sys.modules))")
    assert "quivercrystal" in out and "quivercrystal." not in out


# -- the public surface --------------------------------------------------------

SURFACE = """\
import json, sys
exports = json.loads(sys.argv[1])
import quivercrystal
star = {}
exec("from quivercrystal import *", star)
for mod, names in exports.items():
    home = __import__("quivercrystal." + mod, fromlist=["_"])
    for name in names:
        ns = {}
        exec(f"from quivercrystal import {name}", ns)
        assert ns[name] is getattr(home, name) is star[name], name
        assert name in dir(quivercrystal), name
for mod in json.loads(sys.argv[2]):
    assert getattr(quivercrystal, mod) is sys.modules["quivercrystal." + mod], mod
    assert mod in dir(quivercrystal), mod
try:
    quivercrystal.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
try:
    exec("from quivercrystal import no_such_name", {})
except ImportError:
    pass
else:
    raise AssertionError("an unknown name imported")
print("ok")
"""


def test_public_surface_resolves_in_a_fresh_interpreter():
    assert run_fresh(SURFACE, json.dumps(EXPORTS), json.dumps(SUBMODULES)) == "ok\n"


@pytest.mark.parametrize("mod", EXPORTS)
def test_each_export_is_defined_in_its_home_module(mod):
    home = "quivercrystal." + mod
    elsewhere = [n for n in EXPORTS[mod] if getattr(quivercrystal, n).__module__ != home]
    assert elsewhere == []


def test_submodule_all_lists_match_the_package_surface():
    """Each `__all__` equals its submodule's `_EXPORTS` entry, and the package exports
    exactly the names pinned above."""
    for mod in SUBMODULES:
        home = getattr(quivercrystal, mod)
        if hasattr(home, "__all__"):
            assert sorted(home.__all__) == sorted(quivercrystal._EXPORTS[mod].split()), mod
    assert set(quivercrystal.__all__) == {name for names in EXPORTS.values() for name in names}


def test_each_default_bound_is_defined_once():
    def parsed(*argv):
        return cli.build_parser().parse_args(list(argv))

    limit = inspect.signature(pm_graph.min_epsilon).parameters["limit"].default
    budget = inspect.signature(crystal_graph.generate).parameters["max_vertices"].default
    assert limit == pm_graph.DEFAULT_SEARCH_LIMIT
    assert budget == crystal_graph.DEFAULT_VERTEX_BUDGET
    eps = parsed("epsilon", "--quiver", "A1:", "--module", "{}", "-i", "1")
    assert eps.limit == limit
    assert parsed("graph", "--quiver", "A1:", "--depth", "1").max_vertices == budget
    check = parsed("check", "--quiver", "A1:")
    assert (check.limit, check.max_vertices) == (limit, budget)


def self_referring_nested_functions(root: Path) -> list[str]:
    """'module.outer.inner' for each function nested in another that names itself.

    Such a function refers to itself through its closure cell, so every call of the
    outer one leaves a reference cycle for the cyclic collector.
    """
    found = set()
    for path in sorted(root.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner)):
                    found.add(f"{path.stem}.{outer.name}.{inner.name}")
    return sorted(found)


def test_no_nested_function_refers_to_itself():
    assert self_referring_nested_functions(SRC / "quivercrystal") == []


def referenced_names(node: ast.AST) -> Counter:
    """How often each name appears under `node` as a Name, an Attribute or an import."""
    found: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rpartition(".")[2]] += 1
    return found


def uncalled_definitions(library: list[Path], callers: list[Path], exempt: set) -> list[str]:
    """'module.name' for each function, method or class defined in `library` whose name
    appears nowhere in `library` or `callers` outside its own definition.  Names in
    `exempt` and dunder methods, which Python calls by protocol, are skipped."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in [*library, *callers]}
    used = sum((referenced_names(tree) for tree in trees.values()), Counter())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        f"{path.stem}.{d.name}"
        for path in library
        for d in ast.walk(trees[path])
        if isinstance(d, kinds) and not (d.name.startswith("__") and d.name.endswith("__"))
        and d.name not in exempt and used[d.name] == referenced_names(d)[d.name]
    )


def test_every_definition_has_a_caller_outside_the_tests():
    """Library code that only tests call belongs in the tests: every definition in the
    package is used by the package or the benchmark, or is an exported name."""
    library = sorted((SRC / "quivercrystal").glob("*.py"))
    callers = sorted((SRC.parent / "perfbench").glob("*.py"))
    exported = {name for names in quivercrystal._EXPORTS.values() for name in names.split()}
    # ARQuiver.hom_dim has no library caller, but perfbench/tracing.py patches it by
    # name and fails without it; it can move to the tests once the tracer drops its
    # hooks (ROADMAP item 5).
    assert callers
    assert uncalled_definitions(library, callers, exported | {"hom_dim"}) == []


def test_every_module_parses_as_the_oldest_supported_python():
    """The syntax floor of `requires-python = ">=3.10"` in pyproject.toml."""
    for path in sorted((SRC / "quivercrystal").glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


# -- value types ---------------------------------------------------------------


def value_examples():
    """(type, field names, two equal instances built apart, one that differs)."""
    ar = ar_of(A3_MIDDLE)
    x = ar.indecs[2]
    return [
        (ModuleClass, ["mults"], ModuleClass((1, 0, 2)), ModuleClass(mults=(1, 0, 2)),
         ModuleClass((1, 0, 3))),
        (Indec, ["id", "dim", "projective_vertex", "injective_vertex"], x,
         Indec(x.id, tuple(x.dim), x.projective_vertex, x.injective_vertex),
         Indec(x.id, x.dim, 9, x.injective_vertex)),
        (Antichain, ["members"], Antichain((1, 2)), Antichain(members=(1, 2)), Antichain((1,))),
        (Diagram, ["letter", "rank", "edges"], diagram("D", 4),
         parse_quiver("D4: 1->2, 2->3, 2->4").diagram, diagram("D", 5)),
        (Quiver, ["diagram", "arrows"], ar.quiver, parse_quiver("A3: 2->3, 2->1"),
         parse_quiver("A3: 1->2, 2->3")),
        (AMorphism, ["targets"], AMorphism((3, 4)), AMorphism(targets=(3, 4)),
         AMorphism((4, 3))),
    ]


@pytest.mark.parametrize("kind", range(6))
def test_frozen_value_types_compare_by_value_and_reject_assignment(kind):
    cls, fields, a, b, other = value_examples()[kind]
    assert type(a) is type(b) is cls and a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != other and not a == other
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    with pytest.raises(AttributeError):
        a.extra = 1


def test_value_constructors_keep_their_domain_checks():
    with pytest.raises(DomainError, match="negative multiplicity"):
        ModuleClass((1, -1))
    with pytest.raises(DomainError, match="nonempty"):
        Antichain(())
    with pytest.raises(DomainError, match="nonempty"):
        Antichain(members=())


def test_records_compare_by_value_and_stay_assignable():
    a = VertexData(1, (0, 1), (1, 0), (-1, 0))
    b = VertexData(level=1, epsilon=(0, 1), phi=(1, 0), weight=(-1, 0))
    assert a == b and not a != b
    b.epsilon = (1, 1)
    assert b.epsilon == (1, 1) and a != b
    with pytest.raises(TypeError):
        hash(a)
    r = CheckReport(True, 3)
    assert r == CheckReport(True, 3, None) and r.first_violation is None
    r.ok, r.first_violation = False, "bad"
    assert r == CheckReport(False, 3, "bad") and str(r) == "FAIL: bad"
    g = crystal_graph.generate(ar_of(A3_MIDDLE), 1)
    h = CrystalGraph(g.ar, g.depth, dict(g.vertices), list(g.edges), g.levels)
    assert g == h and CrystalGraph(g.ar, 1, {}, []).levels == []
    h.depth = 2
    assert g != h
