"""Crystal operators on isomorphism classes of Dynkin quiver representations.

Importing the package loads no submodule.  Each exported name, and each
submodule, is imported on first access (PEP 562), so a command that only
parses a quiver never compiles the crystal graph or the matching code.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "ar_quiver": "ARQuiver Indec ModuleClass build_ar module_from_dim_dict module_from_json"
    " module_to_json special_orientations tau_inv_class thick_vertices zero_module",
    "crystal_graph": "CrystalGraph check_axioms compare_orientations generate graph_from_json"
    " kostant_count",
    "crystal_ops": "Antichain HomPoset antichain_leq antichain_score antichains e_tilde"
    " epsilon_i exchange_set f_tilde hom_poset phi_i weight_of",
    "dynkin": "Diagram Quiver all_orientations cartan_matrix coroot_pairing diagram"
    " parse_quiver positive_roots ringel_form symmetrized_form",
    "errors": "DomainError InvariantViolation QuiverCrystalError QuiverParseError"
    " ResourceLimitError",
    "pm_graph": "AMorphism MultiplicityGraph build_pm closure_H closure_antichain down_closure"
    " enumerate_morphisms eps_of F_of_subset is_preceq is_preceq_minimal min_epsilon"
    " preceq_minimal_morphisms",
    "cli": "",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
