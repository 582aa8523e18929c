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
    "crystal_graph": "CrystalGraph check_axioms generate graph_from_json kostant_count",
    "crystal_ops": "Antichain HomPoset antichains e_tilde epsilon_i f_tilde hom_poset phi_i"
    " weight_of",
    "dynkin": "Diagram Quiver all_orientations cartan_matrix coroot_pairing diagram"
    " parse_quiver positive_roots",
    "errors": "DomainError InvariantViolation QuiverCrystalError QuiverParseError"
    " ResourceLimitError",
    "pm_graph": "MultiplicityGraph build_pm min_epsilon",
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
