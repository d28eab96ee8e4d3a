"""Nested completely regular binary codes and their coset graphs."""

from importlib import import_module

# every public name with the module that defines it; both are imported on
# first use (PEP 562), so building a field and a chain never loads numpy
_LAZY = {
    "field": (
        "FieldContext",
        "GF2Ext",
        "QuadPair",
        "build_field_context",
    ),
    "codes": (
        "LinearCode",
        "build_chain",
        "check_membership",
        "dual_spectrum",
        "extend_code",
        "save_code",
    ),
    "regularity": (
        "CosetTable",
        "IntersectionArray",
        "check_design",
        "cria_array",
        "distributions_uniform",
        "extended_cria_array",
        "verify_completely_regular",
        "verify_extended_array",
        "verify_mu_identity",
        "verify_uniformly_packed",
    ),
    "transitivity": (
        "certify_transitivity",
        "orbits_on_cosets",
    ),
    "graphs": (
        "CosetGraph",
        "build_coset_graph",
        "check_antipodal",
        "export_graph",
        "fold",
        "verify_cover",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*globals(), *_LAZY, *_HOME]


__version__ = "0.1.0"

__all__ = list(_HOME)
