"""Nested completely regular binary codes and their coset graphs."""

from .field import (
    FieldContext,
    GF2Ext,
    QuadPair,
    build_field_context,
)
from .codes import (
    LinearCode,
    build_base_code,
    build_chain,
    check_membership,
    count_codes_at_level,
    count_full_chains,
    dual_spectrum,
    extend_code,
    load_code,
    save_code,
)
from .regularity import (
    CosetTable,
    IntersectionArray,
    check_design,
    cria_array,
    distributions_uniform,
    extended_cria_array,
    verify_completely_regular,
    verify_extended_array,
    verify_mu_identity,
    verify_uniformly_packed,
)
from .transitivity import (
    certify_transitivity,
    conjecture_report,
    extended_orbits,
    orbits_on_cosets,
)
from .graphs import (
    CosetGraph,
    build_coset_graph,
    check_antipodal,
    export_graph,
    fold,
    verify_cover,
)

__version__ = "0.1.0"

__all__ = [
    "FieldContext",
    "GF2Ext",
    "QuadPair",
    "build_field_context",
    "LinearCode",
    "build_base_code",
    "build_chain",
    "check_membership",
    "count_codes_at_level",
    "count_full_chains",
    "dual_spectrum",
    "extend_code",
    "load_code",
    "save_code",
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
    "certify_transitivity",
    "conjecture_report",
    "extended_orbits",
    "orbits_on_cosets",
    "CosetGraph",
    "build_coset_graph",
    "check_antipodal",
    "export_graph",
    "fold",
    "verify_cover",
]
