"""Exact computations in tautological rings of moduli of stable curves.

Everything is exact: coefficients are ``fractions.Fraction``, graph
combinatorics is canonical-form based, and intersection numbers come from
the string and dilaton equations and the DVV recursion.  No floats anywhere.
"""

from .graphs import (
    DomainError,
    StableGraph,
    automorphism_count,
    automorphisms,
    canonical,
    contract,
    decode_graph,
    enumerate_stable_graphs,
    isomorphisms,
    make_graph,
)
from .strata import (
    DecoratedStratum,
    MixedClass,
    TautClass,
    fundamental_stratum,
    generators,
    make_stratum,
    off_locus_strata,
    restrict,
    single,
    unit,
)
from .integrate import (
    PairingMatrix,
    evaluate,
    kappa_psi_integral,
    matrix_rank,
    pair_classes,
    pair_strata,
    pairing_matrix,
    psi_integral,
    solve_linear_system,
    stratum_integral,
)
from .product import multiply, multiply_mixed, multiply_strata
from .pixton import (
    RamificationData,
    delta_factor,
    exp_class,
    hain_divisor,
    pixton_class,
    pixton_mixed,
    q_form,
)
from .verify import (
    CheckReport,
    check_exp_identities,
    check_gplus1,
    check_multiplicativity,
    check_section7,
    in_span_mod_pairing,
    is_zero_mod_pairing,
)

__all__ = [
    "CheckReport",
    "DecoratedStratum",
    "DomainError",
    "MixedClass",
    "PairingMatrix",
    "RamificationData",
    "StableGraph",
    "TautClass",
    "automorphism_count",
    "automorphisms",
    "canonical",
    "check_exp_identities",
    "check_gplus1",
    "check_multiplicativity",
    "check_section7",
    "contract",
    "decode_graph",
    "delta_factor",
    "enumerate_stable_graphs",
    "evaluate",
    "exp_class",
    "fundamental_stratum",
    "generators",
    "hain_divisor",
    "in_span_mod_pairing",
    "is_zero_mod_pairing",
    "isomorphisms",
    "kappa_psi_integral",
    "make_graph",
    "make_stratum",
    "matrix_rank",
    "multiply",
    "multiply_mixed",
    "multiply_strata",
    "off_locus_strata",
    "pair_classes",
    "pair_strata",
    "pairing_matrix",
    "pixton_class",
    "pixton_mixed",
    "psi_integral",
    "q_form",
    "restrict",
    "single",
    "solve_linear_system",
    "stratum_integral",
    "unit",
]

__version__ = "0.1.0"
