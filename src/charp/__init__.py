"""charp: exact prime-characteristic F-invariants of polynomial quotients."""

__version__ = "0.1.0"

from .gf import FieldContext, field_new
from .poly import MonomialOrder, Polynomial, PolyRing, parse_poly, poly_pow
from .ideal import (
    Budget,
    Ideal,
    bracket_power,
    colon,
    krull_dim,
    length,
    normal_form,
)
from .finv import (
    LocalRingAtPoint,
    classify,
    fedder_is_fpure,
    fsig_estimate,
    hk_estimate,
    hk_function,
    multiplicity,
    nu_invariant,
    pair_splitting_number,
    splitting_ideal,
    splitting_number,
)
from .spectrum import (
    PrimeSample,
    RingComponent,
    RingPresentation,
    flat_extension_check,
    gamma_data,
    global_fsig,
    global_hk,
    semicontinuity_probe,
)

__all__ = [
    "FieldContext", "field_new",
    "MonomialOrder", "Polynomial", "PolyRing", "parse_poly", "poly_pow",
    "Budget", "Ideal", "bracket_power", "colon",
    "krull_dim", "length", "normal_form",
    "LocalRingAtPoint", "classify", "fedder_is_fpure", "fsig_estimate",
    "hk_estimate", "hk_function", "multiplicity", "nu_invariant",
    "pair_splitting_number", "splitting_ideal", "splitting_number",
    "PrimeSample", "RingComponent", "RingPresentation",
    "flat_extension_check", "gamma_data", "global_fsig", "global_hk",
    "semicontinuity_probe",
]
