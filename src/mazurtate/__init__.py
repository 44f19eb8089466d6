"""Exact computation of Mazur-Tate elements and their Iwasawa invariants.

Pipeline: Weierstrass model -> Hecke eigensymbol on Manin symbols for
Gamma_0(N) -> finite-level group-ring elements -> mu/lambda invariants,
dichotomy classification and boundary-symbol congruences.
"""

from .boundary import boundary_congruence
from .classify import MTRequest, classify, maximality_criterion
from .curves import EllipticCurve
from .cusps import boundary_space_matrix, cusp_classes
from .elements import (
    MazurTateTower,
    check_norm_compatibility,
    check_norm_relation,
    mazur_tate,
    raw_mazur_tate,
    stabilized_mazur_tate,
)
from .groupring import (
    GroupLevel,
    GroupRingElement,
    IwasawaInvariants,
    invariants_with_generator,
    sum_cancellation_check,
)
from .hecke import eigensymbol, hecke_matrix, normalize
from .modsym import Divisor, ManinSymbolSpace, ModularSymbol, build_space
from .padics import PAdic, unit_root, valuation

__all__ = [
    "boundary_congruence",
    "MTRequest",
    "classify",
    "maximality_criterion",
    "EllipticCurve",
    "boundary_space_matrix",
    "cusp_classes",
    "MazurTateTower",
    "check_norm_compatibility",
    "check_norm_relation",
    "mazur_tate",
    "raw_mazur_tate",
    "stabilized_mazur_tate",
    "GroupLevel",
    "GroupRingElement",
    "IwasawaInvariants",
    "invariants_with_generator",
    "sum_cancellation_check",
    "eigensymbol",
    "hecke_matrix",
    "normalize",
    "Divisor",
    "ManinSymbolSpace",
    "ModularSymbol",
    "build_space",
    "PAdic",
    "unit_root",
    "valuation",
]
