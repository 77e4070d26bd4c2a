"""Exact arithmetic substrate: integer polynomials, real algebraic numbers,
roots of unity, and certified complex ball arithmetic."""

from .ball import ComplexBall
from .cyclotomic import (
    CycloNum,
    RootOfUnity,
    cos_minimal_poly,
    cyclotomic_poly,
    lcm,
    root_of_unity_value,
    roots_of_unity_up_to,
    two_cos,
)
from .intpoly import (
    IntPoly,
    cubic_discriminant,
    factor_into_irreducibles,
    is_perfect_square,
)
from .realalg import (
    IsolatedRoot,
    RealAlgebraic,
    decimal_str,
    from_poly_expr,
    isolate_real_roots,
    roots_of_irreducible,
)

__all__ = [
    "ComplexBall",
    "CycloNum",
    "IntPoly",
    "IsolatedRoot",
    "RealAlgebraic",
    "RootOfUnity",
    "cos_minimal_poly",
    "cubic_discriminant",
    "cyclotomic_poly",
    "decimal_str",
    "factor_into_irreducibles",
    "from_poly_expr",
    "is_perfect_square",
    "isolate_real_roots",
    "lcm",
    "root_of_unity_value",
    "roots_of_irreducible",
    "roots_of_unity_up_to",
    "two_cos",
]
