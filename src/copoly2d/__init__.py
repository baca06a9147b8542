"""Bivariate vector orthogonal polynomial systems.

copoly2d builds monic vector orthogonal polynomial systems on the plane
from a weight definition and verifies, exactly where an exact moment
oracle exists and numerically otherwise, the five equivalent properties
that single out the classical weights:

  a. a matrix Pearson equation for the weight,
  b. orthogonality of the stacked gradient systems with a lifted Pearson
     equation at every gradient level,
  c. a second order matrix differential equation with constant
     eigenvalue matrices,
  d. a Rodrigues-type representation assembled from per-level divergence
     identities,
  e. a three-term structure relation for the weight matrix times the
     next gradient system.

The auxiliary identity suites are named prop1 (multiplication and
differentiation identities of the Kronecker-lifted monomial basis),
lemma1 (the determinant identity for interleaved column pairs) and
lemma2 (the closed form of the lifted drift coefficients).
"""

from .basisops import x_vec
from .characterize import (
    PropertyReport,
    lambda_via_formula,
    psi_tower,
    rodrigues_reconstruct,
    verify_all,
)
from .orthosys import OrthoSystem, build_monic
from .polycore import BivariatePoly, RationalFn, parse_poly
from .weights import (
    WeightFamily,
    builtin,
    export_family,
    list_builtins,
    load_family,
)

__all__ = [
    "BivariatePoly",
    "OrthoSystem",
    "PropertyReport",
    "RationalFn",
    "WeightFamily",
    "build_monic",
    "builtin",
    "export_family",
    "lambda_via_formula",
    "list_builtins",
    "load_family",
    "parse_poly",
    "psi_tower",
    "rodrigues_reconstruct",
    "verify_all",
    "x_vec",
]
__version__ = "0.1.0"
