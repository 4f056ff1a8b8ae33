"""Axial monogenic function calculus.

Clifford-algebra arithmetic, holomorphic jets, the forward transform from
holomorphic functions to axial monogenic fields, and its integral
inversion on rectangles, with closed-form reference fields and a
finite-difference verification harness.
"""

from .clifford import Multivector, Paravector
from .errors import NumericalError, QuadratureError
from .forward import FueterConfig, fueter_fields, fueter_map, fueter_profile, laplacian_oracle
from .inverse import (
    AxialFunction,
    FueterPrimitive,
    Rectangle,
    integral_I,
    invert,
)
from .jets import HolomorphicFn, radial_derivatives
from .oracles import (
    SphereQuadrature,
    axial_field,
    cauchy_kernel,
    example1_oracle,
    example2_oracle,
    sphere_cauchy_integral,
    unit_sphere_area,
)
from .polynomials import MonogenicPolynomial, builtin_pk
from .quadrature import QuadratureConfig, integrate
from .radial import (
    coeff_a,
    coeff_row,
    double_factorial,
    nested_antiderivative_oracle,
    radial_op,
)
from .verify import (
    GridSpec,
    ResidualReport,
    cr_residual,
    kernel_check,
    monogenicity_residual,
    polynomial_fit_residual,
    vekua_residual,
)

__version__ = "0.1.0"

__all__ = [
    "Multivector", "Paravector",
    "MonogenicPolynomial", "builtin_pk",
    "HolomorphicFn", "radial_derivatives",
    "QuadratureConfig", "integrate",
    "coeff_a", "coeff_row", "double_factorial",
    "radial_op", "nested_antiderivative_oracle",
    "FueterConfig", "fueter_map", "fueter_profile", "fueter_fields", "laplacian_oracle",
    "Rectangle", "AxialFunction", "FueterPrimitive",
    "integral_I", "invert",
    "unit_sphere_area", "cauchy_kernel", "example1_oracle", "example2_oracle",
    "SphereQuadrature", "sphere_cauchy_integral", "axial_field",
    "GridSpec", "ResidualReport", "vekua_residual", "cr_residual",
    "monogenicity_residual", "kernel_check", "polynomial_fit_residual",
    "NumericalError", "QuadratureError",
    "__version__",
]
