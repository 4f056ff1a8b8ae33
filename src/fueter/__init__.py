"""Axial monogenic function calculus.

Clifford-algebra arithmetic, holomorphic jets, the forward transform from
holomorphic functions to axial monogenic fields, and its integral
inversion on rectangles, with closed-form reference fields and checks of
computed results: a Cauchy-Riemann residual from circle samples, the kernel
scan and polynomial gauge fitting.  The oracles behind the acceptance
checks stay in their modules: fueter.oracles, fueter.radial and
fueter.forward.
"""

from .clifford import Multivector, Paravector
from .errors import NumericalError, QuadratureError
from .forward import FueterConfig, fueter_fields, fueter_map, fueter_profile
from .inverse import AxialFunction, FueterPrimitive, Rectangle, invert, radial_integrals
from .jets import HolomorphicFn, radial_derivatives
from .oracles import axial_field
from .polynomials import MonogenicPolynomial, builtin_pk
from .quadrature import QuadratureConfig, integrate
from .radial import double_factorial, radial_op
from .verify import cr_residual, kernel_check, polynomial_fit_residual

__version__ = "0.1.0"

__all__ = [
    "Multivector", "Paravector",
    "MonogenicPolynomial", "builtin_pk",
    "HolomorphicFn", "radial_derivatives",
    "QuadratureConfig", "integrate",
    "double_factorial", "radial_op",
    "FueterConfig", "fueter_map", "fueter_profile", "fueter_fields",
    "Rectangle", "AxialFunction", "FueterPrimitive",
    "radial_integrals", "invert", "axial_field",
    "cr_residual", "kernel_check", "polynomial_fit_residual",
    "NumericalError", "QuadratureError",
    "__version__",
]
