"""Experimental-mathematics toolkit: arbitrary-precision constants,
double-exponential quadrature, Bessel-moment integrals, the sinc-product
identity and its breakdown, AGM iterations, a two-point gradient
optimizer, integer-relation recognition, and digit walks."""

from .precision import (
    BigReal,
    ConvergenceError,
    DomainError,
    IntegrandError,
    NumericsError,
    PrecisionContext,
    PrecisionError,
    TailBoundError,
    parse_decimal,
)
from .functions import bessel_k0, euler_gamma, hyp2f1, zeta3
from .quadrature import (
    DecayCertificate,
    IntegralResult,
    integrate_finite,
    integrate_semi_infinite,
    tanh_sinh_rule,
)
from .bessel_moments import CnRecord, c_infinity, c_n, monotonicity_scan
from .sinc_identity import (
    SincIdentityReport,
    sinc,
    sinc_integral,
    sinc_sum,
    threshold_scan,
)
from .agm import PiResult, agm2, agm3, archimedes_bounds, gauss_legendre_pi
from .relations import (
    BasisConstant,
    RecognitionMatch,
    find_integer_relation,
    recognize,
)
from .digit_walks import DigitStream, WalkPath, digits, render, walk

__version__ = "0.1.0"

# The optimizer is the only module that needs numpy, and numpy is most of
# the import time, so its names are resolved on first access (PEP 562).
_LAZY = {"bb_minimize", "bb_step", "steepest_descent_baseline"}


def __getattr__(name):
    if name in _LAZY:
        from . import barzilai_borwein

        value = getattr(barzilai_borwein, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BigReal",
    "PrecisionContext",
    "NumericsError",
    "DomainError",
    "PrecisionError",
    "ConvergenceError",
    "IntegrandError",
    "TailBoundError",
    "parse_decimal",
    "euler_gamma",
    "zeta3",
    "bessel_k0",
    "hyp2f1",
    "DecayCertificate",
    "IntegralResult",
    "integrate_finite",
    "integrate_semi_infinite",
    "tanh_sinh_rule",
    "CnRecord",
    "c_n",
    "c_infinity",
    "monotonicity_scan",
    "SincIdentityReport",
    "sinc",
    "sinc_sum",
    "sinc_integral",
    "threshold_scan",
    "PiResult",
    "agm2",
    "agm3",
    "gauss_legendre_pi",
    "archimedes_bounds",
    "bb_step",
    "bb_minimize",
    "steepest_descent_baseline",
    "BasisConstant",
    "RecognitionMatch",
    "find_integer_relation",
    "recognize",
    "DigitStream",
    "WalkPath",
    "digits",
    "walk",
    "render",
]
