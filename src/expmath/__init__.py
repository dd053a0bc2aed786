"""Experimental-mathematics toolkit: arbitrary-precision constants,
double-exponential quadrature, Bessel-moment integrals, the sinc-product
identity and its breakdown, AGM iterations, a two-point gradient
optimizer, integer-relation recognition, and digit walks.

Every public name and every submodule loads on first access (PEP 562), so
``import expmath`` loads no submodule and a process pays only for the
modules it uses: numpy, most of a cold start, only for the optimizer.
"""

import sys

__version__ = "0.1.0"

#: each submodule and the public names it defines, in ``__all__`` order
_EXPORTS = {
    "precision": (
        "BigReal",
        "PrecisionContext",
        "NumericsError",
        "DomainError",
        "PrecisionError",
        "ConvergenceError",
        "IntegrandError",
        "TailBoundError",
        "parse_decimal",
    ),
    "functions": ("euler_gamma", "zeta3", "bessel_k0", "hyp2f1"),
    "quadrature": (
        "DecayCertificate",
        "IntegralResult",
        "integrate_finite",
        "integrate_semi_infinite",
        "tanh_sinh_rule",
    ),
    "bessel_moments": ("CnRecord", "c_n", "c_infinity"),
    "sinc_identity": ("SincIdentityReport", "sinc", "sinc_sum", "sinc_integral", "threshold_scan"),
    "agm": ("PiResult", "agm2", "agm3", "gauss_legendre_pi"),
    "barzilai_borwein": ("bb_step", "bb_minimize", "steepest_descent_baseline"),
    "relations": ("BasisConstant", "RecognitionMatch", "find_integer_relation", "recognize"),
    "digit_walks": ("DigitStream", "WalkPath", "digits", "walk", "render"),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path: importlib.import_module would load
    # the module unseen by -X importtime
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
