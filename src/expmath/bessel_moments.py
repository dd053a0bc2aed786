"""The Bessel-moment integrals C_n = (2^n/n!) int_0^inf t K0^n(t) dt.

These one-dimensional moments equal the n-fold lattice-style integrals

    C_n = (4/n!) int_0^inf ... int_0^inf (sum_j (u_j + 1/u_j))^{-2} du_1/u_1 ... du_n/u_n,

a reduction this module exploits computationally; the n-fold form is kept
only as a consistency oracle for n = 2 (`c2_double_integral`), whose inner
integral has a closed form in cosh and sinh, so no K0 enters it.  The
sequence decreases monotonically from C_1 = 2 toward the limit 2 e^{-2 gamma}.

The integrand is e^prefactor t K0(t)^n, with prefactor = ln(2^n/n!) formed
once per call; an mpf's exponent has no bound, so K0^n cannot underflow
however far into the tail t lies.  Each K0 value is memoized by its exact
node, that node's ln t and the precision, and shared across n.  A decay
certificate derived from the strict bound K0(t) < sqrt(pi/(2t)) e^{-t}
(valid for t >= 2) lets the quadrature engine skip far-tail nodes without
evaluating them.

The integrand's mass sits where K0(t) is about n/2, near t = 2 e^{-gamma-n/2}
(about 1e-33 at n = 152); the quadrature sweep itself moves its map onto
mass that far from t = 1 (see `quadrature`).  Each exp-sinh abscissa hands
over its own ln t, so the certificate takes no logarithm per node, and
neither does K0 below t = 1: its series reads ln t off the abscissa too,
and the memo keys on it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
from mpmath import mp, mpf

from . import functions, quadrature
from .precision import (
    BigReal,
    ConvergenceError,
    PrecisionContext,
    make_real,
    record,
)


@lru_cache(maxsize=400_000)
def _k0_cached(t_mpf: tuple, prec: int, ln_mpf: tuple) -> mpf:
    """K0(t) shared across integrals and across n, keyed by the exact
    binary node t and its carried ln t (mpfs' raw tuples) and the working
    precision, so each entry is a pure function of its key.  A miss calls
    K0 under the name the benchmark's tracer counts."""
    return functions._log_k0_raw(mp.make_mpf(t_mpf), prec, mp.make_mpf(ln_mpf))


@record
class CnRecord:
    n: int
    value: BigReal
    error_estimate: BigReal

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        v = self.value.value
        slack = max(abs(self.error_estimate.value) * 4, mpf(10) ** -18)
        if not (mpf("0.63") < v <= 2 + slack):
            raise ValueError(
                f"C_{self.n} = {v} falls outside the (0.63, 2] bracket "
                "implied by C_1 and the limit"
            )


def _default_eps(ctx: PrecisionContext) -> mpf:
    with mp.workprec(64):
        return mpf(10) ** (-min(25, ctx.target_digits - 5))


def c_n(n: int, ctx: PrecisionContext, eps=None) -> CnRecord:
    """One Bessel moment C_n to absolute accuracy eps.

    Raises ConvergenceError if the quadrature cannot reach eps within its
    level budget at this context's precision.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    prec = ctx.bits + 16
    with mp.workprec(prec):
        eps_v = _default_eps(ctx) if eps is None else mpf(eps)
        prefactor = n * mpmath.ln(2) - mpmath.loggamma(n + 1)
        scale = mpmath.exp(prefactor)
        float_prefactor, half_log = float(prefactor), math.log(math.pi / 2) / 2

        # t is an exp-sinh abscissa over (0, inf): t.ln is ln t
        def integrand(t: mpf) -> mpf:
            return scale * t * _k0_cached(t._mpf_, prec, t.ln._mpf_) ** n

        def log_bound(t: mpf) -> float:
            # K0(t) < sqrt(pi/(2t)) e^{-t} for t >= 2 (alternating-tail
            # bracket), in floats: a t past the float range gives -inf
            ln_t = float(t.ln)
            return float_prefactor + ln_t + n * (half_log - ln_t / 2 - float(t))

        certificate = quadrature.DecayCertificate(beyond=2, log_bound=log_bound)
    result = quadrature.integrate_semi_infinite(integrand, 0, eps_v, ctx, certificate)
    if not result.converged:
        raise ConvergenceError(
            f"C_{n} quadrature did not reach eps={mpmath.nstr(eps_v, 4)} "
            f"(error estimate {mpmath.nstr(result.error_estimate.value, 4)})"
        )
    return CnRecord(n=n, value=result.value, error_estimate=result.error_estimate)


def c_infinity(ctx: PrecisionContext) -> BigReal:
    """The limit of the C_n sequence: 2 e^{-2 gamma}."""
    work = ctx.widened(5)
    with mp.workprec(work.bits):
        g = functions.euler_gamma(work).value
        v = +(2 * mpmath.exp(-2 * g))
    return make_real(v, ctx)


def find_monotonicity_violations(records) -> list:
    """Adjacent pairs whose decrease is not resolved beyond combined error bars."""
    out = []
    for first, second in zip(records, records[1:]):
        gap = first.value.value - second.value.value
        bar = abs(first.error_estimate.value) + abs(second.error_estimate.value)
        if not gap > bar:
            out.append((first.n, second.n))
    return out


def _c2_inner(s: mpf) -> mpf:
    """int_0^inf (cosh s + cosh u)^{-2} du = (s coth s - 1) / sinh^2 s.

    This is -d/dc [arccosh(c) / sqrt(c^2 - 1)] at c = cosh s.  Near s = 0
    the numerator cancels to about s^2/3, so it is formed 2 log2(1/s) bits
    wider than the working precision.
    """
    with mp.workprec(mp.prec + max(0, -2 * mpmath.mag(s))):
        sh = mpmath.sinh(s)
        v = (s * mpmath.cosh(s) / sh - 1) / sh ** 2
    return +v


def c2_double_integral(ctx: PrecisionContext, eps=None) -> BigReal:
    """C_2 straight from its 2-fold definition, with no Bessel reduction.

    Substituting u_j = e^{s_j} in the defining integral and folding the
    fourfold even symmetry gives

        C_2 = 2 int_0^inf int_0^inf (cosh s1 + cosh s2)^{-2} ds1 ds2.

    The inner integral is done in closed form (`_c2_inner`), leaving one
    exp-sinh quadrature of 2 (s coth s - 1) / sinh^2 s.  Serves as the
    independent consistency oracle for c_n(2).
    """
    with mp.workprec(ctx.bits + 16):
        # the quadrature's value is doubled, so it gets half the tolerance
        eps_v = (_default_eps(ctx) if eps is None else mpf(eps)) / 2
    result = quadrature.integrate_semi_infinite(_c2_inner, 0, eps_v, ctx)
    if not result.converged:
        raise ConvergenceError("the 2-D oracle's quadrature did not converge")
    with mp.workprec(ctx.bits + 16):
        v = +(2 * result.value.value)
    return make_real(v, ctx)
