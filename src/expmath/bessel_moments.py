"""The Bessel-moment integrals C_n = (2^n/n!) int_0^inf t K0^n(t) dt.

These one-dimensional moments equal the n-fold lattice-style integrals

    C_n = (4/n!) int_0^inf ... int_0^inf (sum_j (u_j + 1/u_j))^{-2} du_1/u_1 ... du_n/u_n,

a reduction this module exploits computationally; the n-fold form is kept
only as a consistency oracle for n = 2 (`c2_double_integral`), whose inner
integral has a closed form in cosh and sinh, so no K0 enters it.  The
sequence decreases monotonically from C_1 = 2 toward the limit 2 e^{-2 gamma}.

For large n the integrand t K0^n(t) underflows any fixed-exponent window long
before it stops mattering, so the product is accumulated in log space,
exp(ln t + n ln K0(t)), with the constant prefactor folded in to keep the
integrand O(1).  A decay certificate derived from the strict bound
K0(t) < sqrt(pi/(2t)) e^{-t} (valid for t >= 2) lets the quadrature engine
skip far-tail nodes without evaluating them.

The integrand's mass sits where K0(t) is about n/2, near t = 2 e^{-gamma-n/2}
(about 1e-33 at n = 152).  Once that is far enough below t = 1 for the
exp-sinh sum's quiet-tail cut to stop before it, the quadrature runs in
x = t / 2^k instead, with the exact power of two 2^k chosen to put the peak
at x in [1, 2) (Takahasi and Mori, Publ. RIMS 9 (1974) 721).  Smaller n keep
k = 0, so their nodes and ln K0 values stay shared across n and tolerances.
Each exp-sinh abscissa x = e^a hands over its own ln x, the map's exponent
a, so neither the integrand nor the certificate takes a logarithm per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import mpf_shift

from . import functions, quadrature
from .precision import (
    BigReal,
    ConvergenceError,
    PrecisionContext,
    make_real,
)


@lru_cache(maxsize=400_000)
def _log_k0_cached(x_mpf: tuple, k: int, prec: int) -> mpf:
    """ln K0(2^k x) shared across integrals and across n, keyed by the exact
    binary node x (an mpf's raw tuple), the shift exponent k and the working
    precision."""
    return functions._log_k0_raw(mpf(mpf_shift(x_mpf, k)), prec)


@dataclass(frozen=True)
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


def _shift_exponent(n: int, eps: mpf) -> int:
    """The k of the substitution t = 2^k x that c_n integrates under.

    In u = ln(1/t) the integrand t^2 K0(t)^n is close to the Gamma bump
    e^{-2u} (u + ln 2 - gamma)^n, which peaks where K0(t) = n/2, at
    u_peak = n/2 + gamma - ln 2, and is sqrt(n+1)/2 wide.  The exp-sinh
    sum's quiet-tail cut can first fire at u_c = (pi/2) sinh 2, where the
    map's own parameter reaches 2.  When the peak lies beyond u_c and the
    weighted integrand there is below the finest level's cut floor, the
    cut could stop before the mass; then k = floor(-u_peak / ln 2) puts
    the peak at x in [1, 2).  Otherwise k = 0, so the nodes and the ln K0
    memo stay shared across n and tolerances.
    """
    gamma = 0.5772156649015329
    ln2 = math.log(2)
    u_peak = n / 2 + gamma - ln2
    u_c = (math.pi / 2) * math.sinh(2)
    if u_peak <= u_c:
        return 0
    log_weighted = (
        n * ln2 - math.lgamma(n + 1) - 2 * u_c + n * math.log(u_c + ln2 - gamma)
        + math.log((math.pi / 2) * math.cosh(2))
    )
    with mp.workprec(53):
        floor = float(mpmath.ln(eps / 16)) + quadrature.DEFAULT_MAX_LEVEL * ln2
    if log_weighted >= floor:
        return 0
    return math.floor(-u_peak / ln2)


def c_n(n: int, ctx: PrecisionContext, eps=None) -> CnRecord:
    """One Bessel moment C_n to absolute accuracy eps.

    For large n the quadrature runs in x = t / 2^k (see `_shift_exponent`),
    with the exact power of two folded into the log-space prefactor.
    Raises ConvergenceError if the quadrature cannot reach eps within its
    level budget at this context's precision.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    prec = ctx.bits + 16
    with mp.workprec(prec):
        eps_v = _default_eps(ctx) if eps is None else mpf(eps)
        k = _shift_exponent(n, eps_v)
        ln2 = mpmath.ln(2)
        # t dt = 2^{2k} x dx
        prefactor = (n + 2 * k) * ln2 - mpmath.loggamma(n + 1)
        half_log = mpmath.ln(mpmath.pi) / 2

        # x is an exp-sinh abscissa over (0, inf): x.ln is ln x
        def integrand(x: mpf) -> mpf:
            return mpmath.exp(prefactor + x.ln + n * _log_k0_cached(x._mpf_, k, prec))

        def log_bound(x: mpf) -> mpf:
            # K0(t) < sqrt(pi/(2t)) e^{-t} for t >= 2 (alternating-tail bracket)
            # ln 2t = ln x + (k + 1) ln 2
            t = mpmath.ldexp(x, k)
            return prefactor + x.ln + n * (half_log - (x.ln + (k + 1) * ln2) / 2 - t)

        # t >= 2 is x >= 2^{1-k}: an mpf, since a float overflows once k < -1023
        certificate = quadrature.DecayCertificate(
            beyond=mpmath.ldexp(1, 1 - k), log_bound=log_bound
        )
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


def monotonicity_scan(n_max: int, ctx: PrecisionContext, eps=None):
    """CnRecords for n = 1..n_max, in order."""
    if n_max < 2:
        raise ValueError("a scan needs n_max >= 2")
    return [c_n(n, ctx, eps) for n in range(1, n_max + 1)]


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
