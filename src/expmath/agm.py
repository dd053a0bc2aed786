"""Quadratic and cubic arithmetic-geometric means, and AGM-based pi.

The classical mean iterates a' = (a+b)/2, b' = sqrt(ab); the cubic variant
iterates a' = (a+2b)/3, b' = cbrt(b (a^2+ab+b^2)/3).  Both converge to a
common limit, quadratically resp. cubically.  The pi algorithm is the
Gauss-Legendre/Brent-Salamin scheme whose error roughly squares each
iteration:

    a0=1, b0=1/sqrt(2), t0=1/4, x0=1
    a' = (a+b)/2, b' = sqrt(ab), t' = t - x (a-a')^2, x' = 2x
    pi ~ (a'+b')^2 / (4 t')

That iteration is the paper's and the independent route; `pi_raw`, the
value the rest of the package reads, sums the Chudnovsky series

    1/pi = 12 sum_k (-1)^k (6k)! (13591409 + 545140134 k)
                     / ((3k)! (k!)^3 640320^(3k+3/2))

by binary splitting (Haible and Papanikolaou, 1998): the products P and Q
of the term ratios and the partial sum T of terms a..b come from those of
a..m and m..b, so every big product pairs numbers of similar size, and
pi = 426880 sqrt(10005) Q / T in integers scaled by 2^fp, fp = prec + 40,
with `math.isqrt` for the root.  Each term adds 47.11 bits, so the
fp/47.11 + 2 terms taken leave a tail under 2^-(fp+90); Q/T is exact, the
floored root's error is scaled by 426880 Q/T = pi/sqrt(10005) < 1/30, and
with the final floor the value is within two ulps, 2^-(prec+39).  It is
returned at prec + 32 bits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from .precision import (
    BigReal,
    ConvergenceError,
    DomainError,
    PrecisionContext,
    PrecisionError,
    as_mpf,
    make_real,
    record,
)


@record
class AGMState:
    a: mpf
    b: mpf
    iteration: int


@record
class PiResult:
    value: BigReal
    iterations: int
    per_iteration_error: tuple


def agm_states(a, b, ctx: PrecisionContext, *, cubic: bool = False):
    """The full iteration trajectory, for inspection and property tests."""
    a, b = as_mpf(a, ctx), as_mpf(b, ctx)
    if not (a > 0 and b > 0):
        raise DomainError("AGM requires strictly positive starting values")
    prec = ctx.bits + 16
    with mp.workprec(prec):
        stop = mpf(10) ** (-(ctx.target_digits + 2))
        if a < b:
            a, b = b, a
        states = [AGMState(a=+a, b=+b, iteration=0)]
        for it in range(1, 24 * int(math.log2(prec)) + 64):
            if abs(a - b) <= stop * a:
                break
            if cubic:
                a, b = (a + 2 * b) / 3, mpmath.cbrt(b * (a * a + a * b + b * b) / 3)
            else:
                a, b = (a + b) / 2, mpmath.sqrt(a * b)
            states.append(AGMState(a=+a, b=+b, iteration=it))
        else:
            raise ConvergenceError("AGM iteration failed to close its gap")
    return tuple(states)


def _limit(states, ctx: PrecisionContext) -> BigReal:
    """The common limit read off a trajectory's last state."""
    last = states[-1]
    with mp.workprec(ctx.bits + 16):
        v = +((last.a + last.b) / 2)
    return make_real(v, ctx)


def agm2(a, b, ctx: PrecisionContext) -> BigReal:
    """Common limit of the classical (quadratic) mean iteration."""
    return _limit(agm_states(a, b, ctx), ctx)


def agm3(a, b, ctx: PrecisionContext) -> BigReal:
    """Common limit of the cubic mean iteration."""
    return _limit(agm_states(a, b, ctx, cubic=True), ctx)


def _gl_approximations(iterations: int, prec: int):
    """List of pi approximations after 1..iterations Gauss-Legendre steps."""
    with mp.workprec(prec):
        a = mpf(1)
        b = 1 / mpmath.sqrt(2)
        t = mpf(1) / 4
        x = mpf(1)
        out = []
        for _ in range(iterations):
            an = (a + b) / 2
            b = mpmath.sqrt(a * b)
            t = t - x * (a - an) ** 2
            x = 2 * x
            a = an
            out.append(+((a + b) ** 2 / (4 * t)))
    return out


def _max_useful_iterations(ref_bits: int) -> int:
    # error after k iterations ~ 10^(-0.6 * 2^(k+1)); the internal reference
    # must still resolve it, so cap k before the error hits the reference's floor
    ref_digits = ref_bits * math.log10(2.0)
    cap = max(1.0, (ref_digits - 4) / 0.6)
    return max(1, int(math.log2(cap)) - 1)


def gauss_legendre_pi(iterations: int, ctx: PrecisionContext) -> PiResult:
    """Run the quadratically convergent pi iteration with error tracking.

    Per-iteration errors are measured against an internal reference computed
    at ctx.bits + 64 with two extra iterations, so they remain meaningful
    without any externally supplied value of pi.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    ref_bits = ctx.bits + 64
    if iterations > _max_useful_iterations(ref_bits):
        raise PrecisionError(
            f"precision exhausted: {iterations} iterations would converge past "
            f"what {ctx.bits}-bit arithmetic can resolve"
        )
    approx = _gl_approximations(iterations, ctx.bits)
    reference = _gl_approximations(iterations + 2, ref_bits)[-1]
    errors = []
    with mp.workprec(ref_bits):
        for apx in approx:
            errors.append(+abs(apx - reference))
    for earlier, later in zip(errors, errors[1:]):
        if not later < earlier:
            raise PrecisionError(
                "per-iteration errors stopped decreasing; working precision "
                "cannot support the requested iteration count"
            )
    return PiResult(
        value=make_real(approx[-1], ctx),
        iterations=iterations,
        per_iteration_error=tuple(BigReal(e, ref_bits) for e in errors),
    )


#: 640320^3 / 24, the Chudnovsky series' per-term denominator factor.
_C3_OVER_24 = 640320 ** 3 // 24

#: Bits each Chudnovsky term adds: log2(640320^3 / 1728).
_CHUDNOVSKY_BITS_PER_TERM = 47.11


def _chudnovsky_split(a: int, b: int):
    """(P, Q, T) of the Chudnovsky terms a..b-1 by binary splitting."""
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * _C3_OVER_24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, m)
    p2, q2, t2 = _chudnovsky_split(m, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


@lru_cache(maxsize=64)
def pi_raw(prec: int) -> mpf:
    """pi at `prec` bits from the Chudnovsky series (cached).

    Returned rounded to prec + 32 bits; see the module docstring.
    """
    out = prec + 32
    fp = out + 8
    terms = int(fp / _CHUDNOVSKY_BITS_PER_TERM) + 2
    _, q, t = _chudnovsky_split(0, terms)
    v = 426880 * math.isqrt(10005 << (2 * fp)) * q // t
    with mp.workprec(out):
        return mpf(from_man_exp(v, -fp))


def pi_value(ctx: PrecisionContext) -> BigReal:
    """pi as a BigReal at the context's precision."""
    return make_real(pi_raw(ctx.bits), ctx)
