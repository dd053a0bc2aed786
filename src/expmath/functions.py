"""Special functions and constants: gamma, zeta(3), modified Bessel K0, 2F1.

The constant algorithms are chosen so that each value admits two genuinely
independent computations inside this package (series vs. integral, series
vs. asymptotic), which the test suite exploits as cross-checks:

* Euler's constant comes from the exponentially convergent Bessel-quotient
  scheme  gamma = A(n)/B(n) - ln n + O(e^{-4n})  with
  A(n) = sum_k H_k u_k,  B(n) = sum_k u_k = I0(2n),  u_k = (n^k/k!)^2
  (Brent and McMillan, Math. Comp. 34 (1980) 305); the independent route is
  the integral  -int_0^inf e^{-t} ln t dt.
* zeta(3) uses the accelerated alternating series
  (5/2) * sum_{n>=1} (-1)^{n-1} t_n,  t_n = 1 / (n^3 binom(2n,n)),
  which gains ~0.6 decimal digits per term.
* K0(t) switches between the ascending series (small t, cancellation
  absorbed by extra working bits) and the divergent asymptotic series
  truncated at its smallest term (large t); the always-valid integral
  representation  K0(t) = e^{-t} int_0^inf exp(-2t sinh^2(u/2)) du  serves
  as the arbiter between the two routes.  Both routes sum on fixed-point
  integers; the series takes gamma from one build per precision, truncated
  to each call's scale.

The gamma, zeta(3), K0 and 2F1 series run on integers scaled by 2^fp, by
their integer term ratios; for gamma and zeta(3) no step multiplies two big
numbers:

* gamma: u_k = u_{k-1} n^2 // k^2 and v_k = u_k H_k = v_{k-1} n^2 // k^2 +
  u_k // k, summed into B and A, with fp = prec + 32 + 2 bits(n) + 5.  A
  step truncates u_k by under one ulp (2^-fp) and v_k by under two; like
  the term itself, an error is carried on scaled by n^2/k^2, so after K
  terms each sum is within 3K max(B, K) ulps of its exact value, and B > K.
  The quotient A/B ~ ln n + gamma is then off by under 6K (ln n + 1) ulps,
  below 2^-(prec+32) while K < 4n (the loop stops near K = 3.6n).  It
  stops once v_k < 2^-(prec+40) B, past k = 3.5n, where the tail falls by
  (n/k)^2 < 1/12 a term.  The scheme's own error pi e^{-4n} <
  10^-(digits+4) bounds the value at about 2^-(prec+13); it is returned at
  prec + 32 bits.
* zeta(3): t_{n+1} = t_n n^3 // (2 (2n+1) (n+1)^2), with fp = prec + 16 +
  bits(prec) + 4.  The ratio is below 1/4, so each t_n is within 4/3 ulp,
  and the N ~ fp/2 terms summed until t_n = 0 leave (5/2) sum within 4N <
  2^(bits(prec)+2) ulps: under 2^-(prec+18), returned at prec + 16 bits.
* K0, ascending series (t below the switch): I0 = sum u_k and W = sum H_k
  u_k with u_k = u_{k-1} q // k^2, q = t^2/4, at fp = wp + 8, where wp =
  prec + 2.885t + 16 absorbs the cancellation I0/K0 < e^{2t} = 2^{2.885t}.
  Each step truncates by under one ulp; u_k inherits its predecessor's
  error scaled by q/k^2, a relative error while the terms grow and a damped
  one once they shrink, and H_k is off by at most k ulps, so after K terms
  each sum is within 3K ulps of I0 of its exact value (measured: under
  2K).  The combine v = W - ((L I0) >> fp), L = ln t - ln 2 + gamma on the
  same scale, adds under 3 + |ln t|/16 ulps of L (three truncations and
  ln t at fp + 4 bits) times I0, and one ulp.  Relative to K0 that is
  below ((|L| + 1)(3K + 1) + 4) 2^-(prec+23): under 2^-prec while (|L| +
  1)(3K + 1) < 2^23 - 4, i.e. for up to 39,000 terms even at t = 1e-30;
  below the switch K is at most 340 for up to 110 digits.  For t < 1 a
  caller may pass ln t instead: an exp-sinh abscissa's carried ln t is
  within 2^(1-prec) (1 + |ln t|), and there I0 < 1.27, K0 > 0.42 and
  I0 (1 + |ln t|) < 3.1 K0, so it moves K0 by under 6.2 2^-prec relative.
  Past t = 1 the cancellation I0/K0 grows like e^{2t}, so ln t is always
  taken at fp + 4 bits there.
* K0, asymptotic correction series (t at or past the switch): |a_k| =
  (|a_{k-1}| (2k-1)^2 inv8t >> fp) // k with inv8t = floor(2^fp / (8t)),
  taken from t = m 2^e exactly, fp = prec + 28 and the signs alternating,
  until a term stops falling (k <= 2t + 1) or drops below 2^-(prec+10).
  inv8t is off by under one ulp, a relative 8t 2^-fp that the k-th term
  takes k times, 8kt |a_k| ulps in all: under 2 summed over k for t >= 4.  A step's
  two floors are under 2 ulps and are carried on scaled by the later
  ratios (2k-1)^2 / (8kt) < 1, so the K-term sum is within K(K+1) + 2
  ulps: under 2^-prec while K < 2^14 (measured: under 25 ulps at K =
  1,643).  sqrt(pi/(2t)) e^-t and the product stay in mpf at prec + 12.
* 2F1(a, b; c; z): z = m 2^e exactly, from its mpf, and |t_{k+1}| =
  |t_k| |(a+k)(b+k) m| // (|(c+k)(k+1)| 2^-e), the sign kept apart, from
  t_0 = 2^fp until a term floors to 0 (a zero factor included).  Each step
  also multiplies by m, a big number.  fp = prec + 16 + 2 log2 K for the K ~
  prec ln 2 / -ln|z| terms estimated.  A floor is under one ulp and is
  carried on scaled like the terms, so t_k is within |t_k| sum_{j<=k} 1/|t_j|
  ulps.  Past max(0, -a, -b, -c) the terms rise at most once and then fall,
  so that is under (k+1) max(1, |t_k|) ulps, and the sum, with its tail
  below an ulp dropped, is within about 2K^2 max|t_k| ulps: 2^-(prec+15) of
  the largest term.  `hyp2f1` reads the loss log2(max|t_k| / |sum|) off the
  sum and redoes it that many bits wider if it exceeds 4 bits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, ln2_fixed, mpf_log, to_fixed

from .precision import (
    BigReal,
    ConvergenceError,
    DomainError,
    PrecisionContext,
    PrecisionError,
    as_mpf,
    make_real,
)

_LN10_OVER_4 = math.log(10) / 4.0

#: Empirical series/asymptotic switch: the asymptotic tail error ~ e^{-2t}
#: drops below 10^{-d} once t exceeds ~1.16*d; correctness is enforced by the
#: cross-check against the integral representation, not by this constant.
K0_SWITCH_SLOPE = 1.16


def _digits_for_bits(bits: int) -> int:
    return int(bits * math.log10(2.0))


@lru_cache(maxsize=64)
def _euler_gamma_raw(prec: int) -> mpf:
    """Euler's constant at `prec` bits via the A(n)/B(n) - ln n scheme.

    Summed on integers scaled by 2^fp; see the module docstring for the
    recurrences and the error bound.  Returned rounded to prec + 32 bits.
    """
    d = _digits_for_bits(prec) + 4
    n = int(_LN10_OVER_4 * d) + 3  # pi*e^{-4n} < 10^{-d} with margin
    out = prec + 32
    fp = out + 2 * n.bit_length() + 5
    n2 = n * n
    u = B = 1 << fp
    v = A = 0
    shift = out + 8
    k = 0
    while True:
        k += 1
        k2 = k * k
        u = u * n2 // k2
        v = v * n2 // k2 + u // k
        B += u
        A += v
        if k > n and v < B >> shift:
            break
        if k > 64 * n:
            raise ConvergenceError("gamma series failed to terminate")
    g = (A << fp) // B - to_fixed(mpf_log(from_int(n), fp + 8), fp)
    with mp.workprec(out):
        return mpf(from_man_exp(g, -fp))


def euler_gamma(ctx: PrecisionContext) -> BigReal:
    """Euler's constant gamma, correct to the context's target digits."""
    return make_real(_euler_gamma_raw(ctx.bits), ctx)


@lru_cache(maxsize=64)
def _zeta3_raw(prec: int) -> mpf:
    """zeta(3) by the accelerated central-binomial series, in fixed point.

    Returned rounded to prec + 16 bits; see the module docstring.
    """
    out = prec + 16
    fp = out + prec.bit_length() + 4
    t = 1 << (fp - 1)  # t_1 = 1/(1^3 binom(2, 1))
    acc = 0
    n = 1
    while t:
        acc += t if n & 1 else -t
        t = t * n ** 3 // (2 * (2 * n + 1) * (n + 1) ** 2)
        n += 1
        if n > 10 ** 6:
            raise ConvergenceError("zeta(3) series failed to terminate")
    with mp.workprec(out):
        return mpf(from_man_exp(5 * acc, -(fp + 1)))


def zeta3(ctx: PrecisionContext) -> BigReal:
    """Apery's constant zeta(3)."""
    return make_real(_zeta3_raw(ctx.bits), ctx)


#: Bits carried past wp by the fixed-point K0 series; see _k0_series_raw.
_K0_GUARD_BITS = 8


def _k0_cancel_bits(t: float) -> int:
    return int(2.8854 * t) + 16


def _k0_series_raw(t: mpf, prec: int, switch: float, ln_t: mpf | None) -> mpf:
    """Ascending series K0 = -(ln(t/2)+gamma) I0(t) + sum H_k (t^2/4)^k / (k!)^2.

    The two pieces cancel to ~0.87*t decimal digits, absorbed by widening
    the working precision to wp = prec + 2*t*log2(e) + 16 bits.

    The sums I0 = sum u_k and W = sum H_k u_k, u_k = (t^2/4)^k / (k!)^2, run
    on integers scaled by 2^fp, fp = wp + _K0_GUARD_BITS, the fixed-point
    idiom of mpmath's own series, and so does the combine
    W - (ln t - ln 2 + gamma) I0; see the module docstring for the bound.
    The loop stops once u_k (H_k + 1) < 2^-(wp+6) I0; the guard keeps that
    threshold at 2^(guard-6) ulps or more, so it is reached.  ln t is
    `ln_t` when given (a caller passes one only for t < 1), else
    mpf_log(t) at fp + 4 bits.

    gamma is built once per `prec`, at the widest wp any t below the
    series/asymptotic `switch` needs; each call truncates it to its own fp.
    """
    wp = prec + _k0_cancel_bits(float(t))
    fp = wp + _K0_GUARD_BITS
    one = 1 << fp
    T = to_fixed(t._mpf_, fp)
    q = (T * T) >> (fp + 2)
    u = s_plain = one
    s_weighted = H = 0
    shift = wp + 6
    k = 0
    while True:
        k += 1
        u = ((u * q) >> fp) // (k * k)
        H += one // k
        s_plain += u
        uh = (u * H) >> fp
        s_weighted += uh
        if uh + u < s_plain >> shift:
            break
    gamma = _euler_gamma_raw(max(wp, prec + _k0_cancel_bits(switch)))
    ln = ln_t._mpf_ if ln_t is not None else mpf_log(t._mpf_, fp + 4)
    ln_half_gamma = to_fixed(ln, fp) - ln2_fixed(fp) + to_fixed(gamma._mpf_, fp)
    v = s_weighted - ((ln_half_gamma * s_plain) >> fp)
    return mp.make_mpf(from_man_exp(v, -fp, wp, "n"))


def _k0_asymptotic_terms(t: mpf, prec: int) -> mpf:
    """Sum of the asymptotic correction series 1 - 1/(8t) + 9/(128 t^2) - ...

    Truncated at the smallest term, or once a term is below 2^-(prec+10).
    Only meaningful when that smallest term is below the needed accuracy,
    i.e. t is past the switch point.  Summed on integers scaled by 2^fp,
    fp = prec + 28, from 1/(8t) = 2^-(e+3)/m for t = m 2^e; see the module
    docstring for the bound.  Returned rounded to prec + 12 bits.
    """
    fp = prec + 28
    _, m, e, _ = t._mpf_
    inv8t = (1 << (fp - 3 - e)) // m if fp - 3 - e >= 0 else 0
    a = s = smallest = 1 << fp  # a is |term|; the signs alternate
    floor_ = 1 << (fp - prec - 10)
    k = 0
    while True:
        k += 1
        a = ((a * (2 * k - 1) ** 2 * inv8t) >> fp) // k
        if a >= smallest:  # divergence onset: stop before the terms grow back
            break
        s += a if k % 2 == 0 else -a
        smallest = a
        if a < floor_:
            break
    return mp.make_mpf(from_man_exp(s, -fp, prec + 12, "n"))


def _k0_switch(prec: int) -> float:
    return K0_SWITCH_SLOPE * _digits_for_bits(prec) + 4.0


def _k0_raw(t: mpf, prec: int, ln_t: mpf | None = None) -> mpf:
    """K0(t) to prec bits: the ascending series below the switch, else
    sqrt(pi/(2t)) e^-t times the asymptotic correction series.

    `ln_t`, ln t to about prec bits such as an exp-sinh abscissa carries,
    spares the series its logarithm; it is read only for t < 1, where I0 <
    1.27 and K0 > 0.42 keep its error from growing (module docstring).
    """
    tf = float(t)
    switch = _k0_switch(prec)
    if tf < switch:
        return _k0_series_raw(t, prec, switch, ln_t if tf < 1 else None)
    s = _k0_asymptotic_terms(t, prec)
    with mp.workprec(prec + 12):
        return +(mpmath.sqrt(mpmath.pi / (2 * t)) * mpmath.exp(-t) * s)


# the name the benchmark's tracer wraps to count K0 evaluations, until the
# benchmark reads counters instead of private names
_log_k0_raw = _k0_raw


def bessel_k0(t, ctx: PrecisionContext) -> BigReal:
    """Modified Bessel function K0(t) for every t > 0: an mpf's exponent has no bound."""
    tv = as_mpf(t, ctx)
    if not tv > 0:
        raise DomainError("K0 requires t > 0")
    return make_real(_k0_raw(tv, ctx.bits + 16), ctx)


def bessel_k0_integral(t, ctx: PrecisionContext) -> BigReal:
    """Arbiter route: K0(t) = e^-t int_0^inf exp(-2t sinh^2(u/2)) du by quadrature.

    Slower than the series/asymptotic routes but valid for every t > 0;
    used to referee between them.  The integral is about sqrt(pi/(2t)) for
    large t and never small, so its absolute eps is a relative one.  Raises
    ConvergenceError when the quadrature does not converge, as it does not
    at t = 1e-100 and 15 digits.
    """
    from . import quadrature  # local import keeps the dependency one-way

    tv = as_mpf(t, ctx)
    if not tv > 0:
        raise DomainError("K0 requires t > 0")
    work = ctx.widened(8)
    with mp.workprec(work.bits):
        eps = mpf(10) ** (-(ctx.target_digits + 4))
    # the integrand dives doubly-exponentially; certify the tail so the
    # engine can skip far nodes instead of materializing their exponents
    log_f = lambda u: -2 * tv * mpmath.sinh(u / 2) ** 2
    res = quadrature.integrate_semi_infinite(
        lambda u: mpmath.exp(log_f(u)), 0, eps, work,
        tail_bound=quadrature.DecayCertificate(beyond=2.0, log_bound=log_f))
    if not res.converged:
        raise ConvergenceError(f"the K0({mpmath.nstr(tv, 8)}) quadrature did not converge")
    with mp.workprec(work.bits):
        return make_real(mpmath.exp(-tv) * res.value.value, ctx)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, tuple) and len(x) == 2:
        return Fraction(x[0], x[1])
    raise TypeError(
        "hypergeometric parameters must be exact rationals "
        "(int, Fraction, or (numerator, denominator))"
    )


#: Bits of cancellation, log2(largest |term| / |sum|), that `hyp2f1` lets
#: its guard band absorb before it redoes the sum that many bits wider.
_HYP2F1_SLACK_BITS = 4

#: `hyp2f1` refuses a series estimated to need more terms than this, about
#: 0.3 s of summing; at 30 digits the cap falls near z = 0.9995.
_HYP2F1_TERM_CAP = 200_000


def _hyp2f1_sum(fa: Fraction, fb: Fraction, fc: Fraction, z: mpf, fp: int) -> tuple:
    """(sum, largest |term|) of the 2F1 series on integers scaled by 2^fp.

    0 <= z < 1 (`hyp2f1` sums negative z by Pfaff), and z = m 2^e is taken
    exactly from the mpf; see the module docstring.
    """
    _, m, e, _ = z._mpf_
    an, ad = fa.numerator, fa.denominator
    bn, bd = fb.numerator, fb.denominator
    cn, cd = fc.numerator, fc.denominator
    t = acc = peak = 1 << fp  # t is |term|; `negative` is its sign
    negative = False
    k = 0
    while t:
        p = (an + k * ad) * (bn + k * bd) * cd * m
        q = (cn + k * cd) * (k + 1) * ad * bd
        if (p < 0) != (q < 0):
            negative = not negative
        t = t * abs(p) // (abs(q) << -e)
        acc += -t if negative else t
        if t > peak:
            peak = t
        k += 1
        if k > 20_000_000:
            raise ConvergenceError("2F1 series did not converge (z too close to 1)")
    return acc, peak


def hyp2f1(a, b, c, z, ctx: PrecisionContext) -> BigReal:
    """Gauss hypergeometric series 2F1(a, b; c; z) for |z| < 1.

    Parameters a, b, c are exact rationals; the term recurrence keeps them
    in integer arithmetic so no parameter roundoff enters the sum.  For
    z < 0 the Pfaff transformation (DLMF 15.8.1)
    2F1(a, b; c; z) = (1-z)^-a 2F1(a, c-b; c; z/(z-1)) sums a series in
    w = z/(z-1), which lies in (0, 1/2), instead of the alternating one in z.
    The series is summed on fixed-point integers (see the module docstring).
    Terms of both signs (a negative parameter) can cancel far below the
    largest of them: if the loss log2(largest |term| / |sum|) that the sum
    shows exceeds _HYP2F1_SLACK_BITS, it is redone that many bits wider, and
    a redone sum that loses more again (a zero sum included) raises
    PrecisionError.  A series estimated to need more than _HYP2F1_TERM_CAP
    terms (z near 1) raises ConvergenceError before any summing.
    """
    fa, fb, fc = _as_fraction(a), _as_fraction(b), _as_fraction(c)
    if fc.denominator == 1 and fc <= 0:
        raise DomainError("2F1 is undefined for c a nonpositive integer")
    ctx_bits = ctx.bits
    zv = as_mpf(z, ctx)
    if not abs(zv) < 1:
        raise DomainError("2F1 series requires |z| < 1")
    pfaff = zv < 0
    if pfaff:
        fb = fc - fb
    az = float(abs(zv / (zv - 1) if pfaff else zv))
    # Terms decay like |z|^k; slow decay near |z|=1 costs log2(#terms) bits.
    if az > 0:
        est_terms = ctx_bits * math.log(2) / min(1.0, -math.log(az) + 1e-12) + 16
    else:
        est_terms = 4
    if est_terms > _HYP2F1_TERM_CAP:
        raise ConvergenceError(
            f"2F1 series at z = {mpmath.nstr(zv, 8)} would need ~{est_terms:.3g} > "
            f"{_HYP2F1_TERM_CAP} terms (z too close to 1)"
        )
    wp = ctx_bits + 16 + 2 * int(math.log2(est_terms + 4))

    def series(prec: int) -> tuple:
        w = zv
        if pfaff:
            with mp.workprec(prec):
                w = zv / (zv - 1)
        acc, peak = _hyp2f1_sum(fa, fb, fc, w, prec)
        return acc, peak.bit_length() - abs(acc).bit_length()

    acc, loss = series(wp)
    if loss > _HYP2F1_SLACK_BITS:
        wp += loss
        acc, redo_loss = series(wp)
        if redo_loss > loss + _HYP2F1_SLACK_BITS:
            raise PrecisionError(
                f"2F1 terms cancel by more than the {loss} bits the redone sum was given"
            )
    with mp.workprec(wp):
        v = mpf(from_man_exp(acc, -wp))
        if pfaff:
            v *= (1 - zv) ** -(mpf(fa.numerator) / fa.denominator)
    return make_real(v, ctx)


def exp(x, ctx: PrecisionContext) -> BigReal:
    """e^x at 8 bits above the context's precision."""
    xv = as_mpf(x, ctx)
    with mp.workprec(ctx.bits + 8):
        v = +mpmath.exp(xv)
    return make_real(v, ctx)
