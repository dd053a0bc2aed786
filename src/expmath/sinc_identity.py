"""Products of sinc(x/(2k+1)): sum-vs-integral identity and its breakdown.

Both sides of the identity

    1/2 + sum_{n>=1} prod_{k=0}^{N} sinc(n/(2k+1))
        = int_0^inf prod_{k=0}^{N} sinc(x/(2k+1)) dx

are computed by separate formulas.  The identity holds exactly while the
total frequency sum_{k=0}^{N} 1/(2k+1) stays below 2*pi (a Poisson-summation
aliasing criterion) and first fails at N = 40249.

For N <= 20 both sides are exact, read from integer power sums over the
2^N sign patterns of the frequencies sum_k (+/-)1/(2k+1) (`_power_sums`,
which lists no pattern).  Sum side: the product of sines is a signed sum of
cosines or sines at those frequencies, whose Fourier series sum_n
cos(n*theta)/n^s resp. sin(n*theta)/n^s are Bernoulli polynomials, so the
sum is a polynomial in 2*pi with rational coefficients.  Integral side:
Borwein's sign sum gives r*pi with r rational, 1/2 for N <= 6 and exactly
below that at N = 7.  One evaluation in 2*pi rounds both (`_in_two_pi`).

The Bernoulli form holds while sum_k 1/(2k+1) < 2 pi (N <= 40248); the
limit of 20 is set by cost (about 0.1 s for the power sums at N = 20).
Beyond, the sum is summed directly to n = x and the integral by panelled
tanh-sinh quadrature on [0, T = x], where the tail bound D/(N x^N),
D = (2N+1)!!, falls to eps/2 (`_tail_reach`; rigorous for the sum, the
envelope for the integral).  The integral is refused when its work, panels
x (N+1) factors x working bits, passes _PANEL_CAP.  Both check the power sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf

from . import functions, quadrature
from .precision import (
    BigReal,
    ConvergenceError,
    DomainError,
    PrecisionContext,
    PrecisionError,
    _to_ratio,
    as_mpf,
    make_real,
    record,
)

#: Largest N evaluated in closed form on both sides, from `_power_sums`.
EXPANSION_LIMIT = 20

#: Direct summation refuses more terms than this.
_DIRECT_TERM_CAP = 5_000_000

#: The panelled integral (N > EXPANSION_LIMIT) refuses more work than this,
#: counted as panels x (N+1) sinc factors x working bits: N = 21 at 25 digits
#: (eps 1e-28, 121 panels at 137 bits) is a third of it and takes about 3 s
#: with pure-Python mpmath.
_PANEL_CAP = 1_000_000

#: threshold_scan refuses a crossing index whose estimate needs more bits.
_SCAN_PREC_CAP = 4096

#: Euler's constant to double precision: sizes the crossing index, and so
#: the scan's working precision, before gamma is built at that precision.
_GAMMA_ESTIMATE = 0.5772156649015329


@record
class SincIdentityReport:
    N: int
    lhs: BigReal
    rhs: BigReal
    difference: BigReal
    truncation_bound: BigReal


def sinc(x, ctx: PrecisionContext) -> BigReal:
    """sin(x)/x extended continuously by sinc(0) = 1."""
    xv = as_mpf(x, ctx)
    with mp.workprec(ctx.bits + 8):
        v = mpmath.sin(xv) / xv if xv != 0 else mpf(1)
    return make_real(v, ctx)


@lru_cache(maxsize=1024)
def _bernoulli_number(m: int) -> Fraction:
    """B_m exactly (B_1 = -1/2), from mpmath's `bernfrac`."""
    return Fraction(*mpmath.bernfrac(m))


def _odd_double_factorial(N: int) -> int:
    return math.prod(range(1, 2 * N + 2, 2))


def _frac_to_mpf(fr: Fraction) -> mpf:
    return mpf(fr.numerator) / fr.denominator


@lru_cache(maxsize=64)
def _power_sums(N: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(P, U, S): P = prod_{k=0}^{N} (2k+1), and for k = 0..N+1 the sums
    U_k = sum eps B^k and S_k = sum eps sgn(B) B^k over the sign patterns
    gamma in {+-1}^(N+1) with gamma_0 = +1, B = sum_j gamma_j P/(2j+1) and
    eps = prod_j gamma_j.  U needs no pattern: sum eps e^(Bz) = e^(Pz)
    prod_{j=1}^{N} 2 sinh(w_j z), w_j = P/(2j+1), starts at z^N, so U_k = 0
    for k < N, U_N = N! 2^N prod_j w_j and U_(N+1) = (N+1) P U_N.
    S_k = U_k - 2 sum_{B<0} eps B^k, by a walk in descending frequency that
    drops a prefix whose B is at least the sum still to come.  B = 0 counts
    as positive and so moves only S_0, which the sum side reads times b_s
    (odd s >= 3, so 0) and the integral side not at all.
    """
    P = _odd_double_factorial(N)
    ws = [P // (2 * k + 1) for k in range(1, N + 1)]
    U_N = math.factorial(N) * 2 ** N * math.prod(ws)
    U = [0] * N + [U_N, (N + 1) * P * U_N]
    rest = [sum(ws[i:]) for i in range(N + 1)]
    neg, stack = [0] * (N + 2), [(0, P, 1)]
    while stack:
        i, B, e = stack.pop()
        if i == N and B < 0:
            for k in range(N + 2):
                neg[k] += e
                e *= B
        elif i < N and B < rest[i]:
            stack += ((i + 1, B + ws[i], e), (i + 1, B - ws[i], -e))
    return P, tuple(U), tuple(u - 2 * n for u, n in zip(U, neg))


def _sum_coefficients(N: int) -> list[Fraction]:
    """[q_0, ..., q_s], s = N+1: the sum side is exactly 1/2 + sum_j q_j (2 pi)^j.

    Over the sign patterns, prod_k sin(x/(2k+1)) = (-1)^(s//2) 2^(1-s)
    sum_gamma eps sigma trig(|B| x/P), with trig = cos, sigma = 1 for even s
    and trig = sin, sigma = sgn(B) for odd s.  Each sum_n trig(n theta)/n^s
    is (-1)^(s//2+1) (2 pi)^s / (2 s!) b_s(theta/(2 pi)) on [0, 2 pi], where
    every |B|/P lies while sum_k 1/(2k+1) < 2 pi.  The two signs multiply to
    -1, so with T_k = sum eps sigma |B|^k, which is U_k for even k + s and
    S_k otherwise, q_j = -P C(s, j) b_j T_(s-j) / (2^s s! P^(s-j)).
    """
    s = N + 1
    P, U, S = _power_sums(N)
    T = [U[k] if (k + s) % 2 == 0 else S[k] for k in range(s + 1)]
    c = Fraction(-P, 2 ** s * math.factorial(s))
    return [c * math.comb(s, j) * _bernoulli_number(j) * Fraction(T[s - j], P ** (s - j))
            for j in range(s + 1)]


def _in_two_pi(coeffs, ctx: PrecisionContext) -> BigReal:
    """sum_j c_j (2 pi)^j for exact rationals c_j by Horner's rule, 96 bits past
    ctx.bits: roundoff far below any eps, and equal bits for equal polynomials."""
    with mp.workprec(ctx.bits + 96):
        acc, two_pi = mpf(0), 2 * mpmath.pi
        for c in reversed(coeffs):
            acc = acc * two_pi + _frac_to_mpf(c)
    return make_real(acc, ctx)


def sinc_sum(N: int, eps, ctx: PrecisionContext) -> BigReal:
    """1/2 + sum_{n>=1} prod_{k=0}^{N} sinc(n/(2k+1)).

    For N <= EXPANSION_LIMIT the exact polynomial in 2 pi of
    `_sum_coefficients`, its 1/2 folded into q_0, evaluated by `_in_two_pi`;
    beyond that, direct summation truncated under the D/(N n^N) tail bound.
    """
    if N < 1:
        raise DomainError("N must be at least 1")
    if not mpf(eps) > 0:  # a sign, which no working precision changes
        raise ValueError("eps must be positive")
    if N <= EXPANSION_LIMIT:
        q = _sum_coefficients(N)
        return _in_two_pi([q[0] + Fraction(1, 2), *q[1:]], ctx)
    return make_real(_direct_sum(N, eps, ctx), ctx)


def _tail_reach(N: int, eps: mpf) -> float:
    """log10 of the x where D/(N x^N), D = (2N+1)!!, falls to eps/2: the direct
    sum's last term (sum_{n>x} D/n^(N+1) < D/(N x^N)), the panels' end T."""
    return float(mpmath.log10(2 * _odd_double_factorial(N) / (N * eps))) / N


def _direct_sum(N: int, eps, ctx: PrecisionContext):
    with mp.workprec(ctx.bits + 48):
        eps_v = mpf(eps)
        log_m = _tail_reach(N, eps_v)
        M = math.ceil(10 ** min(log_m, 18)) + 2  # 10^18 is far past the cap
        if M > _DIRECT_TERM_CAP:
            raise ConvergenceError(f"direct summation for N={N} at eps={mpmath.nstr(eps_v, 3)} "
                                   f"would need ~10^{log_m:.1f} terms")
        recip = [mpf(1) / (2 * k + 1) for k in range(N + 1)]
        total = mpf(1) / 2
        for n in range(1, M + 1):
            prod = mpf(1)
            for r in recip:
                x = n * r
                prod *= mpmath.sin(x) / x
                if prod == 0:
                    break
            total += prod
        return +total


def sinc_integral_ratio(N: int) -> Fraction:
    """The exact rational r = int_0^inf prod_{k=0}^{N} sinc(x/(2k+1)) dx / pi,
    for 1 <= N <= EXPANSION_LIMIT.

    Borwein and Borwein, Ramanujan J. 5 (2001) 73; Baillie, Borwein and
    Borwein, Amer. Math. Monthly 115 (2008) 888: with the power sum S_N of
    `_power_sums`, r = 2P S_N / (2^(N+2) N! P^N), the 2 folding gamma and -gamma.
    """
    if not 1 <= N <= EXPANSION_LIMIT:
        raise DomainError(f"the closed form is evaluated for 1 <= N <= {EXPANSION_LIMIT}")
    P, _, S = _power_sums(N)
    return Fraction(2 * P * S[N], 2 ** (N + 2) * math.factorial(N) * P ** N)


def sinc_integral(N: int, eps, ctx: PrecisionContext) -> BigReal:
    """int_0^inf prod_{k=0}^{N} sinc(x/(2k+1)) dx to within eps.

    For N <= EXPANSION_LIMIT this is sinc_integral_ratio(N) * pi, that is
    (r/2) (2 pi), evaluated by `_in_two_pi` like the sum side; beyond, the
    panelled quadrature of `_panel_integral`.
    """
    if N < 1:
        raise DomainError("N must be at least 1")
    if not mpf(eps) > 0:
        raise ValueError("eps must be positive")
    if N <= EXPANSION_LIMIT:
        return _in_two_pi([0, sinc_integral_ratio(N) / 2], ctx)
    with mp.workprec(ctx.bits + 32):
        eps_v = mpf(eps)
    return make_real(_panel_integral(N, eps_v, ctx), ctx)


def _panel_integral(N: int, eps_v: mpf, ctx: PrecisionContext) -> mpf:
    """Tanh-sinh quadrature over panels of length 3 on [0, T], with the
    envelope tail D/(N T^N) (D = prod (2k+1)) below eps/2.  Valid for every
    N, so it checks the closed form too.  Work past _PANEL_CAP (panels x
    (N+1) factors x ctx.bits) raises ConvergenceError before any quadrature.
    """
    log_t = _tail_reach(N, eps_v)
    panel_len = 3
    T = math.ceil(10 ** min(log_t, 18)) + 1  # 10^18 is far past the cap
    n_panels = (T + panel_len - 1) // panel_len
    if n_panels * (N + 1) * ctx.bits > _PANEL_CAP:
        raise ConvergenceError(
            f"the sinc integral for N={N} at eps={mpmath.nstr(eps_v, 3)} runs to T ~ 10^{log_t:.1f}: "
            f"{n_panels} quadrature panels of {N + 1} factors at {ctx.bits} bits pass the work cap "
            f"{_PANEL_CAP}"
        )

    def f(x: mpf) -> mpf:
        prod = mpf(1)
        for k in range(N + 1):
            arg = x / (2 * k + 1)
            if arg:
                prod *= mpmath.sin(arg) / arg
        return prod

    panel_eps = eps_v / (4 * n_panels)
    acc = mpf(0)
    for i in range(n_panels):
        lo = i * panel_len
        hi = min(T, lo + panel_len)
        res = quadrature.integrate_finite(f, lo, hi, panel_eps, ctx)
        if not res.converged:
            raise ConvergenceError(f"panel [{lo},{hi}] of the sinc integral did not converge")
        with mp.workprec(ctx.bits + 32):
            acc += res.value.value
    return acc


def identity_report(N: int, eps, ctx: PrecisionContext) -> SincIdentityReport:
    """Evaluate both sides and package the comparison."""
    # the integral first: past EXPANSION_LIMIT its panel cap fails fast
    rhs = sinc_integral(N, eps, ctx)
    lhs = sinc_sum(N, eps, ctx)
    with mp.workprec(ctx.bits + 16):
        diff = +(lhs.value - rhs.value)
        rounding = mpmath.ldexp(max(1, abs(lhs.value)), -(ctx.bits - 8))
        # past EXPANSION_LIMIT, eps per numeric side; up to it, one eps of slack
        bound = +((1 if N <= EXPANSION_LIMIT else 2) * mpf(eps) + rounding)
    return SincIdentityReport(
        N=N,
        lhs=lhs,
        rhs=rhs,
        difference=make_real(diff, ctx),
        truncation_bound=make_real(bound, ctx),
    )


def threshold_scan(threshold, ctx: PrecisionContext) -> int:
    """Smallest N with S(N) = sum_{k=0}^{N} 1/(2k+1) > threshold (strict).

    S(N) ~ ln 2 + ln(N+1)/2 + gamma/2 puts the crossing near
    exp(2*threshold - gamma - ln 4), evaluated at wp = ctx.bits + 48 +
    bits(N) + 16; N then steps by one until S(N-1) <= threshold < S(N).
    Each comparison is exact rational arithmetic for N < wp, otherwise
    `_odd_sum`'s rigorous bracket, falling back to exact for N <= 4000 when
    the bracket is too close to call.  A plain mpf is the threshold verbatim
    (its binary value), a Fraction exactly.  A comparison still undecided
    is retried once at 2*wp, then raises PrecisionError.  An estimate that
    needs more than _SCAN_PREC_CAP bits (bits(N) + 64) raises
    ConvergenceError before any wide arithmetic.
    """
    thr = threshold if isinstance(threshold, Fraction) else as_mpf(threshold, ctx)
    if not 1 < thr < math.inf:
        raise DomainError("threshold must be finite and exceed 1 (the first term)")
    exact = thr if isinstance(thr, Fraction) else Fraction(*_to_ratio(thr))
    with mp.workprec(64):
        t = _frac_to_mpf(exact)
        n_bits = mpmath.floor((2 * t - _GAMMA_ESTIMATE - mpmath.ln(4)) / mpmath.ln(2)) + 2
    if n_bits + 64 > _SCAN_PREC_CAP:
        raise ConvergenceError(f"threshold {mpmath.nstr(t, 8)} is out of reach: its crossing index "
                               f"has ~{mpmath.nstr(n_bits, 3)} bits, and locating it needs 64 more "
                               f"than that, past the cap of {_SCAN_PREC_CAP} bits")
    wp = ctx.bits + 48 + int(n_bits) + 16
    for prec in (wp, 2 * wp):
        with mp.workprec(prec):
            t = _frac_to_mpf(exact)
            gamma = functions._euler_gamma_raw(prec)
            n = max(1, int(mpmath.exp(2 * t - gamma - mpmath.ln(4))))
        try:
            while not _exceeds(n, t, exact, prec):
                n += 1
            while n > 1 and _exceeds(n - 1, t, exact, prec):
                n -= 1
            return n
        except PrecisionError:
            if prec > wp:
                raise


def _exceeds(N: int, t: mpf, exact: Fraction, wp: int) -> bool:
    """S(N) > exact, where t is exact rounded at wp."""
    if N >= wp:
        s, err = _odd_sum(N, wp)
        with mp.workprec(wp):
            gap = s - t  # rounding keeps the sign and moves |gap| by at most 1 ulp
            if abs(gap) > 2 * (err + mpmath.ldexp(t, -wp)):
                return gap > 0
        if N > 4000:
            raise PrecisionError(f"S({N}) is too close to the threshold to decide at {wp} bits")
    return sum((Fraction(1, 2 * k + 1) for k in range(N + 1)), Fraction(0)) > exact


def _odd_sum(N: int, wp: int):
    """(s, err) with |S(N) - s| <= err, for N >= wp.

    S(N) = H_{2N+1} - H_N/2, with H_n = ln n + gamma + 1/(2n)
    - sum_{k<=m} B_{2k}/(2k n^{2k}) + R_m and |R_m| at most the first
    omitted term (the series envelops psi, DLMF 5.11(ii)).  At n >= wp that
    bound falls below 2^-wp within m < wp/10 terms.  Roundoff is charged at
    5m + 16 ulps of ln(2N+1) + 1.
    """
    gamma = functions._euler_gamma_raw(wp)
    with mp.workprec(wp):
        a, b = mpf(2 * N + 1), mpf(N)
        ln_a = mpmath.ln(a)
        s = ln_a - mpmath.ln(b) / 2 + gamma / 2 + 1 / (2 * a) - 1 / (4 * b)
        pa, pb, m = 1 / (a * a), 1 / (b * b), 0  # a^{-2k}, b^{-2k}
        while True:
            c = _frac_to_mpf(_bernoulli_number(2 * m + 2) / (2 * m + 2))
            tail = abs(c) * (pa + pb / 2)
            if tail < mpmath.ldexp(1, -wp):
                return s, tail + (5 * m + 16) * mpmath.ldexp(ln_a + 1, -wp)
            s -= c * (pa - pb / 2)
            pa, pb, m = pa / (a * a), pb / (b * b), m + 1
