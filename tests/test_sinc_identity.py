"""Products of shifted sinc factors: sum/integral agreement and thresholds."""

import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

import expmath
from expmath import functions, quadrature, sinc_identity
from expmath.precision import (
    ConvergenceError,
    DomainError,
    PrecisionContext,
    PrecisionError,
)

# At N=7 both the sum and the integral drop below pi/2 by exactly this
# rational multiple of pi; the fraction was frozen after matching an exact
# symbolic expansion of the product to 60+ digits.
N7_DROP = Fraction(6879714958723010531, 935615849440640907310521750000)


class TestSincFunction:
    def test_at_zero(self):
        ctx = PrecisionContext.from_digits(30)
        assert sinc_identity.sinc(0, ctx).value == 1

    def test_matches_quotient(self):
        ctx = PrecisionContext.from_digits(40)
        with mp.workprec(ctx.bits + 32):
            x = mpf(3) / 2
            ref = mpmath.sin(x) / x
            got = sinc_identity.sinc(x, ctx).value
            assert abs(got - ref) < mpf(10) ** -38

    def test_even(self):
        ctx = PrecisionContext.from_digits(30)
        a = sinc_identity.sinc(mpf("0.7"), ctx).value
        b = sinc_identity.sinc(mpf("-0.7"), ctx).value
        assert a == b

    def test_series_branch_near_zero(self):
        # sin(x)/x at 8 guard bits keeps full relative accuracy at tiny x:
        # sin x = x(1 - x^2/6 + ...) cancels nothing
        ctx = PrecisionContext.from_digits(40)
        with mp.workprec(ctx.bits + 48):
            x = mpf(2) ** -40
            ref = mpmath.sin(x) / x
            got = sinc_identity.sinc(x, ctx).value
            assert abs(got - ref) < mpf(10) ** -38

    def test_vanishes_at_computed_pi(self):
        # sin(pi) = 0, with pi supplied by the mean-iteration module rather
        # than any library constant
        from expmath import agm

        ctx = PrecisionContext.from_digits(40)
        pi_val = agm.pi_value(ctx)
        got = sinc_identity.sinc(pi_val.value, ctx).value
        with mp.workprec(ctx.bits):
            assert abs(got) < mpf(10) ** -37

    def test_plain_number_under_a_narrow_context(self):
        # a valid 64-bit context used to fail converting x through an
        # internal 15-digit context that 64 bits cannot carry
        got = sinc_identity.sinc(1, PrecisionContext(64, 1))
        assert got.computed_at_bits == 64
        assert abs(got.value - mpmath.sin(1)) < mpf(10) ** -15


class TestPiOverTwoRange:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_sum_equals_half_pi(self, N):
        ctx = PrecisionContext.from_digits(30)
        s = sinc_identity.sinc_sum(N, mpf(10) ** -28, ctx)
        with mp.workprec(ctx.bits + 16):
            assert abs(s.value - mpmath.pi / 2) < mpf(10) ** -26

    @pytest.mark.parametrize("N", [1, 3, 6])
    def test_integral_equals_half_pi(self, N):
        ctx = PrecisionContext.from_digits(30)
        i = sinc_identity.sinc_integral(N, mpf(10) ** -26, ctx)
        with mp.workprec(ctx.bits + 16):
            assert abs(i.value - mpmath.pi / 2) < mpf(10) ** -24


class TestFirstFailure:
    def test_n7_drops_by_exact_rational_multiple_of_pi(self):
        ctx = PrecisionContext.from_digits(45)
        s = sinc_identity.sinc_sum(7, mpf(10) ** -40, ctx)
        with mp.workprec(ctx.bits + 32):
            drop = s.value - mpmath.pi / 2
            expected = -mpf(N7_DROP.numerator) / mpf(N7_DROP.denominator) * mpmath.pi
            assert abs(drop - expected) < mpf(10) ** -55
            # the celebrated near-miss: about -2.31e-11
            assert mpf("-2.4e-11") < drop < mpf("-2.2e-11")

    def test_n7_sum_and_integral_still_agree(self):
        # equality of sum and integral survives far past N=7; only the
        # pi/2 evaluation breaks there
        ctx = PrecisionContext.from_digits(45)
        s = sinc_identity.sinc_sum(7, mpf(10) ** -40, ctx)
        i = sinc_identity.sinc_integral(7, mpf(10) ** -40, ctx)
        with mp.workprec(ctx.bits + 32):
            assert abs(s.value - i.value) < mpf(10) ** -38


class TestRoutes:
    def test_direct_summation_cross_checks_closed_form(self):
        # the term-by-term route shares no code with the power sums the
        # closed form is built from
        ctx = PrecisionContext.from_digits(30)
        for N, direct_eps_exp, tol_exp in ((3, 11, 10), (12, 25, 24)):
            closed = sinc_identity.sinc_sum(N, mpf(10) ** -26, ctx)
            direct = sinc_identity._direct_sum(N, mpf(10) ** -direct_eps_exp, ctx)
            with mp.workprec(ctx.bits + 16):
                assert abs(closed.value - direct) < mpf(10) ** -tol_exp, N

    def test_direct_route_rejects_unaffordable_eps(self):
        # at N=3 the tail shrinks like M^-3, so 1e-25 needs ~1e8 terms
        ctx = PrecisionContext.from_digits(40)
        with pytest.raises(ConvergenceError):
            sinc_identity._direct_sum(3, mpf(10) ** -25, ctx)

    def test_eps_below_the_float_range_is_refused_at_once(self):
        # 1e-400 is 0 as a float; the tail reach is taken in mpmath, so the
        # direct route sees its ~10^20 terms and refuses them
        ctx = PrecisionContext.from_digits(30)
        start = time.monotonic()
        with pytest.raises(ConvergenceError, match="direct summation"):
            sinc_identity.sinc_sum(sinc_identity.EXPANSION_LIMIT + 1, mpf("1e-400"), ctx)
        assert time.monotonic() - start < 0.1

    @pytest.mark.parametrize("N", [3, sinc_identity.EXPANSION_LIMIT + 1])
    @pytest.mark.parametrize("eps", ["-1", "0", "nan"])
    def test_nonpositive_eps_is_refused_on_both_sides(self, N, eps):
        # N = 3 sums in closed form, which needs no eps, and the next N past
        # the closed form directly
        ctx = PrecisionContext.from_digits(30)
        for side in (sinc_identity.sinc_sum, sinc_identity.sinc_integral):
            with pytest.raises(ValueError, match="eps must be positive"):
                side(N, mpf(eps), ctx)

    def test_tail_bound_is_honored(self):
        # tightening eps tenfold may add terms, but the value moves by less
        # than the original tolerance claimed
        ctx = PrecisionContext.from_digits(30)
        eps = mpf(10) ** -15
        coarse = sinc_identity.sinc_sum(4, eps, ctx)
        fine = sinc_identity.sinc_sum(4, eps / 10, ctx)
        with mp.workprec(ctx.bits + 16):
            assert abs(coarse.value - fine.value) < eps

    def test_closed_form_builds_bernoulli_coefficients_once(self, monkeypatch):
        # the degree-13 Bernoulli polynomial's coefficients depend on s = 13
        # alone, not on which of the 2^12 frequencies is being summed
        calls = []
        real = sinc_identity._bernoulli_number
        monkeypatch.setattr(sinc_identity, "_bernoulli_number", lambda m: calls.append(m) or real(m))
        sinc_identity.sinc_sum(12, mpf(10) ** -20, PrecisionContext.from_digits(30))
        assert len(calls) <= 14


def _sign_sum_ratio(N):
    """r with integral = r*pi, straight from Borwein's formula: every sign
    pattern, rational frequencies, no integer scaling or symmetry."""
    a = [Fraction(1, 2 * k + 1) for k in range(N + 1)]
    m = len(a)
    total = Fraction(0)
    for gamma in itertools.product((1, -1), repeat=m):
        b = sum(g * ak for g, ak in zip(gamma, a))
        sign = (b > 0) - (b < 0)
        total += math.prod(gamma) * sign * b ** (m - 1)
    return total / (2 ** (m + 1) * math.factorial(m - 1) * math.prod(a))


def _brute_power_sums(N):
    """(P, U, S) of `_power_sums`, from every sign pattern in turn."""
    P = math.prod(range(1, 2 * N + 2, 2))
    U, S = [0] * (N + 2), [0] * (N + 2)
    for gamma in itertools.product((1, -1), repeat=N):
        B = P + sum(g * P // (2 * k + 3) for k, g in enumerate(gamma))
        e, sign = math.prod(gamma), 1 if B >= 0 else -1  # B = 0 counts as positive
        for k in range(N + 2):
            U[k] += e * B**k
            S[k] += e * sign * B**k
    return P, tuple(U), tuple(S)


@pytest.fixture
def no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(quadrature, "integrate_finite", refuse)


class TestClosedFormIntegral:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_exactly_half_through_six(self, N):
        assert sinc_identity.sinc_integral_ratio(N) == Fraction(1, 2)

    def test_n7_drops_by_the_exact_rational(self):
        assert sinc_identity.sinc_integral_ratio(7) == Fraction(1, 2) - N7_DROP

    @pytest.mark.parametrize("N", [1, 7, 8])
    def test_matches_the_unscaled_formula(self, N):
        assert sinc_identity.sinc_integral_ratio(N) == _sign_sum_ratio(N)

    @pytest.mark.parametrize("N", [0, sinc_identity.EXPANSION_LIMIT + 1])
    def test_ratio_outside_the_expansion_range(self, N):
        with pytest.raises(DomainError):
            sinc_identity.sinc_integral_ratio(N)

    def test_matches_the_sum_side(self):
        # both sides read the same `_power_sums` and part there: the sum
        # through Bernoulli polynomials, the integral through Borwein's sign
        # sum.  The sum side is checked without the power sums by
        # TestRoutes::test_direct_summation_cross_checks_closed_form, the
        # integral side by _sign_sum_ratio (test_matches_the_unscaled_formula),
        # and the power sums themselves by _brute_power_sums.
        ctx = PrecisionContext.from_digits(50)
        for N in range(1, sinc_identity.EXPANSION_LIMIT + 1):
            s = sinc_identity.sinc_sum(N, mpf(10) ** -48, ctx)
            i = sinc_identity.sinc_integral(N, mpf(10) ** -48, ctx)
            with mp.workprec(ctx.bits + 16):
                assert abs(s.value - i.value) < mpf(10) ** -45, N

    @pytest.mark.parametrize("N", range(1, sinc_identity.EXPANSION_LIMIT + 1))
    def test_sum_side_is_exact_in_q_pi(self, N):
        # 1/2 + sum_j q_j (2 pi)^j: the constant and every power of pi past
        # the first cancel, and what is left is the integral, exactly
        q = sinc_identity._sum_coefficients(N)
        assert len(q) == N + 2
        assert q[0] == Fraction(-1, 2)
        assert all(c == 0 for c in q[2:])
        assert 2 * q[1] == sinc_identity.sinc_integral_ratio(N)

    @pytest.mark.parametrize("N", range(1, 13))
    def test_power_sums_match_every_sign_pattern(self, N):
        assert sinc_identity._power_sums(N) == _brute_power_sums(N)

    def test_makes_no_quadrature_call(self, no_quadrature):
        ctx = PrecisionContext.from_digits(30)
        for N in range(1, sinc_identity.EXPANSION_LIMIT + 1):
            sinc_identity.sinc_integral(N, mpf(10) ** -25, ctx)

    @pytest.mark.parametrize("N, eps_exp", [(6, 8), (7, 10), (8, 12), (13, 12)])
    def test_panel_route_agrees(self, N, eps_exp):
        ctx = PrecisionContext.from_digits(30)
        eps = mpf(10) ** -eps_exp
        panels = sinc_identity._panel_integral(N, eps, ctx)
        r = _sign_sum_ratio(N)
        with mp.workprec(ctx.bits + 16):
            assert abs(panels - mpmath.pi * r.numerator / r.denominator) < eps

    def test_oracles_agree_at_seventeen(self):
        # N = 17 was past the closed form until the power sums; both numeric
        # routes still answer there and check it
        ctx = PrecisionContext.from_digits(30)
        eps = mpf(10) ** -10
        r = sinc_identity.sinc_integral_ratio(17)
        panels = sinc_identity._panel_integral(17, eps, ctx)
        direct = sinc_identity._direct_sum(17, eps, ctx)
        with mp.workprec(ctx.bits + 16):
            exact = mpmath.pi * r.numerator / r.denominator
            assert abs(panels - exact) < eps
            assert abs(direct - exact) < eps

    def test_panel_route_refuses_past_its_cap(self, no_quadrature):
        ctx = PrecisionContext.from_digits(45)
        start = time.monotonic()
        for eps in (mpf(10) ** -43, mpf(10) ** -10000):
            with pytest.raises(ConvergenceError, match="panels"):
                sinc_identity.sinc_integral(sinc_identity.EXPANSION_LIMIT + 1, eps, ctx)
        assert time.monotonic() - start < 0.5


class TestBreakdownDemo:
    def test_runs_and_shows_equal_drops_at_seven(self):
        src = Path(expmath.__file__).resolve().parent.parent
        demo = src.parent / "demos" / "sinc_identity_breakdown.py"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=120)
        # the panelled integrals made this a 4 s run; import is most of it now
        assert time.monotonic() - start < 2.0
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.decode()
        row = next(line.split() for line in out.splitlines() if line.startswith("7 "))
        assert row[1] == row[2] and row[1].startswith("-2.3") and row[1].endswith("e-11")
        assert str(Fraction(1, 2) - N7_DROP) in out


class TestReports:
    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_difference_within_bound(self, N):
        ctx = PrecisionContext.from_digits(30)
        rep = sinc_identity.identity_report(N, mpf(10) ** -26, ctx)
        assert rep.N == N
        assert rep.truncation_bound.value > 0
        assert abs(rep.difference.value) <= rep.truncation_bound.value

    def test_report_carries_both_sides(self):
        ctx = PrecisionContext.from_digits(30)
        rep = sinc_identity.identity_report(2, mpf(10) ** -26, ctx)
        with mp.workprec(ctx.bits + 16):
            assert abs(rep.difference.value - (rep.lhs.value - rep.rhs.value)) < mpf(10) ** -27

    @pytest.mark.parametrize("N", range(1, sinc_identity.EXPANSION_LIMIT + 1))
    def test_closed_form_difference_is_exactly_zero(self, N):
        # the identity holds in Q[pi] through the expansion limit, and both
        # sides round the same polynomial in 2 pi once, so no roundoff is left
        rep = sinc_identity.identity_report(N, mpf(10) ** -26, PrecisionContext.from_digits(30))
        assert rep.lhs.value._mpf_ == rep.rhs.value._mpf_
        assert rep.difference.value == 0

    def test_report_builds_the_power_sums_once(self):
        sinc_identity._power_sums.cache_clear()
        sinc_identity.identity_report(20, mpf(10) ** -26, PrecisionContext.from_digits(30))
        assert sinc_identity._power_sums.cache_info().misses == 1


class TestThresholdScan:
    def test_first_crossing_of_four_thirds(self):
        # partial sums: 1, 4/3, 23/15, ...; the strict inequality means the
        # exact tie at k=1 does not count
        ctx = PrecisionContext.from_digits(30)
        assert sinc_identity.threshold_scan(Fraction(4, 3), ctx) == 2

    def test_exact_tie_at_23_15(self):
        ctx = PrecisionContext.from_digits(30)
        assert sinc_identity.threshold_scan(Fraction(23, 15), ctx) == 3

    def test_crossing_two(self):
        ctx = PrecisionContext.from_digits(30)
        assert sinc_identity.threshold_scan(2, ctx) == 7
        assert sinc_identity.threshold_scan(Fraction(2), ctx) == 7
        assert sinc_identity.threshold_scan(mpf(2), ctx) == 7

    def test_crossing_two_pi(self):
        ctx = PrecisionContext.from_digits(30)
        with mp.workprec(ctx.bits + 16):
            two_pi = 2 * mpmath.pi
        assert sinc_identity.threshold_scan(two_pi, ctx) == 40249

    def test_rejects_threshold_not_exceeding_first_term(self):
        ctx = PrecisionContext.from_digits(30)
        for bad in (1, Fraction(1), mpf("0.5")):
            with pytest.raises(DomainError):
                sinc_identity.threshold_scan(bad, ctx)

    def test_monotone_in_threshold(self):
        # the partial sums increase, so a larger budget can only push the
        # crossing index forward
        ctx = PrecisionContext.from_digits(30)
        grid = [
            Fraction(4, 3),
            Fraction(3, 2),
            mpf(2),
            mpf("2.5"),
            mpf(3),
            mpf("3.7"),
            mpf(5),
        ]
        crossings = [sinc_identity.threshold_scan(t, ctx) for t in grid]
        assert crossings == sorted(crossings)
        assert crossings[0] < crossings[-1]


def _odd_partial_sums(count):
    sums = [Fraction(1)]
    for k in range(1, count):
        sums.append(sums[-1] + Fraction(1, 2 * k + 1))
    return sums


# S(0..400) exactly: enough for every threshold up to 3.9
ODD_SUMS = _odd_partial_sums(401)


def _brute_force_crossing(threshold):
    return next(n for n, s in enumerate(ODD_SUMS) if s > threshold)


def _psi_crossing(threshold):
    """Smallest N with S(N) > threshold, by S(N) = psi(N+3/2)/2 + gamma/2 + ln 2."""
    with mp.workdps(80):
        t = mpf(threshold)
        partial = lambda n: mpmath.psi(0, n + mpf(3) / 2) / 2 + mpmath.euler / 2 + mpmath.ln(2)
        n = int(mpmath.exp(2 * t - mpmath.euler - mpmath.ln(4)))
        while partial(n) > t:
            n -= 1
        while not partial(n) > t:
            n += 1
        return n


class TestThresholdClosedForm:
    @given(
        q=st.integers(1, 10**12),
        position=st.fractions(0, 1).filter(lambda f: f > 0),
    )
    def test_rational_thresholds_match_brute_force(self, q, position):
        # p/q in (1, 7/2], crossing by N = 154: below wp, so every
        # comparison is an exact sum
        threshold = 1 + Fraction(round(position * 5 * q / 2) or 1, q)
        ctx = PrecisionContext.from_digits(30)
        assert sinc_identity.threshold_scan(threshold, ctx) == _brute_force_crossing(threshold)

    @given(N=st.integers(1, 300))
    def test_exact_partial_sums_are_ties(self, N):
        # S(N) itself is not exceeded at N (the inequality is strict); from
        # N = wp (about 211) on, S(N-1) and S(N+1) come from the
        # Euler-Maclaurin bracket and the tie from the exact fallback
        ctx = PrecisionContext.from_digits(30)
        assert sinc_identity.threshold_scan(ODD_SUMS[N], ctx) == N + 1

    @pytest.mark.parametrize(
        "label, multiple, expected",
        [
            ("3*pi", 3, 21553437),
            ("10*pi", 10, 272135693188521241555712240),
            ("1e1", None, 68100150),
        ],
    )
    def test_large_thresholds_match_psi(self, label, multiple, expected):
        ctx = PrecisionContext.from_digits(30)
        with mp.workprec(ctx.bits + 48):
            threshold = multiple * mpmath.pi if multiple else mpf(10)
        start = time.monotonic()
        n = sinc_identity.threshold_scan(threshold, ctx)
        assert time.monotonic() - start < 1.0, label
        assert n == expected == _psi_crossing(threshold)

    @pytest.mark.parametrize("N", [206, 207, 300, 1000, 2500])
    def test_partial_sum_bracket_holds(self, N):
        # the Euler-Maclaurin bracket holds the exact sum from N = wp on
        exact = _odd_partial_sums(N + 1)[N]
        s, err = sinc_identity._odd_sum(N, 206)
        with mp.workprec(400):
            gap = abs(mpf(exact.numerator) / exact.denominator - s)
            assert gap <= err < mpf(2) ** -190

    @pytest.mark.parametrize("N", [1000, 4000])
    def test_ties_past_twice_the_working_precision_are_settled_exactly(self, N):
        # the bracket cannot split a tie at wp or 2*wp; exact sums do up to 4000
        ctx = PrecisionContext.from_digits(30)
        tie = _odd_partial_sums(N + 1)[N]
        assert sinc_identity.threshold_scan(tie, ctx) == N + 1

    def test_tie_too_large_for_exact_rationals_is_a_precision_error(self):
        # S(4001) as a Fraction stays ambiguous at both precisions, and the
        # exact tie-break stops at N = 4000
        ctx = PrecisionContext.from_digits(30)
        tie = _odd_partial_sums(4002)[4001]
        with pytest.raises(PrecisionError):
            sinc_identity.threshold_scan(tie, ctx)
        assert sinc_identity.threshold_scan(tie + Fraction(1, 10**80), ctx) == 4002

    @pytest.mark.parametrize("threshold", [mpf(10) ** 6, Fraction(2000), mpf("1e300")])
    def test_unreachable_threshold_fails_fast(self, threshold):
        ctx = PrecisionContext.from_digits(30)
        start = time.monotonic()
        with pytest.raises(ConvergenceError, match="out of reach"):
            sinc_identity.threshold_scan(threshold, ctx)
        assert time.monotonic() - start < 0.5

    def test_rejects_infinite_threshold(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(DomainError):
            sinc_identity.threshold_scan(mpmath.inf, ctx)

    def test_high_precision_scan_from_cold_caches(self):
        # At 1150 digits N = 4009 is near wp, where the Euler-Maclaurin
        # bracket needs B_2..B_572; the gamma and Bernoulli memos start empty
        sinc_identity._bernoulli_number.cache_clear()
        functions._euler_gamma_raw.cache_clear()
        ctx = PrecisionContext.from_digits(1150)
        start = time.monotonic()
        n = sinc_identity.threshold_scan(Fraction(513, 100), ctx)
        assert time.monotonic() - start < 0.6
        assert n == 4009


class TestBernoulliNumbers:
    def test_match_library(self):
        sinc_identity._bernoulli_number.cache_clear()
        for m in range(201):
            assert sinc_identity._bernoulli_number(m) == Fraction(*map(int, mpmath.bernfrac(m))), m
