import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from expmath import functions, quadrature
from expmath.precision import (
    ConvergenceError,
    DomainError,
    PrecisionContext,
    PrecisionError,
    parse_decimal,
)


def _err(value, reference_fn, bits=400):
    with mp.workprec(bits):
        return abs(value - reference_fn())


class TestEulerGamma:
    @pytest.mark.parametrize("digits", [20, 50, 120])
    def test_matches_reference(self, digits):
        ctx = PrecisionContext.from_digits(digits)
        g = functions.euler_gamma(ctx)
        err = _err(g.value, lambda: +mpmath.euler, bits=ctx.bits + 64)
        with mp.workprec(ctx.bits + 64):
            assert err < mpf(10) ** (-digits)

    def test_known_prefix(self):
        ctx = PrecisionContext.from_digits(30)
        assert functions.euler_gamma(ctx).to_decimal(20) == "0.57721566490153286061"

    def test_fifty_digit_rendering(self):
        ctx = PrecisionContext.from_digits(60)
        assert (
            functions.euler_gamma(ctx).to_decimal(50)
            == "0.57721566490153286060651209008240243104215933593992"
        )

    def test_low_precision_rendering_is_rounded_prefix(self):
        # the 10-digit string must be the correctly rounded head of the
        # 50-digit one (digit 11 of gamma is 0, so no carry here)
        ctx = PrecisionContext.from_digits(60)
        g = functions.euler_gamma(ctx)
        assert g.to_decimal(10) == g.to_decimal(50)[:12]


class TestZeta3:
    def test_matches_reference(self):
        ctx = PrecisionContext.from_digits(80)
        z = functions.zeta3(ctx)
        err = _err(z.value, lambda: mpmath.zeta(3), bits=ctx.bits + 64)
        with mp.workprec(ctx.bits + 64):
            assert err < mpf(10) ** -80

    def test_known_prefix(self):
        ctx = PrecisionContext.from_digits(30)
        assert functions.zeta3(ctx).to_decimal(15) == "1.20205690315959"

    def test_thirty_digit_rendering(self):
        ctx = PrecisionContext.from_digits(40)
        assert functions.zeta3(ctx).to_decimal(30) == "1.20205690315959428539973816151"

    def test_coarse_bracket(self):
        ctx = PrecisionContext.from_digits(30)
        z = functions.zeta3(ctx).value
        with mp.workprec(ctx.bits):
            assert z > 1
            assert z < mpmath.pi ** 3 / 24 + 1


class TestConstantsAtSurveyScale:
    """The fixed-point series at the bit budgets of the survey's walks."""

    BITS = 8064

    def test_gamma_within_one_unit(self):
        g = functions._euler_gamma_raw(self.BITS)
        with mp.workprec(self.BITS + 64):
            assert abs(g - mpmath.euler) < mpmath.ldexp(1, -self.BITS)

    def test_zeta3_within_one_unit(self):
        z = functions._zeta3_raw(self.BITS)
        with mp.workprec(self.BITS + 64):
            assert abs(z - mpmath.zeta(3)) < mpmath.ldexp(1, -self.BITS)


class TestBesselK0:
    """The series and asymptotic routes, arbitrated by the integral form."""

    @pytest.mark.parametrize("t_text", ["0.1", "1", "5", "20"])
    def test_routes_agree_with_integral_representation(self, t_text):
        # both the selected route and the independent quadrature route see
        # the *same* binary argument, so disagreement means a route bug
        ctx = PrecisionContext.from_digits(40)
        t = parse_decimal(t_text, ctx)
        direct = functions.bessel_k0(t, ctx)
        via_integral = functions.bessel_k0_integral(t, ctx)
        with mp.workprec(ctx.bits + 32):
            assert abs(direct.value - via_integral.value) < mpf(10) ** -38

    @settings(max_examples=15)
    @given(digits=st.integers(15, 40), position=st.floats(0, 1))
    def test_integral_route_keeps_relative_accuracy(self, digits, position):
        # t log-uniform in [1e-3, 1e6]: the quadrature sees an integral of
        # about sqrt(pi/(2t)), never small, so K0 far below its absolute eps
        # keeps every digit
        ctx = PrecisionContext.from_digits(digits)
        with mp.workprec(ctx.bits):
            t = mpf(10) ** (-3 + 9 * position)
        via_integral = functions.bessel_k0_integral(t, ctx)
        direct = functions.bessel_k0(t, ctx)
        with mp.workprec(ctx.bits + 64):
            assert abs(via_integral.value - direct.value) <= abs(direct.value) * mpf(10) ** -digits

    def test_integral_route_refuses_an_unconverged_quadrature(self, monkeypatch):
        # two refinement levels cannot reach 10^-44 at t = 1; the route must
        # say so rather than return the unconverged sum
        monkeypatch.setattr(quadrature, "DEFAULT_MAX_LEVEL", 2)
        with pytest.raises(ConvergenceError, match="did not converge"):
            functions.bessel_k0_integral(1, PrecisionContext.from_digits(40))

    @pytest.mark.parametrize("t_text", ["0.05", "0.7", "2", "11", "37", "150"])
    def test_matches_library_bessel(self, t_text):
        ctx = PrecisionContext.from_digits(45)
        t = parse_decimal(t_text, ctx)
        ours = functions.bessel_k0(t, ctx)
        with mp.workprec(ctx.bits + 64):
            ref = mpmath.besselk(0, t.value)
            assert abs(ours.value - ref) < abs(ref) * mpf(10) ** -44

    @given(digits=st.integers(15, 110), position=st.floats(0, 1))
    def test_series_route_matches_library_bessel(self, digits, position):
        # t runs log-uniformly from 1e-30 up to 0.99 of the series/asymptotic
        # switch, so every example takes the fixed-point ascending series
        ctx = PrecisionContext.from_digits(digits)
        top = math.log10(0.99 * functions._k0_switch(ctx.bits + 16))
        with mp.workprec(ctx.bits):
            t = mpf(10) ** (-30 + position * (top + 30))
        ours = functions.bessel_k0(t, ctx)
        with mp.workprec(ctx.bits + 64):
            ref = mpmath.besselk(0, t)
            assert abs(ours.value - ref) <= abs(ref) * mpf(10) ** -digits

    def test_series_at_its_worst_cancellation(self):
        # next to the switch the two halves of the series cancel to ~0.87 t
        # digits, the most the cancellation bits and guard bits must absorb
        ctx = PrecisionContext.from_digits(105)
        with mp.workprec(ctx.bits):
            t = +(mpf("0.95") * functions._k0_switch(ctx.bits + 16))
        ours = functions.bessel_k0(t, ctx)
        with mp.workprec(ctx.bits + 64):
            ref = mpmath.besselk(0, t)
            assert abs(ours.value - ref) <= abs(ref) * mpf(10) ** -105

    @pytest.mark.parametrize("t", [500, 3 * 10 ** 6])
    def test_asymptotic_route_for_huge_argument(self, t):
        # K0(3e6) is about 2.6e-1302887; an mpf's exponent has no bound, so
        # the value comes back as it is (it used to be reported as 0)
        ctx = PrecisionContext.from_digits(30)
        ours = functions.bessel_k0(t, ctx).value
        with mp.workprec(ctx.bits + 64):
            ref = mpmath.besselk(0, t)
            assert ours > 0
            assert abs(ours - ref) < ref * mpf(10) ** -30

    @given(digits=st.integers(15, 110), position=st.floats(0, 1))
    def test_k0_raw_matches_library_bessel_on_both_routes(self, digits, position):
        # c_n reads K0 from here directly; t runs log-uniformly over
        # [1e-30, 1e7], across the series/asymptotic switch, and the error
        # is relative, since K0(1e7) is about 1e-4342949
        ctx = PrecisionContext.from_digits(digits)
        with mp.workprec(ctx.bits):
            t = mpf(10) ** (-30 + 37 * mpf(position))
        ours = functions._k0_raw(t, ctx.bits + 16)
        with mp.workprec(ctx.bits + 64):
            ref = mpmath.besselk(0, t)
            assert abs(ours - ref) <= mpf(10) ** -digits * ref

    def test_twenty_digit_value_at_one(self):
        ctx = PrecisionContext.from_digits(30)
        r = functions.bessel_k0(mpf(1), ctx)
        assert r.to_decimal(20) == "0.42102443824070833334"

    def test_logarithmic_behaviour_near_zero(self):
        # K0(t) = -ln(t/2) - gamma + O(t^2 ln t), so at t = 1e-8 the residual
        # K0(t) + ln(t/2) + gamma sits far below 1e-14
        ctx = PrecisionContext.from_digits(30)
        with mp.workprec(ctx.bits):
            t = mpf(10) ** -8
            k0 = functions.bessel_k0(t, ctx).value
            g = functions.euler_gamma(ctx).value
            assert abs(k0 + mpmath.ln(t / 2) + g) < mpf(10) ** -14

    def test_leading_asymptotic_ratio_at_fifty(self):
        # K0(t) ~ sqrt(pi/2t) e^-t (1 - 1/8t + ...): the first-order ratio at
        # t = 50 undershoots 1 by about 1/400
        ctx = PrecisionContext.from_digits(30)
        r = functions.bessel_k0(mpf(50), ctx)
        with mp.workprec(ctx.bits):
            envelope = mpmath.sqrt(mpmath.pi / 100) * mpmath.exp(mpf(-50))
            ratio = r.value / envelope
            assert mpf("0.99") < ratio < 1

    def test_domain(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(DomainError):
            functions.bessel_k0(0, ctx)
        with pytest.raises(DomainError):
            functions.bessel_k0(-1, ctx)


def _within_ulps(ours, t, prec, ulps=4):
    """|ours - K0(t)| <= ulps units in the last place of K0(t) at prec bits,
    against mpmath's besselk at prec + 60."""
    with mp.workprec(prec + 60):
        ref = mpmath.besselk(0, t)
        return abs(ours - ref) <= mpmath.ldexp(ulps, mpmath.mag(ref) - prec)


class TestK0Kernels:
    """_k0_raw's fixed-point kernels, with and without a carried ln t, keep
    K0 within 4 ulps at prec on both routes."""

    @settings(max_examples=40)
    @given(prec=st.integers(116, 332), position=st.floats(0, 1), carried=st.booleans())
    def test_log_uniform_argument(self, prec, position, carried):
        # t log-uniform in [1e-40, 1e4], across the series/asymptotic switch
        with mp.workprec(prec):
            t = mpf(10) ** (-40 + 44 * mpf(position))
            ln_t = mpmath.ln(t) if carried else None
        assert _within_ulps(functions._k0_raw(t, prec, ln_t), t, prec)

    @settings(max_examples=40)
    @given(prec=st.integers(116, 332), level=st.integers(0, 3),
           index=st.integers(0, 60), j=st.integers(-120, 0))
    def test_moved_small_side_abscissa(self, prec, level, index, j):
        # the abscissae c_n hands K0: an exp-sinh table's small side x = e^-a
        # moved by 2^j, carrying x.ln + j ln 2 as the sweep forms it
        nodes = list(quadrature._nodes("es", prec, level))
        x = nodes[index % len(nodes)][3]
        with mp.workprec(prec):
            t = quadrature._LogAbscissa(mpmath.ldexp(x, j), x.ln + j * mpmath.ln(2))
        assert _within_ulps(functions._k0_raw(t, prec, t.ln), t, prec)
        assert _within_ulps(functions._k0_raw(t, prec), t, prec)

    @settings(max_examples=8)
    @given(prec=st.integers(116, 200), offset=st.floats(-0.01, 0.01))
    def test_either_side_of_the_switch(self, prec, offset):
        # the series' worst cancellation just below the switch, the
        # asymptotic series' fewest terms just above; a carried ln is read
        # only below t = 1, so it changes nothing here
        with mp.workprec(prec):
            t = mpf(functions._k0_switch(prec) * (1 + offset))
            ln_t = mpmath.ln(t)
        ours = functions._k0_raw(t, prec)
        assert functions._k0_raw(t, prec, ln_t) == ours
        assert _within_ulps(ours, t, prec)


class TestHyp2F1:
    def test_matches_library(self):
        # z = 23/64 is exactly representable in binary, so both routes see
        # the identical argument regardless of working precision.
        ctx = PrecisionContext.from_digits(60)
        z = mpf("0.359375")
        h = functions.hyp2f1((1, 2), (1, 2), (1, 1), z, ctx)
        with mp.workprec(ctx.bits + 64):
            ref = mpmath.hyp2f1(mpf(1) / 2, mpf(1) / 2, 1, z)
            assert abs(h.value - ref) < mpf(10) ** -58

    def test_gauss_value(self):
        # 2F1(a,b;c;0) = 1 regardless of parameters
        ctx = PrecisionContext.from_digits(30)
        assert functions.hyp2f1((1, 3), (2, 3), (5, 7), 0, ctx).value == 1

    def test_logarithmic_closed_form(self):
        # 2F1(1,1;2;z) = -ln(1-z)/z, so at z = 1/2 the value is 2 ln 2
        ctx = PrecisionContext.from_digits(40)
        h = functions.hyp2f1((1, 1), (1, 1), (2, 1), mpf("0.5"), ctx)
        assert h.to_decimal(15) == "1.38629436111989"
        with mp.workprec(ctx.bits + 16):
            assert abs(h.value - 2 * mpmath.ln(2)) < mpf(10) ** -38

    def test_polynomial_termination(self):
        # negative integer a truncates the series: 2F1(-2,b;c;z) is a polynomial
        ctx = PrecisionContext.from_digits(30)
        h = functions.hyp2f1(-2, (1, 2), (1, 1), mpf("0.5"), ctx)
        with mp.workprec(ctx.bits + 16):
            z = mpf("0.5")
            expected = 1 - 2 * (mpf(1) / 2) * z + (mpf(3) / 4) * z * z / 2 * 2  # sum_k (-2)_k (1/2)_k / (1)_k z^k/k!
            # direct evaluation of the 3-term sum
            expected = 1 + (-2 * mpf(1) / 2) * z + ((-2) * (-1) * (mpf(1) / 2) * (mpf(3) / 2) / 2) * z ** 2 / 2
            assert abs(h.value - expected) < mpf(10) ** -28

    def test_rejects_bad_c(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(DomainError):
            functions.hyp2f1((1, 2), (1, 2), -1, mpf("0.5"), ctx)

    def test_rejects_edge_of_disk(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(DomainError):
            functions.hyp2f1((1, 2), (1, 2), (1, 1), 1, ctx)

    # Alternating terms that peak far above the sum they cancel to: summed at
    # the target precision plus log2(#terms) bits, these come out with
    # relative error 2.5e-24, as -1.24e10 and as 5.3e25.  At 15 and 60
    # digits the redo for the observed loss runs at both ends of the range.
    @pytest.mark.parametrize(
        "a, b, c, z",
        [
            (10, 10, 1, Fraction(-9, 10)),
            (20, 20, 1, Fraction(-19, 20)),
            (30, 30, Fraction(1, 2), Fraction(-9, 10)),
        ],
    )
    def test_cancelling_terms(self, a, b, c, z):
        for digits in (15, 30, 60):
            self._check_against_library(a, b, c, z, digits)

    # 200 draws: among the first 100, no sum cancels far enough to fail a
    # series summed without the cancellation allowance
    @settings(max_examples=200)
    @given(
        a=st.fractions(-30, 30, max_denominator=16).filter(bool),
        b=st.fractions(-30, 30, max_denominator=16).filter(bool),
        c=st.fractions(0, 30, max_denominator=16).filter(bool),
        z=st.integers(-972, 972).map(lambda n: Fraction(n, 1024)),
        digits=st.integers(15, 60),
    )
    def test_matches_library_over_parameters(self, a, b, c, z, digits):
        # z is dyadic (|z| <= 0.95), so both routes see the identical argument
        self._check_against_library(a, b, c, z, digits)

    def test_sum_that_cancels_to_zero_is_an_error(self):
        # 2F1(-1, 2; 1; 1/2) = 1 - 2z = 0: no working precision gives a zero
        # sum to relative accuracy
        with pytest.raises(PrecisionError):
            functions.hyp2f1(-1, 2, 1, Fraction(1, 2), PrecisionContext.from_digits(30))

    @pytest.mark.parametrize("digits", [15, 60])
    def test_negative_z_sums_the_pfaff_series(self, digits):
        # summed in z itself the terms peak near 2^336 above this sum and
        # took about 0.5 s; in w = z/(z-1) = 0.487 the peak is 2^52
        start = time.monotonic()
        self._check_against_library(30, 30, Fraction(1, 16), Fraction(-243, 256), digits)
        assert time.monotonic() - start < 0.2

    def test_pfaff_route_with_nonnegative_parameters(self):
        # a = 1/2 and c - b = 1/2: the transformed series has no sign changes
        self._check_against_library(Fraction(1, 2), Fraction(1, 2), 1, Fraction(-15, 16), 40)

    def test_near_one_still_sums(self):
        self._check_against_library(Fraction(1, 2), Fraction(1, 2), 1, Fraction(999, 1000), 30)
        # the benchmark's AGM tasks: 1/(1 - z) in [58, 62]
        for a, b in [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))]:
            for n in (58, 62):
                self._check_against_library(a, b, 1, 1 - Fraction(1, n), 30)

    def test_too_close_to_one_fails_fast(self):
        # about 9.5e5 terms: 1.9 s of summing on integers (18 s in mpf) before the cap
        start = time.monotonic()
        with pytest.raises(ConvergenceError, match="too close to 1"):
            functions.hyp2f1((1, 2), (1, 2), 1, Fraction(9999, 10000), PrecisionContext.from_digits(30))
        assert time.monotonic() - start < 0.5

    @staticmethod
    def _check_against_library(a, b, c, z, digits):
        ours = functions.hyp2f1(Fraction(a), Fraction(b), Fraction(c), z, PrecisionContext.from_digits(digits))
        with mp.workdps(2 * digits):
            exact = [mpf(x.numerator) / x.denominator for x in map(Fraction, (a, b, c, z))]
            ref = mpmath.hyp2f1(*exact)
            assert abs(ours.value - ref) <= abs(ref) * mpf(10) ** -digits


class TestElementary:
    def test_exp_zero(self):
        ctx = PrecisionContext.from_digits(30)
        assert functions.exp(0, ctx).value == 1
