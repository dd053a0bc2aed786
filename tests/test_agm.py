"""Mean iterations and the quadratically convergent pi algorithm."""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from expmath import agm, functions
from expmath.precision import DomainError, PrecisionContext, PrecisionError


class TestQuadraticMean:
    @pytest.mark.parametrize("a,b", [("1", "2"), ("3", "7"), ("1", "0.01")])
    def test_matches_library(self, a, b):
        # build each starting value once so both routes receive the
        # identical binary number
        ctx = PrecisionContext.from_digits(40)
        av, bv = mpf(a), mpf(b)
        got = agm.agm2(av, bv, ctx)
        with mp.workprec(ctx.bits + 32):
            ref = mpmath.agm(av, bv)
            assert abs(got.value - ref) < mpf(10) ** -38

    def test_fixed_point(self):
        ctx = PrecisionContext.from_digits(30)
        assert agm.agm2(mpf(3), mpf(3), ctx).value == 3

    def test_symmetric(self):
        ctx = PrecisionContext.from_digits(30)
        x = agm.agm2(mpf(2), mpf(5), ctx).value
        y = agm.agm2(mpf(5), mpf(2), ctx).value
        assert x == y

    def test_homogeneous(self):
        # agm(c a, c b) = c agm(a, b)
        ctx = PrecisionContext.from_digits(35)
        base = agm.agm2(mpf(1), mpf(3), ctx).value
        scaled = agm.agm2(mpf(7), mpf(21), ctx).value
        with mp.workprec(ctx.bits + 16):
            assert abs(scaled - 7 * base) < mpf(10) ** -32

    def test_rejects_nonpositive(self):
        ctx = PrecisionContext.from_digits(30)
        for a, b in ((0, 1), (-1, 2), (1, 0)):
            with pytest.raises(DomainError):
                agm.agm2(a, b, ctx)

    def test_monotone_in_second_argument(self):
        # agm2(1, k) grows with k on (0, 1], reaching 1 at k = 1
        ctx = PrecisionContext.from_digits(30)
        grid = [mpf(k) / 10 for k in range(1, 11)]
        values = [agm.agm2(mpf(1), k, ctx).value for k in grid]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))
        assert values[-1] == 1


class TestIterationTrajectory:
    def test_bracket_and_quadratic_contraction(self):
        ctx = PrecisionContext.from_digits(40)
        states = agm.agm_states(mpf(1), mpf("0.5"), ctx)
        assert [s.iteration for s in states] == list(range(len(states)))
        with mp.workprec(ctx.bits + 16):
            for s in states:
                assert s.a >= s.b > 0
            a_seq = [s.a for s in states]
            b_seq = [s.b for s in states]
            assert all(x >= y for x, y in zip(a_seq, a_seq[1:]))
            assert all(x <= y for x, y in zip(b_seq, b_seq[1:]))
            gaps = [s.a - s.b for s in states]
            for g0, g1 in zip(gaps, gaps[1:]):
                if g1 == 0:
                    break
                assert g1 <= g0 * g0

    def test_cubic_converges_faster_per_step(self):
        ctx = PrecisionContext.from_digits(40)
        q = agm.agm_states(mpf(1), mpf("0.5"), ctx)
        c = agm.agm_states(mpf(1), mpf("0.5"), ctx, cubic=True)
        assert len(c) <= len(q)


class TestEllipticIdentity:
    def test_quadratic_mean_against_hypergeometric(self):
        # agm(1, k) * 2F1(1/2, 1/2; 1; 1 - k^2) = 1
        ctx = PrecisionContext.from_digits(60)
        k = mpf("0.3")
        m = agm.agm2(1, k, ctx).value
        with mp.workprec(ctx.bits + 32):
            z = 1 - k * k
        h = functions.hyp2f1((1, 2), (1, 2), (1, 1), z, ctx).value
        with mp.workprec(ctx.bits + 32):
            assert abs(m * h - 1) < mpf(10) ** -55

    def test_cubic_mean_pairs_with_cubed_complement(self):
        # the cubic mean satisfies the analogous identity with 1 - k^3,
        # and visibly fails with 1 - k^2
        ctx = PrecisionContext.from_digits(60)
        k = mpf("0.6")
        m = agm.agm3(1, k, ctx).value
        with mp.workprec(ctx.bits + 32):
            z_cubed = 1 - k**3
            z_squared = 1 - k * k
        h_cubed = functions.hyp2f1((1, 3), (2, 3), (1, 1), z_cubed, ctx).value
        h_squared = functions.hyp2f1((1, 3), (2, 3), (1, 1), z_squared, ctx).value
        with mp.workprec(ctx.bits + 32):
            assert abs(m * h_cubed - 1) < mpf(10) ** -55
            assert abs(m * h_squared - 1) > mpf("0.001")


class TestGaussLegendrePi:
    def test_four_iterations_at_200_bits(self):
        ctx = PrecisionContext(200, 50)
        result = agm.gauss_legendre_pi(4, ctx)
        assert result.iterations == 4
        assert len(result.per_iteration_error) == 4
        assert result.value.to_decimal(15).startswith("3.14159265358979")
        with mp.workprec(256):
            errs = [e.value for e in result.per_iteration_error]
            assert errs[-1] < mpf(10) ** -40
            assert all(late < early for early, late in zip(errs, errs[1:]))
            # quadratic convergence: each error is about the square of the last
            for early, late in zip(errs[1:], errs[2:]):
                assert late <= 10 * early * early

    def test_value_against_library(self):
        ctx = PrecisionContext.from_digits(50)
        v = agm.pi_value(ctx)
        with mp.workprec(ctx.bits + 32):
            assert abs(v.value - mpmath.pi) < mpf(10) ** -48

    def test_rejects_zero_iterations(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(ValueError):
            agm.gauss_legendre_pi(0, ctx)

    def test_rejects_iterations_past_precision(self):
        # at ~30 digits the internal reference cannot resolve the error of
        # a 10th iteration, and pretending otherwise would fabricate zeros
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(PrecisionError):
            agm.gauss_legendre_pi(10, ctx)

    def test_repeat_calls_are_deterministic(self):
        ctx = PrecisionContext.from_digits(40)
        a = agm.gauss_legendre_pi(3, ctx)
        b = agm.gauss_legendre_pi(3, ctx)
        assert a.value.value == b.value.value
        assert [e.value for e in a.per_iteration_error] == [
            e.value for e in b.per_iteration_error
        ]


class TestPiRaw:
    """Chudnovsky pi against the Gauss-Legendre iteration and the library."""

    @pytest.mark.parametrize("bits", [2000, 33072])
    def test_two_routes_and_library_agree(self, bits):
        v = agm.pi_raw(bits)
        work = bits + 32
        iterations = int(math.log2(work * math.log10(2.0) / 0.6)) + 2
        gl = agm._gl_approximations(iterations, work)[-1]
        with mp.workprec(bits + 64):
            assert abs(v - gl) < mpmath.ldexp(1, -bits)
            assert abs(v - mpmath.pi) < mpmath.ldexp(1, -bits)


class TestRationalBracket:
    def test_archimedes(self):
        lo, hi = agm.archimedes_bounds()
        assert lo == Fraction(223, 71)
        assert hi == Fraction(22, 7)
        ctx = PrecisionContext.from_digits(30)
        pi = agm.pi_value(ctx).value
        with mp.workprec(ctx.bits + 16):
            assert mpf(lo.numerator) / lo.denominator < pi < mpf(hi.numerator) / hi.denominator
