"""Quadrature engine: known integrals, endpoint singularities, tail policy."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from expmath import quadrature
from expmath.precision import (
    ConvergenceError,
    IntegrandError,
    PrecisionContext,
    TailBoundError,
    make_real,
)


def _check(result, expected, bound):
    err = abs(result.value.value - expected)
    assert result.converged
    assert err < bound, f"error {mpmath.nstr(err, 5)} exceeds {mpmath.nstr(bound, 5)}"


class TestFiniteIntervals:
    def test_polynomial(self):
        ctx = PrecisionContext.from_digits(30)
        r = quadrature.integrate_finite(lambda x: x * x, 0, 1, mpf(10) ** -30, ctx)
        with mp.workprec(ctx.bits + 16):
            _check(r, mpf(1) / 3, mpf(10) ** -28)

    def test_log_singularity_at_zero(self):
        # integral of ln(1/x) over (0,1) is exactly 1
        ctx = PrecisionContext.from_digits(40)
        r = quadrature.integrate_finite(
            lambda x: -mpmath.ln(x), 0, 1, mpf(10) ** -40, ctx
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, mpf(1), mpf(10) ** -38)

    def test_inverse_sqrt_singularity(self):
        # integral of x^(-1/2) over (0,1) is exactly 2
        ctx = PrecisionContext.from_digits(40)
        r = quadrature.integrate_finite(
            lambda x: 1 / mpmath.sqrt(x), 0, 1, mpf(10) ** -40, ctx
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, mpf(2), mpf(10) ** -38)

    def test_quarter_circle(self):
        # integral of sqrt(1-x^2) over (0,1) is pi/4; the derivative is
        # singular at x=1, which exercises the endpoint-offset node storage
        ctx = PrecisionContext.from_digits(40)
        r = quadrature.integrate_finite(
            lambda x: mpmath.sqrt((1 - x) * (1 + x)), 0, 1, mpf(10) ** -40, ctx
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, mpmath.pi / 4, mpf(10) ** -38)

    def test_arctangent_kernel(self):
        ctx = PrecisionContext.from_digits(30)
        r = quadrature.integrate_finite(
            lambda x: 1 / (1 + x * x), 0, 1, mpf(10) ** -30, ctx
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, mpmath.pi / 4, mpf(10) ** -28)

    @pytest.mark.parametrize(
        "f, a, b, digits, exact, tol",
        [
            (lambda x: 1 / x, 2, 6, 30, lambda: mpmath.ln(3), 28),
            # half-widths that are not 53-bit floats, so the interval's
            # geometry must be formed at the working precision
            (lambda x: x, 0, Fraction(1, 3), 50, lambda: mpf(1) / 18, 45),
            (lambda x: x, "0.1", 1, 50, lambda: (1 - mpf("0.1") ** 2) / 2, 45),
        ],
        ids=["ln3", "third", "tenth"],
    )
    def test_shifted_interval(self, f, a, b, digits, exact, tol):
        ctx = PrecisionContext.from_digits(digits)
        r = quadrature.integrate_finite(f, a, b, mpf(10) ** -digits, ctx)
        with mp.workprec(ctx.bits + 16):
            _check(r, exact(), mpf(10) ** -tol)

    @pytest.mark.parametrize(
        "f",
        [lambda x: 1 / mpmath.sqrt(x - 1), lambda x: 1 / mpmath.sqrt(2 - x)],
        ids=["at-a", "at-b"],
    )
    def test_singularity_at_a_nonzero_endpoint(self, f):
        # both integrals are exactly 2; the nodes nearest the singular
        # endpoint lie far inside its ulp, so only an exact a + d or b - d
        # keeps them off the endpoint itself
        ctx = PrecisionContext.from_digits(30)
        r = quadrature.integrate_finite(f, 1, 2, mpf(10) ** -25, ctx)
        with mp.workprec(ctx.bits + 16):
            _check(r, mpf(2), mpf(10) ** -25)

    def test_precision_scales(self):
        ctx_lo = PrecisionContext.from_digits(25)
        ctx_hi = PrecisionContext.from_digits(80)
        f = lambda x: mpmath.exp(x)  # noqa: E731
        r_lo = quadrature.integrate_finite(f, 0, 1, mpf(10) ** -25, ctx_lo)
        r_hi = quadrature.integrate_finite(f, 0, 1, mpf(10) ** -80, ctx_hi)
        with mp.workprec(ctx_hi.bits + 16):
            truth = mpmath.e - 1
            e_lo = abs(r_lo.value.value - truth)
            e_hi = abs(r_hi.value.value - truth)
            assert e_lo < mpf(10) ** -23
            assert e_hi < mpf(10) ** -78
            assert e_hi < e_lo

    def test_pi_against_mean_iteration(self):
        # integral of 4/(1+x^2) over (0,1) is pi; the reference comes from
        # the AGM module, so two unrelated routes must meet
        from expmath import agm

        ctx = PrecisionContext.from_digits(35)
        r = quadrature.integrate_finite(
            lambda x: 4 / (1 + x * x), 0, 1, mpf(10) ** -33, ctx
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, agm.pi_value(ctx).value, mpf(10) ** -30)

    def test_deterministic_across_calls(self):
        # node tables are cached; a repeat integration must be bit-identical
        ctx = PrecisionContext.from_digits(35)
        f = lambda x: mpmath.sin(x) / (1 + x)  # noqa: E731
        r1 = quadrature.integrate_finite(f, 0, 1, mpf(10) ** -35, ctx)
        r2 = quadrature.integrate_finite(f, 0, 1, mpf(10) ** -35, ctx)
        assert r1.value.value == r2.value.value
        assert r1.levels_used == r2.levels_used
        assert r1.level_differences == r2.level_differences


class TestSemiInfinite:
    def test_exponential(self):
        ctx = PrecisionContext.from_digits(30)
        r = quadrature.integrate_semi_infinite(
            lambda x: mpmath.exp(-x), 0, mpf(10) ** -30, ctx
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, mpf(1), mpf(10) ** -28)

    def test_gaussian(self):
        ctx = PrecisionContext.from_digits(30)
        r = quadrature.integrate_semi_infinite(
            lambda x: mpmath.exp(-x * x), 0, mpf(10) ** -30, ctx
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, mpmath.sqrt(mpmath.pi) / 2, mpf(10) ** -28)

    def test_shifted_lower_limit(self):
        # integral of x^(-2) over (1, inf) is exactly 1
        ctx = PrecisionContext.from_digits(30)
        r = quadrature.integrate_semi_infinite(
            lambda x: 1 / (x * x), 1, mpf(10) ** -30, ctx
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, mpf(1), mpf(10) ** -28)

    def test_singularity_at_a_nonzero_start(self):
        # integral of e^-(x-1) / sqrt(x-1) over (1, inf) is sqrt(pi); the
        # shift 1 + x is exact, so no node rounds onto x = 1
        ctx = PrecisionContext.from_digits(30)
        r = quadrature.integrate_semi_infinite(
            lambda x: mpmath.exp(-(x - 1)) / mpmath.sqrt(x - 1), 1, mpf(10) ** -25, ctx
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, mpmath.sqrt(mpmath.pi), mpf(10) ** -25)

    def test_algebraic_times_exponential(self):
        # integral of x e^(-x) over (0, inf) is Gamma(2) = 1
        ctx = PrecisionContext.from_digits(30)
        r = quadrature.integrate_semi_infinite(
            lambda x: x * mpmath.exp(-x), 0, mpf(10) ** -30, ctx
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, mpf(1), mpf(10) ** -28)

    def test_bessel_mellin_moment(self):
        # integral of t K0(t) over (0, inf) is 2^(mu-2) Gamma(mu/2)^2 = 1 at
        # mu = 2; far nodes land where K0 underflows, exercising the flag path
        from expmath import functions

        ctx = PrecisionContext.from_digits(35)
        r = quadrature.integrate_semi_infinite(
            lambda t: t * functions.bessel_k0(t, ctx).value if t > 0 else mpf(0),
            0,
            mpf(10) ** -30,
            ctx,
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, mpf(1), mpf(10) ** -25)


class TestFarMass:
    """The unit-mass density x^3 e^{-x/s} / (6 s^4) puts its mass near x = 3s.
    Far from x = 1 the nodes at |t| <= 2 see none of it, and the exp-sinh
    sweep moves its map onto the mass by exact powers of two."""

    EPS_EXP = 25

    @staticmethod
    def _density(s, ctx):
        with mp.workprec(ctx.bits + 16):
            sv = mpf(s)
            return lambda x: x ** 3 * mpmath.exp(-x / sv) / (6 * sv ** 4)

    @pytest.mark.parametrize("s", ["1e-30", "1e-10", "1e10"])
    def test_converges_to_the_unit_mass(self, s):
        # without the move: 2.1e-2252161657625246291 reported as converged
        # at 1e-30, and no convergence in 12 levels at 1e-10 and 1e10
        ctx = PrecisionContext.from_digits(30)
        eps = mpf(10) ** -self.EPS_EXP
        r = quadrature.integrate_semi_infinite(self._density(s, ctx), 0, eps, ctx)
        with mp.workprec(ctx.bits + 16):
            _check(r, mpf(1), eps)

    @settings(max_examples=60)
    @given(log10_s=st.floats(-40, 40))
    def test_no_wrong_value_reports_convergence(self, log10_s):
        ctx = PrecisionContext.from_digits(30)
        with mp.workprec(ctx.bits + 16):
            s = mpf(10) ** mpf(log10_s)
        eps = mpf(10) ** -self.EPS_EXP
        r = quadrature.integrate_semi_infinite(self._density(s, ctx), 0, eps, ctx)
        if r.converged:
            with mp.workprec(ctx.bits + 16):
                assert abs(r.value.value - 1) <= eps

    def test_unreachable_mass_is_refused(self):
        # a log-normal bump of mass sqrt(pi) at ln x = -10^5: each move reaches
        # about e^{317} at 30 digits, so the bump is past the move budget and
        # the sweep must refuse, not report a sum
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(ConvergenceError):
            quadrature.integrate_semi_infinite(
                lambda x: mpmath.exp(-(x.ln + 10 ** 5) ** 2 - x.ln), 0,
                mpf(10) ** -self.EPS_EXP, ctx,
            )

    def test_mass_near_one_keeps_the_map(self):
        # e^{-x} is seen at t = 0: every node the sweep reads is an unmoved
        # table node, and none is evaluated twice
        ctx = PrecisionContext.from_digits(30)
        seen = []

        def f(x):
            seen.append(x)
            return mpmath.exp(-x)

        r = quadrature.integrate_semi_infinite(f, 0, mpf(10) ** -25, ctx)
        table = {mpf(1)}
        for level in range(r.levels_used + 1):
            for node in quadrature._nodes("es", ctx.bits + 16, level):
                table.update((node[0], node[3]))
        assert seen[0] == 1 and all(x in table for x in seen)
        assert len(seen) == len(set(seen))


class TestResultMetadata:
    def test_result_fields(self):
        ctx = PrecisionContext.from_digits(30)
        eps = mpf(10) ** -30
        r = quadrature.integrate_finite(lambda x: mpmath.cos(x), 0, 1, eps, ctx)
        assert r.converged
        assert r.levels_used >= 2
        assert len(r.level_differences) == r.levels_used
        assert all(d >= 0 for d in r.level_differences)
        # the recorded estimate is the largest of the rate term on the last
        # two differences, the tail-cut floor and the roundoff term, and it
        # is within the tolerance the sweep stopped at
        prec = ctx.bits + 16
        with mp.workprec(prec):
            scale = max(mpf(1), abs(r.value.value))
            before, last = r.level_differences[-2:]
            assert last < before
            rate = (last / scale) ** quadrature.RATE_ORDER * scale
            roundoff = mpmath.ldexp(1, -(prec - 10)) * scale * (r.levels_used + 1)
            assert r.error_estimate.value == max(rate, eps * scale / 16, roundoff)
            assert r.error_estimate.value <= eps * scale

    def test_error_estimate_is_honest(self):
        ctx = PrecisionContext.from_digits(35)
        r = quadrature.integrate_finite(
            lambda x: mpmath.exp(-x) * mpmath.cos(3 * x), 0, 2, mpf(10) ** -35, ctx
        )
        with mp.workprec(ctx.bits + 32):
            # closed form: e^{-x}(3 sin 3x - cos 3x)/10 evaluated at 2 minus at 0
            truth = (mpmath.exp(-2) * (3 * mpmath.sin(6) - mpmath.cos(6)) + 1) / 10
            actual = abs(r.value.value - truth)
            assert actual <= 4 * (r.error_estimate.value + mpf(10) ** -35)

    def test_nonconvergence_is_reported_not_raised(self, monkeypatch):
        ctx = PrecisionContext.from_digits(30)
        monkeypatch.setattr(quadrature, "DEFAULT_MAX_LEVEL", 1)
        r = quadrature.integrate_finite(lambda x: 1 / mpmath.sqrt(x), 0, 1, mpf(10) ** -30, ctx)
        assert not r.converged
        assert r.levels_used == 1


class TestErrorEstimateContract:
    """A converged result's error_estimate bounds |value - exact|, on both
    maps, for integrands with closed forms and their mass near x = 1."""

    @staticmethod
    def _check_bound(r, exact):
        if r.converged:
            assert abs(r.value.value - exact) <= r.error_estimate.value

    @staticmethod
    def _setting(digits, slack):
        ctx = PrecisionContext.from_digits(digits)
        with mp.workprec(64):
            return ctx, mpf(10) ** -(digits - slack)

    @settings(max_examples=30)
    @given(p=st.floats(-0.9, 4), digits=st.integers(15, 45), slack=st.integers(0, 10))
    def test_power_on_the_unit_interval(self, p, digits, slack):
        ctx, eps = self._setting(digits, slack)
        r = quadrature.integrate_finite(lambda x: x ** p, 0, 1, eps, ctx)
        with mp.workprec(ctx.bits + 64):
            self._check_bound(r, 1 / (mpf(p) + 1))

    @settings(max_examples=30)
    @given(b=st.floats(0.25, 4), c=st.floats(0.5, 2), digits=st.integers(15, 45),
           slack=st.integers(0, 10))
    def test_decay_on_a_finite_interval(self, b, c, digits, slack):
        ctx, eps = self._setting(digits, slack)
        r = quadrature.integrate_finite(lambda x: mpmath.exp(-c * x), 0, b, eps, ctx)
        with mp.workprec(ctx.bits + 64):
            self._check_bound(r, -mpmath.expm1(-c * mpf(b)) / c)

    @settings(max_examples=30)
    @given(c=st.floats(0.5, 2), digits=st.integers(15, 45), slack=st.integers(0, 10))
    def test_decay_on_the_half_line(self, c, digits, slack):
        ctx, eps = self._setting(digits, slack)
        r = quadrature.integrate_semi_infinite(lambda x: mpmath.exp(-c * x), 0, eps, ctx)
        with mp.workprec(ctx.bits + 64):
            self._check_bound(r, 1 / mpf(c))

    def test_integral_far_below_one_is_bounded_relative_to_itself(self):
        # the N = 21 sinc product on the panel [72, 75], about -1.45e-19, at
        # the context and panel eps of `sinc --N 21 --digits 25` (eps 1e-28
        # over 4 x 121 panels): a rate term scaled by max(1, |T_m|) stopped
        # it early, 1.2e-25 off under an estimate of 1.6e-31
        ctx = PrecisionContext.from_digits(30)
        with mp.workprec(64):
            eps = mpf(10) ** -28 / (4 * 121)

        def product(x):
            return mpmath.fprod(mpmath.sinc(x / (2 * k + 1)) for k in range(22))

        r = quadrature.integrate_finite(product, 72, 75, eps, ctx)
        with mp.workdps(50):
            exact = mpmath.quad(product, [72, 75])
        assert r.converged
        with mp.workprec(ctx.bits + 64):
            assert abs(r.value.value - exact) <= r.error_estimate.value


class TestRefinementBehaviour:
    @pytest.mark.parametrize(
        "f,a,b",
        [
            (lambda x: mpmath.exp(x), 0, 1),
            (lambda x: 4 / (1 + x * x), 0, 1),
            (lambda x: mpmath.cos(3 * x), -1, 2),
        ],
        ids=["exp", "cauchy", "cosine"],
    )
    def test_refinement_never_degrades_estimate(self, f, a, b):
        # on analytic integrands each added level contracts the inter-level
        # difference; a factor-2 slack covers the final noise-floor step
        ctx = PrecisionContext.from_digits(30)
        eps = mpf(10) ** -30
        r = quadrature.integrate_finite(f, a, b, eps, ctx)
        diffs = r.level_differences
        with mp.workprec(ctx.bits + 16):
            for earlier, later in zip(diffs, diffs[1:]):
                assert later <= 2 * earlier or later <= eps

    def test_low_degree_polynomials_exact_at_level_five(self, monkeypatch):
        ctx = PrecisionContext.from_digits(30)
        eps = mpf(10) ** -32
        monkeypatch.setattr(quadrature, "DEFAULT_MAX_LEVEL", 5)
        r = quadrature.integrate_finite(lambda x: 3 * x * x - 2 * x + mpf("0.5"), 0, 1, eps, ctx)
        with mp.workprec(ctx.bits + 16):
            # exact value is 1 - 1 + 1/2
            assert abs(r.value.value - mpf("0.5")) < mpf(10) ** -27

    def test_odd_integrand_cancels(self):
        ctx = PrecisionContext.from_digits(30)
        r = quadrature.integrate_finite(
            lambda x: x ** 3 - 3 * x, -2, 2, mpf(10) ** -30, ctx
        )
        with mp.workprec(ctx.bits + 16):
            assert abs(r.value.value) <= r.error_estimate.value + mpf(10) ** -28


class TestArgumentValidation:
    def test_reversed_interval(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(ValueError):
            quadrature.integrate_finite(lambda x: x, 1, 0, mpf(10) ** -10, ctx)

    def test_empty_interval(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(ValueError):
            quadrature.integrate_finite(lambda x: x, 1, 1, mpf(10) ** -10, ctx)

    def test_nonpositive_eps(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(ValueError):
            quadrature.integrate_finite(lambda x: x, 0, 1, 0, ctx)


class TestIntegrandReturnTypes:
    @pytest.mark.parametrize(
        "as_returned, as_mpf",
        [
            (lambda x, ctx: 3, lambda x, ctx: mpf(3)),
            (lambda x, ctx: float(x * x), lambda x, ctx: mpf(float(x * x))),
            (lambda x, ctx: make_real(x * x, ctx), lambda x, ctx: make_real(x * x, ctx).value),
        ],
        ids=["int", "float", "BigReal"],
    )
    def test_real_returns_agree_with_mpf(self, as_returned, as_mpf):
        ctx = PrecisionContext.from_digits(30)
        eps = mpf(10) ** -25
        r = quadrature.integrate_finite(lambda x: as_returned(x, ctx), 0, 1, eps, ctx)
        ref = quadrature.integrate_finite(lambda x: as_mpf(x, ctx), 0, 1, eps, ctx)
        assert r.value.value == ref.value.value
        assert r.levels_used == ref.levels_used


class TestIntegrandFailures:
    def test_non_real_return(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(IntegrandError):
            quadrature.integrate_finite(
                lambda x: mpmath.mpc(x, 1), 0, 1, mpf(10) ** -10, ctx
            )

    def test_interior_blowup(self):
        # non-integrable pole inside the range: the evaluation near x=1/2
        # overflows to inf, which is an integrand failure without a certificate
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(IntegrandError):
            quadrature.integrate_finite(
                lambda x: mpf(1) / (x - mpf(1) / 2) ** 2 if x != mpf(1) / 2 else mpf("inf"),
                0,
                1,
                mpf(10) ** -10,
                ctx,
            )

    def test_exception_in_integrand(self):
        ctx = PrecisionContext.from_digits(30)

        def bad(x):
            raise ZeroDivisionError("synthetic failure")

        with pytest.raises(IntegrandError):
            quadrature.integrate_finite(bad, 0, 1, mpf(10) ** -10, ctx)


class TestDecayCertificate:
    def test_far_tail_skipped_without_evaluation(self):
        # with a certificate covering y >= 30, the integrand must never be
        # called far beyond that point even though the map generates nodes
        # at astronomically large y
        ctx = PrecisionContext.from_digits(30)
        seen = []

        def f(x):
            seen.append(x)
            return mpmath.exp(-x)

        cert = quadrature.DecayCertificate(beyond=30.0, log_bound=lambda y: -y)
        r = quadrature.integrate_semi_infinite(f, 0, mpf(10) ** -30, ctx, tail_bound=cert)
        with mp.workprec(ctx.bits + 16):
            _check(r, mpf(1), mpf(10) ** -28)
        assert max(seen) < 500  # plain exp-sinh nodes reach beyond 10^100

    def test_overflow_under_certificate_is_zero(self):
        # a certified integrand that underflows/overflows in the tail is
        # treated as exactly zero there instead of raising
        ctx = PrecisionContext.from_digits(25)

        def f(x):
            if x > 5:
                return mpf("nan")
            return mpmath.exp(-x)

        cert = quadrature.DecayCertificate(beyond=5.0, log_bound=lambda y: -y)
        r = quadrature.integrate_semi_infinite(f, 0, mpf(10) ** -25, ctx, tail_bound=cert)
        with mp.workprec(ctx.bits + 16):
            truncated = 1 - mpmath.exp(-5)
            assert abs(r.value.value - truncated) < mpf("0.01")

    def test_certificate_violation_raises(self):
        # claimed decay e^{-2y} but actual decay only e^{-y/10}
        ctx = PrecisionContext.from_digits(25)
        cert = quadrature.DecayCertificate(beyond=3.0, log_bound=lambda y: -2 * y)
        with pytest.raises(TailBoundError):
            quadrature.integrate_semi_infinite(
                lambda x: mpmath.exp(-x / 10), 0, mpf(10) ** -25, ctx, tail_bound=cert
            )

    def test_triple_exponential_decay(self):
        # integral over u of exp(-t cosh u) for t=1 is K_0(1); without the
        # certificate the far nodes overflow the exponent range
        ctx = PrecisionContext.from_digits(40)
        t = mpf(1)
        cert = quadrature.DecayCertificate(
            beyond=2.0, log_bound=lambda u: -t * mpmath.cosh(u)
        )
        r = quadrature.integrate_semi_infinite(
            lambda u: mpmath.exp(-t * mpmath.cosh(u)), 0, mpf(10) ** -40, ctx,
            tail_bound=cert,
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, mpmath.besselk(0, 1), mpf(10) ** -38)


    def test_table_does_not_depend_on_read_order(self):
        # a table's entries are pure functions of (map, precision, level):
        # read first by a sweep without a certificate and then by a certified
        # one, it holds the same records, and gives the same results, as in
        # the reverse order; either way every abscissa hands over ln x
        ctx = PrecisionContext.from_digits(23)
        prec = ctx.bits + 16
        eps = mpf(10) ** -20
        seen = []

        def integrand(x):
            seen.append(x)
            return mpmath.exp(-x)

        def log_bound(x):
            seen.append(x)
            return -x

        cert = quadrature.DecayCertificate(beyond=2.0, log_bound=log_bound)
        sweeps = {
            "bare": lambda: quadrature.integrate_semi_infinite(
                lambda x: mpmath.exp(-x), 0, eps, ctx),
            "certified": lambda: quadrature.integrate_semi_infinite(
                integrand, 0, eps, ctx, tail_bound=cert),
        }

        def records():
            # every field with the ln it carries, if any, of each table read
            tables = {level: quadrature._table("es", prec, level)
                      for level in range(quadrature.DEFAULT_MAX_LEVEL + 1)}
            return {
                level: [node and tuple((v, getattr(v, "ln", None)) for v in node) for node in table]
                for level, table in tables.items() if table
            }

        runs = []
        for order in (("bare", "certified"), ("certified", "bare")):
            quadrature._table.cache_clear()
            steps = []
            for name in order:
                r = sweeps[name]()
                steps.append((r.value.value, r.error_estimate.value, r.levels_used))
                steps.append(records())
            runs.append(steps)
        (bare, first_bare, cert_after, both_a), (cert, first_cert, bare_after, both_b) = runs
        assert bare == bare_after and cert == cert_after
        assert both_a == both_b
        # after one sweep the tables may differ in length, never in a record
        assert first_bare.keys() == first_cert.keys()
        for level, table in first_bare.items():
            common = min(len(table), len(first_cert[level]))
            assert common and table[:common] == first_cert[level][:common]
        with mp.workprec(prec):
            assert abs(cert[0] - 1) < mpf(10) ** -19
            # x.ln is the map's exponent a, not mpmath.ln of the rounded e^a
            tol = mpmath.ldexp(1, 12 - prec)
            assert seen and all(abs(x.ln - mpmath.ln(x)) <= tol for x in seen)

    def test_large_side_node_carries_its_log_weight(self):
        # the skip test and a move read ln w and ln w' from the table as
        # floats: each within a few float roundings of the logarithm of its
        # weight, however large |a| gets (up to 8 prec ln 2)
        for digits in (30, 200):
            prec = PrecisionContext.from_digits(digits).bits + 16
            for level in (0, 3):
                nodes = list(quadrature._nodes("es", prec, level))
                assert nodes
                with mp.workprec(prec):
                    for x, w, log_w, x_small, w_small, log_w_small in nodes:
                        for log_v, v in ((log_w, w), (log_w_small, w_small)):
                            assert type(log_v) is float
                            assert abs(log_v - float(mpmath.ln(v))) <= 1e-12 * max(1, abs(log_v))
                        assert x_small.ln == -x.ln

    def test_certificate_covering_the_small_side(self):
        # beyond = 0 certifies every node, the small side's included, whose
        # skip test reads ln w' = ln w - 2a
        ctx = PrecisionContext.from_digits(30)
        cert = quadrature.DecayCertificate(beyond=0.0, log_bound=lambda y: -y)
        r = quadrature.integrate_semi_infinite(
            lambda x: mpmath.exp(-x), 0, mpf(10) ** -30, ctx, tail_bound=cert
        )
        with mp.workprec(ctx.bits + 16):
            _check(r, mpf(1), mpf(10) ** -28)


class TestExceeds:
    """`_exceeds(fv, limit)` decides ln|fv| > limit from fv's binary exponent
    and a float limit, and takes the logarithm only near a tie."""

    PREC = 116

    @settings(max_examples=300)
    @given(
        man=st.integers(1, 2 ** 100 - 1),
        mag=st.integers(-10 ** 6, 10 ** 6),
        negative=st.booleans(),
        limit=st.one_of(
            st.tuples(st.sampled_from([-1, 0]),
                      st.one_of(st.floats(-1e-12, 1e-12), st.floats(-2, 2))),
            st.sampled_from([math.inf, -math.inf]),
        ),
    )
    def test_agrees_with_the_logarithm(self, man, mag, negative, limit):
        # fv has binary exponent `mag`: 2^(mag-1) <= |fv| < 2^mag; a finite
        # limit lies near (mag-1) ln 2 or mag ln 2
        with mp.workprec(self.PREC):
            fv = mpmath.ldexp(mpf(-man if negative else man), mag - man.bit_length())
            assert mpmath.mag(fv) == mag
            if isinstance(limit, tuple):
                edge, offset = limit
                limit = float((mag + edge) * mpmath.ln(2)) + offset
            got = quadrature._exceeds(fv, limit)
        with mp.workprec(2 * self.PREC):
            assert got == (mpmath.ln(abs(fv)) > limit)


class TestRuleTable:
    def test_structure(self):
        ctx = PrecisionContext.from_digits(30)
        rule = quadrature.tanh_sinh_rule(2, ctx)
        assert rule.level == 2
        assert rule.h == mpf(2) ** -2
        xs = [x for x, _ in rule.nodes]
        ws = [w for _, w in rule.nodes]
        assert xs == sorted(xs)
        assert all(-1 < x < 1 for x in xs)
        assert all(w > 0 for w in ws)
        # symmetric about zero, with the origin present; negation must run
        # at working precision because mpmath rounds unary minus
        assert mpf(0) in xs
        with mp.workprec(ctx.bits + 32):
            assert all(-x in xs for x in xs)

    def test_deeper_level_refines(self):
        ctx = PrecisionContext.from_digits(30)
        r0 = quadrature.tanh_sinh_rule(0, ctx)
        r3 = quadrature.tanh_sinh_rule(3, ctx)
        assert len(r3.nodes) > 2 * len(r0.nodes)
        # level-0 abscissae all reappear at level 3
        xs3 = set(r3.nodes)
        assert all(node in xs3 for node in r0.nodes)

    def test_weights_integrate_constants(self):
        # h * sum(w) is the rule applied to f=1, which must give 2
        ctx = PrecisionContext.from_digits(30)
        rule = quadrature.tanh_sinh_rule(3, ctx)
        with mp.workprec(ctx.bits + 16):
            total = rule.h * mpmath.fsum(w for _, w in rule.nodes)
            assert abs(total - 2) < mpf(10) ** -25

    def test_rejects_negative_level(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(ValueError):
            quadrature.tanh_sinh_rule(-1, ctx)
