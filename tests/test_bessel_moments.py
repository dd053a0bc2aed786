"""Moments of powers of K_0: known values, monotone decrease, large n, 2-D oracle."""

import hashlib
import json
import math
import time
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from expmath import bessel_moments, functions, quadrature
from expmath.precision import ConvergenceError, PrecisionContext, parse_decimal

# 2 e^{-2 gamma} to 50 places, frozen from an independent high-precision
# evaluation of gamma (Brent-McMillan) cross-checked against mpmath.euler.
CINF_50 = "0.63047350337438679612204019271087890435458707871273"


class TestKnownValues:
    def test_c1_is_two(self):
        # the n=1 moment integrates t K0(t), which is exactly 1; the 2^n/n!
        # prefactor doubles it
        ctx = PrecisionContext.from_digits(30)
        rec = bessel_moments.c_n(1, ctx)
        with mp.workprec(ctx.bits + 16):
            assert abs(rec.value.value - 2) < mpf(10) ** -24

    @pytest.mark.parametrize("digits", [30, 60])
    def test_c2_is_one(self, digits):
        ctx = PrecisionContext.from_digits(digits)
        eps = mpf(10) ** -(digits - 6)
        rec = bessel_moments.c_n(2, ctx, eps=eps)
        with mp.workprec(ctx.bits + 16):
            assert abs(rec.value.value - 1) < mpf(10) ** -(digits - 8)

    def test_c4_against_zeta3(self):
        # closed form: C_4 = 7 zeta(3) / 12
        ctx = PrecisionContext.from_digits(40)
        rec = bessel_moments.c_n(4, ctx, eps=mpf(10) ** -34)
        z3 = functions.zeta3(ctx).value
        with mp.workprec(ctx.bits + 16):
            assert abs(rec.value.value - 7 * z3 / 12) < mpf(10) ** -32

    def test_cold_c4_builds_gamma_once(self):
        # every K0 series call at one precision shares one gamma, built at
        # the widest working precision a series argument can need
        ctx = PrecisionContext.from_digits(57)  # no other c_n test: the K0 memo starts cold
        before = functions._euler_gamma_raw.cache_info().misses
        rec = bessel_moments.c_n(4, ctx, eps=mpf(10) ** -30)
        assert functions._euler_gamma_raw.cache_info().misses - before <= 1
        z3 = functions.zeta3(ctx).value
        with mp.workprec(ctx.bits + 16):
            assert abs(rec.value.value - 7 * z3 / 12) < mpf(10) ** -28

    def test_c3_against_library_quadrature(self):
        # independent route: mpmath's own Bessel function and integrator
        ctx = PrecisionContext.from_digits(25)
        rec = bessel_moments.c_n(3, ctx)
        with mp.workprec(140):
            ref = (mpf(8) / 6) * mpmath.quad(
                lambda t: t * mpmath.besselk(0, t) ** 3, [0, mpmath.inf]
            )
            assert abs(rec.value.value - ref) < mpf(10) ** -18

    def test_limit_value(self):
        ctx = PrecisionContext.from_digits(50)
        v = bessel_moments.c_infinity(ctx)
        with mp.workprec(ctx.bits + 32):
            ref = 2 * mpmath.exp(-2 * +mpmath.euler)
            assert abs(v.value - ref) < mpf(10) ** -48
        assert v.to_decimal(50) == CINF_50

    def test_eps_override_is_respected(self):
        ctx = PrecisionContext.from_digits(30)
        rec = bessel_moments.c_n(2, ctx, eps=mpf(10) ** -12)
        with mp.workprec(ctx.bits + 16):
            assert abs(rec.value.value - 1) < mpf(10) ** -11

    def test_value_independent_of_refinement_schedule(self):
        # a loose and a tight tolerance stop the quadrature at different
        # levels; once converged, both must agree within their own reports
        ctx = PrecisionContext.from_digits(30)
        loose = bessel_moments.c_n(3, ctx, eps=mpf(10) ** -12)
        tight = bessel_moments.c_n(3, ctx, eps=mpf(10) ** -24)
        with mp.workprec(ctx.bits + 16):
            gap = abs(loose.value.value - tight.value.value)
            budget = loose.error_estimate.value + tight.error_estimate.value
            assert gap <= budget


class TestMonotonicity:
    def test_scan_strictly_decreasing_toward_limit(self):
        ctx = PrecisionContext.from_digits(30)
        records = [bessel_moments.c_n(n, ctx) for n in range(1, 7)]
        limit = bessel_moments.c_infinity(ctx).value
        assert [r.n for r in records] == [1, 2, 3, 4, 5, 6]
        with mp.workprec(ctx.bits + 16):
            values = [r.value.value for r in records]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert all(v > limit for v in values)
        assert bessel_moments.find_monotonicity_violations(records) == []

    def test_violation_detection(self):
        # synthetic records with an inversion between n=2 and n=3
        ctx = PrecisionContext.from_digits(30)

        def rec(n, text):
            v = parse_decimal(text, ctx)
            e = parse_decimal("1e-20", ctx)
            return bessel_moments.CnRecord(n=n, value=v, error_estimate=e)

        broken = [rec(1, "2.0"), rec(2, "0.8"), rec(3, "0.9")]
        assert bessel_moments.find_monotonicity_violations(broken) == [(2, 3)]

    def test_unresolved_gap_counts_as_violation(self):
        # decrease smaller than the combined error bars is not a resolved
        # decrease
        ctx = PrecisionContext.from_digits(30)

        def rec(n, text, err):
            return bessel_moments.CnRecord(
                n=n,
                value=parse_decimal(text, ctx),
                error_estimate=parse_decimal(err, ctx),
            )

        fuzzy = [rec(1, "0.70001", "1e-4"), rec(2, "0.70000", "1e-4")]
        assert bessel_moments.find_monotonicity_violations(fuzzy) == [(1, 2)]


def _library_moment(n: int) -> mpf:
    """C_n from mpmath's own Bessel function and integrator, never expmath.

    In u = ln(1/t) the integrand is e^{-2u} K0(e^{-u})^n, a bump that peaks
    near u_peak = n/2 + gamma - ln 2 and is sqrt(n+1)/2 wide.  For n >= 80
    everything below u = 0 (t > 1, where K0^n < 0.43^n) is far under 1e-40
    of the total, so the range runs from 0 to 16 widths plus 40 past the
    peak, split at the peak and at 2 and 6 widths either side of it.
    Gauss-Legendre up to degree 5 agrees there with mpmath's default
    tanh-sinh to 34 digits.
    """
    with mp.workdps(34):
        u_peak = mpf(n) / 2 + mpmath.euler - mpmath.ln(2)
        w = mpmath.sqrt(n + 1) / 2
        points = [0, u_peak - 6 * w, u_peak - 2 * w, u_peak, u_peak + 2 * w,
                  u_peak + 6 * w, u_peak + 16 * w + 40]
        v = mpmath.quad(
            lambda u: mpmath.exp(-2 * u) * mpmath.besselk(0, mpmath.exp(-u)) ** n,
            points, method="gauss-legendre", maxdegree=5,
        )
        return +(2 ** n * v / mpmath.factorial(n))


class TestLargeN:
    """The integrand's mass sits where K0(t) = n/2, at t near 2e^{-gamma-n/2};
    once the exp-sinh nodes at |t| <= 2 miss it, the quadrature sweep moves
    its map onto the peak by an exact power of two."""

    LARGE = (80, 128, 256, 512)

    @pytest.fixture(scope="class")
    def large_records(self):
        ctx = PrecisionContext.from_digits(30)
        return [bessel_moments.c_n(n, ctx) for n in self.LARGE]

    @pytest.mark.parametrize("n", LARGE)
    def test_matches_library_reference(self, large_records, n):
        rec = large_records[self.LARGE.index(n)]
        ref = _library_moment(n)
        with mp.workprec(160):
            assert abs(rec.value.value - ref) < rec.error_estimate.value + mpf(10) ** -25

    def test_monotone_toward_limit_within_error_bars(self, large_records):
        ctx = PrecisionContext.from_digits(30)
        limit = bessel_moments.c_infinity(ctx).value
        eps = bessel_moments._default_eps(ctx)
        with mp.workprec(ctx.bits + 16):
            bars = [r.error_estimate.value + eps for r in large_records]
            values = [r.value.value for r in large_records]
            for (a, bar_a), (b, bar_b) in zip(zip(values, bars), zip(values[1:], bars[1:])):
                assert b - a <= bar_a + bar_b  # no resolved increase
            for v, bar in zip(values, bars):
                assert v > limit - bar
            # C_80 - C_128 is about 6.9e-24, far above both error bars
            assert values[0] - values[1] > bars[0] + bars[1]

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_far_past_the_limit_gap(self, n):
        # C_n - C_inf < 1e-29 from n = 100 on, so C_inf is the reference.
        # Here the moved map's plus-side nodes below the certificate reach
        # t = 2, far above the peak, where a negligible-looking integrand
        # value still carries a weight of about t.
        ctx = PrecisionContext.from_digits(30)
        rec = bessel_moments.c_n(n, ctx)
        limit = bessel_moments.c_infinity(ctx).value
        with mp.workprec(ctx.bits + 16):
            assert abs(rec.value.value - limit) < rec.error_estimate.value + mpf(10) ** -25

    @pytest.mark.parametrize("n", [48, 56, 64])
    def test_fifteen_digits(self, n):
        # without the move each of these raised ConvergenceError
        ctx = PrecisionContext.from_digits(15)
        rec = bessel_moments.c_n(n, ctx)
        limit = bessel_moments.c_infinity(ctx).value
        with mp.workprec(ctx.bits + 16):
            # C_n - C_inf < 2e-14 from n = 48 on
            assert abs(rec.value.value - limit) < mpf(10) ** -10

    def test_unshifted_range_keeps_memo_reuse(self, monkeypatch):
        ctx = PrecisionContext.from_digits(30)
        raw = functions._log_k0_raw
        calls = []

        def counting(t, prec):
            calls.append(t)
            return raw(t, prec)

        monkeypatch.setattr(functions, "_log_k0_raw", counting)
        bessel_moments._log_k0_cached.cache_clear()
        bessel_moments.c_n(20, ctx)
        cold = len(calls)
        bessel_moments._log_k0_cached.cache_clear()
        bessel_moments.c_n(4, ctx)
        del calls[:]
        bessel_moments.c_n(20, ctx)
        assert len(calls) < cold

    def test_mass_past_the_move_budget_is_refused_fast(self):
        # the peak near t = e^{-25000} lies past 64 moves of the map, each
        # reaching about e^{317} at 30 digits
        ctx = PrecisionContext.from_digits(30)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError):
            bessel_moments.c_n(5 * 10 ** 4, ctx)
        assert time.perf_counter() - start < 1

    def test_nonconvergence_reports_the_error_estimate_as_such(self, monkeypatch):
        # one refinement level cannot reach 1e-25; the message must label the
        # quadrature's error estimate for what it is, not as a value
        real = quadrature.integrate_semi_infinite
        seen = []

        def recorded(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(quadrature, "DEFAULT_MAX_LEVEL", 1)
        monkeypatch.setattr(quadrature, "integrate_semi_infinite", recorded)
        with pytest.raises(ConvergenceError) as info:
            bessel_moments.c_n(4, PrecisionContext.from_digits(30))
        estimate = mpmath.nstr(seen[0].error_estimate.value, 4)
        assert f"error estimate {estimate}" in str(info.value)
        assert "best estimate" not in str(info.value)

    @settings(max_examples=60)
    @given(n=st.integers(1, 600), digits=st.integers(15, 30))
    def test_every_moment_lies_between_limit_and_two(self, n, digits):
        ctx = PrecisionContext.from_digits(digits)
        rec = bessel_moments.c_n(n, ctx)
        limit = bessel_moments.c_infinity(ctx).value
        with mp.workprec(ctx.bits + 16):
            slack = rec.error_estimate.value + mpf(10) ** -(digits - 5)
            assert limit - slack < rec.value.value <= 2


class TestErrorEstimate:
    """c_n's error_estimate bounds its true error, and the true error stays
    within eps, at the benchmark's three tolerances and at the CLI's
    `cn --digits d` settings (context max(d + 5, 30) digits, eps 10^-(d+3))
    for d = 12 and 30."""

    SETTINGS = [(30, 25), (45, 40), (60, 52), (30, 15), (35, 33)]
    REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"

    def test_estimate_bounds_the_error(self):
        with mp.workdps(90):
            exact = {
                1: mpf(2),
                2: mpf(1),
                # L_{-3}(2) = (psi'(1/3) - psi'(2/3)) / 9
                3: (mpmath.psi(1, mpf(1) / 3) - mpmath.psi(1, mpf(2) / 3)) / 9,
                4: 7 * mpmath.zeta(3) / 12,
            }
            # 64 digits each, by mpmath.besselk under mpmath.quad
            references = json.loads(self.REFERENCES.read_text())["c_n"]
            exact.update((int(n), mpf(v)) for n, v in references.items())
        under, over_eps = [], []
        for digits, eps_exp in self.SETTINGS:
            with mp.workprec(64):
                eps = mpf(10) ** -eps_exp
            for n, ref in sorted(exact.items()):
                rec = bessel_moments.c_n(n, PrecisionContext.from_digits(digits), eps)
                with mp.workdps(90):
                    err = abs(rec.value.value - ref)
                    if err > rec.error_estimate.value:
                        under.append((n, digits, eps_exp))
                    if err > eps:
                        over_eps.append((n, digits, eps_exp))
        assert under == [] and over_eps == []


class TestTwoDimensionalOracle:
    @pytest.mark.parametrize("digits, tol_exp", [(30, 20), (60, 50)])
    def test_agrees_with_one_dimensional_route(self, digits, tol_exp):
        ctx = PrecisionContext.from_digits(digits)
        direct = bessel_moments.c2_double_integral(ctx, eps=mpf(10) ** -(tol_exp + 2))
        reduced = bessel_moments.c_n(2, ctx, eps=mpf(10) ** -(tol_exp + 4))
        with mp.workprec(ctx.bits + 16):
            assert abs(direct.value - reduced.value.value) < mpf(10) ** -tol_exp
            assert abs(direct.value - 1) < mpf(10) ** -tol_exp

    @pytest.mark.parametrize("s", ["1e-30", "1e-3", "0.5", "2", "20"])
    def test_inner_integral_closed_form(self, s):
        # (s coth s - 1)/sinh^2 s against quadrature of its defining
        # integrand; at s = 1e-30 the numerator cancels in ~200 bits
        ctx = PrecisionContext.from_digits(30)
        with mp.workprec(ctx.bits + 16):
            sv = mpf(s)
            c = mpmath.cosh(sv)
            closed = bessel_moments._c2_inner(sv)
            scale = 1 / (c + 1) ** 2  # the integrand at u = 0
        ref = quadrature.integrate_semi_infinite(
            lambda u: 1 / (c + mpmath.cosh(u)) ** 2, 0, scale * mpf(10) ** -28, ctx
        )
        assert ref.converged
        with mp.workprec(ctx.bits + 16):
            assert abs(closed - ref.value.value) < scale * mpf(10) ** -26


class TestLogK0Memo:
    def test_repeated_moment_recomputes_no_log_k0(self, monkeypatch):
        ctx = PrecisionContext.from_digits(30)
        first = bessel_moments.c_n(3, ctx)

        def refuse(t, prec):
            raise AssertionError("ln K0 recomputed")

        monkeypatch.setattr(functions, "_log_k0_raw", refuse)
        assert bessel_moments.c_n(3, ctx) == first

    def test_memo_is_bounded(self):
        maxsize = bessel_moments._log_k0_cached.cache_info().maxsize
        assert maxsize is not None and maxsize > 0


class TestBitIdentity:
    """The sha256 of each call's raw (value, error) mpf tuples: a change that
    only saves arithmetic must leave every bit of C_n as it is, and a change
    that moves one names the call.  At n = 150 the sweep moves its map, and
    the pin covers that path too."""

    PINNED = {
        (1, 30, 25): "68e8e3759334e12187c37b8eac5d35c7e12abcb9fb8ee2cea745890e28917061",
        (2, 30, 25): "688790b978ae813d22243d075a915f4becc5005c9a303599abd72d7adc023730",
        (3, 30, 25): "f206028b8d5c98f927ac0b76561592d1823d59b8effc13d0f1bb6f446af738fb",
        (4, 30, 25): "4dbe4cb8c040563b8d66144ac5f553ac60d3a19d0eea59e7d057e4b6f62639f4",
        (8, 30, 25): "3a823e9eb3865bd4e2c845b31297e703a3a021d70ce1963371c097523f2e525f",
        (20, 30, 25): "85d349dbb54250d0fad497f8c1441bbf38e5d9c2557cb3dffcaa733461896a3b",
        (4, 60, 52): "6de5c7f2a6eb5bce3d670b1115ed1de79fc733c14a4b21190dedb05875a9bd9c",
        (150, 30, 25): "a0d2ee98093ac555a9fee49b82e6d65fe4bc1a8a4068bd71a8d0f75702fc4c29",
    }

    @staticmethod
    def _c_n(n, digits, eps_exp):
        with mp.workprec(64):
            eps = mpf(10) ** -eps_exp
        return bessel_moments.c_n(n, PrecisionContext.from_digits(digits), eps)

    @pytest.mark.parametrize("call", list(PINNED), ids=lambda c: "n%d-d%d-e%d" % c)
    def test_raw_tuples_are_pinned(self, call):
        rec = self._c_n(*call)
        raw = (rec.value.value._mpf_, rec.error_estimate.value._mpf_)
        assert hashlib.sha256(repr(raw).encode()).hexdigest() == self.PINNED[call]

    def test_n150_moves_the_map(self, monkeypatch):
        # the exp-sinh centre, the one node at an exact power of two 2^j,
        # leaves t = 1 for the peak at t = 2e^{-gamma-75}, about 2^-108
        real = quadrature.integrate_semi_infinite
        centres = []

        def recording(f, *args, **kwargs):
            def g(t):
                if t._mpf_[1] == 1:
                    centres.append(t._mpf_[2])
                return f(t)

            return real(g, *args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_semi_infinite", recording)
        self._c_n(150, 30, 25)
        assert centres[0] == 0 and abs(centres[-1] + 108) <= 4


class TestSweepDecisions:
    """c_n's sweep decisions by count: its integrand evaluations, and the
    certificate's skips, the certified nodes it never evaluates.  A change
    that only makes the skip test or the tail-bound check cheaper keeps both
    counts."""

    PINNED = {
        (4, 30, 25): (185, 100),
        (4, 45, 40): (387, 200),
        (4, 60, 52): (405, 210),
        (1, 60, 52): (823, 348),
    }

    @pytest.mark.parametrize("call", list(PINNED), ids=lambda c: "n%d-d%d-e%d" % c)
    def test_evaluations_and_skips_are_pinned(self, call, monkeypatch):
        real = quadrature.integrate_semi_infinite
        evaluated, bounded = [], []

        def counting(f, a, eps, ctx, tail_bound):
            def g(t):
                evaluated.append(t)
                return f(t)

            def log_bound(t):
                bounded.append(t)
                return tail_bound.log_bound(t)

            cert = quadrature.DecayCertificate(tail_bound.beyond, log_bound)
            return real(g, a, eps, ctx, cert)

        monkeypatch.setattr(quadrature, "integrate_semi_infinite", counting)
        TestBitIdentity._c_n(*call)
        certified = [t for t in evaluated if t >= 2]
        assert (len(evaluated), len(bounded) - len(certified)) == self.PINNED[call]
        if call[0] == 1:
            # C_1 at 60 digits evaluates deep in the certified tail
            assert 131 < max(evaluated) < 132


class _Captured(Exception):
    pass


def _certificate(n):
    """The DecayCertificate c_n(n) hands to the quadrature sweep."""
    def capture(f, a, eps, ctx, tail_bound):
        raise _Captured(tail_bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "integrate_semi_infinite", capture)
        with pytest.raises(_Captured) as info:
            bessel_moments.c_n(n, PrecisionContext.from_digits(30))
    return info.value.args[0]


class TestFloatCertificate:
    """c_n's log_bound is formed in floats and read as one; it still bounds
    ln((2^n/n!) t K0(t)^n) from above for t >= 2."""

    @settings(max_examples=40)
    @given(n=st.integers(1, 320), log_t=st.floats(math.log(2), math.log(10 ** 4)))
    def test_bounds_the_integrand(self, n, log_t):
        log_bound = _certificate(n).log_bound
        with mp.workdps(50):
            t = max(mpf(2), mpmath.exp(log_t))
            exact = (n * mpmath.ln(2) - mpmath.loggamma(n + 1) + mpmath.ln(t)
                     + n * mpmath.ln(mpmath.besselk(0, t)))
            bound = log_bound(quadrature._LogAbscissa(t, mpmath.ln(t)))
            assert type(bound) is float
            assert bound >= exact

    def test_past_the_float_range_is_minus_infinity(self):
        with mp.workprec(128):
            t = quadrature._LogAbscissa(mpf(2) ** 5000, 5000 * mpmath.ln(2))
        assert _certificate(4).log_bound(t) == -math.inf


class TestRecordValidation:
    def test_rejects_nonpositive_n(self):
        ctx = PrecisionContext.from_digits(30)
        for bad in (0, -3):
            with pytest.raises(ValueError):
                bessel_moments.c_n(bad, ctx)
        with pytest.raises(ValueError):
            bessel_moments.c_n(1.5, ctx)  # type: ignore[arg-type]

    def test_record_bracket(self):
        ctx = PrecisionContext.from_digits(30)
        tiny = parse_decimal("1e-25", ctx)
        with pytest.raises(ValueError):
            bessel_moments.CnRecord(
                n=2, value=parse_decimal("0.5", ctx), error_estimate=tiny
            )
        with pytest.raises(ValueError):
            bessel_moments.CnRecord(
                n=2, value=parse_decimal("2.5", ctx), error_estimate=tiny
            )
        # boundary: exactly 2 is C_1 itself and must be accepted
        bessel_moments.CnRecord(
            n=1, value=parse_decimal("2", ctx), error_estimate=tiny
        )



class TestCsvExport:
    def test_shape_and_content(self, capsys):
        # the CSV export of moment records is the `cn --format csv` output;
        # its rows must carry the same values the library computes
        from expmath.cli import run

        ctx = PrecisionContext.from_digits(30)
        records = [bessel_moments.c_n(n, ctx) for n in range(1, 4)]
        assert run(["cn", "--n", "1..3", "--digits", "20", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,value,error_estimate"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        # C_1 = 2 must round-trip through the decimal cell
        assert first[1].startswith("2.0000000000")
        for rec, line in zip(records, lines[1:]):
            n, value, err = line.split(",")
            assert int(n) == rec.n
            assert value == rec.value.to_decimal(20)
            # every row carries a parseable error column
            parse_decimal(err, ctx)
