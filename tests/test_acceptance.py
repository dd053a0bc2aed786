"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (visible under `pytest -s`, and
in the captured output otherwise) and then asserts, so a red line and a red
test always travel together.  Tolerances and time budgets are part of the
checks themselves.
"""

import time
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mp, mpf

from expmath import (
    agm,
    barzilai_borwein as bb,
    bessel_moments,
    digit_walks,
    functions,
    relations,
    sinc_identity,
)
from expmath.cli import run
from expmath.precision import PrecisionContext, parse_decimal

CINF_50 = "0.63047350337438679612204019271087890435458707871273"
RANDOM_CONTROLS = [
    "0.58274630917245181903642775318960163933860131857559",
    "0.91457316288404321759552239864171235405582167594183",
]


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_limit_constant_command(self, capsys):
        start = time.monotonic()
        code = run(["cinf", "--digits", "50"])
        out = capsys.readouterr().out
        elapsed = time.monotonic() - start
        ok = code == 0 and out == CINF_50 + "\n" and elapsed < 5.0
        _report(1, ok, f"cinf --digits 50 exact in {elapsed:.2f}s")

    def test_02_fourth_moment_vs_zeta3(self):
        start = time.monotonic()
        ctx = PrecisionContext.from_digits(128)
        rec = bessel_moments.c_n(4, ctx, eps=mpf(10) ** -30)
        z3 = functions.zeta3(ctx)
        with mp.workprec(ctx.bits + 16):
            err = abs(rec.value.value - 7 * z3.value / 12)
            ok_err = err < mpf(10) ** -25
            err_s = mpmath.nstr(err, 3)
        elapsed = time.monotonic() - start
        ok = ok_err and elapsed < 60.0
        _report(2, ok, f"|C_4 - 7 zeta(3)/12| = {err_s} in {elapsed:.1f}s")

    def test_03_monotone_descent_to_the_limit(self):
        start = time.monotonic()
        ctx = PrecisionContext.from_digits(30)
        records = [bessel_moments.c_n(n, ctx, eps=mpf(10) ** -20) for n in range(1, 11)]
        cinf = bessel_moments.c_infinity(ctx)
        violations = bessel_moments.find_monotonicity_violations(records)
        with mp.workprec(ctx.bits + 16):
            last = records[-1]
            above_limit = (last.value.value - cinf.value) > abs(
                last.error_estimate.value
            )
        ctx_far = PrecisionContext.from_digits(40)
        d32 = bessel_moments.c_n(32, ctx_far, eps=mpf(10) ** -25)
        d64 = bessel_moments.c_n(64, ctx_far, eps=mpf(10) ** -25)
        cinf_far = bessel_moments.c_infinity(ctx_far)
        with mp.workprec(ctx_far.bits + 16):
            gap32 = abs(d32.value.value - cinf_far.value)
            gap64 = abs(d64.value.value - cinf_far.value)
            closer = gap64 < gap32
            gaps_s = f"|C_64 - limit| = {mpmath.nstr(gap64, 3)} < {mpmath.nstr(gap32, 3)} = |C_32 - limit|"
        elapsed = time.monotonic() - start
        ok = violations == [] and above_limit and closer and elapsed < 600.0
        _report(
            3,
            ok,
            f"C_1..C_10 strictly decreasing past error bars, {gaps_s}, {elapsed:.1f}s",
        )

    def test_04_second_moment_two_routes(self):
        start = time.monotonic()
        ctx = PrecisionContext.from_digits(30)
        direct = bessel_moments.c2_double_integral(ctx, eps=mpf(10) ** -22)
        reduced = bessel_moments.c_n(2, ctx, eps=mpf(10) ** -24)
        with mp.workprec(ctx.bits + 16):
            diff = abs(direct.value - reduced.value.value)
            ok_diff = diff < mpf(10) ** -20
            diff_s = mpmath.nstr(diff, 3)
        elapsed = time.monotonic() - start
        ok = ok_diff and elapsed < 300.0
        _report(4, ok, f"2-D vs reduced route differ by {diff_s} in {elapsed:.1f}s")

    def test_05_sum_integral_agreement(self):
        start = time.monotonic()
        ctx = PrecisionContext.from_digits(30)
        worst = mpf(0)
        for N in range(1, 7):
            s = sinc_identity.sinc_sum(N, mpf(10) ** -20, ctx)
            i = sinc_identity.sinc_integral(N, mpf(10) ** -20, ctx)
            with mp.workprec(ctx.bits + 16):
                worst = max(worst, abs(s.value - i.value))
        elapsed = time.monotonic() - start
        with mp.workprec(ctx.bits + 16):
            ok_worst = worst < mpf(10) ** -15
            worst_s = mpmath.nstr(worst, 3)
        ok = ok_worst and elapsed < 600.0
        _report(5, ok, f"max |sum - integral| over N=1..6 is {worst_s} in {elapsed:.1f}s")

    def test_06_two_pi_threshold(self):
        start = time.monotonic()
        ctx = PrecisionContext.from_digits(30)
        scan_ctx = PrecisionContext(ctx.bits + 48, ctx.target_digits)
        with mp.workprec(scan_ctx.bits):
            two_pi = +(2 * agm.pi_value(scan_ctx).value)
        n = sinc_identity.threshold_scan(two_pi, ctx)
        elapsed = time.monotonic() - start
        ok = n == 40249 and elapsed < 10.0
        _report(6, ok, f"first crossing of 2*pi at N = {n} in {elapsed:.1f}s")

    def test_07_mean_iteration_identities(self):
        start = time.monotonic()
        ctx = PrecisionContext.from_digits(60)
        worst_quadratic = mpf(0)
        worst_cubic = mpf(0)
        least_wrong_variant = None
        for k_text in ("0.1", "0.3", "0.5", "0.7", "0.9"):
            k = parse_decimal(k_text, ctx).value
            m2 = agm.agm2(1, k, ctx).value
            m3 = agm.agm3(1, k, ctx).value
            with mp.workprec(ctx.bits + 32):
                z_sq = 1 - k * k
                z_cu = 1 - k * k * k
            h_sq = functions.hyp2f1((1, 2), (1, 2), (1, 1), z_sq, ctx).value
            c_cu = functions.hyp2f1((1, 3), (2, 3), (1, 1), z_cu, ctx).value
            c_sq = functions.hyp2f1((1, 3), (2, 3), (1, 1), z_sq, ctx).value
            with mp.workprec(ctx.bits + 32):
                worst_quadratic = max(worst_quadratic, abs(m2 * h_sq - 1))
                worst_cubic = max(worst_cubic, abs(m3 * c_cu - 1))
                wrong = abs(m3 * c_sq - 1)
                if least_wrong_variant is None or wrong < least_wrong_variant:
                    least_wrong_variant = wrong
        elapsed = time.monotonic() - start
        with mp.workprec(ctx.bits + 32):
            ok_q = worst_quadratic < mpf(10) ** -40
            ok_c = worst_cubic < mpf(10) ** -30
            ok_wrong = least_wrong_variant > mpf(10) ** -6
            q_s = mpmath.nstr(worst_quadratic, 3)
            c_s = mpmath.nstr(worst_cubic, 3)
            w_s = mpmath.nstr(least_wrong_variant, 3)
        ok = ok_q and ok_c and ok_wrong and elapsed < 300.0
        _report(
            7,
            ok,
            f"quadratic residual <= {q_s}; cubic pairs with the cubed "
            f"complement (<= {c_s}) not the squared one (>= {w_s}); {elapsed:.1f}s",
        )

    def test_08_quadratic_pi_iteration(self):
        start = time.monotonic()
        ctx = PrecisionContext(200, 50)
        result = agm.gauss_legendre_pi(4, ctx)
        elapsed = time.monotonic() - start
        digits_ok = result.value.to_decimal(15).startswith("3.14159265358979")
        with mp.workprec(256):
            errs = [e.value for e in result.per_iteration_error]
            final_ok = errs[-1] < mpf(10) ** -40
            # quadratic regime: from the second iteration on, the error is
            # at worst 10 times the square of its predecessor
            ratio_ok = all(
                late <= 10 * early * early
                for early, late in zip(errs[1:], errs[2:])
            )
            final_s = mpmath.nstr(errs[-1], 3)
        ok = digits_ok and final_ok and ratio_ok and elapsed < 1.0
        _report(
            8,
            ok,
            f"4 iterations reach error {final_s} quadratically in {elapsed:.2f}s",
        )

    def test_09_two_point_steps(self):
        start = time.monotonic()
        problem = bb.diagonal_quadratic([1.0, 100.0])
        fast = bb.bb_minimize(problem, [100.0, 1.0], tol=1e-8)
        slow = bb.steepest_descent_baseline(problem, [100.0, 1.0], tol=1e-8)
        beats = fast.converged and slow.converged and fast.iterations < slow.iterations

        bracket_ok = True
        for seed in (5, 11, 23):
            spd = bb.random_spd(5, seed=seed)
            lo, hi = np.linalg.eigvalsh(spd.matrix)[[0, -1]]
            run_result = bb.bb_minimize(spd, np.arange(1.0, 6.0), tol=1e-9)
            # step 0 bootstraps from |g| alone (no secant pair exists yet)
            # and is not a two-point step; all later steps are
            formula_gammas = [row[3] for row in run_result.trace[1:]]
            rng = np.random.default_rng(seed)
            for _ in range(10):
                s = rng.standard_normal(5)
                y = spd.matrix @ s
                formula_gammas.append(bb.bb_step(s, y, "bb1"))
                formula_gammas.append(bb.bb_step(s, y, "bb2"))
            if not all(
                1.0 / hi - 1e-10 <= g <= 1.0 / lo + 1e-10 for g in formula_gammas
            ):
                bracket_ok = False
        elapsed = time.monotonic() - start
        ok = beats and bracket_ok and elapsed < 60.0
        _report(
            9,
            ok,
            f"two-point {fast.iterations} iterations vs line-search "
            f"{slow.iterations}; steps stay in the inverse spectral bracket; "
            f"{elapsed:.1f}s",
        )

    def test_10_recognition(self):
        start = time.monotonic()
        ctx = PrecisionContext.from_digits(60)

        value = parse_decimal(CINF_50, ctx)
        basis = relations.standard_basis(relations.DEFAULT_BASIS, ctx)
        matches = relations.recognize(value, basis, 50)
        limit_ok = (
            bool(matches)
            and matches[0].coefficients == (1, 0, 0, -2, 0, 0)
            and matches[0].rendering == "2*exp(-2*gamma)"
        )

        c4 = bessel_moments.c_n(4, ctx, eps=mpf(10) ** -55)
        z3 = functions.zeta3(ctx)
        pair_ok = (
            relations.find_integer_relation([c4.value.value, z3.value], 50)
            == (12, -7)
        )

        ctx70 = PrecisionContext.from_digits(70)
        (pi2, zeta3c, onec) = relations.standard_basis(["pi2", "zeta3", "one"], ctx70)
        with mp.workprec(ctx70.bits):
            synthetic = (8 * pi2.value.value - 63 * zeta3c.value.value - 3) / 18
        quad_ok = relations.find_integer_relation(
            [synthetic, pi2.value.value, zeta3c.value.value, onec.value.value], 55
        ) == (18, -8, 63, 3)

        controls_ok = all(
            relations.recognize(parse_decimal(text, ctx), basis, 45) == []
            for text in RANDOM_CONTROLS
        )
        with mp.workprec(200):
            pair_control = relations.find_integer_relation(
                [+mpmath.pi, +mpmath.e], 40
            )
        controls_ok = controls_ok and pair_control is None

        elapsed = time.monotonic() - start
        ok = limit_ok and pair_ok and quad_ok and controls_ok and elapsed < 30.0
        _report(
            10,
            ok,
            f"limit constant, (12,-7), and (18,-8,63,3) recovered; controls "
            f"clean; {elapsed:.1f}s",
        )

    def test_11_digits_and_walk_rendering(self):
        start = time.monotonic()
        ctx = PrecisionContext.from_digits(150)
        stream = digit_walks.digits("pi", 10, 15, ctx)
        digits_ok = stream.digits == (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9)

        base4 = digit_walks.digits("pi", 4, 200, ctx)
        path = digit_walks.walk(base4)
        first = digit_walks.render(path, format="ppm", size=256)
        second = digit_walks.render(path, format="ppm", size=256)
        render_ok = first == second
        header_ok = first.startswith(b"P6\n256 256\n255\n")
        elapsed = time.monotonic() - start
        ok = digits_ok and render_ok and header_ok and elapsed < 60.0
        _report(
            11,
            ok,
            f"decimal digits exact, base-4 walk render byte-stable with exact "
            f"header; {elapsed:.1f}s",
        )
