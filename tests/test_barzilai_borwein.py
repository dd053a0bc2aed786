"""Two-point step-size gradient methods and their bundled test problems."""

import math
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expmath import barzilai_borwein as bb
from expmath.precision import DomainError


def check_gradient(f, x, h=1e-6):
    """Max relative error of f's supplied gradient against central
    differences: the oracle for the bundled problems' gradients."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(f.gradient(x), dtype=float)
    worst = 0.0
    for i in range(f.dimension):
        e = np.zeros_like(x)
        e[i] = h
        approx = (f.evaluate(x + e) - f.evaluate(x - e)) / (2 * h)
        scale = max(1.0, abs(g[i]), abs(approx))
        worst = max(worst, abs(g[i] - approx) / scale)
    return worst


class TestStepFormulas:
    def test_hand_computed_values(self):
        s = np.array([2.0, 1.0])
        y = np.array([3.0, 5.0])
        # s.y = 11, y.y = 34, s.s = 5
        assert bb.bb_step(s, y, "bb2") == 11.0 / 34.0
        assert bb.bb_step(s, y, "bb1") == 5.0 / 11.0

    def test_one_dimensional_recovers_inverse_curvature(self):
        # in one dimension both formulas give exactly 1/curvature
        s = np.array([0.5])
        y = np.array([2.0])  # curvature 4
        assert bb.bb_step(s, y, "bb1") == 0.25
        assert bb.bb_step(s, y, "bb2") == 0.25

    def test_unit_curvature_step_lands_on_minimizer(self):
        # for F = x^2/2 the secant pair s = y = -1 gives gamma = 1 exactly,
        # and the update from x = 1 hits the minimizer with no rounding
        s = np.array([-1.0])
        y = np.array([-1.0])
        gamma = bb.bb_step(s, y, "bb2")
        assert gamma == 1.0
        assert 1.0 - gamma * 1.0 == 0.0

    def test_skewed_quadratic_oracle_pair(self):
        # A = diag(1,3) with s = (-0.5,-0.75): s.y = 1.9375, y.y = 5.3125,
        # s.s = 0.8125, all dyadic, so the quotients are correctly rounded
        s = np.array([-0.5, -0.75])
        y = np.array([-0.5, -2.25])
        assert bb.bb_step(s, y, "bb2") == 1.9375 / 5.3125
        assert bb.bb_step(s, y, "bb1") == 0.8125 / 1.9375

    def test_bb2_never_exceeds_bb1(self):
        # Cauchy-Schwarz: (s.y)^2 <= (s.s)(y.y) whenever s.y > 0
        rng = np.random.default_rng(7)
        for _ in range(25):
            s = rng.standard_normal(6)
            y = rng.standard_normal(6)
            if float(s @ y) <= 1e-12:
                continue
            assert bb.bb_step(s, y, "bb2") <= bb.bb_step(s, y, "bb1") + 1e-15

    def test_degenerate_pairs_raise(self):
        s = np.array([1.0, 0.0])
        zero = np.zeros(2)
        perp = np.array([0.0, 1.0])
        with pytest.raises(bb.DegenerateStepError):
            bb.bb_step(s, zero, "bb2")
        with pytest.raises(bb.DegenerateStepError):
            bb.bb_step(zero, s, "bb1")
        with pytest.raises(bb.DegenerateStepError):
            bb.bb_step(s, perp, "bb1")  # s.y = 0

    def test_rejects_bad_variant_and_shapes(self):
        s = np.array([1.0, 2.0])
        with pytest.raises(DomainError):
            bb.bb_step(s, s, "bb3")
        with pytest.raises(DomainError):
            bb.bb_step(s, np.array([1.0, 2.0, 3.0]))


class TestSpectralBracket:
    def test_step_lies_in_inverse_eigenvalue_range(self):
        # on a quadratic, y = A s exactly, and both Rayleigh quotients are
        # pinched between the extreme eigenvalues
        problem = bb.random_spd(5, seed=11)
        lo, hi = problem.eigenvalue_range()
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = rng.standard_normal(5)
            y = problem.matrix @ s
            for variant in ("bb1", "bb2"):
                gamma = bb.bb_step(s, y, variant)
                assert 1.0 / hi - 1e-12 <= gamma <= 1.0 / lo + 1e-12

    def test_minimize_trace_stays_in_bracket(self):
        # every gamma produced by the two-point formula during a run (the
        # bootstrap step 0 has no secant pair and is exempt)
        problem = bb.random_spd(5, seed=23)
        lo, hi = problem.eigenvalue_range()
        x0 = np.arange(1.0, 6.0)
        result = bb.bb_minimize(problem, x0, tol=1e-8)
        assert result.converged
        formula_gammas = [row[3] for row in result.trace[1:]]
        assert formula_gammas, "run ended before any secant step"
        for gamma in formula_gammas:
            assert 1.0 / hi - 1e-10 <= gamma <= 1.0 / lo + 1e-10


class TestMinimization:
    def test_beats_exact_line_search_on_skewed_quadratic(self):
        problem = bb.diagonal_quadratic([1.0, 100.0])
        x0 = [100.0, 1.0]
        fast = bb.bb_minimize(problem, x0, tol=1e-8)
        slow = bb.steepest_descent_baseline(problem, x0, tol=1e-8)
        assert fast.converged and slow.converged
        assert fast.iterations < slow.iterations
        assert fast.iterations < 100  # typically well under 20
        assert np.linalg.norm(fast.x) < 1e-6

    def test_sphere_finishes_in_two_steps(self):
        # after one secant pair the step equals the exact inverse curvature
        problem = bb.sphere(4)
        result = bb.bb_minimize(problem, [3.0, -1.0, 2.0, 0.5], tol=1e-10)
        assert result.converged
        assert result.iterations <= 2

    def test_steepest_descent_solves_sphere_in_one(self):
        problem = bb.sphere(3)
        result = bb.steepest_descent_baseline(problem, [1.0, 2.0, 3.0], tol=1e-10)
        assert result.converged
        assert result.iterations == 1

    def test_steepest_descent_zero_gradient_start(self):
        result = bb.steepest_descent_baseline(bb.sphere(2), [0.0, 0.0], tol=1e-10)
        assert result.converged
        assert result.iterations == 0

    def test_baseline_needs_at_least_double_the_iterations(self):
        # the qualitative "much faster" claim, pinned as a 2x margin on the
        # ill-conditioned diagonal quadratic
        problem = bb.diagonal_quadratic([1.0, 100.0])
        fast = bb.bb_minimize(problem, [100.0, 1.0], tol=1e-8)
        slow = bb.steepest_descent_baseline(
            problem, [100.0, 1.0], tol=1e-8, max_iter=100_000
        )
        assert fast.converged and slow.converged
        assert slow.iterations >= 2 * fast.iterations

    def test_starts_at_minimum(self):
        problem = bb.sphere(2)
        result = bb.bb_minimize(problem, [0.0, 0.0], tol=1e-10)
        assert result.converged
        assert result.iterations == 0
        assert len(result.trace) == 1

    def test_bb1_variant_converges_too(self):
        problem = bb.diagonal_quadratic([1.0, 100.0])
        result = bb.bb_minimize(problem, [100.0, 1.0], tol=1e-8, variant="bb1")
        assert result.converged
        assert np.linalg.norm(result.x) < 1e-6

    def test_max_iter_reports_nonconvergence(self):
        problem = bb.diagonal_quadratic([1.0, 1000.0])
        result = bb.bb_minimize(problem, [50.0, 50.0], tol=1e-12, max_iter=2)
        assert not result.converged
        assert result.iterations == 2

    def test_safeguarded_rosenbrock(self):
        problem = bb.rosenbrock()
        result = bb.bb_minimize(
            problem,
            [-1.2, 1.0],
            tol=1e-8,
            max_iter=5000,
            safeguard=True,
        )
        assert result.converged
        assert np.allclose(result.x, [1.0, 1.0], atol=1e-5)

    def test_rosenbrock_iteration_count_regression_anchor(self):
        # regression anchor, not a claim about the method: the run is fully
        # deterministic, so any count change signals an algorithm change
        result = bb.bb_minimize(
            bb.rosenbrock(),
            [-1.2, 1.0],
            tol=1e-6,
            max_iter=5000,
            safeguard=True,
        )
        assert result.converged
        assert result.iterations == 731

    def test_steepest_descent_backtracking_anchor(self):
        # Rosenbrock is no QuadraticObjective, so each step backtracks from 1
        # until the Armijo decrease holds; deterministic like the anchor above
        result = bb.steepest_descent_baseline(bb.rosenbrock(), [-1.2, 1.0], 1e-2)
        assert result.converged
        assert result.iterations == 2435
        assert result.fx == 6.196441487361928e-05

    def test_scale_equivariance_of_iterates(self):
        # scaling F by 4 scales gradients by 4 and every gamma by 1/4; with
        # a power-of-two factor the float iterates are bit-identical
        # (tolerance rescaled to match the gradient norms)
        A = np.diag([2.0, 8.0])
        r0 = bb.bb_minimize(bb.QuadraticObjective(A), [8.0, 16.0], tol=1e-9)
        r1 = bb.bb_minimize(bb.QuadraticObjective(4.0 * A), [8.0, 16.0], tol=4e-9)
        assert r0.iterations == r1.iterations
        assert np.array_equal(r0.x, r1.x)
        for row0, row1 in zip(r0.trace, r1.trace):
            assert row1[1] == 4.0 * row0[1]  # objective values
            assert row1[3] == row0[3] / 4.0  # step sizes

    def test_translation_equivariance(self):
        # shifting the minimizer shifts every iterate but leaves the step
        # sizes (hence the iteration count) essentially unchanged
        A = np.diag([2.0, 8.0])
        shift = np.array([4.0, -2.0])
        centered = bb.QuadraticObjective(A)
        shifted = bb.QuadraticObjective(A, b=A @ shift)
        r0 = bb.bb_minimize(centered, [8.0, 16.0], tol=1e-9)
        r1 = bb.bb_minimize(shifted, shift + np.array([8.0, 16.0]), tol=1e-9)
        assert r0.converged and r1.converged
        assert abs(r0.iterations - r1.iterations) <= 1
        assert np.allclose(r1.x - shift, r0.x, atol=1e-6)

    def test_validation(self):
        problem = bb.sphere(2)
        with pytest.raises(DomainError):
            bb.bb_minimize(problem, [1.0], tol=1e-8)  # wrong dimension
        with pytest.raises(DomainError):
            bb.bb_minimize(problem, [1.0, 1.0], tol=0.0)
        with pytest.raises(DomainError):
            bb.bb_minimize(problem, [1.0, 1.0], tol=1e-8, variant="newton")

    @pytest.mark.parametrize("minimize", [bb.bb_minimize, bb.steepest_descent_baseline])
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_tolerance_that_is_not_positive(self, minimize, tol):
        # nan compares false both ways: a `tol <= 0` check would let it
        # through and the iteration could never converge; an infinite
        # tolerance would report convergence before the first step
        with pytest.raises(DomainError):
            minimize(bb.sphere(2), [1.0, 1.0], tol=tol)

    def test_non_finite_objective_raises(self):
        broken = bb.ObjectiveFunction(
            dimension=1,
            evaluate=lambda x: float("nan"),
            gradient=lambda x: np.array([1.0]),
            name="broken",
        )
        with pytest.raises(bb.NonFiniteError):
            bb.bb_minimize(broken, [1.0], tol=1e-8)

    def test_steepest_descent_checks_its_start_point(self):
        broken = bb.ObjectiveFunction(
            dimension=1,
            evaluate=lambda x: float(x[0] ** 2),
            gradient=lambda x: np.array([float("nan")]),
            name="broken-gradient",
        )
        with pytest.raises(bb.NonFiniteError):
            bb.steepest_descent_baseline(broken, [1.0], tol=1e-8)


def _reference_run(A, b, x0, tol, max_iter, method):
    """The descent loop as plain arithmetic: F and grad F formed separately,
    |grad| by np.linalg.norm, the secant formulas and Raydan's safeguard
    (memory 10, at most 30 halvings) written out.  `method` is "sd", "bb1",
    "bb2", or either of the latter with "+safeguard"."""
    variant, _, guard = method.partition("+")
    other = {"bb1": "bb2", "bb2": "bb1"}.get(variant)

    def F(x):
        return float(0.5 * x @ (A @ x) - b @ x)

    def secant(s, y, v):  # None where the formula's denominator vanishes
        if v == "bb2":
            num, den = float(s @ y), float(y @ y)
        else:
            num, den = float(s @ s), float(s @ y)
            if num == 0.0:
                return None
        return None if den == 0.0 or not np.isfinite(den) else num / den

    x = np.array(x0, dtype=float)
    g = A @ x - b
    fx = F(x)
    gnorm = float(np.linalg.norm(g))
    if variant == "sd":
        gamma = 0.0
    else:
        gamma = float(np.clip(1.0 / gnorm, *bb.GAMMA_CLAMP)) if gnorm else 1.0
    trace = [(0, fx, gnorm, gamma)]
    recent = deque(maxlen=10)
    k = 0
    while gnorm > tol and k < max_iter:
        if variant == "sd":
            step = float(g @ g) / float(g @ (A @ g))
            x_new = x - step * g
            fx = F(x_new)
            gamma = step
            g_new = A @ x_new - b
        else:
            x_new = x - gamma * g
            f_new = F(x_new)
            if guard:
                recent.append(fx)
                halvings = 0
                while not np.isfinite(f_new) or f_new > max(recent):
                    halvings += 1
                    assert halvings <= 30
                    gamma *= 0.5
                    x_new = x - gamma * g
                    f_new = F(x_new)
            fx = f_new
            g_new = A @ x_new - b
            s, y = x_new - x, g_new - g
            gamma_next = secant(s, y, variant)
            if gamma_next is None:
                gamma_next = secant(s, y, other)
            if gamma_next is None or not np.isfinite(gamma_next) or gamma_next <= 0:
                gamma_next = gamma
            gamma = float(np.clip(gamma_next, *bb.GAMMA_CLAMP))
        assert np.isfinite(fx) and np.all(np.isfinite(g_new))
        x, g = x_new, g_new
        gnorm = float(np.linalg.norm(g))
        k += 1
        trace.append((k, fx, gnorm, gamma))
    return x, fx, k, gnorm <= tol, tuple(trace)


class TestBitIdentity:
    """Each minimizer reproduces the plain loop's iterates bit for bit,
    though it forms one A x per point and one g.g per iterate."""

    @settings(max_examples=25)
    @given(
        dimension=st.integers(2, 20),
        log_condition=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_loop(self, dimension, log_condition, seed):
        rng = np.random.default_rng(seed)
        A = bb.random_spd(dimension, seed, 10.0**log_condition).matrix
        b = rng.standard_normal(dimension)
        problem = bb.QuadraticObjective(A, b)
        x0 = 10.0 * rng.standard_normal(dimension)
        for method in ("bb1", "bb2", "bb1+safeguard", "bb2+safeguard", "sd"):
            if method == "sd":
                got = bb.steepest_descent_baseline(problem, x0, 1e-8, max_iter=500)
            else:
                variant, _, guard = method.partition("+")
                got = bb.bb_minimize(
                    problem, x0, 1e-8, max_iter=500, variant=variant, safeguard=bool(guard)
                )
            x, fx, iterations, converged, trace = _reference_run(A, b, x0, 1e-8, 500, method)
            assert got.x.tobytes() == x.tobytes(), method
            assert (got.fx, got.iterations, got.converged) == (fx, iterations, converged), method
            # repr also tells a numpy scalar from a float, which the CLI would print
            assert repr(got.trace) == repr(trace), method


def _quadratic_with_bad_gradient(bad, at_iterate):
    """F = (x0^2 + 100 x1^2)/2 as a plain ObjectiveFunction whose gradient has
    `bad` in it at iterate `at_iterate` only; also returns its call log."""
    calls = []

    def gradient(x):
        calls.append(x)
        g = np.array([x[0], 100.0 * x[1]])
        if len(calls) == at_iterate + 1:  # call 0 is the start point
            g[1] = bad
        return g

    f = bb.ObjectiveFunction(
        dimension=2,
        evaluate=lambda x: float(0.5 * (x[0] ** 2 + 100.0 * x[1] ** 2)),
        gradient=gradient,
        name="bad-gradient",
    )
    return f, calls


def _saddle(quadratic):
    A = np.diag([-1.0, 1.0])
    if quadratic:
        return bb.QuadraticObjective(A, name="saddle")
    return bb.ObjectiveFunction(
        dimension=2,
        evaluate=lambda x: float(0.5 * x @ (A @ x)),
        gradient=lambda x: A @ x,
        name="saddle",
    )


class TestFiniteness:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("method", ["bb2", "bb2+safeguard", "sd"])
    def test_gradient_turning_non_finite_raises_at_its_iterate(self, bad, method):
        f, calls = _quadratic_with_bad_gradient(bad, at_iterate=4)
        with pytest.raises(bb.NonFiniteError, match="gradient"):
            if method == "sd":
                bb.steepest_descent_baseline(f, [100.0, 1.0], tol=1e-12)
            else:
                bb.bb_minimize(f, [100.0, 1.0], tol=1e-12, safeguard=method != "bb2")
        # one gradient at the start and one per iterate: the run stopped at 4
        assert len(calls) == 5

    @pytest.mark.parametrize("quadratic", [True, False], ids=["quadratic", "generic"])
    def test_overflowing_g2_is_not_a_non_finite_gradient(self, quadratic):
        # along the negative-curvature axis the secant step is refused, gamma
        # stays 1 and x doubles: at iterate 512 g.g = 2^1024 overflows while
        # F = -2^1023 and every gradient component are finite, and at 513 F
        # overflows too
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            result = bb.bb_minimize(_saddle(quadratic), [1.0, 0.0], tol=1e-8, max_iter=512)
            assert result.iterations == 512
            assert [row[2] for row in result.trace[-2:]] == [2.0**511, math.inf]
            assert result.fx == -(2.0**1023)
            with pytest.raises(bb.NonFiniteError, match="objective"):
                bb.bb_minimize(_saddle(quadratic), [1.0, 0.0], tol=1e-8, max_iter=513)
        assert seen == []  # the overflow is reported by the error alone


class TestProblemLibrary:
    def test_random_spd_reproducible_and_conditioned(self):
        a = bb.random_spd(5, seed=42)
        b = bb.random_spd(5, seed=42)
        c = bb.random_spd(5, seed=43)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)
        assert np.allclose(a.matrix, a.matrix.T)
        lo, hi = a.eigenvalue_range()
        assert lo == pytest.approx(1.0, rel=1e-8)
        assert hi == pytest.approx(100.0, rel=1e-8)

    def test_quadratic_rejects_bad_matrices(self):
        with pytest.raises(DomainError):
            bb.QuadraticObjective(np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
        with pytest.raises(DomainError):
            bb.QuadraticObjective(np.ones((2, 3)))

    def test_gradients_match_finite_differences(self):
        assert check_gradient(bb.rosenbrock(), [-1.2, 1.0]) < 1e-6
        assert check_gradient(bb.sphere(3), [1.0, -2.0, 0.5]) < 1e-8
        assert check_gradient(bb.random_spd(4, seed=5), [1.0, 2.0, 3.0, 4.0]) < 1e-7

    def test_gradient_checker_catches_errors(self):
        lying = bb.ObjectiveFunction(
            dimension=2,
            evaluate=lambda x: float(x @ x),
            gradient=lambda x: np.asarray(x),  # off by a factor of 2
            name="lying",
        )
        assert check_gradient(lying, [1.0, 1.0]) > 1e-3

    def test_problem_registry(self):
        for name, factory in bb.PROBLEMS.items():
            problem = factory()
            assert problem.dimension >= 1
            x = np.full(problem.dimension, 0.3)
            assert np.isfinite(problem.evaluate(x))
