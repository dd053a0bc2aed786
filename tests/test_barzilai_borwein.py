"""Two-point step-size gradient methods and their bundled test problems."""

import numpy as np
import pytest

from expmath import barzilai_borwein as bb
from expmath.precision import DomainError


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
        assert bb.check_gradient(bb.rosenbrock(), [-1.2, 1.0]) < 1e-6
        assert bb.check_gradient(bb.sphere(3), [1.0, -2.0, 0.5]) < 1e-8
        assert bb.check_gradient(bb.random_spd(4, seed=5), [1.0, 2.0, 3.0, 4.0]) < 1e-7

    def test_gradient_checker_catches_errors(self):
        lying = bb.ObjectiveFunction(
            dimension=2,
            evaluate=lambda x: float(x @ x),
            gradient=lambda x: np.asarray(x),  # off by a factor of 2
            name="lying",
        )
        assert bb.check_gradient(lying, [1.0, 1.0]) > 1e-3

    def test_problem_registry(self):
        for name, factory in bb.PROBLEMS.items():
            problem = factory()
            assert problem.dimension >= 1
            x = np.full(problem.dimension, 0.3)
            assert np.isfinite(problem.evaluate(x))
