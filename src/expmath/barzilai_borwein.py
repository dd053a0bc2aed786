"""Two-point gradient-step minimization and a steepest-descent baseline.

The step size comes from the secant pair s = x_k - x_{k-1},
y = grad_k - grad_{k-1}:

    bb2:  gamma = s.y / y.y      (the displayed two-point formula)
    bb1:  gamma = s.s / s.y      (the companion choice from the literature)

For quadratics F = 1/2 x'Ax both are reciprocals of Rayleigh quotients of A,
hence bracketed by [1/lambda_max, 1/lambda_min].  Everything here runs in
machine floats on purpose: this is an optimization method, not digit hunting.

Both methods run one loop, `_descend`, which owns the input and finiteness
checks, the stop test |grad| <= tol and the trace; each supplies only its move
and its next gamma.  The two-point move is x - gamma grad, halved against the
worst recent F under Raydan's (1997) nonmonotone safeguard, and its next gamma
is the secant formula.  Steepest descent searches the line exactly on a
quadratic and backtracks otherwise; its gamma is the step it took.

The loop does each piece of arithmetic once.  On a quadratic, one A x per
point gives both F and grad F, and the gradient is formed only at the point a
move accepts.  One g.g per iterate gives |grad|, the gradient's finiteness
check and steepest descent's slope.  The operations and their order are those
of F = 1/2 x.Ax - b.x, grad F = Ax - b and |grad| = np.linalg.norm(grad)
formed separately (`x.dot(y)` and `x @ y` call the same BLAS routine on these
float64 vectors), so the iterates are the same floats.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .precision import DomainError, NumericsError


class DegenerateStepError(NumericsError):
    """A step-size denominator vanished; the caller should fall back."""


class NonFiniteError(NumericsError):
    """Objective or gradient stopped being finite."""


GAMMA_CLAMP = (1e-10, 1e10)

_VARIANTS = ("bb1", "bb2")

#: The safeguard compares a trial F with the worst of this many recent values
#: and halves gamma at most this many times before giving up.
_SAFEGUARD_MEMORY = 10
_SAFEGUARD_HALVINGS = 30


@dataclass(frozen=True)
class ObjectiveFunction:
    dimension: int
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    fx: float
    iterations: int
    converged: bool
    trace: tuple  # rows (k, F, grad_norm, gamma)


def bb_step(s: np.ndarray, y: np.ndarray, variant: str = "bb2") -> float:
    """Step size from the secant pair; raises DegenerateStepError when the
    chosen variant's denominator is (numerically) zero."""
    variant = variant.lower()
    if variant not in _VARIANTS:
        raise DomainError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if s.shape != y.shape:
        raise DomainError("s and y must have the same shape")
    return _secant_step(s, y, variant)


def _secant_step(s: np.ndarray, y: np.ndarray, variant: str) -> float:
    """`bb_step` on arguments already checked: float arrays of one shape and
    a lower-case variant."""
    if variant == "bb2":
        denom = float(y.dot(y))
        if denom == 0.0 or not math.isfinite(denom):
            raise DegenerateStepError("y vanished; two-point formula undefined")
        return float(s.dot(y)) / denom
    num = float(s.dot(s))
    denom = float(s.dot(y))
    if num == 0.0:
        raise DegenerateStepError("s vanished; no displacement to build a step from")
    if denom == 0.0 or not math.isfinite(denom):
        raise DegenerateStepError("s.y vanished; secant denominator undefined")
    return num / denom


def _clamp(gamma: float) -> float:
    lo, hi = GAMMA_CLAMP
    return min(max(gamma, lo), hi)


def _check_objective(fx: float) -> None:
    if not math.isfinite(fx):
        raise NonFiniteError("objective became non-finite")


def _checked_g2(g: np.ndarray) -> float:
    """g.g, once every component of g is known to be finite.  A finite g.g
    proves that, so the array-wide test runs only when g.g is inf or nan
    (a finite g whose g.g overflows passes, with |grad| = inf)."""
    g2 = float(g.dot(g))
    if not math.isfinite(g2) and not np.all(np.isfinite(g)):
        raise NonFiniteError("gradient became non-finite")
    return g2


def _evaluation(f):
    """(value, gradient): `value(x)` -> (F(x), memo), `gradient(x, memo)` -> grad F(x).

    On a QuadraticObjective the memo is A x, so one matrix-vector product
    gives both F and grad F = Ax - b; any other objective calls its own
    `evaluate` and `gradient`."""
    if isinstance(f, QuadraticObjective):
        b = f.linear
        return f._value, lambda x, Ax: Ax - b
    return (
        lambda x: (float(f.evaluate(x)), None),
        lambda x, memo: np.asarray(f.gradient(x), dtype=float),
    )


def _descend(f, x0, tol, max_iter, first_gamma, move, next_gamma) -> MinimizeResult:
    """`move(value, x, F, grad, g.g, gamma)` -> (x_new, F_new, memo, step taken);
    `next_gamma(x, grad, x_new, grad_new, step)` -> the next move's gamma;
    `first_gamma(|grad|)` -> row 0's.

    `move` evaluates its trial points with `value` from `_evaluation` and
    returns the memo of the point it accepts.  The loop checks F_new before
    it forms the gradient there from that memo, so each point costs one A x
    on a quadratic, and each iterate one g.g, which gives |grad| and the
    gradient check and is handed to the next move.  Floating-point overflow
    raises no numpy warning here: NonFiniteError reports it."""
    if not 0 < tol < np.inf:  # also rejects nan
        raise DomainError("tol must be positive and finite")
    x = np.array(x0, dtype=float)
    if x.shape != (f.dimension,):
        raise DomainError(f"x0 must have dimension {f.dimension}")
    value, gradient = _evaluation(f)
    with np.errstate(over="ignore", invalid="ignore"):
        fx, memo = value(x)
        g = gradient(x, memo)
        g2 = _checked_g2(g)
        _check_objective(fx)
        gnorm = math.sqrt(g2)
        gamma = first_gamma(gnorm)
        trace = [(0, fx, gnorm, gamma)]
        k = 0
        while gnorm > tol and k < max_iter:
            x_new, fx, memo, step = move(value, x, fx, g, g2, gamma)
            _check_objective(fx)
            g_new = gradient(x_new, memo)
            g2 = _checked_g2(g_new)
            gamma = next_gamma(x, g, x_new, g_new, step)
            x, g = x_new, g_new
            gnorm = math.sqrt(g2)
            k += 1
            trace.append((k, fx, gnorm, gamma))
    return MinimizeResult(x=x, fx=fx, iterations=k, converged=gnorm <= tol, trace=tuple(trace))


def bb_minimize(
    f: ObjectiveFunction,
    x0: Sequence[float],
    tol: float,
    max_iter: int = 10_000,
    variant: str = "bb2",
    safeguard: bool = False,
) -> MinimizeResult:
    """Gradient iteration x_{k+1} = x_k - gamma_k grad F(x_k).

    The first step bootstraps gamma_0 = 1/|grad| (clamped) since there is no
    previous point.  A degenerate denominator falls back to the other
    variant, then to the previous gamma.  With `safeguard` on, steps whose
    F exceeds the worst of the last few values are rejected by halving
    gamma - cheap and line-search-free.
    """
    variant = variant.lower()
    if variant not in _VARIANTS:
        raise DomainError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    other = "bb1" if variant == "bb2" else "bb2"
    recent = deque(maxlen=_SAFEGUARD_MEMORY)

    def first_gamma(gnorm):
        return _clamp(1.0 / gnorm) if gnorm else 1.0

    def move(value, x, fx, g, g2, gamma):
        x_new = x - gamma * g
        f_new, memo = value(x_new)
        if safeguard:
            recent.append(fx)
            worst = max(recent)
            halvings = 0
            while not math.isfinite(f_new) or f_new > worst:
                halvings += 1
                if halvings > _SAFEGUARD_HALVINGS:
                    raise DegenerateStepError(
                        "safeguard exhausted its halvings without an acceptable step"
                    )
                gamma *= 0.5
                x_new = x - gamma * g
                f_new, memo = value(x_new)
        return x_new, f_new, memo, gamma

    def next_gamma(x, g, x_new, g_new, gamma):
        s = x_new - x
        y = g_new - g
        try:
            gamma_next = _secant_step(s, y, variant)
        except DegenerateStepError:
            try:
                gamma_next = _secant_step(s, y, other)
            except DegenerateStepError:
                gamma_next = gamma
        if not math.isfinite(gamma_next) or gamma_next <= 0:
            # a negative-curvature secant pair: keep moving with the old step
            gamma_next = gamma
        return _clamp(gamma_next)

    return _descend(f, x0, tol, max_iter, first_gamma, move, next_gamma)


def steepest_descent_baseline(
    f: ObjectiveFunction,
    x0: Sequence[float],
    tol: float,
    max_iter: int = 100_000,
) -> MinimizeResult:
    """Steepest descent: exact line search on quadratics, backtracking otherwise."""
    quadratic = isinstance(f, QuadraticObjective)

    def move(value, x, fx, g, g2, gamma):
        # the slope along -grad is g.g
        step = 1.0
        if quadratic:
            denom = float(g.dot(f.matrix.dot(g)))
            if denom <= 0:
                raise DegenerateStepError("non-positive curvature along the gradient")
            step = g2 / denom
        while True:
            x_new = x - step * g
            f_new, memo = value(x_new)
            # the exact step on a quadratic; an Armijo decrease otherwise
            if quadratic or (math.isfinite(f_new) and f_new <= fx - 1e-4 * step * g2):
                return x_new, f_new, memo, step
            step *= 0.5
            if step < 1e-18:
                raise DegenerateStepError("backtracking line search collapsed")

    return _descend(
        f, x0, tol, max_iter, lambda gnorm: 0.0, move, lambda x, g, x_new, g_new, step: step
    )


# ---------------------------------------------------------------------------
# bundled problems


class QuadraticObjective(ObjectiveFunction):
    """F(x) = 1/2 x'Ax - b'x with symmetric positive definite A."""

    def __init__(self, A, b=None):
        A = np.array(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DomainError("A must be square")
        if not np.allclose(A, A.T, rtol=1e-12, atol=1e-12):
            raise DomainError("A must be symmetric")
        n = A.shape[0]
        bvec = np.zeros(n) if b is None else np.array(b, dtype=float)
        if bvec.shape != (n,):
            raise DomainError("b must match A's dimension")

        def value(x):  # F(x) with the A x it was formed from
            Ax = A.dot(x)
            return float((0.5 * x).dot(Ax) - bvec.dot(x)), Ax

        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "linear", bvec)
        object.__setattr__(self, "_value", value)
        super().__init__(
            dimension=n,
            evaluate=lambda x: value(x)[0],
            gradient=lambda x: A.dot(x) - bvec,
        )


def sphere(dimension: int = 2) -> QuadraticObjective:
    return QuadraticObjective(np.eye(dimension))


def diagonal_quadratic(diag: Sequence[float]) -> QuadraticObjective:
    return QuadraticObjective(np.diag(np.asarray(diag, dtype=float)))


def random_spd(dimension: int, seed: int, condition: float = 100.0) -> QuadraticObjective:
    """Random SPD quadratic with eigenvalues log-spaced up to `condition`."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    eigs = np.logspace(0.0, np.log10(condition), dimension)
    A = (q * eigs) @ q.T
    A = 0.5 * (A + A.T)
    return QuadraticObjective(A)


def rosenbrock() -> ObjectiveFunction:
    a, b = 1.0, 100.0

    def evaluate(x):
        return float((a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2)

    def gradient(x):
        return np.array(
            [
                -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] ** 2),
                2.0 * b * (x[1] - x[0] ** 2),
            ]
        )

    return ObjectiveFunction(dimension=2, evaluate=evaluate, gradient=gradient)


PROBLEMS = {
    "sphere": lambda: sphere(2),
    "quad": lambda: diagonal_quadratic([1.0, 100.0]),
    "rosenbrock": rosenbrock,
}
