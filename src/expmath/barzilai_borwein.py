"""Two-point gradient-step minimization and a steepest-descent baseline.

The step size comes from the secant pair s = x_k - x_{k-1},
y = grad_k - grad_{k-1}:

    bb2:  gamma = s.y / y.y      (the displayed two-point formula)
    bb1:  gamma = s.s / s.y      (the companion choice from the literature)

For quadratics F = 1/2 x'Ax both are reciprocals of Rayleigh quotients of A,
hence bracketed by [1/lambda_max, 1/lambda_min].  Everything here runs in
machine floats on purpose: this is an optimization method, not digit hunting.
"""

from __future__ import annotations

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
    name: str = "objective"


@dataclass
class BBState:
    """What one step hands the next: point, gradient, step count and step length."""

    x_k: np.ndarray
    g_k: np.ndarray
    k: int
    gamma_k: float


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    fx: float
    iterations: int
    converged: bool
    trace: tuple  # rows (k, F, grad_norm, gamma)
    gammas: tuple


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
    if variant == "bb2":
        denom = float(y @ y)
        if denom == 0.0 or not np.isfinite(denom):
            raise DegenerateStepError("y vanished; two-point formula undefined")
        return float(s @ y) / denom
    num = float(s @ s)
    denom = float(s @ y)
    if num == 0.0:
        raise DegenerateStepError("s vanished; no displacement to build a step from")
    if denom == 0.0 or not np.isfinite(denom):
        raise DegenerateStepError("s.y vanished; secant denominator undefined")
    return num / denom


def _initial_gamma(g0: np.ndarray) -> float:
    norm = float(np.linalg.norm(g0))
    if norm == 0.0:
        return 1.0
    return float(np.clip(1.0 / norm, *GAMMA_CLAMP))


def _check_finite(label: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(f"{label} became non-finite")


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
    if not 0 < tol < np.inf:  # also rejects nan
        raise DomainError("tol must be positive and finite")

    x = np.array(x0, dtype=float)
    if x.shape != (f.dimension,):
        raise DomainError(f"x0 must have dimension {f.dimension}")
    g = np.asarray(f.gradient(x), dtype=float)
    _check_finite("gradient", g)
    fx = float(f.evaluate(x))
    _check_finite("objective", fx)

    state = BBState(x_k=x, g_k=g, k=0, gamma_k=_initial_gamma(g))
    recent = deque([fx], maxlen=_SAFEGUARD_MEMORY)
    trace = [(0, fx, float(np.linalg.norm(g)), state.gamma_k)]
    gammas = []

    while True:
        gnorm = float(np.linalg.norm(state.g_k))
        if gnorm <= tol:
            return MinimizeResult(
                x=state.x_k,
                fx=float(f.evaluate(state.x_k)),
                iterations=state.k,
                converged=True,
                trace=tuple(trace),
                gammas=tuple(gammas),
            )
        if state.k >= max_iter:
            return MinimizeResult(
                x=state.x_k,
                fx=float(f.evaluate(state.x_k)),
                iterations=state.k,
                converged=False,
                trace=tuple(trace),
                gammas=tuple(gammas),
            )

        gamma = state.gamma_k
        x_new = state.x_k - gamma * state.g_k
        f_new = float(f.evaluate(x_new))
        if safeguard:
            halvings = 0
            while (not np.isfinite(f_new)) or f_new > max(recent):
                halvings += 1
                if halvings > _SAFEGUARD_HALVINGS:
                    raise DegenerateStepError(
                        "safeguard exhausted its halvings without an acceptable step"
                    )
                gamma *= 0.5
                x_new = state.x_k - gamma * state.g_k
                f_new = float(f.evaluate(x_new))
        _check_finite("objective", f_new)
        g_new = np.asarray(f.gradient(x_new), dtype=float)
        _check_finite("gradient", g_new)
        gammas.append(gamma)

        s = x_new - state.x_k
        y = g_new - state.g_k
        try:
            gamma_next = bb_step(s, y, variant)
        except DegenerateStepError:
            other = "bb1" if variant == "bb2" else "bb2"
            try:
                gamma_next = bb_step(s, y, other)
            except DegenerateStepError:
                gamma_next = gamma
        if not np.isfinite(gamma_next) or gamma_next <= 0:
            # a negative-curvature secant pair: keep moving with the old step
            gamma_next = gamma
        gamma_next = float(np.clip(gamma_next, *GAMMA_CLAMP))

        state = BBState(
            x_k=x_new,
            g_k=g_new,
            k=state.k + 1,
            gamma_k=gamma_next,
        )
        recent.append(f_new)
        trace.append((state.k, f_new, float(np.linalg.norm(g_new)), gamma_next))


def steepest_descent_baseline(
    f: ObjectiveFunction,
    x0: Sequence[float],
    tol: float,
    max_iter: int = 100_000,
) -> MinimizeResult:
    """Steepest descent: exact line search on quadratics, backtracking otherwise."""
    if not 0 < tol < np.inf:  # also rejects nan
        raise DomainError("tol must be positive and finite")
    x = np.array(x0, dtype=float)
    if x.shape != (f.dimension,):
        raise DomainError(f"x0 must have dimension {f.dimension}")
    quadratic = isinstance(f, QuadraticObjective)
    fx = float(f.evaluate(x))
    g = np.asarray(f.gradient(x), dtype=float)
    trace = [(0, fx, float(np.linalg.norm(g)), 0.0)]
    gammas = []
    k = 0
    while True:
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return MinimizeResult(
                x=x, fx=float(f.evaluate(x)), iterations=k, converged=True,
                trace=tuple(trace), gammas=tuple(gammas),
            )
        if k >= max_iter:
            return MinimizeResult(
                x=x, fx=float(f.evaluate(x)), iterations=k, converged=False,
                trace=tuple(trace), gammas=tuple(gammas),
            )
        if quadratic:
            Ag = f.matrix @ g
            denom = float(g @ Ag)
            if denom <= 0:
                raise DegenerateStepError("non-positive curvature along the gradient")
            step = float(g @ g) / denom
            x = x - step * g
            fx = float(f.evaluate(x))
        else:
            step = 1.0
            fx0 = float(f.evaluate(x))
            slope = float(g @ g)
            while True:
                x_try = x - step * g
                f_try = float(f.evaluate(x_try))
                if np.isfinite(f_try) and f_try <= fx0 - 1e-4 * step * slope:
                    break
                step *= 0.5
                if step < 1e-18:
                    raise DegenerateStepError("backtracking line search collapsed")
            x = x_try
            fx = f_try
        _check_finite("objective", fx)
        g = np.asarray(f.gradient(x), dtype=float)
        _check_finite("gradient", g)
        gammas.append(step)
        k += 1
        trace.append((k, fx, float(np.linalg.norm(g)), step))


# ---------------------------------------------------------------------------
# bundled problems


class QuadraticObjective(ObjectiveFunction):
    """F(x) = 1/2 x'Ax - b'x with symmetric positive definite A."""

    def __init__(self, A, b=None, name: str = "quadratic"):
        A = np.array(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DomainError("A must be square")
        if not np.allclose(A, A.T, rtol=1e-12, atol=1e-12):
            raise DomainError("A must be symmetric")
        n = A.shape[0]
        bvec = np.zeros(n) if b is None else np.array(b, dtype=float)
        if bvec.shape != (n,):
            raise DomainError("b must match A's dimension")
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "linear", bvec)
        super().__init__(
            dimension=n,
            evaluate=lambda x: float(0.5 * x @ (A @ x) - bvec @ x),
            gradient=lambda x: A @ x - bvec,
            name=name,
        )

    def eigenvalue_range(self):
        vals = np.linalg.eigvalsh(self.matrix)
        return float(vals[0]), float(vals[-1])


def sphere(dimension: int = 2) -> QuadraticObjective:
    return QuadraticObjective(np.eye(dimension), name="sphere")


def diagonal_quadratic(diag: Sequence[float]) -> QuadraticObjective:
    return QuadraticObjective(np.diag(np.asarray(diag, dtype=float)), name="diagonal")


def random_spd(dimension: int, seed: int, condition: float = 100.0) -> QuadraticObjective:
    """Random SPD quadratic with eigenvalues log-spaced up to `condition`."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    eigs = np.logspace(0.0, np.log10(condition), dimension)
    A = (q * eigs) @ q.T
    A = 0.5 * (A + A.T)
    return QuadraticObjective(A, name=f"random-spd-{seed}")


def rosenbrock(a: float = 1.0, b: float = 100.0) -> ObjectiveFunction:
    def evaluate(x):
        return float((a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2)

    def gradient(x):
        return np.array(
            [
                -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] ** 2),
                2.0 * b * (x[1] - x[0] ** 2),
            ]
        )

    return ObjectiveFunction(dimension=2, evaluate=evaluate, gradient=gradient, name="rosenbrock")


def check_gradient(f: ObjectiveFunction, x, h: float = 1e-6) -> float:
    """Max relative error of the supplied gradient vs central differences."""
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


PROBLEMS = {
    "sphere": lambda: sphere(2),
    "quad": lambda: diagonal_quadratic([1.0, 100.0]),
    "rosenbrock": rosenbrock,
}
