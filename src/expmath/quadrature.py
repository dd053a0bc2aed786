"""Tanh-sinh (double-exponential) quadrature over finite and semi-infinite ranges.

The finite-interval substitution is x = tanh((pi/2) sinh t): trapezoid sums in
t converge double-exponentially for analytic integrands and remain robust when
the integrand is singular at an endpoint, because the abscissae crowd into the
endpoints double-exponentially fast.  Semi-infinite integrals use the
companion map x = a + exp((pi/2) sinh t) over the whole real t-line.

Levels halve the trapezoid step; level m reuses every evaluation from level
m-1 (only odd multiples of the new step are fresh nodes).  Node positions are
stored as distances from the nearest endpoint so that integrands like
x^(-1/2) receive arguments accurate to full working precision arbitrarily
close to the singularity.  Tails of each trapezoid sum are cut adaptively:
a side stops once several consecutive node contributions fall below the
tolerance, which is what makes endpoint singularities converge at the same
rate as smooth integrands.

All summation is sequential in a fixed node order, so results are exactly
reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath
from mpmath import mp, mpf

from .precision import (
    BigReal,
    IntegrandError,
    PrecisionContext,
    TailBoundError,
    as_mpf,
    make_real,
)

DEFAULT_MAX_LEVEL = 12

#: Node tables keyed by (map kind, working precision, level); grown lazily and
#: shared across integrals.  Entries are pure functions of the key, so the
#: cache is observationally stateless.
_NODE_CACHE: dict = {}


@dataclass(frozen=True)
class QuadratureRule:
    """Materialized abscissa/weight table at one refinement level on (-1, 1)."""

    level: int
    h: mpf
    nodes: tuple  # ((abscissa, weight), ...) sorted by abscissa


@dataclass(frozen=True)
class IntegralResult:
    value: BigReal
    error_estimate: BigReal
    levels_used: int
    converged: bool
    #: |T_m - T_{m-1}| per refinement level (diagnostic; first entry is level 1).
    level_differences: tuple = ()


@dataclass(frozen=True)
class DecayCertificate:
    """Caller-certified bound ln|f(x)| <= log_bound(x) for x >= beyond.

    The engine uses it two ways: nodes whose certified bound is negligible
    are counted as exact zeros without evaluating f (this is what makes
    integrands that underflow or overflow far out in the tail safe), and
    evaluated nodes that exceed the bound raise TailBoundError.
    """

    beyond: float | mpf
    log_bound: Callable[[mpf], mpf]


def _ts_new_nodes(prec: int, level: int, count: int):
    """At least `count` fresh tanh-sinh nodes for this level, as (d, w) pairs.

    d is the distance 1 - |x| from the nearer endpoint, computed as
    2/(e^{2a}+1) so it retains full relative precision however small; w is
    the weight (pi/2) cosh t / cosh^2((pi/2) sinh t).  Nodes are for
    ascending positive t; the engine mirrors them onto both endpoints.
    Level 0 uses every multiple of h=1, deeper levels only odd multiples.
    """
    key = ("ts", prec, level)
    nodes = _NODE_CACHE.setdefault(key, [])
    if len(nodes) >= count:
        return nodes
    with mp.workprec(prec):
        h = mpf(2) ** (-level)
        half_pi = mpmath.pi / 2
        d_floor = mpmath.ldexp(1, -int(6.5 * prec))
        while len(nodes) < count:
            if nodes and nodes[-1][0] == 0:
                break  # tail exhausted at this precision
            j = (2 * len(nodes) + 1) if level > 0 else (len(nodes) + 1)
            t = j * h
            et = mpmath.exp(t)
            sinh_t = (et - 1 / et) / 2
            cosh_t = (et + 1 / et) / 2
            a = half_pi * sinh_t
            e2a = mpmath.exp(2 * a)
            d = 2 / (e2a + 1)
            w = half_pi * cosh_t * 4 * e2a / (e2a + 1) ** 2
            if d < d_floor:
                d = mpf(0)  # sentinel: past the resolvable tail
            nodes.append((d, w))
    return nodes


def _es_new_nodes(prec: int, level: int, count: int):
    """Fresh exp-sinh nodes: pairs ((x_plus, w_plus), (x_minus, w_minus)).

    x = exp((pi/2) sinh t) maps t <-> (0, inf); positive t runs to large x,
    negative t to x near 0 (kept as the small exponential itself, again for
    full relative precision near the finite endpoint).
    """
    key = ("es", prec, level)
    nodes = _NODE_CACHE.setdefault(key, [])
    if len(nodes) >= count:
        return nodes
    with mp.workprec(prec):
        h = mpf(2) ** (-level)
        half_pi = mpmath.pi / 2
        a_cap = mpf(8 * prec) * mpmath.ln(2)
        while len(nodes) < count:
            if nodes and nodes[-1] is None:
                break
            j = (2 * len(nodes) + 1) if level > 0 else (len(nodes) + 1)
            t = j * h
            et = mpmath.exp(t)
            sinh_t = (et - 1 / et) / 2
            cosh_t = (et + 1 / et) / 2
            a = half_pi * sinh_t
            if a > a_cap:
                nodes.append(None)  # sentinel: both tails past any useful range
                break
            ea = mpmath.exp(a)
            wf = half_pi * cosh_t
            nodes.append(((ea, ea * wf), (1 / ea, wf / ea)))
    return nodes


class _TanhSinhMap:
    """Finite interval (a, b): yields (y, weight_factor) pairs per node."""

    def __init__(self, a: mpf, b: mpf):
        self.a = a
        self.b = b
        self.halfwidth = (b - a) / 2

    def center(self):
        return [((self.a + self.b) / 2, self.halfwidth)]

    def nodes(self, prec, level, index):
        got = _ts_new_nodes(prec, level, index + 1)
        if index >= len(got):
            return None
        d, w = got[index]
        if d == 0:
            return None
        offset = d * self.halfwidth
        return [(self.b - offset, w * self.halfwidth), (self.a + offset, w * self.halfwidth)]


class _ExpSinhMap:
    """Semi-infinite interval (a, inf)."""

    def __init__(self, a: mpf):
        self.a = a

    def center(self):
        return [(self.a + 1, mpf(1))]

    def nodes(self, prec, level, index):
        got = _es_new_nodes(prec, level, index + 1)
        if index >= len(got) or got[index] is None:
            return None
        (xp, wp_), (xm, wm) = got[index]
        return [(self.a + xp, wp_), (self.a + xm, wm)]


def _coerce(fv) -> mpf:
    if isinstance(fv, mpf):
        return fv
    if isinstance(fv, (int, float)):
        return mpf(fv)
    if isinstance(fv, BigReal):
        return fv.value
    raise IntegrandError(f"integrand returned non-real value of type {type(fv).__name__}")


def _integrate(f, mapper, eps, ctx: PrecisionContext, tail_bound, max_level):
    prec = ctx.bits + 16
    with mp.workprec(prec):
        eps = mpf(eps)
        if not eps > 0:
            raise ValueError("eps must be positive")
        cert_beyond = mpf(tail_bound.beyond) if tail_bound is not None else None
        half_pi = mpmath.pi / 2
        noise = mpmath.ldexp(1, -(prec - 10))

        def evaluate(y, weight, term_floor, log_term_floor):
            """One weighted integrand evaluation under the tail policy."""
            if cert_beyond is not None and y >= cert_beyond:
                bound = tail_bound.log_bound(y)
                if bound < log_term_floor - mpmath.ln(weight):
                    return mpf(0)  # certified negligible; skip evaluation
                try:
                    fv = _coerce(f(y))
                except ArithmeticError as exc:
                    raise IntegrandError(
                        f"integrand failed at y={mpmath.nstr(y, 8)} inside certified range "
                        "with non-negligible bound"
                    ) from exc
                if not mpmath.isfinite(fv):
                    return mpf(0)  # under/overflow under certificate: exact zero by contract
                if fv != 0 and mpmath.ln(abs(fv)) > bound + mpf(2):
                    raise TailBoundError(
                        f"integrand exceeds its decay certificate at y={mpmath.nstr(y, 8)}"
                    )
                return weight * fv
            try:
                fv = _coerce(f(y))
            except ArithmeticError as exc:
                raise IntegrandError(f"integrand failed at y={mpmath.nstr(y, 8)}") from exc
            if not mpmath.isfinite(fv):
                raise IntegrandError(f"integrand not finite at y={mpmath.nstr(y, 8)}")
            return weight * fv

        total = None
        prev = None
        diffs = []
        converged = False
        level = 0
        scale_est = mpf(1)
        for level in range(0, max_level + 1):
            h = mpf(2) ** (-level)
            term_floor = eps * scale_est / 16
            log_term_floor = mpmath.ln(term_floor)
            part = mpf(0)
            if level == 0:
                for y, wf in mapper.center():
                    part += evaluate(y, half_pi * wf, term_floor, log_term_floor)
            index = 0
            quiet = 0
            while True:
                pair = mapper.nodes(prec, level, index)
                if pair is None:
                    break
                contrib = mpf(0)
                for y, weight in pair:
                    contrib += evaluate(y, weight, term_floor, log_term_floor)
                part += contrib
                index += 1
                # Tail cut: several consecutive negligible contributions, but
                # never before t = j*h reaches past the weight hump at ~1.
                if index * h >= 1:
                    if abs(contrib) * h < term_floor:
                        quiet += 1
                        if quiet >= 3:
                            break
                    else:
                        quiet = 0
            total = h * part if level == 0 else total / 2 + h * part
            scale_est = max(mpf(1), abs(total))
            if prev is not None:
                diff = abs(total - prev)
                diffs.append(diff)
                tol = max(eps * scale_est, noise * scale_est * (level + 1))
                if diff <= tol:
                    converged = True
                    break
            prev = total
        total = +total
        err = +(diffs[-1] if diffs else abs(total))
    return IntegralResult(
        value=make_real(total, ctx),
        error_estimate=make_real(err, ctx),
        levels_used=level,
        converged=converged,
        level_differences=tuple(diffs),
    )


def integrate_finite(
    f,
    a,
    b,
    eps,
    ctx: PrecisionContext,
    *,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> IntegralResult:
    """Integrate f over (a, b); f may blow up integrably at either endpoint.

    `f` receives and returns mpf values and is called at the context's
    working precision.  `eps` is the absolute tolerance (relative once the
    value exceeds 1).  Non-convergence within `max_level` refinements is
    reported via converged=False, not an exception.
    """
    av = as_mpf(a, ctx)
    bv = as_mpf(b, ctx)
    if not av < bv:
        raise ValueError("integration interval requires a < b")
    return _integrate(f, _TanhSinhMap(av, bv), eps, ctx, None, max_level)


def integrate_semi_infinite(
    f,
    a,
    eps,
    ctx: PrecisionContext,
    tail_bound: Optional[DecayCertificate] = None,
    *,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> IntegralResult:
    """Integrate f over (a, inf) with an exponential-type variable change.

    Without a certificate the integrand must be evaluable (and decaying)
    everywhere; with one, far-tail nodes it covers are skipped or zeroed
    per the certificate contract.
    """
    av = as_mpf(a, ctx)
    return _integrate(f, _ExpSinhMap(av), eps, ctx, tail_bound, max_level)


def tanh_sinh_rule(level: int, ctx: PrecisionContext) -> QuadratureRule:
    """The full abscissa/weight table at `level` on the canonical (-1, 1).

    Exposed for inspection and property testing; the integrator consumes
    the same nodes in endpoint-offset form.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    prec = ctx.bits + 16
    with mp.workprec(prec):
        h = mpf(2) ** (-level)
        inside = mpmath.ldexp(1, -(ctx.bits - 2))
        pairs = [(mpf(0), mpmath.pi / 2)]
        for lv in range(0, level + 1):
            count = 1
            while True:
                got = _ts_new_nodes(prec, lv, count)
                if count > len(got):
                    break
                d, w = got[count - 1]
                if d == 0 or d < inside:
                    break
                x = 1 - d
                pairs.append((x, w))
                pairs.append((-x, w))
                count += 1
            if level == 0:
                break
        pairs.sort(key=lambda t: t[0])
        return QuadratureRule(level=level, h=+h, nodes=tuple(pairs))
