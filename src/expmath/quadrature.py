"""Tanh-sinh (double-exponential) quadrature over finite and semi-infinite ranges.

The finite-interval substitution is x = tanh((pi/2) sinh t): trapezoid sums in
t converge double-exponentially for analytic integrands and remain robust when
the integrand is singular at an endpoint, because the abscissae crowd into the
endpoints double-exponentially fast.  Semi-infinite integrals use the
companion map x = a + exp((pi/2) sinh t) over the whole real t-line.

Levels halve the trapezoid step; level m reuses every evaluation from level
m-1 (only odd multiples of the new step are fresh nodes).  Each map has one
node table per working precision and level, built by one builder and read
by one sweep; the only map-specific step is where a node lands.  The 128
most recently read tables are kept across integrals.  Finite
nodes are stored as distances d from the nearer endpoint, and a + d and
b - d are formed exactly, unrounded, so an integrand like (x - a)^(-1/2)
on (a, b) receives arguments whose distance from a is exact however close
to its singularity; the interval's centre and half-width are formed at
the working precision.  A semi-infinite node x = e^a is built whole,
once: its abscissae are mpfs that carry ln x = +-a, the map's own
exponent, and its weights carry their logarithms as floats, so the
certificate's skip test takes no logarithm per node and call, and an
integrand may read ln x off its argument; a shift to a nonzero start is
exact too.  A certificate's skip test and bound check compare floats, and
only a bound check within float roundoff of a tie takes a logarithm.
Tails of each trapezoid sum are cut adaptively: a sweep stops once several
consecutive node pairs contribute below the tolerance, which is what makes
endpoint singularities converge at the same rate as smooth integrands.

That cut can stop an exp-sinh sum past t = 2, before mass far from x = 1.
When the level-0 centre and node pairs at t = 1 and 2 all lie below the
finest level's cut floor, the sweep moves x -> 2^j x onto the level-0 node
of largest x f(x) until it lies within t = 1 of the centre (Mori and
Sugihara, J. Comput. Appl. Math. 127 (2001) 287), or refuses after
_MAX_MOVES moves.  Mass those nodes see is summed as before, bit for bit.

After each level m >= 1 the sweep estimates the error of its sum T_m.  With
d_m = |T_m - T_{m-1}| and scale = max(1, |T_m|), the estimate E_m is the
largest of three terms (after Bailey, Jeyabalan and Li, Experimental Math.
14 (2005) 317):
- a rate term: (d_m/|T_m|)^RATE_ORDER * |T_m| while d_m falls
  below d_{m-1}, since each level about squares the relative error, and
  d_m itself otherwise or when T_m = 0; relative to |T_m| itself, so an
  integral far below 1 does not stop on an absolute estimate;
- the tail-cut floor eps * scale / 16, the bound on each node pair the
  quiet-tail cut leaves out;
- a roundoff term 2^-(prec-10) * scale * (m + 1).
The sweep stops at the first level whose E_m is at most the tolerance,
max(eps * scale, the roundoff term), and reports E_m as the result's
`error_estimate`.  A level whose node table ends before the quiet-tail
cut, with its last pair still at or above the cut's floor, is loud: every
level misses the mass past that node alike, so no d_m shows it, and every
later table ends at the same cut.  A loud level m >= 1 ends the sweep with
converged=False.  Level 0 is exempt: the cut's floor on a pair is
term_floor / h, so level 0 holds its pairs to a floor 2^m times lower than
level m does, and a level-0 end can be loud where the finer ones are not
(C_4096 at 30 digits).  For an integrand the map resolves E_m bounds
|value - integral|; it is an estimate, not a proof, and a sum that misses
mass its nodes never reach, such as a spike between them, is not bounded
by it.

All summation is sequential in a fixed node order, so results are exactly
reproducible run to run.  The node builder and the sweep's per-node work
(each w f product, the level sums and the tail tests) call mpmath.libmp on
raw values (mpfs' `_mpf_` tuples) at the working precision, rounding to
nearest, which is what mpf's operators call: every result is bit for bit
that of the operator form, without an mpf object per intermediate value.
Integrands still receive and return mpfs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice
from typing import Callable, Optional

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    fzero,
    from_int,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_ge,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_shift,
    mpf_sub,
    round_nearest as _RND,
    to_float,
)

from .precision import (
    BigReal,
    ConvergenceError,
    IntegrandError,
    PrecisionContext,
    TailBoundError,
    as_mpf,
    make_real,
    record,
)

#: The deepest refinement level a sweep reaches before it reports
#: converged=False.
DEFAULT_MAX_LEVEL = 12

#: Moves of the exp-sinh map a sweep may make looking for the integrand's
#: mass before it refuses; each moves x by up to the level-0 table's reach.
_MAX_MOVES = 64

#: The error estimate's rate term, (d/|T|)^RATE_ORDER * |T| for a level
#: difference d below the one before it.  The sum about squares its relative
#: error per level; order 1.5 leaves room for the levels where it does not.
#: Measured on c_n for n = 1..4 and the 16 n of perfbench/references.json
#: (5..56) at (digits, eps) = (30, 1e-25), (45, 1e-40), (60, 1e-52),
#: (30, 1e-15) and (35, 1e-33), 100 calls: with order 1.5 no error exceeded
#: its estimate (worst ratio 0.48, C_5 at (30, 1e-15)) and none exceeded eps;
#: ten times that term was as safe and cost 7% more evaluations.  Order 1.7
#: returned C_8 at (35, 1e-33) off by 6.45 eps, and order 2 returned 16 of
#: the 100 off by more than eps.
RATE_ORDER = 1.5

_LN2 = math.log(2)

_make_mpf = mp.make_mpf


@lru_cache(maxsize=128)
def _table(kind: str, prec: int, level: int) -> list:
    """The (map kind, working precision, level) node table, shared across
    integrals and grown by `_nodes` only as far as some sweep has read it.
    Entries are pure functions of the key, so an evicted table is rebuilt
    bit for bit."""
    return []


class _LogAbscissa(mpf):
    """An exp-sinh abscissa x = e^a that carries a = ln x as `ln`.  A sweep
    over (0, inf) hands these to the integrand and to a decay certificate,
    which still see an mpf."""

    __slots__ = ("ln",)

    def __new__(cls, x: mpf, ln: mpf):
        self = object.__new__(cls)
        self._mpf_ = x._mpf_
        self.ln = ln
        return self


@record
class QuadratureRule:
    """Materialized abscissa/weight table at one refinement level on (-1, 1)."""

    level: int
    h: mpf
    nodes: tuple  # ((abscissa, weight), ...) sorted by abscissa


@record
class IntegralResult:
    value: BigReal
    #: E_m at the last level, the largest of the rate, tail-cut and roundoff
    #: terms (module docstring): a bound on |value - integral| when
    #: converged, for an integrand the map resolves; |value| after level 0.
    error_estimate: BigReal
    levels_used: int
    converged: bool
    #: |T_m - T_{m-1}| per refinement level (diagnostic; first entry is level 1).
    level_differences: tuple = ()


@record
class DecayCertificate:
    """Caller-certified bound ln|f(x)| <= log_bound(x) for x >= beyond.

    The engine uses it two ways: nodes whose certified bound is negligible
    are counted as exact zeros without evaluating f (this is what makes
    integrands that underflow or overflow far out in the tail safe), and
    evaluated nodes that exceed the bound raise TailBoundError.  log_bound
    may return a float or an mpf, which the engine reads as a float; -inf
    (a bound past the float range) skips the node, and +inf never does.
    """

    beyond: float | mpf
    log_bound: Callable[[mpf], float | mpf]


def _nodes(kind: str, prec: int, level: int):
    """Yield the (kind, prec, level) node table in ascending t, building
    each node the first time any sweep reads it.

    Level 0 uses t = 1, 2, ...; deeper levels only odd multiples of
    h = 2^-level.  With a = (pi/2) sinh t a node is
    - "ts" (x = tanh a): (d, w), d = 1 - |x| computed as 2/(e^{2a}+1) so it
      keeps full relative precision however small, w = (pi/2) cosh t / cosh^2 a;
      the sweep mirrors it onto both endpoints.
    - "es" (x = e^a): (x, w, ln w, 1/x, w', ln w') for t and -t, the small
      abscissa kept as the exponential itself for full relative precision
      near 0.  Both abscissae are `_LogAbscissa`s carrying +-a; ln w =
      float(a) + log(float(w e^-a)) and ln w' = ln w - 2 float(a) are floats,
      since they only decide a certificate's skip test and a move's choice.
    A table ends at None, once its nodes are past any resolvable tail.
    Nodes are built on raw values with libmp at `prec`, rounding to nearest,
    bit for bit what mpf's operators give under mp.workprec(prec), and no
    working precision is set per node; halvings are exact exponent shifts.
    """
    table = _table(kind, prec, level)
    index = 0
    shared = None  # pi/2 and the table's cut-off, formed for its first build
    while True:
        if index == len(table):
            if shared is None:
                with mp.workprec(prec):
                    cut = (mpmath.ldexp(1, -int(6.5 * prec)) if kind == "ts"
                           else mpf(8 * prec) * mpmath.ln(2))
                    shared = (mpmath.pi / 2)._mpf_, cut._mpf_
            half_pi, cut = shared
            t = mpf_shift(from_int(2 * index + 1 if level > 0 else index + 1), -level)
            et = mpf_exp(t, prec, _RND)
            inv_et = mpf_rdiv_int(1, et, prec, _RND)
            cosh_t = mpf_shift(mpf_add(et, inv_et, prec, _RND), -1)
            a = mpf_shift(mpf_mul(half_pi, mpf_sub(et, inv_et, prec, _RND), prec, _RND), -1)
            if kind == "ts":
                e2a = mpf_exp(mpf_shift(a, 1), prec, _RND)
                e2a_1 = mpf_add(e2a, fone, prec, _RND)
                d = mpf_rdiv_int(2, e2a_1, prec, _RND)
                w = mpf_mul(mpf_shift(mpf_mul(half_pi, cosh_t, prec, _RND), 2), e2a, prec, _RND)
                w = mpf_div(w, mpf_pow_int(e2a_1, 2, prec, _RND), prec, _RND)
                node = (_make_mpf(d), _make_mpf(w)) if mpf_ge(d, cut) else None
            elif mpf_gt(a, cut):
                node = None
            else:
                ea = mpf_exp(a, prec, _RND)
                wf = mpf_mul(half_pi, cosh_t, prec, _RND)
                float_a = to_float(a, rnd=_RND)
                log_w = float_a + math.log(to_float(wf, rnd=_RND))
                node = (_LogAbscissa(_make_mpf(ea), _make_mpf(a)),
                        _make_mpf(mpf_mul(ea, wf, prec, _RND)), log_w,
                        _LogAbscissa(_make_mpf(mpf_rdiv_int(1, ea, prec, _RND)),
                                     _make_mpf(mpf_neg(a, prec, _RND))),
                        _make_mpf(mpf_div(wf, ea, prec, _RND)), log_w - 2 * float_a)
            table.append(node)
        node = table[index]
        if node is None:
            return
        yield node
        index += 1


def _exceeds(fv: mpf, limit: float) -> bool:
    """ln|fv| > limit for a nonzero fv, read off fv's binary exponent m,
    since 2^(m-1) <= |fv| < 2^m; the logarithm is taken only when limit
    lies within float roundoff of [(m-1) ln 2, m ln 2]."""
    m = mpmath.mag(fv)
    slack = 2.0 ** -40 * (abs(m) + 1)
    if m * _LN2 < limit - slack:
        return False
    if (m - 1) * _LN2 > limit + slack:
        return True
    return mpmath.ln(abs(fv)) > limit


def _coerce(fv) -> mpf:
    if isinstance(fv, mpf):
        return fv
    if isinstance(fv, (int, float)):
        return mpf(fv)
    if isinstance(fv, BigReal):
        return fv.value
    raise IntegrandError(f"integrand returned non-real value of type {type(fv).__name__}")


def _integrate(f, a: mpf, b: Optional[mpf], eps, ctx: PrecisionContext, tail_bound):
    """Sweep the tanh-sinh table over (a, b), or the exp-sinh one over
    (a, inf) when b is None, through at most DEFAULT_MAX_LEVEL levels."""
    prec = ctx.bits + 16
    with mp.workprec(prec):
        eps = mpf(eps)
        if not eps > 0:
            raise ValueError("eps must be positive")
        if b is None:
            kind, centre = "es", _LogAbscissa(mpf(1), mpf(0))
        else:
            kind, centre, hw = "ts", (a + b) / 2, (b - a) / 2
        cert_beyond = mpf(tail_bound.beyond)._mpf_ if tail_bound is not None else None
        half_pi = mpmath.pi / 2
        # the exp-sinh centre's log weight, read by a certificate's skip test
        # and by a move of the map
        log_centre_w = math.log(math.pi / 2) if b is None else None
        noise = mpmath.ldexp(1, -(prec - 10))
        ln2 = mpmath.ln(2)

        def evaluate(y, weight, log_weight):
            """One weighted integrand evaluation under the tail policy: w f
            as a raw value, for a raw `weight`; `log_weight` is ln(weight),
            read only under a certificate."""
            certified = cert_beyond is not None and mpf_ge(y._mpf_, cert_beyond)
            if certified:
                bound = float(tail_bound.log_bound(y))
                if bound < log_term_floor - log_weight:
                    return fzero  # certified negligible; skip evaluation
            try:
                fv = _coerce(f(y))
            except ArithmeticError as exc:
                where = " inside certified range with non-negligible bound" if certified else ""
                raise IntegrandError(f"integrand failed at y={mpmath.nstr(y, 8)}{where}") from exc
            raw = fv._mpf_
            if not raw[1] and raw[2]:  # an infinity or nan
                if certified:
                    return fzero  # under/overflow under certificate: exact zero by contract
                raise IntegrandError(f"integrand not finite at y={mpmath.nstr(y, 8)}")
            if certified and raw != fzero and _exceeds(fv, bound + 2):
                raise TailBoundError(
                    f"integrand exceeds its decay certificate at y={mpmath.nstr(y, 8)}"
                )
            return mpf_mul(weight, raw, prec, _RND)

        def place(x, w, log_w, j):
            """An exp-sinh node (x, w, ln w) with the map moved by x -> 2^j x,
            exact in x and w, then shifted exactly by a; w comes back raw."""
            w = w._mpf_
            if j:
                x = _LogAbscissa(mpmath.ldexp(x, j), x.ln + j * ln2)
                w, log_w = mpf_shift(w, j), log_w + j * _LN2
            return (mpmath.fadd(a, x, exact=True) if a else x), w, log_w

        def scout(j, pairs, known=()):
            """The level-0 exp-sinh centre and its first `pairs` node pairs
            (all when None), at t = 0, 1, -1, 2, -2, ... with the map moved by
            2^j: the unmoved nodes and their raw w f, taken from `known` first."""
            nodes = [(centre, half_pi, log_centre_w)]
            for node in islice(_nodes(kind, prec, 0), pairs):
                nodes += [node[:3], node[3:]]
            return nodes, [*known, *(evaluate(*place(*node, j)) for node in nodes[len(known):])]

        def ln_abs(v):
            return mpmath.ln(_make_mpf(mpf_abs(v, prec, _RND)))

        term_floor = eps / 16
        log_term_floor = float(mpmath.ln(term_floor))
        j = 0
        if b is None:
            # the move of the module docstring; x f is the mass per unit of
            # ln x, and level0 keeps the final scout's w f for level 0's sum
            _, level0 = scout(0, 2)
            floor = log_term_floor + DEFAULT_MAX_LEVEL * _LN2
            if all(ln_abs(v) < floor for v in level0):
                known = level0
                for _ in range(_MAX_MOVES):
                    nodes, level0 = scout(j, None, known)
                    mass = [ln_abs(v) - log_w + x.ln
                            for (x, _, log_w), v in zip(nodes, level0)]
                    best = mass.index(max(mass))
                    if best < 3:
                        break
                    j, known = j + round(nodes[best][0].ln / ln2), ()
                else:
                    raise ConvergenceError(f"no mass found in {_MAX_MOVES} moves of the exp-sinh map")
            # the table's own nodes and weights, unless the map has moved
            unmoved = not j and not a
        else:
            level0 = [evaluate(centre, mpf_mul(half_pi._mpf_, hw._mpf_, prec, _RND), None)]
            a_raw, b_raw, hw_raw = a._mpf_, b._mpf_, hw._mpf_

        total = None
        prev = None
        diffs = []
        converged = False
        level = 0
        for level in range(0, DEFAULT_MAX_LEVEL + 1):
            h = mpf(2) ** (-level)
            # |contrib| * h < term_floor, exactly, since h is a power of two
            tail_floor = (term_floor / h)._mpf_
            part = fzero if level else level0[0]
            quiet, loud = 0, False
            for index, node in enumerate(_nodes(kind, prec, level), 1):
                if not level and 2 * index < len(level0):
                    contrib = mpf_add(level0[2 * index - 1], level0[2 * index], prec, _RND)
                elif b is None:
                    if unmoved:
                        x, w, log_w, x_small, w_small, log_w_small = node
                        contrib = mpf_add(evaluate(x, w._mpf_, log_w),
                                          evaluate(x_small, w_small._mpf_, log_w_small), prec, _RND)
                    else:
                        contrib = mpf_add(evaluate(*place(*node[:3], j)),
                                          evaluate(*place(*node[3:], j)), prec, _RND)
                else:
                    d, w = node
                    offset = mpf_mul(d._mpf_, hw_raw, prec, _RND)
                    weight = mpf_mul(w._mpf_, hw_raw, prec, _RND)
                    # b - d and a + d exactly, unrounded
                    contrib = mpf_add(evaluate(_make_mpf(mpf_sub(b_raw, offset)), weight, None),
                                      evaluate(_make_mpf(mpf_add(a_raw, offset)), weight, None),
                                      prec, _RND)
                part = mpf_add(part, contrib, prec, _RND)
                # Tail cut: several consecutive negligible contributions, but
                # never before t = index*h reaches past the weight hump at ~1.
                if index >= 1 << level:
                    if mpf_lt(mpf_abs(contrib, prec, _RND), tail_floor):
                        quiet += 1
                        if quiet >= 3:
                            break
                    else:
                        quiet = 0
            else:
                # the table ran out before the quiet-tail cut fired; a last
                # pair at or above the cut's floor leaves mass past it out
                loud = mpf_ge(mpf_abs(contrib, prec, _RND), tail_floor)
            part = _make_mpf(part)
            total = h * part if level == 0 else total / 2 + h * part
            scale_est = max(mpf(1), abs(total))
            if prev is not None:
                diff = abs(total - prev)
                if diffs and diff < diffs[-1] and total:
                    rate = (diff / abs(total)) ** RATE_ORDER * abs(total)
                else:
                    rate = diff
                diffs.append(diff)
                roundoff = noise * scale_est * (level + 1)
                err = max(rate, eps * scale_est / 16, roundoff)
                if not loud and err <= max(eps * scale_est, roundoff):
                    converged = True
                    break
                if loud:
                    break  # every later table ends at the same cut
            prev = total
            term_floor = eps * scale_est / 16
            log_term_floor = float(mpmath.ln(term_floor))
        total = +total
        err = +(err if diffs else abs(total))
    return IntegralResult(
        value=make_real(total, ctx),
        error_estimate=make_real(err, ctx),
        levels_used=level,
        converged=converged,
        level_differences=tuple(diffs),
    )


def integrate_finite(f, a, b, eps, ctx: PrecisionContext) -> IntegralResult:
    """Integrate f over (a, b); f may blow up integrably at either endpoint.

    `f` receives and returns mpf values and is called at the context's
    working precision.  `eps` is the absolute tolerance (relative once the
    value exceeds 1).  Non-convergence within DEFAULT_MAX_LEVEL refinements is
    reported via converged=False, not an exception.
    """
    av = as_mpf(a, ctx)
    bv = as_mpf(b, ctx)
    if not av < bv:
        raise ValueError("integration interval requires a < b")
    return _integrate(f, av, bv, eps, ctx, None)


def integrate_semi_infinite(
    f,
    a,
    eps,
    ctx: PrecisionContext,
    tail_bound: Optional[DecayCertificate] = None,
) -> IntegralResult:
    """Integrate f over (a, inf) with an exponential-type variable change.

    Without a certificate the integrand must be evaluable (and decaying)
    everywhere; with one, far-tail nodes it covers are skipped or zeroed
    per the certificate contract.  Raises ConvergenceError when the map's
    moves (module docstring) do not reach the integrand's mass.
    """
    return _integrate(f, as_mpf(a, ctx), None, eps, ctx, tail_bound)


def tanh_sinh_rule(level: int, ctx: PrecisionContext) -> QuadratureRule:
    """The full abscissa/weight table at `level` on the canonical (-1, 1).

    Exposed for inspection and property testing; it lists the same node
    tables the integrator sweeps, down to nodes inside 2^-(bits-2) of +-1.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    prec = ctx.bits + 16
    with mp.workprec(prec):
        inside = mpmath.ldexp(1, -(ctx.bits - 2))
        pairs = [(mpf(0), mpmath.pi / 2)]
        for lv in range(level + 1):
            for d, w in _nodes("ts", prec, lv):
                if d < inside:
                    break
                pairs += [(1 - d, w), (d - 1, w)]
        pairs.sort(key=lambda t: t[0])
        return QuadratureRule(level=level, h=+mpf(2) ** (-level), nodes=tuple(pairs))
