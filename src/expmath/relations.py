"""Integer-relation detection and identification of decimals as closed forms.

A from-scratch PSLQ implementation drives everything: given reals
(v_1, ..., v_n) it either finds a nonzero integer vector m with
sum m_i v_i ~ 0, or certifies that no relation exists with coefficients
below a cap.  A candidate counts only if its residual beats the chance
level of its own coefficients, so the search runs past the coincidental
relations that any values admit.  On top of that, `recognize` plays
miniature inverse symbolic calculator: one relation search over the target
and the whole basis of named constants; when the relation found leaves the
target out, the basis constant with the largest coefficient is dropped and
the search repeated.  The match is re-verified at higher precision and
rendered as the implied closed form ("2*exp(-2*gamma)").
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import mpmath
from mpmath import mp, mpf

from . import agm, functions
from .precision import (
    BigReal,
    DomainError,
    PrecisionContext,
    PrecisionError,
    as_mpf,
    make_real,
    record,
)

#: No relation with any coefficient beyond this is ever reported.
COEFFICIENT_CAP = 10 ** 6

#: Residuals must sit at least this many digits below the precision budget.
SAFETY_DIGITS = 15


@record(uncompared=("value",))
class BasisConstant:
    """A named constant that can be regenerated at any precision."""

    name: str
    render: str
    make: Callable[[PrecisionContext], BigReal]
    value: BigReal


@record
class RecognitionMatch:
    coefficients: tuple
    residual: BigReal
    confidence_digits: int
    rendering: str

    def __post_init__(self):
        if not any(self.coefficients):
            raise ValueError("a recognition match needs a nonzero coefficient vector")
        g = math.gcd(*(abs(int(c)) for c in self.coefficients))
        if g != 1:
            raise ValueError("coefficients must be in lowest terms")


def _normalize_relation(rel: Sequence[int]) -> tuple:
    g = math.gcd(*(abs(int(c)) for c in rel))
    if g > 1:
        rel = [c // g for c in rel]
    for c in rel:
        if c != 0:
            if c < 0:
                rel = [-x for x in rel]
            break
    return tuple(int(c) for c in rel)


def _size(rel) -> int:
    """prod |m_i| over the nonzero coefficients: a chance relation of this
    size leaves a residual of about 1/_size."""
    return math.prod(abs(c) for c in rel if c)


def _credible(resid, rel, accept) -> bool:
    """A relation's residual is credible when it lies below `accept` and
    SAFETY_DIGITS below the chance level 1/_size(rel) of its coefficients."""
    return resid < accept and resid * _size(rel) * 10 ** SAFETY_DIGITS <= 1


def _coerce_values(values, precision_digits: int):
    """The values as mpfs for a search at precision_digits; a BigReal must
    carry the bits that precision asks for."""
    if precision_digits < 10:
        raise DomainError("precision budget below 10 digits is meaningless here")
    need_bits = int(math.ceil(precision_digits * math.log2(10)))
    ctx = PrecisionContext.from_digits(precision_digits + 10)
    out = []
    for v in values:
        if isinstance(v, BigReal):
            if v.computed_at_bits < need_bits:
                raise PrecisionError(
                    f"value carries {v.computed_at_bits} bits, below the "
                    f"{need_bits} needed for {precision_digits} digits"
                )
            out.append(v.value)
        else:
            out.append(as_mpf(v, ctx))
    return out


def find_integer_relation(values, precision_digits: int):
    """Integer vector m with |sum m_i v_i| below 10^-(digits-safety), or None.

    The residual must also beat the chance level of m's own size:
    -log10(residual) >= sum log10|m_i| + SAFETY_DIGITS over the nonzero m_i,
    since any values admit relations with residuals of roughly 1/prod|m_i|
    (pigeonhole); the search passes over relations that fail this.  None
    means: no relation with all |m_i| <= COEFFICIENT_CAP detectable at this
    precision.  A residual that plateaus above the acceptance threshold
    while the iteration floor is reached raises PrecisionError instead of
    guessing.
    """
    if len(values) < 2:
        raise DomainError("integer-relation detection needs at least two values")
    rel = _pslq(_coerce_values(values, precision_digits), precision_digits)
    return None if rel is None else tuple(rel)


def _pslq(xs, precision_digits: int):
    n = len(xs)
    prec = int((precision_digits + 20) * 3.33) + 32
    with mp.workprec(prec):
        scale = max(abs(x) for x in xs)
        if scale == 0:
            raise DomainError("all-zero input has every vector as a relation")
        if xs[-1] == 0:
            # its own relation; the start matrix H below would divide by 0
            return [0] * (n - 1) + [1]
        accept = mpf(10) ** (-(precision_digits - SAFETY_DIGITS)) * max(1, scale)
        detect = mpf(10) ** (-(precision_digits - SAFETY_DIGITS + 3))
        noise_floor = mpmath.ldexp(1, -(prec - 24))
        gamma = mpmath.sqrt(mpf(4) / 3) + mpf(1) / 128

        norm = mpmath.sqrt(mpmath.fsum(x * x for x in xs))
        y = [x / norm for x in xs]
        s = [mpf(0)] * n
        acc = mpf(0)
        for k in range(n - 1, -1, -1):
            acc += y[k] * y[k]
            s[k] = mpmath.sqrt(acc)
        H = [[mpf(0)] * (n - 1) for _ in range(n)]
        for j in range(n - 1):
            H[j][j] = s[j + 1] / s[j]
            for i in range(j + 1, n):
                H[i][j] = -y[i] * y[j] / (s[j] * s[j + 1])
        B = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

        def reduce_rows():
            for i in range(1, n):
                for j in range(i - 1, -1, -1):
                    if H[j][j] == 0:
                        continue
                    t = mpmath.nint(H[i][j] / H[j][j])
                    if t == 0:
                        continue
                    ti = int(t)
                    y[j] += ti * y[i]
                    for k in range(j + 1):
                        H[i][k] -= ti * H[j][k]
                    for k in range(n):
                        B[k][j] += ti * B[k][i]

        def candidate(col: int):
            """Verdicts: ('accept', rel), ('cap', None) for a verified
            relation with a coefficient above the cap, ('reject', None)."""
            rel = [B[k][col] for k in range(n)]
            if not any(rel):
                return "reject", None
            with mp.workprec(prec + 32):
                resid = abs(mpmath.fsum(mpf(c) * x for c, x in zip(rel, xs)))
                # a chance relation is passed over, not reported
                if not _credible(resid, rel, accept):
                    return "reject", None
            if max(abs(c) for c in rel) > COEFFICIENT_CAP:
                return "cap", None
            return "accept", list(_normalize_relation(rel))

        reduce_rows()
        max_iter = 64 * n * n + 256 * precision_digits
        for _ in range(max_iter):
            small = min(range(n), key=lambda i: abs(y[i]))
            if abs(y[small]) < detect:
                verdict, rel = candidate(small)
                if verdict == "accept":
                    return rel
                if abs(y[small]) < noise_floor:
                    if verdict == "cap":
                        # a genuine relation exists but lies outside the cap;
                        # nothing within the cap remains detectable
                        return None
                    raise PrecisionError(
                        "residual plateau: working precision exhausted before a "
                        "relation could be confirmed or excluded"
                    )
            diag_max = max(abs(H[j][j]) for j in range(n - 1))
            if diag_max > 0 and 1 / diag_max > COEFFICIENT_CAP:
                # every surviving relation would need a coefficient above the cap
                return None

            powg = mpf(1)
            m, best = 0, None
            for i in range(n - 1):
                powg *= gamma
                v = powg * abs(H[i][i])
                if best is None or v > best:
                    best, m = v, i
            y[m], y[m + 1] = y[m + 1], y[m]
            H[m], H[m + 1] = H[m + 1], H[m]
            for k in range(n):
                B[k][m], B[k][m + 1] = B[k][m + 1], B[k][m]
            if m < n - 2:
                t0 = mpmath.hypot(H[m][m], H[m][m + 1])
                if t0 != 0:
                    t1 = H[m][m] / t0
                    t2 = H[m][m + 1] / t0
                    for i in range(m, n):
                        t3, t4 = H[i][m], H[i][m + 1]
                        H[i][m] = t1 * t3 + t2 * t4
                        H[i][m + 1] = t1 * t4 - t2 * t3
            reduce_rows()
        raise PrecisionError(
            "relation search exhausted its iteration budget without a verdict"
        )


# ---------------------------------------------------------------------------
# the constant vocabulary


def _make_one(ctx: PrecisionContext) -> BigReal:
    return make_real(1, ctx)


def _make_gamma(ctx: PrecisionContext) -> BigReal:
    return functions.euler_gamma(ctx)


def _make_em2gamma(ctx: PrecisionContext) -> BigReal:
    wide = ctx.widened(10)
    g = functions.euler_gamma(wide)
    with mp.workprec(wide.bits):
        return make_real(mpmath.exp(-2 * g.value), ctx)


def _make_zeta3(ctx: PrecisionContext) -> BigReal:
    return functions.zeta3(ctx)


def _make_pi(ctx: PrecisionContext) -> BigReal:
    return agm.pi_value(ctx)


def _make_pi2(ctx: PrecisionContext) -> BigReal:
    wide = ctx.widened(10)
    p = agm.pi_value(wide)
    with mp.workprec(wide.bits):
        return make_real(p.value * p.value, ctx)


def _make_e(ctx: PrecisionContext) -> BigReal:
    return functions.exp(1, ctx)


_BASIS_FACTORIES = {
    "one": ("1", _make_one),
    "gamma": ("gamma", _make_gamma),
    "em2gamma": ("exp(-2*gamma)", _make_em2gamma),
    "zeta3": ("zeta(3)", _make_zeta3),
    "pi": ("pi", _make_pi),
    "pi2": ("pi^2", _make_pi2),
    "e": ("exp(1)", _make_e),
}

#: What `expmath recognize` searches when no basis is named.
DEFAULT_BASIS = ("one", "gamma", "em2gamma", "zeta3", "pi2")


def basis_names() -> list:
    return sorted(_BASIS_FACTORIES)


def standard_basis(names, ctx: PrecisionContext) -> list:
    """Build BasisConstant records for the given registry names."""
    out = []
    for name in names:
        try:
            render, make = _BASIS_FACTORIES[name]
        except KeyError:
            raise DomainError(
                f"unknown basis constant {name!r}; available: {', '.join(basis_names())}"
            ) from None
        out.append(BasisConstant(name=name, render=render, make=make, value=make(ctx)))
    return out


# ---------------------------------------------------------------------------
# recognition


def _render_match(rel, basis) -> str:
    """Express value = -(sum_i m_i b_i)/m_0 as a readable closed form."""
    m0 = rel[0]
    pieces = []
    for mi, b in zip(rel[1:], basis):
        if mi == 0:
            continue
        q = Fraction(-mi, m0)
        mag = abs(q)
        if b.name == "one" or b.render == "1":
            body = f"{mag.numerator}" if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        elif mag == 1:
            body = b.render
        elif mag.denominator == 1:
            body = f"{mag.numerator}*{b.render}"
        else:
            body = f"{mag.numerator}/{mag.denominator}*{b.render}"
        pieces.append(("-" if q < 0 else "+", body))
    if not pieces:
        return "0"
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def recognize(value, basis, precision_digits: int):
    """Identify `value` as a rational combination of basis constants.

    One integer-relation search runs over [value] + basis.  A relation that
    leaves the value out is one among the basis constants themselves; the
    constant with the largest coefficient in it is dropped and the search
    repeated, at most len(basis) + 1 searches in all.  The relation found is
    re-verified with the basis regenerated at precision_digits + 30: its
    residual must lie below 10^-(precision_digits - SAFETY_DIGITS) and,
    for its nonzero coefficients m_i, satisfy -log10(residual) >=
    sum log10|m_i| + SAFETY_DIGITS.  Returns a list of at most one match;
    empty when no relation involving the value is found or verified,
    including when a search reaches a residual plateau (PrecisionError
    inside the search) before it can confirm or exclude a relation.
    PrecisionError is raised only when the value or a basis value carries
    too few bits for precision_digits.
    """
    ctx = PrecisionContext.from_digits(precision_digits + 10)
    target = value if isinstance(value, BigReal) else make_real(as_mpf(value, ctx), ctx)
    # too coarse an input is an error, not a search that cannot succeed
    xs = _coerce_values([target] + [b.value for b in basis], precision_digits)

    active = list(range(len(basis)))
    while active:
        try:
            rel = _pslq([xs[0]] + [xs[i + 1] for i in active], precision_digits)
        except PrecisionError:
            return []
        if rel is None:
            return []
        if rel[0] != 0:
            break
        del active[max(range(len(active)), key=lambda j: abs(rel[j + 1]))]
    else:
        return []

    # rel is in lowest terms with rel[0] > 0, and so is its spread over the basis
    full = [rel[0]] + [0] * len(basis)
    for pos, idx in enumerate(active, 1):
        full[idx + 1] = rel[pos]
    key = tuple(full)
    # soundness: the relation must survive sharper basis values
    sharp_ctx = PrecisionContext.from_digits(precision_digits + 30)
    with mp.workprec(sharp_ctx.bits):
        resid = abs(
            mpmath.fsum(
                [mpf(key[0]) * target.value]
                + [mpf(c) * b.make(sharp_ctx).value for c, b in zip(key[1:], basis) if c]
            )
        )
        if not _credible(resid, key, mpf(10) ** (-(precision_digits - SAFETY_DIGITS))):
            return []
        resid = +resid
    conf = int(mpmath.floor(-mpmath.log10(resid))) if resid > 0 else precision_digits
    return [
        RecognitionMatch(
            coefficients=key,
            residual=make_real(resid, ctx),
            confidence_digits=min(conf, precision_digits),
            rendering=_render_match(key, basis),
        )
    ]
