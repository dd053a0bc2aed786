"""Explicit precision contexts, arbitrary-precision values, and decimal rendering.

Every numeric operation in this package takes a :class:`PrecisionContext` and
returns :class:`BigReal` values.  Precision is never read from ambient state:
each operation sets its own working precision from the context it was handed,
so identical inputs always produce identical outputs.

Decimal rendering goes through exact integer arithmetic (the binary mantissa
is converted to a rational and rounded half-to-even at the requested number of
significant digits, and the rounded mantissa becomes digits by the same radix
splitting as digit extraction), so rendered strings are reproducible
bit-for-bit, independent of any formatting library and of CPython's limit on
int-to-str conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf

_LOG2_10 = math.log2(10)


class NumericsError(Exception):
    """Base class for numeric failures in this package."""


class DomainError(NumericsError):
    """An argument lies outside the mathematical domain of the operation."""


class PrecisionError(NumericsError):
    """The requested accuracy cannot be reached at the given working precision."""


class ConvergenceError(NumericsError):
    """An iterative process failed to converge within its budget."""


class IntegrandError(NumericsError):
    """An integrand could not be evaluated at an interior node."""


class TailBoundError(NumericsError):
    """An integrand exceeded the decay bound its caller certified."""


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision threaded explicitly through every operation.

    Parameters
    ----------
    bits:
        Binary working precision.  Must be at least 64 and large enough to
        honour ``target_digits + guard_digits`` decimal digits.
    target_digits:
        Number of correct decimal digits the caller wants back.
    guard_digits:
        Extra decimal digits carried internally to absorb roundoff; at
        least 10.  Operations that detect cancellation widen further on
        their own.
    """

    bits: int
    target_digits: int
    guard_digits: int = 10

    def __post_init__(self) -> None:
        if self.bits < 64:
            raise ValueError("working precision must be at least 64 bits")
        if self.target_digits < 1:
            raise ValueError("target_digits must be positive")
        if self.guard_digits < 10:
            raise ValueError("guard_digits must be at least 10")
        needed = math.ceil((self.target_digits + self.guard_digits) * _LOG2_10)
        if self.bits < needed:
            raise ValueError(
                f"bits={self.bits} cannot carry {self.target_digits} target digits "
                f"plus {self.guard_digits} guard digits (needs >= {needed})"
            )

    @classmethod
    def from_digits(cls, target_digits: int, guard_digits: int = 10) -> "PrecisionContext":
        """Smallest valid context for the requested decimal accuracy."""
        bits = max(64, math.ceil((target_digits + guard_digits) * _LOG2_10) + 4)
        return cls(bits=bits, target_digits=target_digits, guard_digits=guard_digits)

    def widened(self, extra_digits: int) -> "PrecisionContext":
        """A context with `extra_digits` more decimal digits of headroom."""
        return PrecisionContext.from_digits(
            self.target_digits + extra_digits, self.guard_digits
        )

    @property
    def eps(self) -> mpf:
        """10**(-target_digits), the accuracy the context promises."""
        with mp.workprec(64):
            return mpf(10) ** (-self.target_digits)


@dataclass(frozen=True)
class BigReal:
    """An arbitrary-precision real paired with the precision it was computed at."""

    value: mpf
    computed_at_bits: int

    def to_decimal(self, digits: int) -> str:
        """Decimal rendering with `digits` significant digits, round-half-even."""
        return render_decimal(self.value, digits)

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        shown = max(1, int(self.computed_at_bits / _LOG2_10) - 2)
        return render_decimal(self.value, min(shown, 50))

    def __repr__(self) -> str:
        return f"BigReal({self!s}, bits={self.computed_at_bits})"


def make_real(value: mpf, ctx: PrecisionContext) -> BigReal:
    return BigReal(value=value, computed_at_bits=ctx.bits)


def as_mpf(x, ctx: PrecisionContext) -> mpf:
    """Coerce supported input kinds to an mpf at the context's precision.

    Accepts BigReal, mpf, int, Fraction, float, and decimal strings.
    """
    if isinstance(x, BigReal):
        return x.value
    if isinstance(x, mpf):
        return x
    with mp.workprec(ctx.bits + 8):
        if isinstance(x, Fraction):
            return mpf(x.numerator) / x.denominator
        if isinstance(x, (int, float, str)):
            return mpf(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a real number")


def parse_decimal(text: str, ctx: PrecisionContext) -> BigReal:
    """Parse a decimal string at the context's working precision."""
    with mp.workprec(ctx.bits + 8):
        v = mpf(text.strip())
    return make_real(v, ctx)


def _to_fraction(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        raise ValueError("not a finite nonzero value")
    frac = Fraction(man)
    if exp >= 0:
        frac *= Fraction(2) ** exp
    else:
        frac /= Fraction(2) ** (-exp)
    return -frac if sign else frac


#: Digit runs this short are converted by plain divmod, longer ones split.
_RADIX_LEAF = 32


@lru_cache(maxsize=256)
def _radix_power(base: int, h: int) -> int:
    return base ** h


def _radix_digits(n: int, base: int, m: int, out: list) -> None:
    """Append the m base-`base` digits of n < base^m, leading zeros kept.

    Divide and conquer (Brent and Zimmermann, MCA 1.7): n splits as
    hi * base^h + lo with h = m // 2, and each half converts on its own.
    """
    if m <= _RADIX_LEAF:
        rep = [0] * m
        for i in range(m - 1, -1, -1):
            n, rep[i] = divmod(n, base)
        out.extend(rep)
        return
    h = m // 2
    hi, lo = divmod(n, _radix_power(base, h))
    _radix_digits(hi, base, m - h, out)
    _radix_digits(lo, base, h, out)


def _radix_value(digs, base: int) -> int:
    """The integer whose base-`base` digits are `digs`: _radix_digits reversed."""
    m = len(digs)
    if m <= _RADIX_LEAF:
        n = 0
        for d in digs:
            n = n * base + d
        return n
    h = m // 2
    hi = _radix_value(digs[: m - h], base)
    return hi * _radix_power(base, h) + _radix_value(digs[m - h :], base)


def render_decimal(x: mpf, digits: int) -> str:
    """Render `x` with `digits` significant decimal digits.

    Rounding is half-to-even on the exact rational value of the binary
    float, so the output is a pure function of (x, digits): no locale, no
    formatting-library behaviour, no double rounding.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    if not mpmath.isfinite(x):
        raise ValueError(f"cannot render non-finite value {x!r}")
    if x == 0:
        return "0"
    frac = _to_fraction(x)
    negative = frac < 0
    if negative:
        frac = -frac
    # Decimal exponent e with 10^e <= |x| < 10^(e+1): float estimate, then
    # exact correction (the estimate can be off by one near powers of ten).
    sign_, man, exp, bc = x._mpf_
    e = math.floor((bc + exp - 1) / _LOG2_10)
    while frac >= Fraction(10) ** (e + 1):
        e += 1
    while frac < Fraction(10) ** e:
        e -= 1
    scaled = frac * Fraction(10) ** (digits - 1 - e)
    q, r = divmod(scaled.numerator, scaled.denominator)
    double_rem = 2 * r
    if double_rem > scaled.denominator or (double_rem == scaled.denominator and q % 2 == 1):
        q += 1
    top = 10 ** digits
    if q == top:  # rounding rippled through every digit (…999 -> …000)
        q //= 10
        e += 1
    assert top // 10 <= q < top
    out: list = []
    _radix_digits(q, 10, digits, out)  # str(q) stops at 4300 digits
    s = "".join(map(str, out))
    prefix = "-" if negative else ""
    if 0 <= e < digits + 4:
        if e + 1 >= digits:
            body = s + "0" * (e + 1 - digits)
        else:
            body = s[: e + 1] + "." + s[e + 1 :]
        return prefix + body
    if -5 <= e < 0:
        return prefix + "0." + "0" * (-e - 1) + s
    mantissa = s[0] + ("." + s[1:] if digits > 1 else "")
    return prefix + f"{mantissa}e{e:+d}"
