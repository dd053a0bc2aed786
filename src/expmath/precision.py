"""Explicit precision contexts, arbitrary-precision values, and decimal rendering.

Every numeric operation in this package takes a :class:`PrecisionContext` and
returns :class:`BigReal` values.  Precision is never read from ambient state:
each operation sets its own working precision from the context it was handed,
so identical inputs always produce identical outputs.

Decimal rendering goes through exact integer arithmetic (the binary mantissa
is scaled by powers of ten and rounded half-to-even at the requested number of
significant digits, and the rounded mantissa becomes digits by the same radix
splitting as digit extraction), so rendered strings are reproducible
bit-for-bit, independent of any formatting library.  Parsing matches `mpf(text)`
bit for bit.  Neither side meets CPython's limit on int/str conversion.

Every result type in the package is an immutable :func:`record`.  Records
are made here, not with `dataclasses`, because every CLI command is a cold
process: importing `dataclasses` loads inspect and ast, and it builds each
class by exec'ing generated methods, about 7 ms plus 0.8 ms a class.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import libmpf

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


def record(cls=None, *, uncompared=()):
    """Make `cls` an immutable record of the fields its body annotates.

    Fields are taken positionally or by keyword, in annotation order; a
    field the body also assigns has that value as its default.  After the
    fields are set, ``__post_init__`` runs if the class defines it.
    Assigning or deleting an attribute raises AttributeError.  Records of
    one class compare and hash field by field, leaving out the fields named
    in `uncompared`.  A method the class body defines, such as its own
    ``__repr__``, is kept.  This is the contract of a frozen dataclass,
    without importing `dataclasses` (see the module docstring).
    """
    if cls is None:
        return lambda c: record(c, uncompared=uncompared)
    name = cls.__qualname__
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    compared = tuple(n for n in names if n not in uncompared)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{name} takes {len(names)} fields, got {len(args)}")
        fields = dict(defaults)
        fields.update(zip(names, args))
        for k, v in kwargs.items():
            if k not in names or names.index(k) < len(args):
                raise TypeError(f"{name} got an unknown or repeated field {k!r}")
            fields[k] = v
        if len(fields) < len(names):
            raise TypeError(f"{name} is missing {[n for n in names if n not in fields]}")
        self.__dict__.update(fields)
        if post_init is not None:
            post_init(self)

    def __setattr__(self, k, v):
        raise AttributeError(f"{name} is immutable: cannot set {k!r}")

    def __delattr__(self, k):
        raise AttributeError(f"{name} is immutable: cannot delete {k!r}")

    def key(self):
        return tuple(getattr(self, n) for n in compared)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({shown})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls


@record
class PrecisionContext:
    """Working precision threaded explicitly through every operation.

    Parameters
    ----------
    bits:
        Binary working precision.  Must be at least 64 and large enough to
        honour ``target_digits + guard_digits`` decimal digits.
    target_digits:
        Number of correct decimal digits the caller wants back.

    Every context carries ``guard_digits`` = 10 extra decimal digits to
    absorb roundoff; operations that detect cancellation widen further on
    their own.
    """

    bits: int
    target_digits: int
    guard_digits = 10

    def __post_init__(self) -> None:
        if self.bits < 64:
            raise ValueError("working precision must be at least 64 bits")
        if self.target_digits < 1:
            raise ValueError("target_digits must be positive")
        needed = math.ceil((self.target_digits + self.guard_digits) * _LOG2_10)
        if self.bits < needed:
            raise ValueError(
                f"bits={self.bits} cannot carry {self.target_digits} target digits "
                f"plus {self.guard_digits} guard digits (needs >= {needed})"
            )

    @classmethod
    def from_digits(cls, target_digits: int) -> "PrecisionContext":
        """Smallest valid context for the requested decimal accuracy."""
        bits = max(64, math.ceil((target_digits + cls.guard_digits) * _LOG2_10) + 4)
        return cls(bits=bits, target_digits=target_digits)

    def widened(self, extra_digits: int) -> "PrecisionContext":
        """A context with `extra_digits` more decimal digits of headroom."""
        return PrecisionContext.from_digits(self.target_digits + extra_digits)


@record
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
        shown = min(max(1, int(self.computed_at_bits / _LOG2_10) - 2), 50)
        try:
            return render_decimal(self.value, shown)
        except DomainError:  # a decimal exponent past RENDER_EXPONENT_CAP
            return mpmath.nstr(self.value, shown, strip_zeros=False)

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
    if isinstance(x, str):
        return _from_decimal(x, ctx.bits + 8)
    with mp.workprec(ctx.bits + 8):
        if isinstance(x, Fraction):
            return mpf(x.numerator) / x.denominator
        if isinstance(x, (int, float)):
            return mpf(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a real number")


def parse_decimal(text: str, ctx: PrecisionContext) -> BigReal:
    """Parse a decimal string at the context's working precision."""
    return make_real(_from_decimal(text, ctx.bits + 8), ctx)


def _from_decimal(text: str, prec: int) -> mpf:
    """`mpf(text)` at `prec` bits, rounded to nearest, for text of any length.

    mpmath's `from_str` step by step, with its `int(str)` replaced by
    `_int`, which CPython's 4300-digit limit does not reach.  Unlike
    `from_str`, it reads a decimal as `float` does: underscores are dropped
    and an empty integer part (".0") is 0.  Raises ValueError on text that
    is not a decimal, a fraction p/q, inf or nan.
    """
    x = text.lower().strip()
    if x in libmpf.special_str:
        return mp.make_mpf(libmpf.special_str[x])
    if "/" in x:
        p, q = x.split("/")
        raw = libmpf.from_rational(_int(p.rstrip("l")), _int(q.rstrip("l")),
                                   prec, libmpf.round_nearest)
        return mp.make_mpf(raw)
    x = x.rstrip("l")
    float(x)  # the literal syntax of a Python float, as from_str checks it
    x = x.replace("_", "")  # from_str would count one after "." as a digit
    exp = 0
    if "e" in x:
        x, e = x.split("e")
        exp = _int(e)
    if "." in x:
        a, b = x.split(".")
        b = b.rstrip("0")
        exp -= len(b)
        x = a + b
    man = _int(x) if x.lstrip("+-") else 0  # ".0" has no integer part
    if abs(exp) > 400:
        raw = libmpf.mpf_mul(libmpf.from_int(man, prec + 10),
                             libmpf.mpf_pow_int(libmpf.ften, exp, prec + 10),
                             prec, libmpf.round_nearest)
    elif exp >= 0:
        raw = libmpf.from_int(man * 10**exp, prec, libmpf.round_nearest)
    else:
        raw = libmpf.from_rational(man, 10**-exp, prec, libmpf.round_nearest)
    return mp.make_mpf(raw)


def _int(text: str) -> int:
    """int(text) with no length limit; all but signed ASCII digits go to int()."""
    digs = text.lstrip("+-")
    if len(text) - len(digs) > 1 or not (digs.isascii() and digs.isdigit()):
        return int(text)
    n = _radix_value([ord(c) - 48 for c in digs], 10)
    return -n if text[:1] == "-" else n


def _to_ratio(x: mpf) -> tuple:
    """(p, q) with x = p/q exactly and q a power of two.

    The mantissa of a normalised mpf is odd, so p/q is in lowest terms
    without a gcd (which would cost as much as the rest of a long digit
    extraction).
    """
    sign, man, exp, _ = x._mpf_
    if man == 0:
        raise ValueError("not a finite nonzero value")
    if sign:
        man = -man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


#: Scaling by 10^|e| costs tenths of a second at |e| = 10^6, superlinear past.
RENDER_EXPONENT_CAP = 10 ** 6

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
    formatting-library behaviour, no double rounding.  A decimal exponent past
    +-RENDER_EXPONENT_CAP raises DomainError before any power of ten is made.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    if not mpmath.isfinite(x):
        raise ValueError(f"cannot render non-finite value {x!r}")
    if x == 0:
        return "0"
    negative, man, exp, bc = x._mpf_
    # Decimal exponent e with 10^e <= |x| < 10^(e+1): float estimate, then
    # exact correction (the estimate can be off by one near powers of ten).
    # With that e, num/den = |x| 10^(digits-1-e) lies in [10^(digits-1), 10^digits),
    # and so does its floor q.
    e = math.floor((bc + exp - 1) / _LOG2_10)
    if not -RENDER_EXPONENT_CAP - 1 <= e <= RENDER_EXPONENT_CAP:  # e is exact or one low
        raise DomainError(f"cannot render a decimal exponent past +-{RENDER_EXPONENT_CAP}")
    top = 10 ** digits
    while True:
        k = digits - 1 - e
        num, den = man * 10 ** max(k, 0), 10 ** max(-k, 0)
        if exp >= 0:
            num <<= exp
        else:
            den <<= -exp
        q, r = divmod(num, den)
        if q >= top:
            e += 1
        elif 10 * q < top:
            e -= 1
        else:
            break
    double_rem = 2 * r
    if double_rem > den or (double_rem == den and q % 2 == 1):
        q += 1
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
