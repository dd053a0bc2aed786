import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from expmath import (
    agm,
    barzilai_borwein,
    bessel_moments,
    digit_walks,
    quadrature,
    relations,
    sinc_identity,
)
from expmath.precision import (
    BigReal,
    DomainError,
    PrecisionContext,
    _from_decimal,
    _to_ratio,
    as_mpf,
    make_real,
    parse_decimal,
    render_decimal,
)


class TestPrecisionContext:
    def test_from_digits_carries_enough_bits(self):
        ctx = PrecisionContext.from_digits(50)
        assert ctx.target_digits == 50
        assert ctx.bits >= math.ceil((50 + ctx.guard_digits) * math.log2(10))

    def test_rejects_insufficient_bits(self):
        with pytest.raises(ValueError):
            PrecisionContext(bits=100, target_digits=50)

    def test_rejects_tiny_bits(self):
        with pytest.raises(ValueError):
            PrecisionContext(bits=32, target_digits=5)

    def test_widened_adds_digits(self):
        ctx = PrecisionContext.from_digits(30)
        wide = ctx.widened(20)
        assert wide.target_digits == 50
        assert wide.bits > ctx.bits


def _real(x, bits=64):
    return BigReal(mpf(x), bits)


#: every record, as (class, its fields by keyword, one field changed)
_RECORDS = [
    (PrecisionContext, {"bits": 100, "target_digits": 5}, {"bits": 101}),
    (BigReal, {"value": mpf(1) / 3, "computed_at_bits": 64}, {"computed_at_bits": 65}),
    (quadrature.QuadratureRule, {"level": 2, "h": mpf(0.25), "nodes": ((mpf(0), mpf(1)),)},
     {"level": 3}),
    (quadrature.IntegralResult,
     {"value": _real(1), "error_estimate": _real(0), "levels_used": 3, "converged": True,
      "level_differences": (_real(2),)},
     {"converged": False}),
    (quadrature.DecayCertificate, {"beyond": 1.0, "log_bound": abs}, {"beyond": 2.0}),
    (bessel_moments.CnRecord, {"n": 1, "value": _real(1), "error_estimate": _real(0)},
     {"n": 2}),
    (agm.AGMState, {"a": mpf(2), "b": mpf(1), "iteration": 0}, {"iteration": 1}),
    (agm.PiResult, {"value": _real(3), "iterations": 3, "per_iteration_error": (1e-3,)},
     {"iterations": 4}),
    (sinc_identity.SincIdentityReport,
     {"N": 1, "lhs": _real(1), "rhs": _real(1), "difference": _real(0),
      "truncation_bound": _real(0)},
     {"N": 2}),
    (digit_walks.DigitStream, {"constant": "pi", "base": 10, "digits": (3, 1, 4)},
     {"digits": (3, 1, 5)}),
    (digit_walks.WalkPath, {"points": ((0, 0), (1, 0))}, {"points": ((0, 0),)}),
    (relations.BasisConstant, {"name": "pi", "render": "pi", "make": abs, "value": _real(3)},
     {"render": "π"}),
    (relations.RecognitionMatch,
     {"coefficients": (1, -2), "residual": _real(0), "confidence_digits": 30,
      "rendering": "x = 2"},
     {"confidence_digits": 31}),
    (barzilai_borwein.ObjectiveFunction, {"dimension": 2, "evaluate": abs, "gradient": abs},
     {"dimension": 3}),
    (barzilai_borwein.MinimizeResult,
     {"x": (0.0, 0.0), "fx": 0.0, "iterations": 1, "converged": True,
      "trace": ((0, 0.0, 0.0, 1.0),)},
     {"fx": 1.0}),
]


@pytest.mark.parametrize("cls, fields, change", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
class TestRecordContract:
    def test_positional_and_keyword_construction_agree(self, cls, fields, change):
        by_name, by_place = cls(**fields), cls(*fields.values())
        assert by_name == by_place and hash(by_name) == hash(by_place)
        assert all(getattr(by_place, k) is v for k, v in fields.items())
        assert by_name != cls(**{**fields, **change})

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, change):
        rec = cls(**fields)
        for k in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(rec, k, 0)
            with pytest.raises(AttributeError):
                delattr(rec, k)
        assert all(getattr(rec, k) is v for k, v in fields.items())

    def test_construction_checks_its_fields(self, cls, fields, change):
        with pytest.raises(TypeError):
            cls(*fields.values(), 0)
        with pytest.raises(TypeError):
            cls(*fields.values(), **{next(iter(fields)): 0})
        with pytest.raises(TypeError):
            cls(**fields, extra=0)
        with pytest.raises(TypeError):
            cls(**dict(list(fields.items())[1:]))


class TestRecords:
    def test_integral_result_defaults_level_differences(self):
        r = quadrature.IntegralResult(_real(1), _real(0), 0, True)
        assert r.level_differences == ()

    def test_basis_constant_compares_without_its_value(self):
        a = relations.BasisConstant("pi", "pi", abs, _real(3))
        b = relations.BasisConstant("pi", "pi", abs, _real(4))
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PrecisionContext(bits=63, target_digits=5),
            lambda: bessel_moments.CnRecord(1, _real("0.63"), _real(0)),
            lambda: bessel_moments.CnRecord(1, _real("2.01"), _real(0)),
            lambda: digit_walks.DigitStream("pi", 4, (3, 4)),
            lambda: relations.RecognitionMatch((2, -4), _real(0), 30, "x = 2"),
        ],
        ids=["context-bits", "cn-low", "cn-high", "digit-range", "match-gcd"],
    )
    def test_post_init_validation_raises(self, build):
        with pytest.raises(ValueError):
            build()

    def test_repr(self):
        third = BigReal(mp.make_mpf(from_rational(1, 3, 64, round_nearest)), 64)
        assert repr(third) == "BigReal(0.33333333333333333, bits=64)"
        assert str(third) == "0.33333333333333333"
        assert repr(PrecisionContext(100, 5)) == "PrecisionContext(bits=100, target_digits=5)"
        assert repr(digit_walks.WalkPath(((0, 0),))) == "WalkPath(points=((0, 0),))"

    def test_guard_digits_is_a_class_constant_not_a_field(self):
        ctx = PrecisionContext(100, 5)
        assert ctx.guard_digits == PrecisionContext.guard_digits == 10
        with pytest.raises(TypeError):
            PrecisionContext(100, 5, 10)


class TestRendering:
    def test_pi_fifteen_digits(self):
        ctx = PrecisionContext.from_digits(30)
        with mp.workprec(ctx.bits):
            x = make_real(+mpmath.pi, ctx)
        assert x.to_decimal(15) == "3.14159265358979"

    def test_round_half_even_is_exact(self):
        # 0.125 is exact in binary; 2-digit rendering must go to 0.12 (even)
        ctx = PrecisionContext.from_digits(20)
        x = make_real(mpf("0.125"), ctx)
        assert x.to_decimal(2) == "0.12"
        assert make_real(mpf("0.375"), ctx).to_decimal(2) == "0.38"

    def test_all_nines_ripple(self):
        ctx = PrecisionContext.from_digits(20)
        x = make_real(mpf("0.999999999"), ctx)
        assert x.to_decimal(5) == "1.0000"

    def test_scientific_for_tiny(self):
        ctx = PrecisionContext.from_digits(20)
        with mp.workprec(ctx.bits):
            x = make_real(mpf(10) ** -30 * 3, ctx)
        out = x.to_decimal(3)
        assert "e-30" in out

    def test_positional_for_moderate(self):
        ctx = PrecisionContext.from_digits(20)
        assert make_real(mpf("0.001953125"), ctx).to_decimal(4).startswith("0.001953")
        assert make_real(mpf(1024), ctx).to_decimal(4) == "1024"

    def test_zero(self):
        ctx = PrecisionContext.from_digits(20)
        assert make_real(mpf(0), ctx).to_decimal(10) == "0"

    def test_negative(self):
        ctx = PrecisionContext.from_digits(20)
        assert make_real(mpf("-2.5"), ctx).to_decimal(2) == "-2.5"

    @pytest.mark.parametrize("digits", [1, 7, 19, 40])
    def test_agrees_with_mpmath_nstr_prefix(self, digits):
        """Cross-check the exact renderer against mpmath on a benign value."""
        ctx = PrecisionContext.from_digits(45)
        with mp.workprec(ctx.bits):
            v = mpmath.sqrt(mpf(2))
        ours = make_real(v, ctx).to_decimal(digits)
        with mp.workprec(ctx.bits):
            theirs = mpmath.nstr(v, digits, strip_zeros=False)
        assert ours[: min(len(ours), digits + 1)] == theirs[: min(len(ours), digits + 1)]

    # both values sit where the binary-exponent estimate of e reaches the cap
    @pytest.mark.parametrize("text, rendered", [("9.5e1000000", "9.5000e+1000000"),
                                                ("1.01e-1000000", "1.0100e-1000000")])
    def test_exponent_at_the_cap_renders(self, text, rendered):
        with mp.workprec(100):
            x = mpf(text)
        assert render_decimal(x, 5) == rendered

    @pytest.mark.parametrize("text", ["5e1000001", "1e-1000001", "2.14e-2252161657625246291"])
    def test_exponent_past_the_cap_is_refused_at_once(self, text):
        # 10^|e| is never formed: a refusal costs microseconds where the
        # scaling would take seconds, or, for the last value, never finish
        with mp.workprec(100):
            x = mpf(text)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="decimal exponent"):
            render_decimal(x, 20)
        assert time.perf_counter() - start < 0.05

    def test_str_and_repr_render_past_the_cap(self):
        # str() and repr() serve logs and debuggers, so a legitimate value
        # past the cap, such as K0(3e6) ~ 2.59e-1302887, prints through mpmath
        from expmath import functions

        ctx = PrecisionContext.from_digits(30)
        v = functions.bessel_k0(3 * 10 ** 6, ctx)
        text = str(v)
        assert text.startswith("2.592922507549432661877") and text.endswith("e-1302887")
        assert repr(v) == f"BigReal({text}, bits={ctx.bits})"
        # inside the cap both still go through the exact renderer
        with mp.workprec(ctx.bits):
            inside = make_real(mpf("9.5e1000000"), ctx)
        assert str(inside) == render_decimal(inside.value, 39)


class TestParsingAndCoercion:
    def test_parse_round_trip(self):
        ctx = PrecisionContext.from_digits(50)
        s = "0.63047350337438679612204019271087890435458707871273"
        x = parse_decimal(s, ctx)
        assert x.to_decimal(50) == s

    def test_parse_negative_exponent_forms(self):
        ctx = PrecisionContext.from_digits(30)
        a = parse_decimal("1.5e-3", ctx)
        b = parse_decimal("0.0015", ctx)
        assert a.value == b.value

    # exponents up to three digits reach from_str's large-exponent branch
    # (|exp| > 400); underscores go between digits, as a float literal has them
    @given(
        text=st.from_regex(
            r"[+-]?(D(\.(D)?)?|\.D)([eE][+-]?[0-9](_?[0-9]){0,2})?".replace(
                "D", "[0-9](_?[0-9]){0,39}"
            ),
            fullmatch=True,
        ),
        bits=st.sampled_from([53, 64, 113, 200, 400]),
    )
    def test_parser_is_bit_identical_to_mpf(self, text, bits):
        plain = text.replace("_", "")  # mpmath counts one after "." as a digit
        try:
            with mp.workprec(bits):
                expected = mpf(plain)._mpf_
        except ValueError:  # mpmath turns down a few float literals, such as ".0"
            exact = Fraction(plain)
            expected = from_rational(exact.numerator, exact.denominator, bits, round_nearest)
        assert _from_decimal(text, bits)._mpf_ == expected

    def test_parse_past_the_int_to_str_limit(self):
        # CPython's int(str) stops at 4300 digits; 0.1...1 with 5000 ones is
        # (10^5000 - 1) / (9 * 10^5000) exactly
        ctx = PrecisionContext.from_digits(50)
        v = parse_decimal("0." + "1" * 5000, ctx).value
        exact = Fraction(10**5000 - 1, 9 * 10**5000)
        _, man, exp, bc = v._mpf_
        ulp = Fraction(2) ** (bc + exp - (ctx.bits + 8))
        assert abs(Fraction(*_to_ratio(v)) - exact) <= ulp

    @pytest.mark.parametrize(
        "digits",
        [
            "0." + "1" * 5000,
            # the leading half of the mantissa text is all zeros
            "0." + "0" * 2600 + "1" * 2500,
            "1" * 2600 + "." + "7" * 2500 + "3",
            "1" * 5000 + "/" + "3" * 4999,
        ],
        ids=["ones", "zero-half", "mixed", "ratio"],
    )
    def test_long_negative_text_is_the_exact_negation(self, digits):
        # at 40,000 bits a wrong low half of a 5000-digit mantissa would show
        ctx = PrecisionContext(bits=40000, target_digits=10000)
        pos = parse_decimal(digits, ctx).value
        neg = parse_decimal("-" + digits, ctx).value
        # the same mantissa and exponent, the sign bit set
        assert pos._mpf_[0] == 0 and pos._mpf_[1] > 0
        assert neg._mpf_ == (1,) + pos._mpf_[1:]
        assert parse_decimal("+" + digits, ctx).value._mpf_ == pos._mpf_

    def test_as_mpf_accepts_fraction(self):
        ctx = PrecisionContext.from_digits(30)
        v = as_mpf(Fraction(1, 3), ctx)
        with mp.workprec(ctx.bits):
            assert abs(v - mpf(1) / 3) < mpf(2) ** (-ctx.bits + 4)

    def test_as_mpf_accepts_int_and_bigreal(self):
        ctx = PrecisionContext.from_digits(30)
        assert as_mpf(7, ctx) == 7
        br = make_real(mpf(3), ctx)
        assert as_mpf(br, ctx) == 3

    def test_as_mpf_rejects_garbage(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises((DomainError, TypeError, ValueError)):
            as_mpf(object(), ctx)

    def test_float_export(self):
        ctx = PrecisionContext.from_digits(30)
        assert float(make_real(mpf("0.5"), ctx)) == 0.5
