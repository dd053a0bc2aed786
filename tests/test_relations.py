"""Integer-relation detection and closed-form recognition."""

import mpmath
import pytest
from mpmath import mp, mpf

from expmath import agm, bessel_moments, functions, relations
from expmath.precision import (
    DomainError,
    PrecisionContext,
    PrecisionError,
    make_real,
    parse_decimal,
)

CINF_50 = "0.63047350337438679612204019271087890435458707871273"

# 50 digits drawn from a seeded RNG; serves as the no-relation control
RANDOM_CONTROL = "0.58274630917245181903642775318960163933860131857559"


class TestFindIntegerRelation:
    def test_doubling_relation(self):
        ctx = PrecisionContext.from_digits(45)
        g = functions.euler_gamma(ctx)
        ctx2 = PrecisionContext.from_digits(45)
        with mp.workprec(ctx2.bits):
            g2 = mpf(2) * g.value
        rel = relations.find_integer_relation([g.value, g2], 40)
        assert rel == (2, -1)

    def test_ordering_flips_coefficients(self):
        ctx = PrecisionContext.from_digits(45)
        g = functions.euler_gamma(ctx)
        with mp.workprec(ctx.bits):
            g2 = mpf(2) * g.value
        rel = relations.find_integer_relation([g2, g.value], 40)
        assert rel == (1, -2)

    def test_bessel_moment_against_zeta(self):
        ctx = PrecisionContext.from_digits(60)
        c4 = bessel_moments.c_n(4, ctx, eps=mpf(10) ** -55)
        z3 = functions.zeta3(ctx)
        rel = relations.find_integer_relation([c4.value.value, z3.value], 50)
        assert rel == (12, -7)

    def test_cross_checked_against_library_pslq(self):
        # synthetic three-term relation 5 x0 - 3 x1 + 2 x2 = 0
        with mp.workprec(220):
            x0 = +mpmath.pi
            x1 = +mpmath.e
            x2 = (-5 * x0 + 3 * x1) / 2
            values = [x0, x1, x2]
        rel = relations.find_integer_relation(values, 50)
        assert rel == (5, -3, 2)
        with mp.workdps(60):
            lib = mpmath.pslq(values)
        assert lib is not None
        if lib[0] < 0:
            lib = [-c for c in lib]
        assert tuple(lib) == rel

    def test_no_relation_between_pi_and_e(self):
        with mp.workprec(200):
            values = [+mpmath.pi, +mpmath.e]
        assert relations.find_integer_relation(values, 40) is None

    def test_no_relation_between_surds(self):
        with mp.workprec(200):
            values = [mpmath.sqrt(2), mpmath.sqrt(3), mpmath.sqrt(5)]
        assert relations.find_integer_relation(values, 40) is None

    def test_coefficient_cap_excludes_large_relations(self, monkeypatch):
        ctx = PrecisionContext.from_digits(60)
        g = functions.euler_gamma(ctx)
        with mp.workprec(ctx.bits):
            big = mpf(1234567) * g.value
        # the only relation is (1234567, -1); the default cap of 10^6 must
        # refuse it rather than report something else
        assert relations.find_integer_relation([g.value, big], 45) is None
        monkeypatch.setattr(relations, "COEFFICIENT_CAP", 10**7)
        assert relations.find_integer_relation([g.value, big], 45) == (1234567, -1)

    def test_gcd_and_sign_normalization(self):
        ctx = PrecisionContext.from_digits(45)
        g = functions.euler_gamma(ctx)
        with mp.workprec(ctx.bits):
            g4 = mpf(4) * g.value
            g6 = mpf(6) * g.value
        # raw relation (3, -2) is already reduced; anything like (6, -4)
        # would violate the lowest-terms contract
        rel = relations.find_integer_relation([g4, g6], 40)
        assert rel == (3, -2)

    def test_chance_relation_is_passed_over(self):
        # at 15 digits the acceptance threshold is 10^0, and
        # gamma + 2 e^{-2 gamma} - zeta(3) = 0.0056 falls below it; with
        # coefficients (1, 2, -1) it misses the chance rule by 13 digits, so
        # the search goes past it to the true relation 20 * 0.15 = 3
        ctx = PrecisionContext.from_digits(25)
        basis = [b.value for b in relations.standard_basis(relations.DEFAULT_BASIS, ctx)]
        assert relations.find_integer_relation(basis, 15) is None
        target = parse_decimal("0.15", ctx)
        assert relations.find_integer_relation([target] + basis, 15) == (20, -3, 0, 0, 0, 0)

    def test_zero_last_value_is_its_own_relation(self):
        assert relations.find_integer_relation([mpf(1), mpf(0)], 30) == (0, 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            relations.find_integer_relation([mpf(1)], 40)
        with pytest.raises(DomainError):
            relations.find_integer_relation([mpf(1), mpf(2)], 5)


class TestBasis:
    def test_registry_contents(self):
        names = relations.basis_names()
        for expected in ("one", "gamma", "em2gamma", "zeta3", "pi", "pi2", "e"):
            assert expected in names

    def test_unknown_name_rejected(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(DomainError):
            relations.standard_basis(["feigenbaum"], ctx)

    def test_constants_regenerate_at_requested_precision(self):
        ctx40 = PrecisionContext.from_digits(40)
        ctx80 = PrecisionContext.from_digits(80)
        (z3,) = relations.standard_basis(["zeta3"], ctx40)
        sharper = z3.make(ctx80)
        with mp.workprec(ctx80.bits + 32):
            assert abs(sharper.value - mpmath.zeta(3)) < mpf(10) ** -78

    def test_default_basis_composition(self):
        ctx = PrecisionContext.from_digits(30)
        names = [b.name for b in relations.standard_basis(relations.DEFAULT_BASIS, ctx)]
        assert names == ["one", "gamma", "em2gamma", "zeta3", "pi2"]


class TestMatchValidation:
    def test_rejects_zero_vector(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(ValueError):
            relations.RecognitionMatch(
                coefficients=(0, 0),
                residual=parse_decimal("1e-20", ctx),
                confidence_digits=20,
                rendering="",
            )

    def test_rejects_unreduced_coefficients(self):
        ctx = PrecisionContext.from_digits(30)
        with pytest.raises(ValueError):
            relations.RecognitionMatch(
                coefficients=(2, -4),
                residual=parse_decimal("1e-20", ctx),
                confidence_digits=20,
                rendering="",
            )


class TestRecognize:
    def test_limit_constant_from_decimal_string(self):
        ctx = PrecisionContext.from_digits(60)
        value = parse_decimal(CINF_50, ctx)
        basis = relations.standard_basis(relations.DEFAULT_BASIS, ctx)
        matches = relations.recognize(value, basis, 50)
        assert matches, "the limit constant went unrecognized"
        top = matches[0]
        assert top.coefficients == (1, 0, 0, -2, 0, 0)
        assert top.rendering == "2*exp(-2*gamma)"
        assert top.confidence_digits >= 45

    def test_moment_as_rational_multiple_of_zeta3(self):
        ctx = PrecisionContext.from_digits(60)
        c4 = bessel_moments.c_n(4, ctx, eps=mpf(10) ** -55)
        basis = relations.standard_basis(["zeta3"], ctx)
        matches = relations.recognize(c4.value, basis, 50)
        assert matches
        assert matches[0].coefficients == (12, -7)
        assert matches[0].rendering == "7/12*zeta(3)"

    def test_three_constant_combination(self):
        # v = (8 pi^2 - 63 zeta(3) - 3)/18, so (18, -8, 63, 3) against the
        # basis (pi^2, zeta(3), 1)
        ctx = PrecisionContext.from_digits(70)
        basis = relations.standard_basis(["pi2", "zeta3", "one"], ctx)
        with mp.workprec(ctx.bits):
            v = (8 * basis[0].value.value - 63 * basis[1].value.value - 3) / 18
        matches = relations.recognize(v, basis, 55)
        assert matches
        assert matches[0].coefficients == (18, -8, 63, 3)

    def test_one_search_over_the_whole_basis(self, monkeypatch):
        calls = []
        real = relations._pslq

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(relations, "_pslq", counting)
        ctx = PrecisionContext.from_digits(60)
        basis = relations.standard_basis(relations.DEFAULT_BASIS, ctx)
        matches = relations.recognize(parse_decimal(CINF_50, ctx), basis, 50)
        assert matches[0].rendering == "2*exp(-2*gamma)"
        assert len(calls) == 1

    def test_relation_inside_the_basis_is_dropped_and_retried(self, monkeypatch):
        # 1 - 2 pi + (2 pi - 1) = 0 is found first; pi, its largest
        # coefficient, is dropped, and 3/7 + pi = 13/14 + (2 pi - 1)/2 found
        def make(c):
            wide = c.widened(10)
            p = agm.pi_value(wide)
            with mp.workprec(wide.bits):
                return make_real(2 * p.value - 1, c)

        calls = []
        real = relations._pslq

        def counting(xs, *args):
            calls.append(real(xs, *args))
            return calls[-1]

        monkeypatch.setattr(relations, "_pslq", counting)
        ctx = PrecisionContext.from_digits(50)
        basis = relations.standard_basis(["one", "pi"], ctx)
        basis.append(relations.BasisConstant("two_pi_minus_one", "(2*pi - 1)", make, make(ctx)))
        with mp.workprec(ctx.bits):
            value = mpf(3) / 7 + basis[1].value.value
        matches = relations.recognize(value, basis, 40)
        assert calls == [[0, 1, -2, 1], [14, -13, -7]]
        assert [m.coefficients for m in matches] == [(14, -13, 0, -7)]
        assert matches[0].rendering == "13/14 + 1/2*(2*pi - 1)"

    def test_plain_rational(self):
        ctx = PrecisionContext.from_digits(40)
        basis = relations.standard_basis(["one"], ctx)
        matches = relations.recognize(parse_decimal("0.5", ctx), basis, 30)
        assert matches
        assert matches[0].coefficients == (2, -1)
        assert matches[0].rendering == "1/2"

    # below 45 digits, chance relations with coefficients up to ~10^5 fit a
    # residual of 10^-(digits - SAFETY_DIGITS); their size must be paid for
    @pytest.mark.parametrize("digits", [30, 35, 40, 45])
    def test_random_control_finds_nothing(self, digits):
        ctx = PrecisionContext.from_digits(60)
        value = parse_decimal(RANDOM_CONTROL, ctx)
        basis = relations.standard_basis(relations.DEFAULT_BASIS, ctx)
        assert relations.recognize(value, basis, digits) == []

    def test_residual_plateau_in_the_search_finds_nothing(self, monkeypatch):
        def plateau(*args):
            raise PrecisionError("residual plateau")

        monkeypatch.setattr(relations, "_pslq", plateau)
        ctx = PrecisionContext.from_digits(60)
        basis = relations.standard_basis(["one"], ctx)
        assert relations.recognize(parse_decimal("0.5", ctx), basis, 30) == []

    def test_every_basis_constant_dropped_finds_nothing(self):
        # 0 * value + 1 * 0 = 0 leaves the value out; its one basis constant
        # is dropped and no constant is left to search
        ctx = PrecisionContext.from_digits(60)
        zero = relations.BasisConstant("zero", "0", lambda c: make_real(0, c), make_real(0, ctx))
        assert relations.recognize(parse_decimal("0.5", ctx), [zero], 30) == []

    def test_relation_that_fails_reverification_is_dropped(self):
        # the stored 1 gives (2, -1) at once; regenerated, the constant reads
        # 1 + 10^-10 and the residual misses the 10^-15 acceptance threshold
        ctx = PrecisionContext.from_digits(60)

        def drifting(c):
            with mp.workprec(c.bits):
                return make_real(1 + mpf(10) ** -10, c)

        one = relations.BasisConstant("one", "1", drifting, make_real(1, ctx))
        assert relations.recognize(parse_decimal("0.5", ctx), [one], 30) == []

    def test_too_coarse_a_value_is_an_error(self):
        # 104 bits cannot answer for 50 digits, whatever the search finds
        value = parse_decimal(CINF_50, PrecisionContext.from_digits(20))
        basis = relations.standard_basis(relations.DEFAULT_BASIS, PrecisionContext.from_digits(60))
        with pytest.raises(PrecisionError):
            relations.recognize(value, basis, 50)

    def test_matches_sorted_by_residual_then_size(self):
        ctx = PrecisionContext.from_digits(60)
        value = parse_decimal(CINF_50, ctx)
        basis = relations.standard_basis(relations.DEFAULT_BASIS, ctx)
        matches = relations.recognize(value, basis, 50)
        residuals = [m.residual.value for m in matches]
        assert residuals == sorted(residuals)

    def test_matches_survive_reevaluation_at_higher_precision(self):
        # soundness: rebuild every matched combination from scratch with 20
        # extra digits; a genuine relation keeps its residual tiny, a lucky
        # numerical coincidence would blow up
        digits = 40
        ctx = PrecisionContext.from_digits(digits + 10)
        value = parse_decimal(CINF_50, ctx)
        basis = relations.standard_basis(relations.DEFAULT_BASIS, ctx)
        matches = relations.recognize(value, basis, digits)
        assert matches
        hi = PrecisionContext.from_digits(digits + 30)
        hi_value = parse_decimal(CINF_50, hi).value
        with mp.workprec(hi.bits):
            for m in matches:
                acc = m.coefficients[0] * hi_value
                for coeff, const in zip(m.coefficients[1:], basis):
                    acc += coeff * const.make(hi).value
                assert abs(acc) < mpf(10) ** (-(digits - 5))

    def test_scale_coherence(self):
        # multiplying the target and every basis constant by the same factor
        # leaves the relation vector unchanged
        ctx = PrecisionContext.from_digits(60)
        c4 = bessel_moments.c_n(4, ctx, eps=mpf(10) ** -55)
        plain = relations.standard_basis(["zeta3"], ctx)
        with mp.workprec(ctx.bits):
            scale = mpf(3)
            scaled_value = scale * c4.value.value
        def times_three(b):
            def make(c):
                with mp.workprec(c.bits + 8):
                    return make_real(b.make(c).value * 3, c)

            return make

        scaled_basis = [
            relations.BasisConstant(b.name, b.render, times_three(b), times_three(b)(ctx))
            for b in plain
        ]
        direct = relations.recognize(c4.value, plain, 45)
        scaled = relations.recognize(make_real(scaled_value, ctx), scaled_basis, 45)
        assert direct and scaled
        assert direct[0].coefficients == scaled[0].coefficients == (12, -7)
