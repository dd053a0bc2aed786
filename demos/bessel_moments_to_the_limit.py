"""Walk the Bessel-moment sequence C_n down to its limit.

C_n = (2^n/n!) * integral of t K0(t)^n over (0, inf).  The first few have
closed forms (C_1 = 2, C_2 = 1, C_4 = 7 zeta(3)/12); the sequence decreases
monotonically to 2 e^(-2 gamma).  This script computes the descent, checks
the C_4 closed form, and then pretends we never knew it: the recognition
engine is handed the raw digits and asked what they are.
"""

from mpmath import mp, mpf

from expmath import bessel_moments, functions, relations
from expmath.precision import PrecisionContext


def main() -> None:
    ctx = PrecisionContext.from_digits(40)
    eps = mpf(10) ** -30

    print("n        C_n (30 digits)                      error bound")
    records = [bessel_moments.c_n(n, ctx, eps) for n in range(1, 9)]
    for rec in records:
        print(f"{rec.n:<8d} {rec.value.to_decimal(30):<36} {rec.error_estimate.to_decimal(2)}")

    limit = bessel_moments.c_infinity(ctx)
    print(f"inf      {limit.to_decimal(30)}   (= 2 exp(-2 gamma))")

    violations = bessel_moments.find_monotonicity_violations(records)
    print(f"\nmonotone descent violations: {len(violations)}")

    # confirm the C_4 closed form against an independently computed zeta(3)
    c4 = next(r for r in records if r.n == 4)
    with mp.workprec(ctx.bits + 16):
        gap = abs(c4.value.value - 7 * functions.zeta3(ctx).value / 12)
        print(f"|C_4 - 7 zeta(3)/12| = {mp.nstr(gap, 3)}")

    # now recover the closed form from digits alone
    matches = relations.recognize(c4.value, relations.standard_basis(["zeta3"], ctx), 28)
    print(f"recognition of C_4 digits: {matches[0].rendering}"
          f"  (coefficients {list(matches[0].coefficients)})")

    basis = relations.standard_basis(relations.DEFAULT_BASIS, ctx)
    matches = relations.recognize(limit, basis, 35)
    print(f"recognition of the limit:  {matches[0].rendering}")


if __name__ == "__main__":
    main()
