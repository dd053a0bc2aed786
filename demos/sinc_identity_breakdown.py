"""The sinc-product identity, and exactly where it stops being one.

For N = 1..6 the shifted-sinc sum 1/2 + sum_n prod_k sinc(n/(2k+1)) equals
the integral of the same product: both are pi/2.  At N = 7 both sides drop
below pi/2 by the same ~2.3e-11 — the sum and integral still agree with each
other, only the pi/2 evaluation breaks.  The integral is an exact rational
multiple of pi there (Borwein's sign-sum formula), so the break is exact.
The driving quantity is the frequency budget sum 1/(2k+1): the pi/2 value
survives while the budget stays under 2, and the sum/integral agreement
survives until it passes 2*pi, which happens at N = 40249.  The budget grows
like ln(N)/2, so 3*pi is only passed at N = 21553437.
"""

from fractions import Fraction

from mpmath import mp, mpf

from expmath import agm, sinc_identity
from expmath.precision import PrecisionContext


def main() -> None:
    ctx = PrecisionContext.from_digits(35)
    eps = mpf(10) ** -25

    with mp.workprec(ctx.bits + 16):
        half_pi = agm.pi_value(ctx).value / 2

    print("N    lhs - pi/2        rhs - pi/2        lhs - rhs")
    for n in range(1, 8):
        rep = sinc_identity.identity_report(n, eps, ctx)
        with mp.workprec(ctx.bits + 16):
            ds = rep.lhs.value - half_pi
            di = rep.rhs.value - half_pi
            print(f"{n:<4d} {mp.nstr(ds, 6):<17} {mp.nstr(di, 6):<17} "
                  f"{mp.nstr(rep.difference.value, 3)}")

    r = sinc_identity.sinc_integral_ratio(7)
    print(f"\nN = 7 exactly: integral = pi * {r}")
    print(f"              = pi/2 - pi * {Fraction(1, 2) - r}")

    print("\nfrequency budgets and first crossings:")
    # 4/3 as an exact Fraction: its 53-bit rounding lies below S(1) = 4/3
    for label, budget in [("4/3", Fraction(4, 3)), ("2", mpf(2)), ("e", mp.e)]:
        with mp.workprec(ctx.bits):
            n = sinc_identity.threshold_scan(+budget, ctx)
        print(f"  budget {label:>4}: first N with sum 1/(2k+1) > budget is {n}")

    with mp.workprec(ctx.bits + 48):
        two_pi = 2 * agm.pi_value(PrecisionContext(ctx.bits + 48, 40)).value
    n_star = sinc_identity.threshold_scan(two_pi, ctx)
    print(f"  budget 2*pi: {n_star}  <- the sum/integral identity fails from here on")
    with mp.workprec(ctx.bits + 48):
        three_pi = 3 * agm.pi_value(PrecisionContext(ctx.bits + 48, 40)).value
    print(f"  budget 3*pi: {sinc_identity.threshold_scan(three_pi, ctx)}")


if __name__ == "__main__":
    main()
