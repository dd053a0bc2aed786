"""Pi from the mean iteration, from quadrature, and from Archimedes.

The quadratic AGM drives a pi algorithm whose correct-digit count doubles
every pass; five iterations at 70 digits is already overkill.  The same
constant falls out of integrating 4/(1+x^2) over (0,1) with the
double-exponential integrator, and both live comfortably inside the
elementary 223/71 < pi < 22/7 bracket.  Along the way: the hypergeometric
identities that characterize the two mean iterations.
"""

from fractions import Fraction

from mpmath import mp, mpf

from expmath import agm, functions, quadrature
from expmath.precision import PrecisionContext


def main() -> None:
    ctx = PrecisionContext.from_digits(70)

    result = agm.gauss_legendre_pi(5, ctx)
    print(f"pi = {result.value.to_decimal(60)}")
    print("per-iteration error against a higher-precision reference:")
    for k, err in enumerate(result.per_iteration_error, start=1):
        print(f"  iteration {k}: {err.to_decimal(3)}")

    lo, hi = Fraction(223, 71), Fraction(22, 7)
    print(f"bracket: 223/71 = {float(lo):.6f} < pi < 22/7 = {float(hi):.6f}")

    quad_ctx = PrecisionContext.from_digits(40)
    r = quadrature.integrate_finite(lambda x: 4 / (1 + x * x), 0, 1,
                                    mpf(10) ** -38, quad_ctx)
    with mp.workprec(ctx.bits + 16):
        gap = abs(r.value.value - result.value.value)
    print(f"integral of 4/(1+x^2) agrees with the iteration to {mp.nstr(gap, 3)}")

    # the identities behind the means: agm2 pairs with 1-k^2, agm3 with 1-k^3
    print("\nmean-iteration identities at k = 0.4:")
    k = mpf("0.4")
    with mp.workprec(ctx.bits + 16):
        q = agm.agm2(mpf(1), k, ctx).value * functions.hyp2f1(
            (1, 2), (1, 2), (1, 1), 1 - k ** 2, ctx).value
        c = agm.agm3(mpf(1), k, ctx).value * functions.hyp2f1(
            (1, 3), (2, 3), (1, 1), 1 - k ** 3, ctx).value
        print(f"  agm2(1,k) * 2F1(1/2,1/2;1;1-k^2) - 1 = {mp.nstr(q - 1, 3)}")
        print(f"  agm3(1,k) * 2F1(1/3,2/3;1;1-k^3) - 1 = {mp.nstr(c - 1, 3)}")


if __name__ == "__main__":
    main()
