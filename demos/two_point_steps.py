"""The two-point step size against classical steepest descent.

On an ill-conditioned quadratic, steepest descent with an *exact* line
search zigzags for a thousand iterations; the two-point (secant) step size
finishes in a handful, with no line search at all.  On any quadratic the
two-point step is a Rayleigh-quotient reciprocal, so it always lies between
the inverse extreme eigenvalues — shown here on a random 5-D SPD instance.
"""

import numpy as np

from expmath import barzilai_borwein as bb


def main() -> None:
    problem = bb.diagonal_quadratic([1.0, 100.0])
    x0 = [100.0, 1.0]

    fast = bb.bb_minimize(problem, x0, tol=1e-8)
    slow = bb.steepest_descent_baseline(problem, x0, tol=1e-8, max_iter=100_000)
    print("F = (x1^2 + 100 x2^2)/2 from (100, 1), tol 1e-8 on |grad|:")
    print(f"  two-point steps:   {fast.iterations:>5d} iterations")
    print(f"  steepest descent:  {slow.iterations:>5d} iterations")

    print("\nfirst few two-point iterations (step size vs the 1/100..1 window):")
    for k, fval, gnorm, gamma in fast.trace[:6]:
        print(f"  k={k}: F={fval:.3e}  |grad|={gnorm:.3e}  gamma={gamma:.6f}")

    spd = bb.random_spd(5, seed=23)
    lo, hi = spd.eigenvalue_range()
    run = bb.bb_minimize(spd, [2.0, -1.0, 0.5, 1.5, -2.0], tol=1e-9)
    gammas = [row[3] for row in run.trace[1:]]  # row 0 is the bootstrap step
    print(f"\nrandom SPD instance: eigenvalues in [{lo:.4f}, {hi:.4f}]")
    print(f"  {len(gammas)} secant steps, all gamma in "
          f"[{min(gammas):.6f}, {max(gammas):.6f}]"
          f"  (allowed [{1/hi:.6f}, {1/lo:.6f}])")
    inside = all(1 / hi - 1e-12 <= g <= 1 / lo + 1e-12 for g in gammas)
    print(f"  bracket respected: {inside}")

    print("\nnonconvex sanity check (Rosenbrock from (-1.2, 1)):")
    rosen = bb.bb_minimize(bb.rosenbrock(), [-1.2, 1.0], tol=1e-8,
                           max_iter=5000, safeguard=True)
    print(f"  converged={rosen.converged} in {rosen.iterations} iterations, "
          f"x = {np.round(rosen.x, 8).tolist()}")


if __name__ == "__main__":
    main()
