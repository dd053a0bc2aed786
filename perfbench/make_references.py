"""Regenerate perfbench/references.json from mpmath alone (never expmath).

    python3 perfbench/make_references.py

C_n = (2^n/n!) int_0^inf t K0(t)^n dt for the pooled n of the `moments`
workload, by `mpmath.besselk` under `mpmath.quad`.  Takes several minutes.
"""

import json
import os

import mpmath
from mpmath import mp

from workloads import MID_N_BANDS

#: the n the `moments` workload draws its mid-range requests from
POOL = sorted(n for band, _ in MID_N_BANDS for n in band)
DIGITS = 64


def bessel_moment(n):
    f = lambda t: t * mpmath.besselk(0, t) ** n
    value, err = mpmath.quad(f, [0, 0.25, 1, 3, 8, mpmath.inf], error=True)
    scale = mpmath.mpf(2) ** n / mpmath.factorial(n)
    return scale * value, scale * err


def main():
    out = {}
    with mp.workdps(DIGITS + 8):
        for n in POOL:
            value, err = bessel_moment(n)
            if not err < mpmath.mpf(10) ** -(DIGITS - 2):
                raise SystemExit(f"C_{n}: mpmath.quad error estimate {err} too large")
            out[str(n)] = mpmath.nstr(value, DIGITS, strip_zeros=False)
            print(n, out[str(n)], flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path, "w") as fh:
        json.dump({"digits": DIGITS, "c_n": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
