"""Answer checks.  Every reference is a closed form, a committed mpmath table
(references.json, made by make_references.py) or an mpmath routine; none
comes from expmath.

`check(task, output)` returns None when the output is right and a short
reason when it is not.  For CLI tasks the output is
{"exit_code", "stdout", "files"}.
"""

import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

WORK_DPS = 120
# the Champernowne reference is built from a decimal string of ~10^4 digits
sys.set_int_max_str_digits(0)
GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyz"
DIRECTIONS = ((1, 0), (0, 1), (-1, 0), (0, -1))
BASIS_NAMES = ["e", "em2gamma", "gamma", "one", "pi", "pi2", "zeta3"]


@functools.lru_cache(maxsize=None)
def _table():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")) as fh:
        return json.load(fh)["c_n"]


def c_infinity():
    return 2 * mpmath.exp(-2 * mpmath.euler)


def c_n(n):
    """C_n: closed forms for n <= 4, the mpmath table, and C_inf for n >= 96,
    where C_n - C_inf < 2e-28 (the gap shrinks ~200x per 8 steps of n from
    1.8e-14 at n = 48)."""
    closed = {
        1: lambda: mpf(2),
        2: lambda: mpf(1),
        3: lambda: (mpmath.psi(1, mpf(1) / 3) - mpmath.psi(1, mpf(2) / 3)) / 9,  # L_-3(2)
        4: lambda: 7 * mpmath.zeta(3) / 12,
    }
    if n in closed:
        return closed[n]()
    if str(n) in _table():
        return mpf(_table()[str(n)])
    if n >= 96:
        return c_infinity()
    raise KeyError(f"no reference for C_{n}")


def _num(text):
    return mpf(text.strip())


def _near(text, ref, tol, label):
    try:
        value = _num(text)
    except (ValueError, TypeError):
        return f"{label}: unparseable {text!r}"
    if abs(value - ref) > tol:
        return f"{label}: {mpmath.nstr(value, 20)} differs from reference {mpmath.nstr(ref, 20)} by more than {mpmath.nstr(tol, 3)}"
    return None


def threshold_n(text):
    """Smallest N with sum_{k<=N} 1/(2k+1) > T, by psi for large N."""
    if "/" in text:
        p, q = text.split("/")
        t = Fraction(int(p), int(q))
        total, n = Fraction(0), 0
        while True:
            total += Fraction(1, 2 * n + 1)
            if total > t:
                return n
            n += 1
    t = mpf(text)
    partial = lambda n: mpmath.psi(0, n + mpf(3) / 2) / 2 + mpmath.euler / 2 + mpmath.ln(2)
    n = int(mpmath.exp(2 * t - mpmath.euler - 2 * mpmath.ln(2)) - 1.5)
    while partial(n) > t:
        n -= 1
    while not partial(n) > t:
        n += 1
    if min(abs(partial(n) - t), abs(partial(n - 1) - t)) < mpf(10) ** -40:
        raise ValueError(f"threshold {text} is too close to a crossing to decide")
    return n


def _champernowne(count):
    pieces, length, k = [], 0, 1
    while length < count:
        pieces.append(str(k))
        length += len(pieces[-1])
        k += 1
    return "".join(pieces)


def _to_base(n, base, width):
    """n as exactly `width` base-`base` glyphs, most significant first."""
    if width <= 64:
        out = []
        for _ in range(width):
            n, d = divmod(n, base)
            out.append(GLYPHS[d])
        return "".join(reversed(out))
    low = width // 2
    high, rest = divmod(n, base ** low)
    return _to_base(high, base, width - low) + _to_base(rest, base, low)


@functools.lru_cache(maxsize=64)
def constant_digits(constant, base, count):
    """First `count` base-`base` digits, integer part first (none when it is 0)."""
    bits = int(count * math.log2(base)) + 96
    if constant.startswith("champernowne-"):
        text = _champernowne(int(bits / 3.3) + 32)
        x = Fraction(int(text), 10 ** len(text))
    else:
        with mp.workprec(bits + 64):
            value = {"pi": lambda: +mpmath.pi, "e": lambda: +mpmath.e, "gamma": lambda: +mpmath.euler,
                     "zeta3": lambda: mpmath.zeta(3)}[constant]()
            man, exp = mpmath.frexp(value)
            x = Fraction(int(mpmath.ldexp(man, bits + 64)), 2 ** (bits + 64 - int(exp)))
    whole = int(x)
    head = ""
    while whole:
        whole, d = divmod(whole, base)
        head = GLYPHS[d] + head
    frac_count = count - len(head)
    frac = int((x - int(x)) * base ** frac_count)
    return head + _to_base(frac, base, frac_count)


def walk_points(digit_text):
    x = y = 0
    pts = [(0, 0)]
    for ch in digit_text:
        dx, dy = DIRECTIONS[GLYPHS.index(ch) % 4]
        x, y = x + dx, y + dy
        pts.append((x, y))
    return pts


def _check_image(fmt, size, head, nbytes):
    if fmt == "ppm":
        header = f"P6\n{size} {size}\n255\n"
        if not head.startswith(header) or nbytes != len(header) + 3 * size * size:
            return "ppm header or size wrong"
    elif not (head.startswith("<?xml") and "<svg" in head):
        return "svg header wrong"
    return None


def _check_library(task, out):
    kind = task["kind"]
    if kind == "c_n":
        tol = mpf(10) ** -task["eps_exp"] + (mpf("2e-28") if task["n"] >= 96 else 0)
        return _near(out["value"], c_n(task["n"]), tol, f"C_{task['n']}")
    if kind == "c_infinity":
        return _near(out["value"], c_infinity(), mpf(10) ** -task["digits"], "C_inf")
    if kind == "c2":
        return _near(out["value"], mpf(1), mpf(10) ** -task["eps_exp"], "C_2 (2-D)")
    if kind == "recognize":
        found = out["renderings"][:1]
        return None if found == [task["rendering"]] else f"recognized {found}, expected {task['rendering']}"
    if kind == "sinc":
        tol = mpf(10) ** -task["eps_exp"]
        return _near(out["lhs"], mpmath.pi / 2, tol, "sinc sum") or _near(out["rhs"], mpmath.pi / 2, tol, "sinc integral")
    if kind == "threshold":
        ref = threshold_n(task["value"])
        return None if out["n"] == ref else f"threshold {task['value']}: got {out['n']}, expected {ref}"
    if kind == "agm":
        b, z, k = mpf(task["b"]), mpf(task["z"]), task["order"]
        a, c = (mpf(1) / 2, mpf(1) / 2) if k == 2 else (mpf(1) / 3, mpf(2) / 3)
        mean = mpmath.agm(1, b) if k == 2 else 1 / mpmath.hyp2f1(a, c, 1, 1 - b ** 3)
        tol = mpf(10) ** -28
        return _near(out["mean"], mean, tol, f"agm{k}") or _near(out["hyp2f1"], mpmath.hyp2f1(a, c, 1, z), tol, "2F1")
    if kind == "pi":
        # Salamin-Brent: pi - p_k <= pi^2 2^{k+4} e^{-pi 2^{k+1}}
        k = task["iterations"]
        bound = mpmath.pi ** 2 * 2 ** (k + 4) * mpmath.exp(-mpmath.pi * 2 ** (k + 1))
        return _near(out["value"], mpmath.pi, bound + mpf(10) ** -(task["digits"] - 1), f"pi after {k} iterations")
    if kind == "bb":
        if not (out["bb_converged"] and out["sd_converged"]):
            return "a method did not converge"
        if not out["bb_iterations"] < out["sd_iterations"]:
            return f"BB took {out['bb_iterations']} iterations, steepest descent {out['sd_iterations']}"
        if max(abs(v) for v in out["bb_x"]) > 1e-7:
            return "BB minimizer is not the origin"
        return None
    if kind == "walk":
        ref = constant_digits(task["constant"], task["base"], task["count"])
        if out["digits"] != ref:
            where = next((i for i, (p, q) in enumerate(zip(out["digits"], ref)) if p != q), min(len(out["digits"]), len(ref)))
            return f"{task['constant']} base {task['base']}: digit {where} differs"
        if out["points"] != task["count"] + 1 or tuple(out["end"]) != walk_points(ref)[-1]:
            return "walk does not follow the digits"
        return _check_image(task["format"], task["size"], out["image_head"], out["image_bytes"])
    raise KeyError(kind)


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _check_cli(task, out):
    argv, text = task["argv"], out["stdout"]
    if out["exit_code"] != 0:
        return f"exit code {out['exit_code']}"
    name = task["name"]
    digits = int(_flag(argv, "--digits", "30"))
    tol = mpf(10) ** -(digits - 1)
    if name == "cinf":
        return _near(text, c_infinity(), mpf(10) ** -digits, "C_inf")
    if name == "cn-csv":
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        if [int(r[0]) for r in rows] != list(range(1, 7)):
            return "cn csv rows wrong"
        return next((r for r in (_near(row[1], c_n(int(row[0])), tol, f"C_{row[0]}") for row in rows) if r), None)
    if name == "cn-json":
        return _near(json.loads(text)["records"][0]["value"], c_n(4), tol, "C_4")
    if name.startswith("threshold"):
        ref = 40249 if name == "threshold" else threshold_n(_flag(argv, "--threshold"))
        return None if text.strip() == str(ref) else f"threshold printed {text.strip()!r}, expected {ref}"
    if name == "sinc":
        doc = json.loads(text)
        return _near(doc["lhs"], mpmath.pi / 2, tol, "sinc sum") or _near(doc["rhs"], mpmath.pi / 2, tol, "sinc integral")
    if name == "pi":
        return _near(text.splitlines()[0].split(",")[1], mpmath.pi, tol, "pi")
    if name == "agm2":
        return _near(text.splitlines()[0], mpmath.agm(1, mpf(_flag(argv, "--b"))), tol, "agm2")
    if name == "agm3":
        b = mpf(_flag(argv, "--b"))
        return _near(text.splitlines()[0], 1 / mpmath.hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, 1 - b ** 3), tol, "agm3")
    if name == "bb":
        doc = json.loads(text)
        if not (doc["converged"] and doc["baseline_converged"] and doc["iterations"] < doc["baseline_iterations"]):
            return "BB did not beat steepest descent"
        return None if max(abs(float(v)) for v in doc["x"]) < 1e-7 else "BB minimizer is not the origin"
    if name == "recognize":
        matches = json.loads(text)["matches"]
        return None if matches and matches[0]["rendering"] == "2*exp(-2*gamma)" else f"recognized {matches[:1]}"
    if name == "recognize-list":
        names = json.loads(text)["basis"]
        return None if names == BASIS_NAMES else f"basis list {names}"
    if name == "quad":
        fields = dict(line.split(" = ", 1) for line in text.strip().splitlines())
        if fields.get("converged") != "True":
            return "quadrature did not converge"
        return _near(fields["value"], mpf(1), tol, "int t K0")
    if name == "walk-svg":
        svg = out["files"]["walk.svg"]
        m = re.search(r'<polyline points="([^"]*)"', svg)
        ref = constant_digits("pi", 4, int(_flag(argv, "--digits")))
        want = " ".join(f"{x},{-y}" for x, y in walk_points(ref))
        return None if m and m.group(1) == want else "svg polyline does not follow the digits of pi"
    if name == "walk-ppm":
        head = out["files"]["walk.ppm"]
        return _check_image("ppm", int(_flag(argv, "--size")), head["head"], head["bytes"])
    raise KeyError(name)


def check(task, output):
    """None if `output` is right for `task`, else why not.  Outputs that are
    errors raised by the program are failures, reported by the caller."""
    with mp.workdps(WORK_DPS):
        try:
            return _check_cli(task, output) if task["kind"] == "cli" else _check_library(task, output)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            return f"output not understood: {type(exc).__name__}: {exc}"
