"""Command-line frontend: every capability as a subcommand.

Output contract: each subcommand computes its result once and returns it as
``(payload, rows, lines)``: the JSON object, the CSV rows (header row
included when there is one) and the text lines.  ``walk`` returns image
bytes instead.  One renderer, ``_render``, turns the three views into the
bytes of the chosen ``--format``: canonical JSON (sorted keys, tight
separators), comma-joined CSV rows, or newline-joined text.  ``run`` writes
those bytes once, to ``--out`` or to standard output.  All numeric output is
rendered as decimal strings (never raw binary floats), so byte-identical
round-trips hold.  Exit codes: 0 success, 1 computation failure, 2 usage
error.

Each handler imports the library modules it runs, and parsing needs no
library module but ``precision`` (``--size`` asks ``digit_walks`` for its
floor), so a process loads only what its subcommand runs.

Input contract: every usage error is argparse's.  Each flag that takes a
value has one argparse type made by ``_flag`` from a converter and a
predicate, which refuses bad text as ``FLAG takes WHAT, got TEXT``; flag
combinations (``recognize``'s ``--value`` or ``--list-basis``) are argparse
groups.  No handler raises a usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .precision import BigReal, DomainError, NumericsError, PrecisionContext
from .precision import _from_decimal, parse_decimal

_DEFAULT_DIGITS = 30
#: the most indices one ``cn --n lo..hi`` may span: each is a c_n call
_N_RANGE_CAP = 1000


def _env_default_digits() -> int:
    raw = os.environ.get("EXPMATH_DIGITS", "")
    try:
        value = int(raw)
    except ValueError:
        return _DEFAULT_DIGITS
    return value if value >= 1 else _DEFAULT_DIGITS


def _flag(label: str, convert, valid, expects: str):
    """The argparse type of one flag: ``convert(text)``, kept when ``valid``
    holds of it.  Text that ``convert`` or ``valid`` rejects with ValueError,
    ZeroDivisionError or DomainError, or that ``valid`` finds wanting, is
    refused with ``LABEL takes EXPECTS, got TEXT`` (exit 2, with the usage
    line)."""
    def parse(text: str):
        try:
            value = convert(text)
            ok = valid(value)
        except (ValueError, ZeroDivisionError, DomainError):
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"{label} takes {expects}, got {text!r}")
        return value

    return parse


def _int_flag(label: str, minimum: int = 1):
    return _flag(label, int, lambda v: v >= minimum, f"an integer >= {minimum}")


def _decimal64(text: str):
    return _from_decimal(text, 64)


def _decimal_flag(label: str, parse=_decimal64, expects: str = "a finite decimal"):
    """A flag kept as its text, once ``parse`` reads it as a finite value:
    the handler parses the text again at the precision it computes with."""
    return _flag(label, str, lambda text: mpmath.isfinite(parse(text)), expects)


def _n_range(text: str) -> range:
    """--n: a single index or an inclusive range 'lo..hi', as a range."""
    lo, sep, hi = text.partition("..")
    return range(int(lo), int(hi if sep else lo) + 1)


def _size(text: str):
    """--size: N, or WxH as a (width, height) pair."""
    w, sep, h = text.partition("x")
    return (int(w), int(h)) if sep else int(w)


def _size_floor(size) -> bool:
    """--size's 16x16 floor, kept by the renderer; the PPM byte budget
    depends on the image format, so the handler checks that."""
    from . import digit_walks

    digit_walks.image_size(size, "svg")
    return True


def _threshold(text: str, ctx: PrecisionContext):
    """--threshold's grammar: p/q as an exact Fraction, else a decimal at
    the context's precision."""
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return parse_decimal(text, ctx).value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expmath",
        description="High-precision constants, integrals, identities, and digit walks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    digits_default = _env_default_digits()
    eps = _flag("--eps", _decimal64, lambda v: mpmath.isfinite(v) and v > 0,
                "a positive finite decimal, e.g. 1e-25")

    def command(name, handler, summary, digits=digits_default, fmt="text",
                digits_help="significant digits to print"):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--digits", type=_int_flag("--digits"), default=digits,
                       help=f"{digits_help} (default {digits})")
        if fmt is not None:
            p.add_argument("--format", choices=("text", "json", "csv"), default=fmt,
                           help=f"output format (default {fmt})")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        return p

    p = command("pi", _cmd_pi, "pi via the quadratically convergent mean iteration")
    p.add_argument("--iterations", type=_int_flag("--iterations"), default=None,
                   help="fixed iteration count; reports per-iteration errors")

    p = command("cn", _cmd_cn, "Bessel-moment integrals C_n")
    p.add_argument("--n", type=_flag("--n", _n_range,
                                     lambda r: 1 <= r.start < r.stop <= r.start + _N_RANGE_CAP,
                                     "a positive integer (n >= 1) or a range like 1..32 "
                                     f"of at most {_N_RANGE_CAP} indices"),
                   default="4",
                   help=f"index or range, e.g. 4 or 1..10; a range spans at most {_N_RANGE_CAP} indices")
    p.add_argument("--eps", type=eps, default=None, help="target accuracy, e.g. 1e-25")

    command("cinf", _cmd_cinf, "the limit value 2*exp(-2*gamma)", digits=50)

    p = command("sinc", _cmd_sinc, "both sides of the sinc-product identity")
    p.add_argument("--N", type=_int_flag("--N"), default=1, help="number of odd reciprocals past 1")
    p.add_argument("--eps", type=eps, default=None, help="target accuracy for each side")

    p = command("threshold", _cmd_threshold, "first N where the sinc identity fails")
    ratio = _decimal_flag("--threshold", lambda text: _threshold(text, PrecisionContext(64, 1)),
                          "a finite decimal or p/q")
    p.add_argument("--threshold", type=ratio, default=None,
                   help="frequency budget; decimal or p/q (default: 2*pi)")

    p = command("bb", _cmd_bb, "two-point gradient descent vs steepest descent")
    p.add_argument("--problem", choices=("sphere", "quad", "rosenbrock", "random-spd"),
                   default="quad")
    p.add_argument("--variant", choices=("bb1", "bb2"), default="bb2")
    p.add_argument("--tol", type=_flag("--tol", float, lambda v: math.isfinite(v) and v > 0,
                                       "a positive finite number"),
                   default=1e-8, help="gradient-norm tolerance")
    p.add_argument("--x0", default=None, help="start point, e.g. 100,1",
                   type=_flag("--x0", lambda t: [float(c) for c in t.split(",") if c.strip()],
                              lambda v: all(map(math.isfinite, v)),
                              "a comma-separated list of finite numbers"))
    p.add_argument("--max-iter", type=_int_flag("--max-iter"), default=10_000)
    p.add_argument("--seed", type=_flag("--seed", int, lambda v: True, "an integer"), default=17,
                   help="seed for random-spd")
    p.add_argument("--dimension", type=_int_flag("--dimension", 2), default=5)
    p.add_argument("--baseline", action="store_true",
                   help="also run steepest descent and report both iteration counts")

    p = command("agm", _cmd_agm, "arithmetic-geometric mean iterations")
    p.add_argument("--a", type=_decimal_flag("--a"), default="1", help="first starting value")
    p.add_argument("--b", type=_decimal_flag("--b"), default="0.5", help="second starting value")
    p.add_argument("--kind", choices=("2", "3"), default="2", help="quadratic or cubic mean")
    p.add_argument("--trajectory", action="store_true", help="print every iterate")

    p = command("recognize", _cmd_recognize, "identify a decimal as a combination of constants",
                digits=50, fmt="json")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--value", type=_decimal_flag("--value"), help="decimal string to identify")
    target.add_argument("--list-basis", action="store_true",
                        help="print available constants and exit")
    p.add_argument("--basis", help="comma-separated constant names (see --list-basis)")

    p = command("quad", _cmd_quad, "the double-exponential integrator on reference integrals")
    p.add_argument("--integrand", choices=("log-inverse", "inv-sqrt", "gauss", "bessel-moment"),
                   default="log-inverse")

    # walk writes image bytes, chosen by --image-format, so it takes no --format
    p = command("walk", _cmd_walk, "digit walk of a constant, rendered to PPM or SVG",
                fmt=None, digits_help="digits of the constant to walk")
    p.add_argument("--constant", default="pi")
    p.add_argument("--base", type=_int_flag("--base", 2), default=4)
    p.add_argument("--size", default=512,
                   type=_flag("--size", _size, _size_floor,
                              "N or WxH of at least 16x16, e.g. 512 or 800x600"),
                   help="N or WxH pixels, at least 16x16; a PPM's 3*W*H bytes have a fixed budget")
    p.add_argument("--color", choices=("progress", "mono"), default="progress")
    p.add_argument("--image-format", choices=("ppm", "svg"), default=None,
                   help="defaults to the --out extension, else svg")
    return parser


# ---------------------------------------------------------------------------
# output


def _render(fmt: str, payload, rows, lines) -> bytes:
    """The one place --format is decided: a result's three views to bytes."""
    if fmt == "json":
        import json

        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    elif fmt == "csv":
        # cells are decimal strings, integers and bare names: none holds a
        # comma or a quote, so no cell needs quoting
        text = "".join(",".join(str(c) for c in row) + "\n" for row in rows)
    else:
        text = "".join(f"{line}\n" for line in lines)
    return text.encode("utf-8")


def _fields(fields, lines=None):
    """All three views of one ordered list of (key, value) pairs.

    JSON is the object of the pairs, CSV one ``key,value`` row per pair, and
    text ``key = value`` per pair unless ``lines`` says otherwise.
    """
    if lines is None:
        lines = [f"{k} = {v}" for k, v in fields]
    return dict(fields), fields, lines


def _ctx(digits: int) -> PrecisionContext:
    return PrecisionContext.from_digits(digits + 5)


def _eps_from(args):
    if args.eps is not None:
        return args.eps
    # default accuracy backs every printed digit with a little to spare
    with mp.workprec(64):
        return mpf(10) ** (-(args.digits + 3))


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_pi(args):
    from . import agm

    d = args.digits
    if args.iterations is None:
        value = agm.pi_value(_ctx(d)).to_decimal(d)
        return {"digits": d, "value": value}, [("value", value)], [value]
    bits = max(PrecisionContext.from_digits(d + 5).bits, 200)
    ctx = PrecisionContext(bits, d)
    result = agm.gauss_legendre_pi(args.iterations, ctx)
    errors = [e.to_decimal(3) for e in result.per_iteration_error]
    value = result.value.to_decimal(d)
    payload = {
        "digits": d,
        "iterations": result.iterations,
        "per_iteration_error": errors,
        "value": value,
    }
    rows = [("value", value)] + [(f"error_{k + 1}", e) for k, e in enumerate(errors)]
    lines = [value] + [f"iteration {k + 1}: error {e}" for k, e in enumerate(errors)]
    return payload, rows, lines


def _cmd_cn(args):
    from . import bessel_moments

    d = args.digits
    ctx = PrecisionContext.from_digits(max(d + 5, 30))
    eps = _eps_from(args)
    records = [bessel_moments.c_n(n, ctx, eps) for n in args.n]
    payload, rows, lines = {"records": []}, [("n", "value", "error_estimate")], []
    for r in records:
        value, err = r.value.to_decimal(d), r.error_estimate.to_decimal(3)
        payload["records"].append({"n": r.n, "value": value, "error_estimate": err})
        lines.append(f"C_{r.n} = {value}  (error <= {err})")
        # the CSV error column keeps up to six digits where text and JSON keep three
        e = r.error_estimate
        rows.append((r.n, value, "0" if e.value == 0 else e.to_decimal(max(3, min(d, 6)))))
    return payload, rows, lines


def _cmd_cinf(args):
    from . import bessel_moments

    d = args.digits
    value = bessel_moments.c_infinity(_ctx(d)).to_decimal(d)
    return {"digits": d, "value": value}, [("value", value)], [value]


def _cmd_sinc(args):
    from . import sinc_identity

    d = args.digits
    ctx = PrecisionContext.from_digits(max(d + 5, 30))
    eps = _eps_from(args)
    report = sinc_identity.identity_report(args.N, eps, ctx)
    return _fields(
        [
            ("N", report.N),
            ("lhs", report.lhs.to_decimal(d)),
            ("rhs", report.rhs.to_decimal(d)),
            ("difference", report.difference.to_decimal(3)),
            ("truncation_bound", report.truncation_bound.to_decimal(3)),
        ]
    )


def _cmd_threshold(args):
    from . import agm, sinc_identity

    ctx = PrecisionContext.from_digits(max(args.digits, 30))
    if args.threshold is None:
        with mp.workprec(ctx.bits + 48):
            threshold = +(2 * agm.pi_value(PrecisionContext(ctx.bits + 48, ctx.target_digits)).value)
        label = "2*pi"
    else:
        threshold = _threshold(args.threshold, ctx)
        label = args.threshold
    n = sinc_identity.threshold_scan(threshold, ctx)
    return _fields([("threshold", label), ("n", n)], lines=[n])


_BB_DEFAULT_STARTS = {
    "sphere": [3.0, -4.0],
    "quad": [100.0, 1.0],
    "rosenbrock": [-1.2, 1.0],
}


def _cmd_bb(args):
    from . import barzilai_borwein

    if args.problem == "random-spd":
        problem = barzilai_borwein.random_spd(args.dimension, args.seed)
    else:
        problem = barzilai_borwein.PROBLEMS[args.problem]()
    x0 = args.x0
    if x0 is None:
        x0 = _BB_DEFAULT_STARTS.get(args.problem, [1.0] * problem.dimension)
    if len(x0) != problem.dimension:
        raise NumericsError(
            f"--x0 needs {problem.dimension} components for problem {args.problem}"
        )
    safeguard = args.problem == "rosenbrock"
    result = barzilai_borwein.bb_minimize(
        problem, x0, args.tol, max_iter=args.max_iter, variant=args.variant, safeguard=safeguard
    )
    trace = [(k, repr(fv), repr(gn), repr(gm)) for k, fv, gn, gm in result.trace]
    payload = {
        "problem": args.problem,
        "variant": args.variant,
        "tol": repr(args.tol),
        "iterations": result.iterations,
        "converged": result.converged,
        "x": [repr(v) for v in result.x.tolist()],
        "f": repr(result.fx),
        "trace": [{"k": k, "f": f, "grad_norm": gn, "gamma": gm} for k, f, gn, gm in trace],
    }
    lines = [
        f"problem {args.problem}, variant {args.variant}",
        f"iterations {result.iterations} (converged: {result.converged})",
        f"minimum {result.fx!r} at {result.x.tolist()!r}",
    ]
    if args.baseline:
        base = barzilai_borwein.steepest_descent_baseline(
            problem, x0, args.tol, max_iter=max(args.max_iter, 100_000)
        )
        payload["baseline_iterations"] = base.iterations
        payload["baseline_converged"] = base.converged
        lines.append(
            f"steepest-descent baseline: {base.iterations} iterations"
            f" (converged: {base.converged})"
        )
    return payload, [("k", "f", "grad_norm", "gamma")] + trace, lines


def _cmd_agm(args):
    from . import agm

    d = args.digits
    ctx = PrecisionContext.from_digits(d + 5)
    a = parse_decimal(args.a, ctx)
    b = parse_decimal(args.b, ctx)
    states = agm.agm_states(a, b, ctx, cubic=args.kind == "3")
    mean = agm._limit(states, ctx)
    value = mean.to_decimal(d)
    iterations = states[-1].iteration
    payload = {"kind": int(args.kind), "value": value, "iterations": iterations}
    lines = [value]
    if args.trajectory:
        def show(x):
            return BigReal(x, ctx.bits).to_decimal(d)

        steps = [(s.iteration, show(s.a), show(s.b)) for s in states]
        payload["trajectory"] = [{"iteration": k, "a": sa, "b": sb} for k, sa, sb in steps]
        lines += [f"iteration {k}: a={sa} b={sb}" for k, sa, sb in steps]
    return payload, [("value", value), ("iterations", iterations)], lines


def _cmd_recognize(args):
    from . import relations

    if args.list_basis:
        names = relations.basis_names()
        return {"basis": names}, [(n,) for n in names], names
    d = args.digits
    ctx = PrecisionContext.from_digits(d + 10)
    value = parse_decimal(args.value, ctx)
    names = (list(relations.DEFAULT_BASIS) if args.basis is None
             else [n.strip() for n in args.basis.split(",") if n.strip()])
    basis = relations.standard_basis(names, ctx)
    matches = relations.recognize(value, basis, d)
    payload = {
        "value": args.value,
        "basis": names,
        "matches": [
            {
                "coefficients": list(m.coefficients),
                "confidence_digits": m.confidence_digits,
                "rendering": m.rendering,
                "residual": m.residual.to_decimal(3),
            }
            for m in matches
        ],
    }
    rows = [("rendering", m.rendering) for m in matches] or [("no-match", "")]
    lines = [
        f"{m.rendering}  (coefficients {list(m.coefficients)}, {m.confidence_digits} digits)"
        for m in matches
    ] or ["no match"]
    return payload, rows, lines


def _cmd_quad(args):
    from . import functions, quadrature

    d = args.digits
    ctx = PrecisionContext.from_digits(max(d + 5, 30))
    with mp.workprec(ctx.bits + 16):
        eps = mpf(10) ** (-(d + 2))
    if args.integrand == "log-inverse":
        result = quadrature.integrate_finite(lambda x: mpmath.ln(1 / x), 0, 1, eps, ctx)
        reference = "1"
    elif args.integrand == "inv-sqrt":
        result = quadrature.integrate_finite(lambda x: 1 / mpmath.sqrt(x), 0, 1, eps, ctx)
        reference = "2"
    elif args.integrand == "gauss":
        result = quadrature.integrate_semi_infinite(lambda t: mpmath.exp(-t * t), 0, eps, ctx)
        reference = "sqrt(pi)/2"
    else:
        result = quadrature.integrate_semi_infinite(
            lambda t: t * functions.bessel_k0(t, ctx).value, 0, eps, ctx
        )
        reference = "1"
    return _fields(
        [
            ("integrand", args.integrand),
            ("value", result.value.to_decimal(d)),
            ("error_estimate", result.error_estimate.to_decimal(3)),
            ("levels_used", result.levels_used),
            ("converged", result.converged),
            ("reference", reference),
        ]
    )


def _cmd_walk(args) -> bytes | bytearray:
    from . import digit_walks

    fmt = args.image_format or ("ppm" if (args.out or "").lower().endswith(".ppm") else "svg")
    digit_walks.image_size(args.size, fmt)  # refuse a bad size before extracting digits
    count = args.digits
    bits = count * args.base.bit_length() + 256
    ctx = PrecisionContext(max(bits, 512), 100)
    stream = digit_walks.digits(args.constant, args.base, count, ctx)
    path = digit_walks.walk(stream)
    return digit_walks.render(path, fmt, args.size, args.color)


def run(argv) -> int:
    """Parse argv (program name excluded) and execute; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        result = args.handler(args)
    except (NumericsError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    data = result if isinstance(result, (bytes, bytearray)) else _render(args.format, *result)
    try:
        with open(args.out, "wb") if args.out else nullcontext(sys.stdout.buffer) as fh:
            fh.write(data)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
