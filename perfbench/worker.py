"""One fresh interpreter of the benchmark: a library pass, a traced CLI task
or the layer probes.  Started by run.py, never imported by it.

    worker.py pass <out.json> <tasks.json> <trace 0|1>
    worker.py cli <out.json> <expmath argv...>     (traced CLI task)
    worker.py probe <out.json>

Each mode writes one JSON document to <out.json>.  A pass times each task
and records its outputs as decimal strings; checking them against the
references is run.py's job, outside the timed region.
"""

import json
import resource
import statistics
import sys
import time


def _import_expmath():
    t0 = time.perf_counter()
    import expmath.cli  # noqa: F401

    return time.perf_counter() - t0, "numpy" in sys.modules


IMPORT_S, NUMPY_LOADED = _import_expmath()

from fractions import Fraction  # noqa: E402

from mpmath import mpf  # noqa: E402

from expmath import (  # noqa: E402
    agm,
    barzilai_borwein,
    bessel_moments,
    digit_walks,
    functions,
    quadrature,
    relations,
    sinc_identity,
)
from expmath.precision import PrecisionContext, parse_decimal  # noqa: E402

import tracing  # noqa: E402
from checks import GLYPHS  # noqa: E402

BASIS = ["one", "gamma", "em2gamma", "zeta3", "pi2"]


def _eps(exp):
    return mpf(10) ** -exp


def run_c_n(task):
    ctx = PrecisionContext.from_digits(task["digits"])
    rec = bessel_moments.c_n(task["n"], ctx, eps=_eps(task["eps_exp"]))
    return {"value": rec.value.to_decimal(task["digits"]), "error_estimate": rec.error_estimate.to_decimal(3)}


def run_c_infinity(task):
    return {"value": bessel_moments.c_infinity(PrecisionContext.from_digits(task["digits"] + 5)).to_decimal(task["digits"])}


def run_c2(task):
    ctx = PrecisionContext.from_digits(task["digits"])
    return {"value": bessel_moments.c2_double_integral(ctx, _eps(task["eps_exp"])).to_decimal(task["digits"])}


def run_recognize(task):
    ctx = PrecisionContext.from_digits(task["digits"] + 10)
    basis = relations.standard_basis(BASIS, ctx)
    matches = relations.recognize(parse_decimal(task["value"], ctx), basis, task["digits"])
    return {"renderings": [m.rendering for m in matches]}


def run_sinc(task):
    ctx = PrecisionContext.from_digits(task["digits"])
    report = sinc_identity.identity_report(task["N"], _eps(task["eps_exp"]), ctx)
    d = task["digits"]
    return {"lhs": report.lhs.to_decimal(d), "rhs": report.rhs.to_decimal(d)}


def run_threshold(task):
    ctx = PrecisionContext.from_digits(30)
    text = task["value"]
    if "/" in text:
        p, q = text.split("/")
        threshold = Fraction(int(p), int(q))
    else:
        threshold = parse_decimal(text, PrecisionContext(ctx.bits + 48, ctx.target_digits))
    return {"n": sinc_identity.threshold_scan(threshold, ctx)}


def run_agm(task):
    ctx = PrecisionContext.from_digits(30)
    b = parse_decimal(task["b"], ctx)
    if task["order"] == 2:
        mean = agm.agm2(1, b, ctx)
        series = functions.hyp2f1(Fraction(1, 2), Fraction(1, 2), 1, task["z"], ctx)
    else:
        mean = agm.agm3(1, b, ctx)
        series = functions.hyp2f1(Fraction(1, 3), Fraction(2, 3), 1, task["z"], ctx)
    return {"mean": mean.to_decimal(30), "hyp2f1": series.to_decimal(30)}


def run_pi(task):
    ctx = PrecisionContext.from_digits(task["digits"])
    result = agm.gauss_legendre_pi(task["iterations"], ctx)
    return {"value": result.value.to_decimal(task["digits"]), "last_error": result.per_iteration_error[-1].to_decimal(3)}


def run_bb(task):
    import numpy  # loaded by barzilai_borwein already; imported here so other passes need not

    problem = barzilai_borwein.random_spd(task["dimension"], task["seed"], task["condition"])
    # equal coordinates in the eigenbasis: both methods are rotation invariant,
    # so steepest descent takes the same iterations, and time, on every seed
    x0 = numpy.linalg.eigh(problem.matrix)[1].sum(axis=1)
    bb = barzilai_borwein.bb_minimize(problem, x0, 1e-8)
    sd = barzilai_borwein.steepest_descent_baseline(problem, x0, 1e-8)
    return {
        "bb_iterations": bb.iterations, "bb_converged": bb.converged, "bb_x": bb.x.tolist(),
        "sd_iterations": sd.iterations, "sd_converged": sd.converged,
    }


def run_walk(task):
    base, count = task["base"], task["count"]
    bits = max(int(count * base.bit_length()) + 256, 512)
    stream = digit_walks.digits(task["constant"], base, count, PrecisionContext(bits, 100))
    path = digit_walks.walk(stream)
    image = digit_walks.render(path, task["format"], task["size"])
    return {
        "digits": "".join(GLYPHS[d] for d in stream.digits),
        "end": list(path.points[-1]),
        "points": len(path.points),
        "image_head": image[:64].decode("latin-1"),
        "image_bytes": len(image),
    }


RUNNERS = {
    "c_n": run_c_n, "c_infinity": run_c_infinity, "c2": run_c2, "recognize": run_recognize,
    "sinc": run_sinc, "threshold": run_threshold, "agm": run_agm, "pi": run_pi,
    "bb": run_bb, "walk": run_walk,
}


def run_pass(tasks, tracer):
    """Run every task in order; an exception is the task's recorded outcome."""
    results = []
    for task in tasks:
        if tracer is not None:
            tracer.task = task["id"]
        t0 = time.perf_counter()
        try:
            output = RUNNERS[task["kind"]](task)
        except Exception as exc:  # the benchmark records failures, it does not stop on them
            output = {"error": f"{type(exc).__name__}: {exc}"[:300]}
        results.append({"id": task["id"], "seconds": time.perf_counter() - t0, "output": output})
    return results


def _layer_doc(tracer, extra):
    return dict(extra, import_s=IMPORT_S, numpy_loaded=NUMPY_LOADED,
                layers=tracing.layer_sums(tracer.spans), spans=tracer.spans)


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _timed_ms(fn, repeat=5):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def probe():
    """The per-route K0 and node-table timings no workload isolates."""
    out = {"functions.k0_series_ms": 0.0, "functions.k0_asymptotic_ms": 0.0, "functions.k0_integral_ms": 0.0}
    for digits in (30, 105):
        ctx = PrecisionContext.from_digits(digits)
        switch = functions._k0_switch(ctx.bits + 16)
        below, above = mpf(0.8 * switch), mpf(1.2 * switch)
        functions.bessel_k0(below, ctx)  # warms gamma at this precision
        functions.bessel_k0_integral(below, ctx)  # and the quadrature nodes
        out["functions.k0_series_ms"] += _timed_ms(lambda: functions.bessel_k0(below, ctx))
        out["functions.k0_asymptotic_ms"] += _timed_ms(lambda: functions.bessel_k0(above, ctx))
        out["functions.k0_integral_ms"] += _timed_ms(lambda: functions.bessel_k0_integral(below, ctx), 3)
    # working precisions nothing else in this process uses, so each table is built cold
    builds = []
    for bits in range(901, 911, 2):
        t0 = time.perf_counter()
        quadrature.tanh_sinh_rule(4, PrecisionContext(bits, 50))
        builds.append(time.perf_counter() - t0)
    out["quadrature.node_build_ms"] = 1000 * statistics.median(builds)
    return out


def main(argv):
    mode, out_path = argv[0], argv[1]
    if mode == "pass":
        with open(argv[2]) as fh:
            tasks = json.load(fh)
        tracer = None
        if argv[3] == "1":
            tracer = tracing.install()
        start, cpu = time.perf_counter(), _cpu_seconds()
        results = run_pass(tasks, tracer)
        doc = {"results": results, "run_start": start, "run_end": time.perf_counter(), "cpu_s": _cpu_seconds() - cpu}
        if tracer is not None:
            doc = _layer_doc(tracer, doc)
    elif mode == "cli":
        tracer = tracing.install()
        from expmath import cli

        start = time.perf_counter()
        code = cli.run(argv[2:])
        doc = {"exit_code": code, "run_start": start, "run_end": time.perf_counter()}
        sys.stdout.flush()
        doc = _layer_doc(tracer, doc)
    elif mode == "probe":
        doc = probe()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    # lets the parent leave this process's write-out out of its start-up cost
    print(f"perfbench-done {time.perf_counter()!r}", file=sys.stderr)
    return doc.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
