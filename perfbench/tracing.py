"""Spans around calls into each expmath layer, recorded from outside `src/`.

`install()` replaces module attributes with wrappers.  The modules call
one another through module attributes (`functions._log_k0_raw`,
`quadrature.integrate_semi_infinite`, ...) or through their own globals, so
a replaced attribute sees internal calls too.  A span records its name,
start, end, parent span and task id; spans stay in memory until the
process writes them out.  `layer_sums` reduces a span list to the raw sums
the per-layer metrics are made of.
"""

import functools
import time

from expmath import (
    agm,
    barzilai_borwein,
    bessel_moments,
    digit_walks,
    functions,
    quadrature,
    relations,
    sinc_identity,
)

NAME, START, END, PARENT, TASK, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = None
        self._open = []

    def begin(self, name):
        span = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, self.task, {}]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        return span

    def end(self, span):
        span[END] = time.perf_counter()
        self._open.pop()

    def wrap(self, module, attr, name, before=None, after=None):
        """Replace module.attr by a traced call.

        before(span, fn, args, kwargs) returns the (args, kwargs) to call fn
        with; after(span, fn, result) records counts taken from the result.
        """
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                if before is not None:
                    args, kwargs = before(span, fn, args, kwargs)
                result = fn(*args, **kwargs)
            except BaseException:
                span[EXTRA]["raised"] = 1
                tracer.end(span)
                raise
            if after is not None:
                after(span, fn, result)
            tracer.end(span)
            return result

        setattr(module, attr, traced)


def _count_evals(span, fn, args, kwargs):
    f = args[0]
    extra = span[EXTRA]
    extra["evals"] = 0

    def counted(x):
        extra["evals"] += 1
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


def _integral_result(span, fn, result):
    span[EXTRA]["levels"] = result.levels_used
    span[EXTRA]["unconverged"] = 0 if result.converged else 1


def _misses_before(span, fn, args, kwargs):
    span[EXTRA]["misses"] = fn.cache_info().misses
    return args, kwargs


def _misses_after(span, fn, result):
    span[EXTRA]["misses"] = fn.cache_info().misses - span[EXTRA]["misses"]


def _threshold_terms(span, fn, result):
    span[EXTRA]["terms"] = result + 1


def _iterations(span, fn, result):
    span[EXTRA]["iterations"] = result.iterations


def _digits_out(span, fn, result):
    span[EXTRA]["digits"] = len(result.digits)


def _render_bytes(span, fn, result):
    span[EXTRA]["bytes"] = len(result)


def install():
    """Wrap every traced entry point; returns the Tracer that records them."""
    t = Tracer()
    t.wrap(functions, "_log_k0_raw", "functions.log_k0")
    t.wrap(functions, "_euler_gamma_raw", "functions.gamma", _misses_before, _misses_after)
    for attr in ("euler_gamma", "zeta3", "exp"):
        t.wrap(functions, attr, "functions.constants")
    t.wrap(functions, "hyp2f1", "functions.hyp2f1")
    for attr in ("integrate_finite", "integrate_semi_infinite"):
        t.wrap(quadrature, attr, "quadrature.integrate", _count_evals, _integral_result)
    t.wrap(bessel_moments, "c_n", "bessel_moments.c_n")
    t.wrap(bessel_moments, "c2_double_integral", "bessel_moments.c2")
    t.wrap(sinc_identity, "sinc_sum", "sinc_identity.sum")
    t.wrap(sinc_identity, "sinc_integral", "sinc_identity.integral")
    t.wrap(sinc_identity, "threshold_scan", "sinc_identity.threshold", after=_threshold_terms)
    for attr in ("gauss_legendre_pi", "pi_raw"):
        t.wrap(agm, attr, "agm.pi")
    for attr in ("agm2", "agm3"):
        t.wrap(agm, attr, "agm.mean")
    t.wrap(relations, "_pslq", "relations.pslq")
    t.wrap(relations, "recognize", "relations.recognize")
    t.wrap(barzilai_borwein, "bb_minimize", "barzilai_borwein.bb", after=_iterations)
    t.wrap(barzilai_borwein, "steepest_descent_baseline", "barzilai_borwein.sd", after=_iterations)
    t.wrap(digit_walks, "digits", "digit_walks.extract", after=_digits_out)
    t.wrap(digit_walks, "_constant_fraction", "digit_walks.constant")
    t.wrap(digit_walks, "render", "digit_walks.render", after=_render_bytes)
    return t


def _has_ancestor(spans, span, names):
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_sums(spans):
    """Raw per-layer sums of one process's spans (counts and seconds)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def dur(s):
        return s[END] - s[START]

    def inclusive(*names):
        # outermost spans of the group only, so nested calls are not counted twice
        return sum(dur(s) for s in spans if s[NAME] in names and not _has_ancestor(spans, s, names))

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def extra_sum(name, key, where=None):
        return sum(s[EXTRA].get(key, 0) for s in named(name) if where is None or where(s))

    under_c_n = lambda s: _has_ancestor(spans, s, ("bessel_moments.c_n",))
    gamma_misses = [s for s in named("functions.gamma") if s[EXTRA].get("misses")]
    return {
        "functions.log_k0_calls": len([s for s in named("functions.log_k0") if under_c_n(s)]),
        "functions.log_k0_s": sum(dur(s) for s in named("functions.log_k0") if under_c_n(s)),
        "functions.gamma_builds": sum(s[EXTRA]["misses"] for s in gamma_misses),
        "functions.gamma_s": sum(dur(s) for s in gamma_misses),
        "functions.constants_s": inclusive("functions.constants"),
        "functions.hyp2f1_s": inclusive("functions.hyp2f1"),
        "quadrature.calls": len(named("quadrature.integrate")),
        "quadrature.evals": extra_sum("quadrature.integrate", "evals"),
        "quadrature.levels": extra_sum("quadrature.integrate", "levels"),
        "quadrature.unconverged": extra_sum("quadrature.integrate", "unconverged"),
        "quadrature.self_s": sum(dur(s) - child_time[i] for i, s in enumerate(spans) if s[NAME] == "quadrature.integrate"),
        "c_n_evals": extra_sum("quadrature.integrate", "evals", under_c_n),
        "bessel_moments.c_n_calls": len(named("bessel_moments.c_n")),
        "bessel_moments.c_n_s": inclusive("bessel_moments.c_n"),
        "bessel_moments.c_n_failed": extra_sum("bessel_moments.c_n", "raised"),
        "bessel_moments.c2_s": inclusive("bessel_moments.c2"),
        "sinc_identity.sum_s": inclusive("sinc_identity.sum"),
        "sinc_identity.integral_s": inclusive("sinc_identity.integral"),
        "sinc_identity.threshold_s": inclusive("sinc_identity.threshold"),
        "sinc_identity.threshold_terms": extra_sum("sinc_identity.threshold", "terms"),
        "agm.pi_s": inclusive("agm.pi"),
        "agm.mean_s": inclusive("agm.mean"),
        "relations.pslq_calls": len(named("relations.pslq")),
        "relations.pslq_s": inclusive("relations.pslq"),
        "relations.recognize_s": inclusive("relations.recognize"),
        "barzilai_borwein.bb_iters": extra_sum("barzilai_borwein.bb", "iterations"),
        "barzilai_borwein.sd_iters": extra_sum("barzilai_borwein.sd", "iterations"),
        "barzilai_borwein.s": inclusive("barzilai_borwein.bb", "barzilai_borwein.sd"),
        "digit_walks.extract_self_s": sum(dur(s) - child_time[i] for i, s in enumerate(spans) if s[NAME] == "digit_walks.extract"),
        "digit_walks.digits_out": extra_sum("digit_walks.extract", "digits"),
        "digit_walks.render_s": inclusive("digit_walks.render"),
        "digit_walks.render_bytes": extra_sum("digit_walks.render", "bytes"),
    }
