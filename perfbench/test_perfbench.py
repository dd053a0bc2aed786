"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import math
import os
import sys

import pytest
from mpmath import mp, mpf

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _pass(results):
    return {"results": [{"id": i, "seconds": 0.1, "output": out} for i, out in enumerate(results)]}


def test_generation_is_seeded():
    for workload in workloads.WORKLOADS:
        a, b = workloads.generate(workload, 7), workloads.generate(workload, 7)
        assert a == b and workloads.digest(a) == workloads.digest(b)
        assert workloads.digest(a) != workloads.digest(workloads.generate(workload, 8))


def test_every_task_has_a_reference():
    with mp.workdps(checks.WORK_DPS):
        for seed in range(20):
            for task in workloads.generate("moments", seed):
                if task["kind"] == "c_n":
                    checks.c_n(task["n"])
            for task in workloads.generate("survey", seed):
                if task["kind"] == "threshold":
                    checks.threshold_n(task["value"])


def test_closed_form_references():
    with mp.workdps(40):
        assert checks.threshold_n("4/3") == 2
        assert checks.threshold_n(mp.nstr(2 * mp.pi, 40)) == 40249
        assert abs(checks.c_n(3) - mpf("0.78130241289648629686718742962")) < mpf(10) ** -25
        assert abs(checks.c_n(5) - mpf("0.665759800199937428315733808307")) < mpf(10) ** -28
    assert checks.constant_digits("pi", 10, 12) == "314159265358"
    assert checks.constant_digits("gamma", 10, 6) == "577215"
    assert checks.constant_digits("champernowne-10", 10, 12) == "123456789101"
    assert checks.constant_digits("pi", 4, 6) == "302100"


def test_right_answer_passes_and_perturbed_answer_fails():
    """Negative control: an answer moved past its tolerance counts as failed."""
    task = {"id": 0, "kind": "c_n", "n": 4, "digits": 30, "eps_exp": 25}
    with mp.workdps(60):
        exact = mp.nstr(7 * mp.zeta(3) / 12, 30)
        perturbed = mp.nstr(7 * mp.zeta(3) / 12 + mpf(10) ** -23, 30)
    assert run.grade([task], [_pass([{"value": exact}])]) == (0, 0, {})
    failed, wrong, notes = run.grade([task], [_pass([{"value": perturbed}])])
    assert (failed, wrong) == (1, 1) and "C_4" in notes[0]


def test_raised_error_is_a_failure_but_not_a_wrong_answer():
    task = {"id": 0, "kind": "c_n", "n": 130, "digits": 30, "eps_exp": 25}
    failed, wrong, _ = run.grade([task], [_pass([{"error": "ConvergenceError: no"}])])
    assert (failed, wrong) == (1, 0)


def test_cli_threshold_check():
    task = {"id": 0, "kind": "cli", "name": "threshold", "argv": ["threshold"]}
    assert checks.check(task, {"exit_code": 0, "stdout": "40249\n", "files": {}}) is None
    assert checks.check(task, {"exit_code": 0, "stdout": "40250\n", "files": {}}) is not None
    assert checks.check(task, {"exit_code": 1, "stdout": "", "files": {}}) == "exit code 1"


def test_tail_has_ten_tasks_beyond_it():
    latencies = [float(i) for i in range(1, 38)]
    value, percentile = run.tail(latencies)
    assert value == 27.0 and sum(x > value for x in latencies) == 10
    assert percentile == pytest.approx(100 * 27 / 37)


def test_self_time_excludes_children():
    spans = [
        ["digit_walks.extract", 0.0, 10.0, -1, 0, {"digits": 5}],
        ["digit_walks.constant", 1.0, 4.0, 0, 0, {}],
        ["agm.pi", 1.5, 3.5, 1, 0, {}],
        ["agm.pi", 2.0, 3.0, 2, 0, {}],
    ]
    sums = tracing.layer_sums(spans)
    assert sums["digit_walks.extract_self_s"] == pytest.approx(7.0)
    assert sums["digit_walks.digits_out"] == 5
    assert sums["agm.pi_s"] == pytest.approx(2.0)  # the nested pi span is not counted twice


def _declared(section):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in __import__("json").load(fh)[section]}


def test_reported_metrics_match_benchmark_json():
    plain = {"wall_s": 2.0, "cpu_s": 1.9, "peak_rss_mb": 50.0, "results": [
        {"id": i, "seconds": 0.1 * i, "output": {}} for i in range(15)]}
    metrics, _ = run.end_to_end([plain], 0.3, 15, 0, 15)
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("end_to_end")

    traced = dict(plain, layers=tracing.layer_sums([]), import_s=0.2, numpy_loaded=True, process_overhead_s=0.1)
    probe = {"functions.k0_series_ms": 1.0, "functions.k0_asymptotic_ms": 1.0,
             "functions.k0_integral_ms": 1.0, "quadrature.node_build_ms": 1.0}
    metrics = run.per_layer([traced], [plain], [probe])
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")


def test_task_latency_is_the_median_over_passes():
    slow = {"results": [{"id": 0, "seconds": 9.0}, {"id": 1, "seconds": 9.0}]}
    fast = {"results": [{"id": 0, "seconds": 1.0}, {"id": 1, "seconds": 2.0}]}
    assert run.task_latencies([fast, slow, fast]) == [1.0, 2.0]


def test_survey_costs_do_not_follow_the_seed():
    """Seeded survey inputs stay in the narrow bands that keep each task's cost fixed."""
    for seed in range(20):
        for task in workloads.generate("survey", seed):
            if task["kind"] == "threshold" and "/" not in task["value"]:
                assert 0 <= float(task["value"]) - 2 * math.pi <= 0.11
            elif task["kind"] == "agm":
                assert 57.9 <= 1 / (1 - float(task["z"])) <= 62.1
            elif task["kind"] == "walk":
                bits = dict((c, b) for c, _, b in workloads.WALKS)[task["constant"]]
                assert bits - 4 <= task["count"] * math.log2(task["base"]) <= bits
