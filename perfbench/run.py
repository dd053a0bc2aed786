"""The expmath benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload {cli,moments,survey} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  Every
pass runs the whole seeded task list in fresh interpreters, so expmath's
memos start empty each time: `moments` and `survey` run the list in one
worker process (worker.py), `cli` runs each task as its own
`python -m expmath` process.  Passes repeat until --seconds have gone by
and, untraced, at least MIN_PASSES are done; the load is a closed loop with
one client and no threads.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones, which
come from passes run with tracing.py's wrappers installed, alternating with
untraced passes so the tracing overhead can be reported.  Human-readable
lines come first; the last line of stdout is the JSON result.  Answers are
checked against references from checks.py after the passes, outside the
timed region.  See README.md for the metric definitions.
"""

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
WORKER = os.path.join(HERE, "worker.py")
#: every process this run starts must be done by then (the limit is 180 s)
DEADLINE_S = 165
SETUP_REPEATS = 11
#: medians over at least this many untraced passes, so one pass slowed by
#: other load on the host does not set a metric
MIN_PASSES = 3
TAIL_BEYOND = 10

import checks  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    pass


def child_env():
    # EXPMATH_DIGITS would change the CLI's default --digits
    env = {k: v for k, v in os.environ.items() if k != "EXPMATH_DIGITS"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


Child = collections.namedtuple("Child", "wall code rss_mb cpu_s stdout stderr start end")


class Runner:
    """Starts children one at a time and waits for each, killing it at the deadline."""

    def __init__(self, work):
        self.work = work
        self.env = child_env()
        self.started = time.perf_counter()

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, argv):
        """Run one child to completion; start and end are perf_counter readings."""
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("out of time before starting a child process")
        out_path, err_path = os.path.join(self.work, "stdout"), os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t1 = time.perf_counter()
        if t1 - t0 >= timeout:
            raise BenchError(f"child {argv[:3]} killed at the {DEADLINE_S} s deadline")
        with open(out_path, "rb") as fh:
            stdout = fh.read().decode("utf-8", "replace")
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode("utf-8", "replace")
        return Child(t1 - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0,
                     usage.ru_utime + usage.ru_stime, stdout, stderr, t0, t1)

    def worker(self, mode, *args):
        """Run worker.py; returns (Child, its JSON document)."""
        doc_path = os.path.join(self.work, "worker.json")
        child = self.run([WORKER, mode, doc_path, *args])
        if not os.path.exists(doc_path) or (mode != "cli" and child.code != 0):
            raise BenchError(f"worker {mode} exited {child.code}: {child.stderr[-500:]}")
        with open(doc_path) as fh:
            doc = json.load(fh)
        os.remove(doc_path)
        return child, doc


def process_overhead(child, doc):
    """Child lifetime outside its measured work and outside writing its document.

    perf_counter is the system-wide monotonic clock on Linux, so the parent's
    and the child's readings compare directly.
    """
    done = float(child.stderr.rsplit("perfbench-done ", 1)[1])
    return (doc["run_start"] - child.start) + (child.end - done)


def _collect_files(work):
    files = {}
    for name in ("walk.svg", "walk.ppm"):
        path = os.path.join(work, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            files[name] = data.decode("utf-8") if name.endswith(".svg") else {"head": data[:64].decode("latin-1"), "bytes": len(data)}
            os.remove(path)
    return files


def cli_pass(runner, tasks, traced):
    """One pass of the cli workload: a fresh process per task."""
    results, layers, overheads, imports, spans = [], [], [], [], []
    t0 = time.perf_counter()
    peak = cpu = 0.0
    for task in tasks:
        if traced:
            child, doc = runner.worker("cli", *task["argv"])
            layers.append(doc["layers"])
            overheads.append(process_overhead(child, doc))
            imports.append((doc["import_s"], doc["numpy_loaded"]))
            spans.append(doc["spans"])
        else:
            child = runner.run(["-m", "expmath"] + task["argv"])
        peak = max(peak, child.rss_mb)
        cpu += child.cpu_s
        output = {"exit_code": child.code, "stdout": child.stdout, "files": _collect_files(runner.work)}
        results.append({"id": task["id"], "seconds": child.wall, "output": output})
    record = {"wall_s": time.perf_counter() - t0, "cpu_s": cpu, "results": results, "peak_rss_mb": peak}
    if traced:
        record["layers"] = {k: sum(d[k] for d in layers) for k in layers[0]}
        record["process_overhead_s"] = statistics.median(overheads)
        record["import_s"] = statistics.median(i for i, _ in imports)
        record["numpy_loaded"] = max(n for _, n in imports)
        record["spans"] = spans
    return record


def library_pass(runner, tasks_path, traced):
    """One pass of a library workload in one fresh worker process."""
    child, doc = runner.worker("pass", tasks_path, "1" if traced else "0")
    record = {"wall_s": doc["run_end"] - doc["run_start"], "cpu_s": doc["cpu_s"],
              "results": doc["results"], "peak_rss_mb": child.rss_mb}
    if traced:
        record["layers"] = doc["layers"]
        record["process_overhead_s"] = process_overhead(child, doc)
        record["import_s"] = doc["import_s"]
        record["numpy_loaded"] = doc["numpy_loaded"]
        record["spans"] = [doc["spans"]]
    return record


def setup_seconds(runner, workload):
    """Median cold `import expmath` (cli: expmath.cli) in fresh interpreters."""
    module = "expmath.cli" if workload == "cli" else "expmath"
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(SETUP_REPEATS):
        child = runner.run(["-c", code])
        if child.code != 0:
            raise BenchError(f"import {module} failed: {child.stderr[-500:]}")
        times.append(float(child.stdout))
    return statistics.median(times)


def tail(latencies):
    """(latency, percentile) of the highest percentile with TAIL_BEYOND tasks beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def grade(tasks, passes):
    """Check every pass's answers; returns (failed, wrong, notes)."""
    by_id = {t["id"]: t for t in tasks}
    failed = wrong = 0
    notes = {}
    for record in passes:
        for result in record["results"]:
            task, output = by_id[result["id"]], result["output"]
            if "error" in output:
                failed += 1
                notes.setdefault(task["id"], f"raised {output['error']}")
                continue
            reason = checks.check(task, output)
            if reason is not None:
                failed += 1
                if not (task["kind"] == "cli" and output["exit_code"] != 0):
                    wrong += 1
                notes.setdefault(task["id"], reason)
    return failed, wrong, notes


def stamp(workload, seed, digest):
    import mpmath
    import numpy

    return {
        "workload": workload, "seed": seed, "task_digest": digest,
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "machine": platform.machine(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def task_latencies(passes):
    """Each task's latency, the median of its times over the passes.

    Taking the median per task before ranking the tasks keeps a pass that
    other load on the host slowed in part from setting task_p50_s.
    """
    times = collections.defaultdict(list)
    for record in passes:
        for result in record["results"]:
            times[result["id"]].append(result["seconds"])
    return [statistics.median(t) for t in times.values()]


def end_to_end(passes, setup_s, n_tasks, failed, attempted):
    latencies = task_latencies(passes)
    tail_s, percentile = tail(latencies)
    metrics = {
        "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": _metric(statistics.median(p["cpu_s"] for p in passes), "s"),
        "task_p50_s": _metric(statistics.median(latencies), "s"),
        "task_tail_s": _metric(tail_s, "s"),
        "pass_frac": _metric(1.0 - failed / attempted, "ratio"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
    }
    notes = {
        "task_tail_s": f"p{percentile:.1f}: task {n_tasks - TAIL_BEYOND} of {n_tasks}, {TAIL_BEYOND} beyond it",
        "pass_frac": f"fail_frac {failed / attempted:.4f} = {failed} failed of {attempted} attempted",
    }
    return metrics, notes


def per_layer(traced, untraced, probes):
    sums = [p["layers"] for p in traced]
    metrics = {}
    for name in sums[0]:
        if name == "c_n_evals":
            continue
        unit = "s" if name.endswith("_s") or name.endswith(".s") else "count"
        metrics[name] = _metric(statistics.median(s[name] for s in sums), unit)
    evals = statistics.median(s["c_n_evals"] for s in sums)
    calls = metrics["functions.log_k0_calls"]["value"]
    metrics["bessel_moments.k0_reuse"] = _metric(1.0 - calls / evals if evals else 0.0, "ratio")
    metrics["cli.import_s"] = _metric(statistics.median(p["import_s"] for p in traced), "s")
    metrics["cli.numpy_loaded"] = _metric(int(max(p["numpy_loaded"] for p in traced)), "count")
    metrics["cli.process_overhead_s"] = _metric(statistics.median(p["process_overhead_s"] for p in traced), "s")
    for name in sorted(probes[0]):
        metrics[name] = _metric(statistics.median(p[name] for p in probes), "ms")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_frac"] = _metric(traced_wall / statistics.median(p["wall_s"] for p in untraced) - 1.0, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "expmath", "__init__.py")):
        print(f"perfbench: no expmath sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    tasks = workloads.generate(args.workload, args.seed)
    digest = workloads.digest(tasks)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(args, tasks, digest, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, tasks, digest, work):
    tasks_path = os.path.join(work, "tasks.json")
    with open(tasks_path, "w") as fh:
        json.dump(tasks, fh)
    runner = Runner(work)
    print(f"perfbench {args.workload} seed={args.seed} tasks={len(tasks)} digest={digest} trace={args.trace}")
    print("stamp " + json.dumps(stamp(args.workload, args.seed, digest), sort_keys=True))

    setup_s = setup_seconds(runner, args.workload) if not args.trace else None

    def one_pass(traced):
        if args.workload == "cli":
            return cli_pass(runner, tasks, traced)
        return library_pass(runner, tasks_path, traced)

    plain, traced = [], []
    measure_start = time.perf_counter()
    while True:
        plain.append(one_pass(False))
        if args.trace:
            traced.append(one_pass(True))
        if time.perf_counter() - measure_start >= args.seconds and (args.trace or len(plain) >= MIN_PASSES):
            break
        last = plain[-1]["wall_s"] + (traced[-1]["wall_s"] if traced else 0.0)
        if runner.remaining() < 2 * last + 10:
            break

    passes = plain + traced
    failed, wrong, notes = grade(tasks, passes)
    attempted = len(tasks) * len(passes)
    by_id = {t["id"]: t for t in tasks}
    for task_id, reason in sorted(notes.items()):
        print(f"failed task {task_id} {json.dumps({k: v for k, v in by_id[task_id].items() if k != 'id'})[:120]}: {reason[:200]}")
    print(f"passes={len(plain)} untraced, {len(traced)} traced; attempted={attempted} failed={failed} wrong_answers={wrong}")

    if args.trace:
        probes = [runner.worker("probe")[1] for _ in range(2)]
        metrics = per_layer(traced, plain, probes)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"stamp": stamp(args.workload, args.seed, digest), "fields": ["name", "start", "end", "parent", "task", "extra"],
                       "processes": traced[0]["spans"]}, fh)
        print(f"spans of the first traced pass written to {os.path.relpath(trace_path, ROOT)}")
        for name, m in metrics.items():
            # a time reads exactly 0 only when no span of its kind was recorded
            absent = "  (absent: this workload does not call it)" if m["value"] == 0 and m["unit"] == "s" else ""
            print(f"{name} {m['value']:.6g} {m['unit']}{absent}")
    else:
        metrics, metric_notes = end_to_end(plain, setup_s, len(tasks), failed, attempted)
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}" + (f"  ({metric_notes[name]})" if name in metric_notes else ""))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
