"""The test suite's own settings and the benchmark's hooks into `src/`."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _python(args, cwd, extra_path=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*extra_path, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=120)


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # under the repository's warning filters, a failing @given test is
    # reported like any other, and the tests after it still run
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    proc = _python(["-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"], tmp_path)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout


def test_benchmark_tracer_hooks_exist(tmp_path):
    # the tracer wraps private names in src/ by name; a rename fails here
    # as well as in the traced benchmark pass.  Each K0 memo miss goes
    # through the traced name with its carried ln t, so the traced count is
    # the memo's own miss count.
    script = textwrap.dedent("""
        import tracing
        from expmath import bessel_moments
        from expmath.precision import PrecisionContext

        t = tracing.install()
        memo = bessel_moments._k0_cached
        memo.cache_clear()
        before = memo.cache_info().misses
        bessel_moments.c_n(4, PrecisionContext.from_digits(30))
        misses = memo.cache_info().misses - before
        calls = tracing.layer_sums(t.spans)["functions.log_k0_calls"]
        assert calls == misses > 0, (calls, misses)
    """)
    proc = _python(["-c", script], tmp_path, [str(ROOT / "src"), str(ROOT / "perfbench")])
    assert proc.returncode == 0, proc.stderr
