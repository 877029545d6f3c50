"""The fast cases of `bench/` run once, untimed, and every bench module is
collected, so an API change that breaks a bench script fails here too.

`bench/` is outside the default test paths; each case below takes well under
0.1 s with benchmarking disabled.  They run in a child pytest, as
`PYTHONPATH=src python -m pytest bench --benchmark-disable` would run them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAST_CASES = [
    "bench/test_bench_antichain.py::test_series_b",
    "bench/test_bench_antichain.py::test_scan_random[seed0]",
    "bench/test_bench_centers.py::test_lloyd_refine_c",
    "bench/test_bench_centers.py::test_lloyd_refine_b",
    "bench/test_bench_centers.py::test_optimal_two_point_b_r1",
    "bench/test_bench_centers.py::test_optimal_two_point_b_r2",
    "bench/test_bench_curve.py::test_error_curve",
    "bench/test_bench_grid.py::test_level_grid[b-r1-k12]",
    "bench/test_bench_grid.py::test_level_grid[c-r1.5-k13]",
    "bench/test_bench_sampler.py::test_sample_support_points[b]",
    "bench/test_bench_spectral.py::test_analysis_report_b",
    "bench/test_bench_spectral.py::test_analysis_report_blocks",
    "bench/test_bench_spectral.py::test_ring_spectra",
    "bench/test_bench_spectral.py::test_validate_ring",
]


def _child_pytest(*args: str) -> subprocess.CompletedProcess:
    """pytest in a child process from the repository root, `src` on its path."""
    pytest.importorskip("pytest_benchmark")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        # hypothesis's plugin would take most of the child's start-up
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
         *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_fast_bench_cases_run():
    done = _child_pytest("--benchmark-disable", *FAST_CASES)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "17 passed" in done.stdout, done.stdout


def test_every_bench_module_collects():
    # a bench module that imports a name the package no longer has fails to
    # collect, whether or not one of its cases is in FAST_CASES
    done = _child_pytest("--collect-only", "bench")
    assert done.returncode == 0, done.stdout + done.stderr
    # with a collection error the summary reads "25 tests collected, 1 error in"
    assert "25 tests collected in " in done.stdout, done.stdout
