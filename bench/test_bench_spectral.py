"""Timings of the spectral layer and of model validation.

Kept out of the tier-1 `testpaths`; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_spectral.py --benchmark-json BENCH_spectral.json

Three cases:

- `analysis_report` on fixture B at r = 1 and r = 3/2, the work of
  `markovquant analyze fixtures/fixture_b.json` per order without the model
  load and the JSON;
- `critical_analysis` and, at the full root, `row_sum_bounds` of every
  critical component (h = 1, as `analysis_report` calls it) on a 120-vertex
  ring whose vertices also jump 3 steps ahead: a slowly mixing block, whose
  tight radii and left Perron vector are the kernel's hard case;
- `validate_system` on that ring.

The analysis records, from one untimed call, the `solve_sr` calls (`solves`)
and their Psi evaluations (`psi_evals`).
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from markovquant import (
    MarkovSystem, critical_analysis, load_model, row_sum_bounds, spectral, validate_system, verify,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def ring_system(n: int, chord: int) -> MarkovSystem:
    """n-cycle in which vertex i also jumps chord steps ahead (the test suite's ring)."""
    rng = random.Random(n * 31 + chord)
    edges = []
    for i in range(1, n + 1):
        p_next = Fraction(rng.randint(5, 9), 10)
        edges.append((i, i % n + 1, p_next, Fraction(rng.randint(1, 8), rng.randint(9, 20))))
        edges.append((i, (i + chord - 1) % n + 1, 1 - p_next, Fraction(rng.randint(1, 8), 20)))
    return MarkovSystem.from_edges(n, edges, [Fraction(1, n)] * n)


@pytest.mark.parametrize("r", [1, Fraction(3, 2)], ids=["r1", "r1.5"])
def test_analysis_report_b(benchmark, monkeypatch, r):
    sys_b = load_model(FIXTURES / "fixture_b.json")
    solves, real = [], spectral.solve_sr

    def counted(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(spectral, "solve_sr", counted)
    verify.analysis_report(sys_b, r)
    monkeypatch.undo()
    benchmark.pedantic(verify.analysis_report, args=(sys_b, r), rounds=20, warmup_rounds=1)
    benchmark.extra_info["solves"] = len(solves)
    benchmark.extra_info["psi_evals"] = sum(len(sol.evaluations) for sol in solves)


def _ring_spectra(system, r):
    cs = critical_analysis(system, r)
    root = spectral.full_solution(system, cs).root
    return [
        row_sum_bounds(system, r, cs.condensation.components[idx], h_max=1, s=root)
        for idx in cs.critical_indices
    ]


def test_ring_spectra(benchmark):
    benchmark.pedantic(_ring_spectra, args=(ring_system(120, 3), 1), rounds=10, warmup_rounds=1)


def test_validate_ring(benchmark):
    report = benchmark.pedantic(validate_system, args=(ring_system(120, 3),), rounds=20, warmup_rounds=1)
    assert report.ok
