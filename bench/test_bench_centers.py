"""Timings of the cell recentering behind Lloyd and the 2-point optimum.

Kept out of the tier-1 `testpaths`; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_centers.py --benchmark-json BENCH_13.json

Every kernel reads its order from its grid, and `geometry._cell_centers`
recenters all cells of a codebook in one array pass:

- `lloyd_refine` on the level-13 grid of C at r = 3/2, from the codebook of
  its level-9 grid (the last row of `quantize fixtures/fixture_c.json --r
  3/2 --k-min 4 --k-max 9 --refine --depth-offset 4`), where every center
  is the root of its cell's derivative, found by the bracketed secant;
- `lloyd_refine` on the level-10 grid of B at r = 1 and at r = 2, from the
  codebook of its level-8 grid (the last row of `quantize
  fixtures/fixture_b.json --r R --k-min 4 --k-max 8 --refine --depth-offset
  2`), where the centers are weighted medians and means;
- `optimal_two_point` on the level-8 grid of B at r = 3/2 (26,050 cells),
  where a branch and bound solves each cut it evaluates by the bracketed
  secant, inside the centers of the nearest cuts already evaluated; and at
  r = 1 (17,460 cells) and r = 2 (40,366 cells), where one prefix-sum
  sweep costs every cut at once, the medians of all cuts read from one
  shared cumulative sum at r = 1, and only the cuts within the sweep's
  rounding bound of the least are recentered directly.

Each Lloyd case records its grid's cells and the steps Lloyd took.  Each
2-point case records its grid's cells and, from one untimed run, the cuts
recentered directly (`candidates`).  The grids are built once, outside the
timed calls.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from markovquant import (
    geometry, grid_codebook, level_grid, lloyd_refine, load_model, optimal_two_point, realize,
)
from markovquant.antichain import scan

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
R = Fraction(3, 2)


def grid_at(rz, r, k):
    return level_grid(rz, scan(rz.system, r, k))


def run_lloyd(benchmark, name, r, k, depth):
    rz = realize(load_model(FIXTURES / f"fixture_{name}.json"))
    start = grid_codebook(grid_at(rz, r, k))
    grid = grid_at(rz, r, depth)
    _book, trace = benchmark.pedantic(
        lloyd_refine, args=(grid, start), kwargs={"max_iter": 50},
        rounds=10, warmup_rounds=1,
    )
    benchmark.extra_info["cells"] = grid.size
    benchmark.extra_info["iterations"] = len(trace) - 1


def test_lloyd_refine_c(benchmark):
    run_lloyd(benchmark, "c", R, 9, 13)


@pytest.mark.parametrize("r", [1, 2])
def test_lloyd_refine_b(benchmark, r):
    run_lloyd(benchmark, "b", r, 8, 10)


def run_two_point(benchmark, monkeypatch, r, rounds):
    grid = grid_at(realize(load_model(FIXTURES / "fixture_b.json")), r, 8)
    recentered, kernel = [], geometry._cell_centers
    monkeypatch.setattr(geometry, "_cell_centers", lambda *args: recentered.append(1) or kernel(*args))
    optimal_two_point(grid)
    monkeypatch.undo()
    benchmark.pedantic(optimal_two_point, args=(grid,), rounds=rounds, warmup_rounds=1)
    benchmark.extra_info["cells"] = grid.size
    benchmark.extra_info["candidates"] = len(recentered)


def test_optimal_two_point_b(benchmark, monkeypatch):
    run_two_point(benchmark, monkeypatch, R, 5)


def test_optimal_two_point_b_r1(benchmark, monkeypatch):
    run_two_point(benchmark, monkeypatch, 1, 20)


def test_optimal_two_point_b_r2(benchmark, monkeypatch):
    run_two_point(benchmark, monkeypatch, 2, 20)
