"""Timings of the cell recentering behind Lloyd and the 2-point optimum.

Kept out of the tier-1 `testpaths`; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_centers.py --benchmark-json BENCH_13.json

Every kernel reads its order from its grid, and `geometry._cell_centers`
recenters all cells of a codebook in one array pass:

- `lloyd_refine` on the level-13 grid of C at r = 3/2, from the codebook of
  its level-9 grid (the last row of `quantize fixtures/fixture_c.json --r
  3/2 --k-min 4 --k-max 9 --refine --depth-offset 4`), where every center
  comes from the derivative bisection;
- `lloyd_refine` on the level-10 grid of B at r = 1 and at r = 2, from the
  codebook of its level-8 grid (the last row of `quantize
  fixtures/fixture_b.json --r R --k-min 4 --k-max 8 --refine --depth-offset
  2`), where the centers are weighted medians and means;
- `optimal_two_point` on the level-8 grid of B at r = 3/2 (26,050 cells),
  where every cut bisects, and at r = 1 (17,460 cells), where every cut
  reads its medians from one shared cumulative sum.

Each Lloyd case records its grid's cells and the steps Lloyd took.  The
grids are built once, outside the timed calls.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from markovquant import (
    grid_codebook, level_grid, lloyd_refine, load_model, optimal_two_point, realize,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
R = Fraction(3, 2)


def run_lloyd(benchmark, name, r, k, depth):
    rz = realize(load_model(FIXTURES / f"fixture_{name}.json"))
    start = grid_codebook(level_grid(rz, r, k))
    grid = level_grid(rz, r, depth)
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


def run_two_point(benchmark, r, rounds):
    grid = level_grid(realize(load_model(FIXTURES / "fixture_b.json")), r, 8)
    benchmark.pedantic(optimal_two_point, args=(grid,), rounds=rounds, warmup_rounds=1)
    benchmark.extra_info["cells"] = grid.size


def test_optimal_two_point_b(benchmark):
    run_two_point(benchmark, R, 5)


def test_optimal_two_point_b_r1(benchmark):
    run_two_point(benchmark, 1, 20)
