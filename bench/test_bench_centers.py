"""Timings of the general-order cell recentering behind Lloyd and the 2-point optimum.

Kept out of the tier-1 `testpaths`; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_centers.py --benchmark-json BENCH_9.json

Both cases run at r = 3/2, where every cell's best point comes from the
derivative bisection of `geometry._cell_centers`:

- `lloyd_refine` on C from the codebook of its level-9 grid, integrated on
  the level-13 grid (the last row of `quantize fixtures/fixture_c.json --r 3/2
  --k-min 4 --k-max 9 --refine --depth-offset 4`);
- `optimal_two_point` on the level-8 grid of B (26,050 cells).

The grids are built once, outside the timed calls.
"""

from fractions import Fraction
from pathlib import Path

from markovquant import (
    grid_codebook, level_grid, lloyd_refine, load_model, optimal_two_point, realize,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
R = Fraction(3, 2)


def test_lloyd_refine_c(benchmark):
    rz = realize(load_model(FIXTURES / "fixture_c.json"))
    start = grid_codebook(level_grid(rz, R, 9))
    grid = level_grid(rz, R, 13)
    _book, trace = benchmark.pedantic(
        lloyd_refine, args=(rz, start, R, 13), kwargs={"max_iter": 50, "grid": grid},
        rounds=10, warmup_rounds=1,
    )
    benchmark.extra_info["cells"] = grid.size
    benchmark.extra_info["iterations"] = len(trace) - 1


def test_optimal_two_point_b(benchmark):
    grid = level_grid(realize(load_model(FIXTURES / "fixture_b.json")), R, 8)
    benchmark.pedantic(optimal_two_point, args=(grid, R), rounds=5, warmup_rounds=1)
    benchmark.extra_info["cells"] = grid.size
