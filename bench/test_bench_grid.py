"""Timings of `geometry.level_grid` on the deep grids of the verify runs.

Kept out of the tier-1 `testpaths`; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_grid.py --benchmark-json BENCH_8.json

Each case builds one level-k grid of a fixture, its one-level antichain pass
and the layout of that pass: B at r = 1, k = 12 and 14
(686,254 and 3,530,444 cells), the codebook and integration grids of a
Lloyd-refined error curve on B at level 12 and offset 2, and C at r = 3/2,
k = 13 (81,920 cells).  The unrefined curve of `verify` builds neither: it
sums its sandwich per member key (`bench/test_bench_curve.py`).
"""

from fractions import Fraction
from pathlib import Path

import pytest

from markovquant import level_grid, load_model, realize
from markovquant.antichain import scan

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def build(rz, r, k):
    return level_grid(rz, scan(rz.system, r, k))


@pytest.mark.parametrize(
    "name, r, k",
    [("b", 1, 12), ("b", 1, 14), ("c", Fraction(3, 2), 13)],
    ids=["b-r1-k12", "b-r1-k14", "c-r1.5-k13"],
)
def test_level_grid(benchmark, name, r, k):
    rz = realize(load_model(FIXTURES / f"fixture_{name}.json"))
    grid = benchmark.pedantic(build, args=(rz, r, k), rounds=10, warmup_rounds=1)
    benchmark.extra_info["cells"] = grid.size
