"""Timings of `geometry.error_curve` on grid codebooks, which builds no grid.

Kept out of the tier-1 `testpaths`; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_curve.py --benchmark-json BENCH_11.json

Both cases run fixture B at r = 1:

- levels 6, 9 and 12 at depth offset 2, the error curve of `markovquant
  verify fixtures/fixture_b.json --r 1 --k-min 6 --k-max 12 --depth-offset 2`;
- level 12 at depth offset 6, the last level of the default `verify` on B,
  whose level-18 integration grid (122,288,498 cells) would be over the
  default capacity cap of 10^8.

Each case records, per level, the member keys and the rows laid out under
them, taken from `member_sandwich` outside the timed calls.
"""

from pathlib import Path

import pytest

from markovquant import error_curve, load_model, member_sandwich, realize
from markovquant.antichain import scan

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.mark.parametrize(
    "ks, offset", [((6, 9, 12), 2), ((12,), 6)], ids=["b-r1-k6.9.12-off2", "b-r1-k12-off6"]
)
def test_error_curve(benchmark, ks, offset):
    model = load_model(FIXTURES / "fixture_b.json")
    benchmark.pedantic(
        error_curve, args=(model, 1, ks), kwargs={"depth_offset": offset},
        rounds=10, warmup_rounds=1,
    )
    rz = realize(model)
    for k in ks:
        est = member_sandwich(rz, scan(model, 1, k), k + offset)
        benchmark.extra_info[f"k{k}"] = {"n": est.n, "keys": est.keys, "rows": est.rows}
