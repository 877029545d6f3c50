"""Timings of the antichain statistics layer.

Kept out of the tier-1 `testpaths`; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_antichain.py --benchmark-json BENCH_10.json

Three cases on fixture B:

- `theorem_ratio_series` at r = 1 over k 6..14, the work of
  `antichain fixtures/fixture_b.json --r 1 --k-min 6 --k-max 14`;
- `theorem_ratio_series` at r = 1 over k 1..40, one pass deep into the
  levels where phi leaves the word cap far behind;
- `scan` and `series_row` (with its `implicit_exponent`) at r = 2,
  k = 160, where phi is about 5.6e61 and the member weights lie far below
  the float range.

And `scan_levels` at r = 1, k = 3 on the test suite's seeded random models 0
and 6, whose word states barely merge: the pass's member table has nearly a
row per member word, so its fold into the histogram weighs as much as the
pass.

The critical structure is solved once, outside the timed calls.  Both series
record, from one untimed call, their antichain passes from the vertices
(`passes`: calls of `antichain.scan_levels`).  The deep exponent case also
records its histogram keys (`keys`) and exponent (`t_k`) and, from one
untimed scan under `tracemalloc`, the memory the pass holds once built
(`held_mb`) and its child slots (`slots`).
The random scans record their member words (`words`), histogram keys
(`keys`) and child slots (`slots`).
"""

import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from markovquant import (
    MarkovSystem, antichain, critical_analysis, load_model, theorem_ratio_series,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def random_rational_system(rng: random.Random) -> MarkovSystem:
    """The test suite's random model of 2 to 6 vertices, exact rational weights."""
    n = rng.randint(2, 6)
    p = [[Fraction(0)] * n for _ in range(n)]
    c = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        targets = rng.sample(range(n), rng.randint(2, n))
        weights = [rng.randint(1, 9) for _ in targets]
        for j, wgt in zip(targets, weights):
            p[i][j] = Fraction(wgt, sum(weights))
            c[i][j] = Fraction(rng.randint(1, 8), rng.randint(9, 20))
    chi_w = [rng.randint(1, 5) for _ in range(n)]
    return MarkovSystem(p, c, [Fraction(w, sum(chi_w)) for w in chi_w])


def _series(benchmark, monkeypatch, ks, **kwargs):
    sys_b = load_model(FIXTURES / "fixture_b.json")
    kwargs["cs"] = critical_analysis(sys_b, 1)
    passes, real = [], antichain.scan_levels

    def counted(*args, **kw):
        passes.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(antichain, "scan_levels", counted)
    theorem_ratio_series(sys_b, 1, ks, **kwargs)
    monkeypatch.undo()
    rows = benchmark.pedantic(
        theorem_ratio_series, args=(sys_b, 1, ks), kwargs=kwargs, rounds=10, warmup_rounds=1,
    )
    benchmark.extra_info["words"] = sum(row.phi for row in rows)
    benchmark.extra_info["passes"] = len(passes)


def test_series_b(benchmark, monkeypatch):
    _series(benchmark, monkeypatch, range(6, 15))


def test_deep_series_b(benchmark, monkeypatch):
    _series(benchmark, monkeypatch, range(1, 41), capacity=10**300)


def test_deep_exponent_b(benchmark):
    sys_b = load_model(FIXTURES / "fixture_b.json")
    cs = critical_analysis(sys_b, 2)

    def deep():
        res = antichain.scan(sys_b, 2, 160, cs=cs, capacity=10**300)
        return res, antichain.series_row(res, cs)

    res, row = benchmark.pedantic(deep, rounds=10, warmup_rounds=1)
    benchmark.extra_info["keys"] = len(res.weights)
    benchmark.extra_info["t_k"] = row.t_k
    del res
    tracemalloc.start()
    try:
        res = antichain.scan(sys_b, 2, 160, cs=cs, capacity=10**300)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["held_mb"] = held / 1e6
    benchmark.extra_info["slots"] = sum(len(lvl.edge) for lvl in res.levels)


@pytest.mark.parametrize("seed", [0, 6], ids=["seed0", "seed6"])
def test_scan_random(benchmark, seed):
    model = random_rational_system(random.Random(seed))
    cs = critical_analysis(model, 1)
    passes = benchmark.pedantic(
        antichain.scan_levels, args=(model, 1, [3]), kwargs={"cs": cs}, rounds=5, warmup_rounds=1,
    )
    res = passes[3]
    benchmark.extra_info["words"] = res.phi
    benchmark.extra_info["keys"] = len(res.weights)
    benchmark.extra_info["slots"] = sum(len(lvl.edge) for lvl in res.levels)
