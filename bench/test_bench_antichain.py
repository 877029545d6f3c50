"""Timings of the antichain statistics layer.

Kept out of the tier-1 `testpaths`; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_antichain.py --benchmark-json BENCH_10.json

Two cases on fixture B:

- `theorem_ratio_series` at r = 1 over k 6..14, the work of
  `antichain fixtures/fixture_b.json --r 1 --k-min 6 --k-max 14`;
- `enumerate_antichain` and `implicit_exponent` at r = 2, k = 160, where
  phi is about 5.6e61 and the member weights lie far below the float range.

The critical structure is solved once, outside the timed calls.
"""

from pathlib import Path

from markovquant import (
    critical_analysis, enumerate_antichain, implicit_exponent, load_model, theorem_ratio_series,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_series_b(benchmark):
    sys_b = load_model(FIXTURES / "fixture_b.json")
    cs = critical_analysis(sys_b, 1)
    rows = benchmark.pedantic(
        theorem_ratio_series, args=(sys_b, 1, range(6, 15)), kwargs={"cs": cs},
        rounds=10, warmup_rounds=1,
    )
    benchmark.extra_info["words"] = sum(row.phi for row in rows)


def test_deep_exponent_b(benchmark):
    sys_b = load_model(FIXTURES / "fixture_b.json")
    cs = critical_analysis(sys_b, 2)

    def deep():
        ac = enumerate_antichain(sys_b, 2, 160, critical=cs, capacity=10**300)
        return ac, implicit_exponent(ac)

    ac, t = benchmark.pedantic(deep, rounds=10, warmup_rounds=1)
    benchmark.extra_info["keys"] = len(ac.hist)
    benchmark.extra_info["t_k"] = t
