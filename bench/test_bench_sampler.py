"""Timings of the seeded Monte Carlo sampler.

Kept out of the tier-1 `testpaths`; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_sampler.py --benchmark-json BENCH_sampler.json

One case: `sample_support_points` on fixture B with 100,000 samples and seed
12345, `verify`'s default sample and seed.  `extra_info` records the
samples and the steps the walk took to bring every cylinder below the
sampler's resolution.
"""

from pathlib import Path

from markovquant import geometry, load_model, realize
from markovquant.geometry import SamplingResolutionError, sample_support_points

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
N, SEED = 100_000, 12345


def steps_taken(rz, monkeypatch) -> int:
    """The walk's step count: the smallest step cap under which it finishes."""
    lo, hi = 0, geometry._SAMPLE_STEPS  # the walk raises at lo and finishes at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        monkeypatch.setattr(geometry, "_SAMPLE_STEPS", mid)
        try:
            sample_support_points(rz, N, SEED)
        except SamplingResolutionError:
            lo = mid
        else:
            hi = mid
    monkeypatch.undo()
    return hi


def test_sample_support_points_b(benchmark, monkeypatch):
    rz = realize(load_model(FIXTURES / "fixture_b.json"))
    benchmark.pedantic(sample_support_points, args=(rz, N, SEED), rounds=15, warmup_rounds=1)
    benchmark.extra_info["samples"] = N
    benchmark.extra_info["steps"] = steps_taken(rz, monkeypatch)
