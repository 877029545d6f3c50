"""Timings of the seeded Monte Carlo sampler.

Kept out of the tier-1 `testpaths`; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_sampler.py --benchmark-json BENCH_sampler.json

Two cases, each `sample_support_points` with 100,000 samples and seed
12345, `verify`'s default sample and seed:

- fixture B, out-degree 2, which the sampler walks 7 chain levels per
  super-step;
- the complete 24-vertex model with p = 1/24 and c = 1/48 on every edge,
  whose 576 one-edge paths fill one level per super-step.

`extra_info` records the samples, the chain levels L walked per
super-step, the levels the walk took to bring every cylinder below the
sampler's resolution, and its super-steps.
"""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from markovquant import MarkovSystem, geometry, load_model, realize
from markovquant.geometry import SamplingResolutionError, sample_support_points

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
N, SEED = 100_000, 12345


def complete_model(n: int) -> MarkovSystem:
    """Every edge of the complete n-vertex graph, p = 1/n and c = 1/(2n)."""
    return MarkovSystem(
        p=[[Fraction(1, n)] * n] * n, c=[[Fraction(1, 2 * n)] * n] * n, chi=[Fraction(1, n)] * n
    )


MODELS = {"b": lambda: load_model(FIXTURES / "fixture_b.json"), "complete24": lambda: complete_model(24)}


def levels_taken(rz, per_step: int, monkeypatch) -> int:
    """The chain levels the walk took: the smallest multiple of its levels
    per super-step that, as the level cap, lets it finish."""
    for steps in itertools.count(1):
        monkeypatch.setattr(geometry, "_SAMPLE_STEPS", steps * per_step)
        try:
            sample_support_points(rz, N, SEED)
        except SamplingResolutionError:
            continue
        monkeypatch.undo()
        return steps * per_step


@pytest.mark.parametrize("name", list(MODELS))
def test_sample_support_points(benchmark, monkeypatch, name):
    rz = realize(MODELS[name]())
    benchmark.pedantic(sample_support_points, args=(rz, N, SEED), rounds=15, warmup_rounds=1)
    per_step = geometry._path_tables(rz).levels
    levels = levels_taken(rz, per_step, monkeypatch)
    benchmark.extra_info.update(
        samples=N, levels_per_step=per_step, levels=levels, super_steps=levels // per_step
    )
