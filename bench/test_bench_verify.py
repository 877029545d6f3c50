"""Timings of the whole verification suite.

Kept out of the tier-1 `testpaths`; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_verify.py --benchmark-json BENCH_verify.json

One case: `run_verification` on fixture B at r = 1 over k 6..12 at depth
offset 2, the work of `markovquant verify fixtures/fixture_b.json --r 1
--k-min 6 --k-max 12 --depth-offset 2` without the model load and the report.
Each check's status is recorded in `extra_info`.
"""

from pathlib import Path

from markovquant import load_model, run_verification

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_verify_b(benchmark):
    sys_b = load_model(FIXTURES / "fixture_b.json")
    suite = benchmark.pedantic(
        run_verification, args=(sys_b, 1, range(6, 13)), kwargs={"depth_offset": 2},
        rounds=10, warmup_rounds=1,
    )
    benchmark.extra_info["statuses"] = {c.name: c.status for c in suite.checks}
