"""Timings of the whole verification suite.

Kept out of the tier-1 `testpaths`; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_verify.py --benchmark-json BENCH_verify.json

Two cases, each the work of one `markovquant verify` command without the
model load and the report:

- `run_verification` on fixture B at r = 1 over k 6..12 at depth offset 2,
  as `markovquant verify fixtures/fixture_b.json --r 1 --k-min 6 --k-max 12
  --depth-offset 2`.  Each check's status is recorded in `extra_info`, and
  so are, from one untimed run, the antichain passes from the vertices
  (`passes`: calls of `antichain.scan_levels`, of which `antichain.scan` is
  the one-level case; 1, the pass `verify` plans over every level its
  checks read), the descents from member keys (`descents`: calls of
  `antichain.descend`; 3, one per level of the error curve) and the
  `geometry.level_grid` builds (`grids`: 2, the Lloyd and Monte Carlo
  grids) of one suite, and the milliseconds each `verify._CHECKS` entry
  took in that run (`check_ms`, keyed by the entry's names).
- `run_verification` on fixture B at r = 3/2 with the defaults (k 6..12,
  depth offset 6), as `markovquant verify fixtures/fixture_b.json --r 3/2`:
  most of its time is the 2-point optimum on the Lloyd check's level-10
  grid of 205,210 cells.  Each check's status is recorded in `extra_info`.
"""

import time
from fractions import Fraction
from pathlib import Path

from markovquant import antichain, geometry, load_model, run_verification, verify

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _counted(monkeypatch, module, name) -> list:
    """Record one entry per call of module.name until monkeypatch is undone."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _timed_checks(monkeypatch) -> dict:
    """Milliseconds of each `verify._CHECKS` entry, keyed by its names, until
    monkeypatch is undone."""
    ms = {}

    def timed(names, check):
        def run(ctx):
            start = time.perf_counter()
            try:
                return list(check(ctx))
            finally:
                ms["/".join(names)] = round(1e3 * (time.perf_counter() - start), 2)

        return run

    entries = tuple((names, band, timed(names, check)) for names, band, check in verify._CHECKS)
    monkeypatch.setattr(verify, "_CHECKS", entries)
    return ms


def test_verify_b(benchmark, monkeypatch):
    sys_b = load_model(FIXTURES / "fixture_b.json")
    passes = _counted(monkeypatch, antichain, "scan_levels")
    descents = _counted(monkeypatch, antichain, "descend")
    grids = _counted(monkeypatch, geometry, "level_grid")
    check_ms = _timed_checks(monkeypatch)
    run_verification(sys_b, 1, range(6, 13), depth_offset=2)
    monkeypatch.undo()
    suite = benchmark.pedantic(
        run_verification, args=(sys_b, 1, range(6, 13)), kwargs={"depth_offset": 2},
        rounds=10, warmup_rounds=1,
    )
    benchmark.extra_info["statuses"] = {c.name: c.status for c in suite.checks}
    benchmark.extra_info["passes"] = len(passes)
    benchmark.extra_info["descents"] = len(descents)
    benchmark.extra_info["grids"] = len(grids)
    benchmark.extra_info["check_ms"] = check_ms


def test_verify_b_r32(benchmark):
    sys_b = load_model(FIXTURES / "fixture_b.json")
    suite = benchmark.pedantic(
        run_verification, args=(sys_b, Fraction(3, 2), range(6, 13)), rounds=3, warmup_rounds=0,
    )
    benchmark.extra_info["statuses"] = {c.name: c.status for c in suite.checks}
