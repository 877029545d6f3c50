"""Benchmark of the markovquant command line, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from a checkout: the package is imported from its ``src/`` and the
fixtures from ``fixtures/``; without them the script exits with code 1.  One
process, one thread (BLAS pinned to one thread), one closed-loop caller:
each pass starts when the previous one has been checked, and passes start
until ``--seconds`` have gone by.  Every output is checked against
``reference/`` (or, for generated models, an eigenvalue oracle); any mismatch
makes the result incorrect and the exit code 1.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds of
one pass inside ``cli.main``; the pass count is printed), ``setup_s`` (median
over fresh interpreters of importing the package and loading or generating
the inputs) and ``peak_rss_mb`` (peak resident memory of this fresh process after set-up
and its first pass).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians over passes), plus
``trace.overhead_s``, traced minus untraced median pass time; spans go to
``.perfbench/spans-<workload>-seed<N>.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is one verify check,
one series level, one curve row, or one (model, order) analysis; a FAIL, a
capacity SKIP, a mismatch, an exception or a nonzero exit fails it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 9


def load_package():
    """Import markovquant from this checkout's src/, and nowhere else."""
    pkg_dir = SRC / "markovquant"
    if not (pkg_dir / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise SystemExit(f"error: {ROOT} has no src/markovquant or fixtures/; run from a checkout")
    sys.path.insert(0, str(SRC))
    import markovquant
    import markovquant.cli

    if Path(markovquant.__file__).resolve().parent != pkg_dir:
        raise SystemExit(f"error: imported {markovquant.__file__}, not the checkout's package")
    return markovquant


def build(name: str, seed: int):
    package = load_package()
    WORK.mkdir(exist_ok=True)
    return package, workloads.WORKLOADS[name](ROOT, seed, WORK, package)


def setup_seconds(args) -> float:
    """Median wall time of a fresh interpreter that only sets the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up of {args.workload} failed")
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, package, seconds: float, trace: bool):
    """Closed loop until `seconds` pass; with trace, every other pass is traced.

    Also returns the peak RSS after the first pass: later passes raise the
    high-water mark a little (heap growth), and their number depends on speed.
    """
    tracer = spans.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    first_rss = None
    while True:
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            tracer.pass_id = len(traced)
            tracer.install(package)
        try:
            res = wl.run_pass()
        finally:
            tracer.uninstall()
        (traced if use_trace else plain).append(res)
        first_rss = first_rss or peak_rss_mb()
        if time.perf_counter() >= deadline and (traced or not trace):
            return plain, traced, tracer, first_rss


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("words_per_s"):
        return "1/s"
    if metric.endswith("words_per_key"):
        return "words/key"
    if metric.endswith((".s", "_s")):
        return "s"
    return "count"


def layer_medians(tracer: spans.Tracer, n_passes: int) -> dict[str, float]:
    per_pass = [[] for _ in range(n_passes)]
    for s in tracer.spans:
        per_pass[s.pass_id].append(s)
    rows = [spans.layer_metrics(spans.PassSpans(p)) for p in per_pass]
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def run_one(args) -> int:
    setup_s = None if args.trace else setup_seconds(args)
    package, wl = build(args.workload, args.seed)
    plain, traced, tracer, first_rss = measure(wl, package, args.seconds, bool(args.trace))
    passes = plain + traced
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    wall = statistics.median(p.wall for p in plain)

    if args.trace:
        values = layer_medians(tracer, len(traced))
        values["trace.overhead_s"] = statistics.median(p.wall for p in traced) - wall
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": first_rss,
        }
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}

    print(f"# {args.workload} seed={args.seed}: {len(plain)} untraced and {len(traced)} traced "
          "passes; no percentile above the median has 10 passes beyond it")
    print(f"# untraced pass s: {' '.join(f'{p.wall:.4f}' for p in plain)}")
    if traced:
        print(f"# traced pass s: {' '.join(f'{p.wall:.4f}' for p in traced)}")
    print(f"# error_rate = {failed}/{attempted}")
    if plain[0].words:
        print(f"# words_per_s = {statistics.median(p.words / p.wall for p in plain):.6g}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for msg in problems[:20]:
        print(f"mismatch: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own process, one metric per line."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        for line in lines:
            if line.startswith("#"):
                print(line)
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']!r} {m['unit']}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        build(args.workload, args.seed)
        return 0
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
