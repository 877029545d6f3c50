"""The five workloads: each pass runs markovquant CLI commands in-process.

A workload is built once (its set-up: references, generated inputs, and one
load_model of every input model) and then runs passes.  A pass calls
``cli.main`` with fixed arguments, times only the calls, and checks every
output against the recorded references.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import check
import genmodels

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"


@dataclass
class PassResult:
    wall: float = 0.0  # seconds inside cli.main
    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    words: int = 0  # antichain words in the outputs


def call_cli(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """(exit code or None on an exception, stdout, seconds) of one command."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc(file=sys.stderr)
        rc = None
    return rc, buf.getvalue(), time.perf_counter() - t0


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, work: Path, package) -> None:
        self.root, self.seed, self.work = root, seed, work
        self.package, self.cli = package, package.cli

    def run_pass(self) -> PassResult:
        raise NotImplementedError


class VerifyB(Workload):
    """The user's verdict: verify on fixture B in the README configuration."""

    name = "verify-b"
    extra: tuple[str, ...] = ()

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.package.load_model(self.root / "fixtures" / "fixture_b.json")
        self.ref = json.loads((REFERENCE / "verify_b.json").read_text(encoding="utf-8"))
        self.out = self.work / f"out-{self.name}"
        self.argv = [
            "verify", str(self.root / "fixtures" / "fixture_b.json"), "--r", "1",
            "--k-min", "6", "--k-max", "12", "--depth-offset", "2",
            "--seed", str(self.seed), "--out", str(self.out), *self.extra,
        ]
        self.report = self.out / "verify_fixture_b.json"

    def run_pass(self) -> PassResult:
        self.report.unlink(missing_ok=True)
        rc, _, wall = call_cli(self.cli, self.argv)
        res = PassResult(wall=wall, ops=len(self.ref))
        if rc is None or not self.report.is_file():
            res.failed, res.problems = res.ops, [f"{self.name}: no report (exit {rc})"]
            return res
        report = json.loads(self.report.read_text(encoding="utf-8"))
        res.failed, res.problems = check.check_verify(report, self.ref)
        if rc != 0:
            res.problems.append(f"{self.name}: exit {rc}")
        return res


class VerifyBCap(VerifyB):
    """verify-b under --cap 1e6: the depth-14 grid overruns the cap, a capacity SKIP."""

    name = "verify-b-cap"
    extra = ("--cap", "1000000")


class SeriesB(Workload):
    """Antichain series on fixture B, k 6..14: histogram scans only, no geometry."""

    name = "series-b"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.package.load_model(self.root / "fixtures" / "fixture_b.json")
        self.ref = (REFERENCE / "series_b.csv").read_text(encoding="utf-8")
        self.argv = [
            "antichain", str(self.root / "fixtures" / "fixture_b.json"), "--r", "1",
            "--k-min", "6", "--k-max", "14",
        ]

    def run_pass(self) -> PassResult:
        rc, out, wall = call_cli(self.cli, self.argv)
        res = PassResult(wall=wall, ops=self.ref.count("\n") - 1)
        if rc != 0:
            res.failed, res.problems = res.ops, [f"{self.name}: exit {rc}"]
            return res
        res.failed, res.problems = check.check_series(out, self.ref)
        res.words = sum(int(row["phi"]) for row in check.csv_rows(out)[1])
        return res


class LloydC(Workload):
    """Lloyd-refined curve on fixture C at r=3/2: ternary cell search."""

    name = "lloyd-c"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.package.load_model(self.root / "fixtures" / "fixture_c.json")
        self.ref = (REFERENCE / "lloyd_c.csv").read_text(encoding="utf-8")
        self.argv = [
            "quantize", str(self.root / "fixtures" / "fixture_c.json"), "--r", "3/2",
            "--k-min", "4", "--k-max", "9", "--refine", "--depth-offset", "4",
        ]

    def run_pass(self) -> PassResult:
        rc, out, wall = call_cli(self.cli, self.argv)
        res = PassResult(wall=wall, ops=self.ref.count("\n") - 1)
        if rc != 0:
            res.failed, res.problems = res.ops, [f"{self.name}: exit {rc}"]
            return res
        res.failed, res.problems = check.check_lloyd(out, self.ref)
        return res


class AnalyzeRandom(Workload):
    """analyze at r=1 and 3/2 on 50 seeded models: the spectral root solver."""

    name = "analyze-random"
    orders = ("1", "3/2")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        paths = genmodels.generate(self.seed, self.work / f"models-{self.seed}")
        self.models = []
        for path in paths:
            self.package.load_model(path)
            cfg = json.loads(path.read_text(encoding="utf-8"))
            self.models.append((str(path), check.model_matrices(cfg)))
        self.flags = [flag for r in self.orders for flag in ("--r", r)]

    def run_pass(self) -> PassResult:
        res = PassResult()
        per_model = len(self.orders)
        for path, (p, c) in self.models:
            rc, out, wall = call_cli(self.cli, ["analyze", path, *self.flags])
            res.wall += wall
            res.ops += per_model
            if rc != 0:
                res.failed += per_model
                res.problems.append(f"{self.name} {path}: exit {rc}")
                continue
            failed, problems = check.check_analyze(json.loads(out), p, c)
            res.failed += failed
            res.problems += problems
        return res


WORKLOADS = {w.name: w for w in (VerifyB, VerifyBCap, SeriesB, LloydC, AnalyzeRandom)}
