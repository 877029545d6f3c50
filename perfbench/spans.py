"""Outside-in tracing of the markovquant layers, and the per-layer metrics.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, pass id, error,
counts taken from the return value).  It patches the function at every module
attribute that holds it, so names imported by value (``verify.path_weight``,
``cli.load_model``) are traced too.  Nothing under ``src/`` changes;
`Tracer.uninstall` puts the originals back.  Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field

LAYERS = ("model", "graphs", "spectral", "antichain", "geometry", "verify", "cli")
# as_fraction parses one number and runs once per matrix entry of every model
# load: a span per call would cost more than the call and trace no layer.
UNTRACED = {"as_fraction"}


def _scan_name(args, kwargs) -> str:
    if kwargs.get("layout") is not None:
        return "antichain.scan_grid"
    if kwargs.get("exact") or kwargs.get("store_words"):
        return "antichain.scan_exact"
    return "antichain.scan_hist"


def _suite_counts(suite) -> dict:
    statuses = [c.status for c in suite.checks]
    return {s.lower(): statuses.count(s) for s in ("PASS", "SKIP", "FAIL")}


# span name -> counts read off the return value
COUNTERS = {
    "antichain.scan": lambda res: {"words": res.phi, "keys": len(res.hist)},
    "geometry.level_grid": lambda grid: {"cells": grid.size},
    "geometry.lloyd_refine": lambda out: {"iters": len(out[1]) - 1},
    "spectral.solve_sr": lambda sol: {"psi_evals": len(sol.evaluations)},
    "verify.run_verification": _suite_counts,
}
NAMERS = {"antichain.scan": _scan_name}


@dataclass
class Span:
    id: int
    parent: int | None
    pass_id: int
    name: str
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; one per run, installed only around traced passes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, qualname: str, fn):
        namer = NAMERS.get(qualname)
        counter = COUNTERS.get(qualname)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                id=len(spans), parent=stack[-1] if stack else None, pass_id=self.pass_id,
                name=namer(args, kwargs) if namer else qualname, start=time.perf_counter(),
            )
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result

        return traced

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and name not in UNTRACED
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def write(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([
                    s.id, s.parent, s.pass_id, s.name,
                    round(s.start - t0, 9), round(s.end - t0, 9), s.error, s.counts,
                ]) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children.

    Single-threaded spans nest, so direct children never overlap.
    """
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


class PassSpans:
    """The spans of one traced pass, with the aggregates metrics need."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.own = self_times(spans)
        self._named: dict[str, list[Span]] = {}
        for s in spans:
            self._named.setdefault(s.name, []).append(s)

    def named(self, name: str) -> list[Span]:
        return self._named.get(name, [])

    def total(self, name: str) -> float:
        """Inclusive time of `name`, not counting calls nested in itself."""
        out = 0.0
        for s in self.named(name):
            p = self.by_id.get(s.parent)
            while p is not None and p.name != name:
                p = self.by_id.get(p.parent)
            if p is None:
                out += s.duration
        return out

    def self_time(self, name: str) -> float:
        return sum((self.own[s.id] for s in self.named(name)), 0.0)

    def calls(self, *names: str) -> int:
        return sum(len(self.named(n)) for n in names)

    def count(self, name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.named(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


SCANS = ("antichain.scan_hist", "antichain.scan_grid", "antichain.scan_exact")


def layer_metrics(ps: PassSpans) -> dict[str, float]:
    """Per-layer metrics of one pass.  `.s` is inclusive time unless the
    comment says self time (the span minus the traced calls inside it)."""
    words_hist = ps.count("antichain.scan_hist", "words")
    hist_keys = ps.count("antichain.scan_hist", "keys")
    scan_hist_s = ps.total("antichain.scan_hist")
    capacity = [s for s in ps.spans if s.name in SCANS and s.error == "CapacityError"]
    return {
        "antichain.scan_hist.s": scan_hist_s,
        "antichain.words_hist": words_hist,
        "antichain.hist_keys": hist_keys,
        "antichain.words_per_key": _ratio(words_hist, hist_keys),
        "antichain.scan_hist.words_per_s": _ratio(words_hist, scan_hist_s),
        "antichain.scan_grid.s": ps.total("antichain.scan_grid"),
        "antichain.words_grid": ps.count("antichain.scan_grid", "words"),
        # self times
        "antichain.scan_exact.s": ps.self_time("antichain.scan_exact"),
        "antichain.enumerate_antichain.s": ps.self_time("antichain.enumerate_antichain"),
        "antichain.implicit_exponent.s": ps.self_time("antichain.implicit_exponent"),
        "antichain.theorem_ratio_series.s": ps.self_time("antichain.theorem_ratio_series"),
        "antichain.scan.calls": ps.calls(*SCANS),
        "antichain.capacity_errors": len(capacity),
        "antichain.capacity_wasted_s": sum((s.duration for s in capacity), 0.0),
        "geometry.level_grid.s": ps.self_time("geometry.level_grid"),  # self
        "geometry.level_grid.calls": ps.calls("geometry.level_grid"),
        "geometry.grid_cells": ps.count("geometry.level_grid", "cells"),
        "geometry.lloyd_refine.s": ps.total("geometry.lloyd_refine"),
        "geometry.lloyd_iters": ps.count("geometry.lloyd_refine", "iters"),
        "geometry.optimal_two_point.s": ps.total("geometry.optimal_two_point"),
        "geometry.integrate_error.s": ps.total("geometry.integrate_error"),
        "geometry.quantile_codebook.s": ps.total("geometry.quantile_codebook"),
        "geometry.monte_carlo_error.s": ps.total("geometry.monte_carlo_error"),
        "geometry.realize.s": ps.total("geometry.realize"),
        "geometry.error_curve.s": ps.self_time("geometry.error_curve"),  # self
        "spectral.solve_sr.s": ps.total("spectral.solve_sr"),
        "spectral.solve_sr.calls": ps.calls("spectral.solve_sr"),
        "spectral.psi_evals": ps.count("spectral.solve_sr", "psi_evals"),
        "spectral.spectral_radius.s": ps.total("spectral.spectral_radius"),
        "spectral.spectral_radius.calls": ps.calls("spectral.spectral_radius"),
        "spectral.weight_matrix.s": ps.total("spectral.weight_matrix"),
        "spectral.row_sum_bounds.s": ps.total("spectral.row_sum_bounds"),
        "model.load_model.s": ps.total("model.load_model"),
        "model.validate_system.s": ps.total("model.validate_system"),
        "model.path_weight.calls": ps.calls("model.path_weight"),
        "model.path_weight.s": ps.total("model.path_weight"),
        "graphs.scc_condensation.calls": ps.calls("graphs.scc_condensation"),
        "graphs.critical_structure.calls": ps.calls("graphs.critical_structure"),
        "graphs.transient_sum.s": ps.total("graphs.transient_sum"),
        # self times
        "verify.run_verification.s": ps.self_time("verify.run_verification"),
        "verify.analysis_report.s": ps.self_time("verify.analysis_report"),
        "verify.checks_pass": ps.count("verify.run_verification", "pass"),
        "verify.checks_skip": ps.count("verify.run_verification", "skip"),
        "verify.checks_fail": ps.count("verify.run_verification", "fail"),
        # self time of the cli layer: main and its command handlers
        "cli.main.s": sum((ps.own[s.id] for s in ps.spans if s.name.startswith("cli.")), 0.0),
    }
