"""Command-line front end.

One verb per stage: validate a model file, analyze its spectral/critical
structure, tabulate antichain series, tabulate quantization error curves,
or run the verification suite.  Reports are deterministic: identical
config and seed produce byte-identical output.

Exit codes: 0 ok, 1 validation or check failure, 2 I/O or config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys as _sys
from functools import cache
from pathlib import Path

from . import antichain as antichain_mod
from . import geometry, verify
from .antichain import CapacityError, DEFAULT_CAPACITY
from .model import ModelFormatError, as_fraction, load_model, validate_system

SCHEMA_VERSION = 1


def _parse_orders(values) -> list:
    orders = [as_fraction(v) for v in (values or ["1"])]
    for r in orders:
        if r <= 0:
            raise ModelFormatError(f"order r must be positive, got {r}")
    return orders


def _r_tag(r) -> str:
    rq = as_fraction(r)
    return str(rq.numerator) if rq.denominator == 1 else f"{rq.numerator}_{rq.denominator}"


def _emit(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        _sys.stdout.write(text)
        if not text.endswith("\n"):
            _sys.stdout.write("\n")
    else:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text, encoding="utf-8")
        print(f"wrote {path / filename}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _valid(system) -> bool:
    """Print each violation of the model invariants; True when there is none."""
    report = validate_system(system)
    for v in report.violations:
        print(f"violation: {v}")
    return report.ok


def cmd_validate(args) -> int:
    system = load_model(args.model)
    if not _valid(system):
        return 1
    print(f"{args.model}: ok ({system.n} vertices, {len(system.edges)} edges)")
    return 0


def cmd_analyze(args) -> int:
    system = load_model(args.model)
    if not _valid(system):
        return 1
    report = {
        "schema_version": SCHEMA_VERSION,
        "model": str(args.model),
        "orders": [verify.analysis_report(system, r) for r in _parse_orders(args.r)],
    }
    _emit(_json_text(report), args.out, f"analyze_{Path(args.model).stem}.json")
    return 0


def _k_range(args) -> range:
    if args.k_min > args.k_max:
        raise ValueError("empty k range")
    return range(args.k_min, args.k_max + 1)


def _csv(header: list, rows) -> str:
    """CSV text of a header and rows, every cell of a row written as its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(repr, row) for row in rows)
    return buf.getvalue()


def _series_csv(system, r, ks, capacity) -> str:
    rows = antichain_mod.theorem_ratio_series(system, r, ks, capacity=capacity)
    chain_cols = sorted({ch for row in rows for ch in row.class_sums if ch})
    return _csv(
        ["k", "phi", "l1", "l2", "sum_energy", "sum_dim", "t_k", "R_k", "U_k"]
        + [f"lambda_{verify.chain_label(ch)}" for ch in chain_cols],
        (
            [row.k, row.phi, row.depth_min, row.depth_max, row.sum_energy, row.sum_dim, row.t_k,
             row.corrected, row.uncorrected, *(row.class_sums.get(ch, 0.0) for ch in chain_cols)]
            for row in rows
        ),
    )


def cmd_antichain(args) -> int:
    system = load_model(args.model)
    if not _valid(system):
        return 1
    ks = _k_range(args)
    for r in _parse_orders(args.r):
        text = _series_csv(system, r, ks, args.cap)
        _emit(text, args.out, f"antichain_{Path(args.model).stem}_r{_r_tag(r)}.csv")
    return 0


def cmd_quantize(args) -> int:
    system = load_model(args.model)
    if not _valid(system):
        return 1
    ks = _k_range(args)
    for r in _parse_orders(args.r):
        rows = geometry.error_curve(
            system,
            r,
            ks,
            refine=args.refine,
            depth_offset=args.depth_offset,
            capacity=args.cap,
        )
        text = _csv(
            ["k", "n", "lower", "upper", "corrected_ratio", "uncorrected_ratio", "iterations"],
            ([row.k, row.n, row.lower, row.upper, row.corrected, row.uncorrected, row.iterations]
             for row in rows),
        )
        _emit(text, args.out, f"quantize_{Path(args.model).stem}_r{_r_tag(r)}.csv")
    return 0


def cmd_verify(args) -> int:
    system = load_model(args.model)
    ks = _k_range(args)
    all_ok = True
    results = []
    counts = {"PASS": 0, "SKIP": 0, "FAIL": 0}
    for r in _parse_orders(args.r):
        suite = verify.run_verification(
            system,
            r,
            ks,
            depth_offset=args.depth_offset,
            capacity=args.cap,
            seed=args.seed,
            mc_samples=args.mc_samples,
        )
        results.append(suite.to_dict())
        print(f"== r = {float(as_fraction(r))} ==")
        for check in suite.checks:
            line = f"  [{check.status}] {check.name}: {check.band}"
            if check.reason:
                line += f" ({check.reason})"
            print(line)
            counts[check.status] += 1
        all_ok = all_ok and suite.ok
    if args.out is not None:
        report = {
            "schema_version": SCHEMA_VERSION,
            "model": str(args.model),
            "results": results,
        }
        _emit(_json_text(report), args.out, f"verify_{Path(args.model).stem}.json")
    print(
        "verification:", "ok" if all_ok else "FAILED",
        "({PASS} pass, {SKIP} skip, {FAIL} fail)".format(**counts),
    )
    return 0 if all_ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command: built once per process, on first use, and shared."""
    parser = argparse.ArgumentParser(
        prog="markovquant",
        description=(
            "Predict and numerically verify the convergence order of the "
            "L_r quantization error for a Markov-type measure on a "
            "graph-directed fractal."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap_help, k_default=(6, 12)):
        p.add_argument("model", help="model config JSON")
        p.add_argument("--r", action="append", metavar="R",
                       help="order r (> 0); repeatable; default 1")
        p.add_argument("--k-min", type=int, default=k_default[0])
        p.add_argument("--k-max", type=int, default=k_default[1])
        p.add_argument("--cap", type=int, default=DEFAULT_CAPACITY, help=cap_help)
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: stdout)")

    p = sub.add_parser("validate", help="check model invariants")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="spectral and critical structure report")
    p.add_argument("model")
    p.add_argument("--r", action="append", metavar="R")
    p.add_argument("--out", default=None, metavar="DIR")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("antichain", help="antichain level series (CSV)")
    common(p, "cap on the words of each level's antichain: members plus words still to expand")
    p.set_defaults(func=cmd_antichain)

    p = sub.add_parser("quantize", help="quantization error curve (CSV)")
    common(p, "cap on the words of each level-k antichain, and on the cells of each "
              "Lloyd grid (--refine) or the rows laid out under the member keys",
           k_default=(4, 9))
    p.add_argument("--refine", action="store_true", help="Lloyd-refine the codebooks")
    p.add_argument("--depth-offset", type=int, default=6)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("verify", help="run the verification suite")
    common(p, "cap (>= 1) on the words of each antichain, the level-k-min one whose words "
              "the codebook identity reads among them, the rows laid out under the error "
              "curve's member keys, and the cells of each grid of the Lloyd and Monte Carlo "
              "checks")
    p.add_argument("--depth-offset", type=int, default=6)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--mc-samples", type=int, default=100_000)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelFormatError, OSError, CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
