"""Output checkers: compare one pass's outputs with the recorded references.

Every checker returns ``(failed, problems)``: ``failed`` is the number of
operations that failed, ``problems`` lists what makes the output incorrect.
A check SKIPped for a capacity overrun is a failed operation but not an
incorrect output: it is the recorded behaviour of the capacity path.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9
ROOT_TOL = 1e-8
SERIES_INT_COLUMNS = {"k", "phi", "l1", "l2"}
LLOYD_INT_COLUMNS = {"k", "n"}
LLOYD_UPPER_COLUMNS = {"upper", "corrected_ratio", "uncorrected_ratio"}


def csv_rows(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames or []), list(reader)


def _close(got: str, ref: str) -> bool:
    return math.isclose(float(got), float(ref), rel_tol=REL_TOL, abs_tol=0.0)


def check_series(text: str, ref_text: str) -> tuple[int, list[str]]:
    """Antichain level series: integers exact, floats to a relative 1e-9.

    One operation per reference level.
    """
    head, rows = csv_rows(text)
    ref_head, ref_rows = csv_rows(ref_text)
    if head != ref_head or len(rows) != len(ref_rows):
        return len(ref_rows), [f"series layout {head} x {len(rows)} != {ref_head} x {len(ref_rows)}"]
    failed, problems = 0, []
    for row, ref in zip(rows, ref_rows):
        bad = [
            col for col in ref_head
            if (row[col] != ref[col] if col in SERIES_INT_COLUMNS else not _close(row[col], ref[col]))
        ]
        if bad:
            failed += 1
            problems.append(f"series k={ref['k']}: {', '.join(bad)} differ")
    return failed, problems


def check_lloyd(text: str, ref_text: str) -> tuple[int, list[str]]:
    """Quantization curve: k and n exact, lower <= upper, and no upper bound
    (nor the ratios built from it) above the reference by more than 1e-9.

    A tighter bound than the reference is accepted; one operation per row.
    """
    head, rows = csv_rows(text)
    ref_head, ref_rows = csv_rows(ref_text)
    if head != ref_head or len(rows) != len(ref_rows):
        return len(ref_rows), [f"curve layout {head} x {len(rows)} != {ref_head} x {len(ref_rows)}"]
    failed, problems = 0, []
    for row, ref in zip(rows, ref_rows):
        bad = [col for col in LLOYD_INT_COLUMNS if row[col] != ref[col]]
        if not float(row["lower"]) <= float(row["upper"]):
            bad.append("lower > upper")
        bad += [
            col for col in LLOYD_UPPER_COLUMNS
            if not float(row[col]) <= float(ref[col]) * (1.0 + REL_TOL)
        ]
        if bad:
            failed += 1
            problems.append(f"curve k={ref['k']}: {', '.join(bad)}")
    return failed, problems


def is_capacity_skip(check: dict) -> bool:
    return check["status"] == "SKIP" and "capacity" in check.get("reason", "")


def check_verify(report: dict, ref_statuses: dict[str, str]) -> tuple[int, list[str]]:
    """Verify report: one operation per reference check.

    A FAIL, a missing check or a status other than the reference is a failed
    operation and a problem.  A capacity SKIP is a failed operation only, and
    so is a check missing from a report that has one: checks that build on a
    SKIPped result (error_decay on the bracket's curve) are then not emitted.
    """
    checks = {c["name"]: c for res in report["results"] for c in res["checks"]}
    capacity_hit = any(is_capacity_skip(c) for c in checks.values())
    failed, problems = 0, []
    for name, ref in ref_statuses.items():
        got = checks.get(name)
        if got is None:
            failed += 1
            if not capacity_hit:
                problems.append(f"check {name} missing")
        elif is_capacity_skip(got):
            failed += 1
        elif got["status"] != ref:
            failed += 1
            problems.append(f"check {name}: {got['status']} (reference {ref})")
    problems += [
        f"check {name}: FAIL" for name, c in checks.items()
        if c["status"] == "FAIL" and name not in ref_statuses
    ]
    return failed, problems


def model_matrices(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Float (p, c) matrices of a model config, zero off the edges."""
    n = int(cfg["n"])
    p = np.zeros((n, n))
    c = np.zeros((n, n))
    for e in cfg["edges"]:
        i, j = e["from"] - 1, e["to"] - 1
        p[i, j] = float(Fraction(str(e["p"])))
        c[i, j] = float(Fraction(str(e["c"])))
    return p, c


def pressure_radius(p: np.ndarray, c: np.ndarray, verts, r: float, s: float) -> float:
    """max |eig B(s)| on a vertex scope (0-based), B = (p c^r)^(s/(s+r)).

    Dense eigenvalues: independent of the package's power iteration.
    """
    idx = np.asarray(verts, dtype=int)
    ps, cs = p[np.ix_(idx, idx)], c[np.ix_(idx, idx)]
    edge = ps > 0
    b = np.zeros_like(ps)
    b[edge] = (ps[edge] * cs[edge] ** r) ** (s / (s + r))
    return float(np.abs(np.linalg.eigvals(b)).max())


def check_analyze(report: dict, p: np.ndarray, c: np.ndarray) -> tuple[int, list[str]]:
    """Analyze report: one operation per order.

    Every reported root s of a cyclic, non-subcritical component and the
    global root must give |max|eig B(s)| - 1| <= 1e-8, and 1 <= t_r <= m_r.
    """
    failed, problems = 0, []
    for rep in report["orders"]:
        r = rep["r"]
        scopes = [
            (comp, root)
            for comp, root, acyclic, sub in zip(
                rep["components"], rep["component_roots"],
                rep["acyclic_components"], rep["subcritical"],
            )
            if not acyclic and not sub
        ]
        if rep["s_r"] > 0:
            scopes.append((range(1, p.shape[0] + 1), rep["s_r"]))
        bad = [
            f"root {root} of {list(comp)[:4]}..."
            for comp, root in scopes
            if abs(pressure_radius(p, c, [v - 1 for v in comp], r, root) - 1.0) > ROOT_TOL
        ]
        if not 1 <= rep["t_r"] <= rep["m_r"]:
            bad.append(f"t_r={rep['t_r']} m_r={rep['m_r']}")
        if bad:
            failed += 1
            problems.append(f"analyze r={r}: {'; '.join(bad)}")
    return failed, problems
