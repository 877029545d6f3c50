"""Self-tests of the benchmark's checker, generator and span arithmetic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import genmodels  # noqa: E402
import spans  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference"


def _edit_csv(text: str, row: int, column: str, fn) -> str:
    head, rows = check.csv_rows(text)
    rows[row][column] = fn(rows[row][column])
    lines = [",".join(head)] + [",".join(r[c] for c in head) for r in rows]
    return "\n".join(lines) + "\n"


def _report(statuses: dict, reasons: dict | None = None) -> dict:
    reasons = reasons or {}
    checks = [{"name": n, "status": s, "reason": reasons.get(n, "")} for n, s in statuses.items()]
    return {"results": [{"checks": checks}]}


def test_series_reference_matches_itself():
    ref = (REFERENCE / "series_b.csv").read_text()
    assert check.check_series(ref, ref) == (0, [])


def test_series_rejects_phi_off_by_one():
    ref = (REFERENCE / "series_b.csv").read_text()
    bad = _edit_csv(ref, 3, "phi", lambda v: str(int(v) + 1))
    failed, problems = check.check_series(bad, ref)
    assert failed == 1 and "phi" in problems[0]


def test_series_tolerates_last_digit_float_noise():
    ref = (REFERENCE / "series_b.csv").read_text()
    noisy = _edit_csv(ref, 0, "sum_dim", lambda v: repr(float(v) * (1 + 1e-12)))
    assert check.check_series(noisy, ref) == (0, [])


def test_lloyd_accepts_tighter_and_rejects_looser_upper():
    ref = (REFERENCE / "lloyd_c.csv").read_text()
    tighter = _edit_csv(ref, 2, "upper", lambda v: repr(float(v) * 0.999))
    assert check.check_lloyd(tighter, ref) == (0, [])
    looser = _edit_csv(ref, 2, "upper", lambda v: repr(float(v) * 1.001))
    assert check.check_lloyd(looser, ref)[0] == 1


def test_verify_rejects_fail_status():
    ref = json.loads((REFERENCE / "verify_b.json").read_text())
    assert check.check_verify(_report(ref), ref) == (0, [])
    got = dict(ref, lloyd_monotone="FAIL")
    failed, problems = check.check_verify(_report(got), ref)
    assert failed == 1 and problems


def test_verify_counts_capacity_skip_as_failed_op():
    ref = json.loads((REFERENCE / "verify_b.json").read_text())
    got = dict(ref, quantization_bracket="SKIP")
    del got["error_decay"]
    reason = {"quantization_bracket": "antichain at k=14 exceeds capacity cap 1000000 words"}
    assert check.check_verify(_report(got, reason), ref) == (2, [])
    # the same SKIP without a capacity reason is a mismatch
    failed, problems = check.check_verify(_report(got), ref)
    assert failed == 2 and len(problems) == 2


def test_generator_is_byte_deterministic(tmp_path):
    a = genmodels.generate(7, tmp_path / "a")
    b = genmodels.generate(7, tmp_path / "b")
    c = genmodels.generate(8, tmp_path / "c")
    assert len(a) == genmodels.N_DENSE + genmodels.N_RING
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert [p.read_bytes() for p in a] != [p.read_bytes() for p in c]


def test_generated_models_are_stochastic_with_two_successors(tmp_path):
    from fractions import Fraction

    for path in genmodels.generate(3, tmp_path):
        cfg = json.loads(path.read_text())
        rows: dict = {}
        for e in cfg["edges"]:
            rows.setdefault(e["from"], []).append(Fraction(e["p"]))
        assert len(rows) == cfg["n"]
        assert all(len(ps) >= 2 and sum(ps) == 1 for ps in rows.values())
        assert sum(Fraction(x) for x in cfg["chi"]) == 1


def _cantor_report(root: float, t_r: int = 1) -> dict:
    order = {
        "r": 1.0, "components": [[1, 2]], "component_roots": [root],
        "acyclic_components": [False], "subcritical": [False],
        "s_r": root, "t_r": t_r, "m_r": 1,
    }
    return {"orders": [order]}


def test_analyze_oracle_accepts_true_root_and_rejects_others():
    # complete 2-vertex graph, p = 1/2, c = 1/3: 2 (1/6)^(s/(s+1)) = 1
    p = np.full((2, 2), 0.5)
    c = np.full((2, 2), 1 / 3)
    x = math.log(2) / math.log(6)
    root = x / (1 - x)
    assert check.check_analyze(_cantor_report(root), p, c) == (0, [])
    assert check.check_analyze(_cantor_report(root * (1 + 1e-4)), p, c)[0] == 1
    assert check.check_analyze(_cantor_report(root, t_r=2), p, c)[0] == 1


def _span(i, parent, name, start, end):
    return spans.Span(id=i, parent=parent, pass_id=0, name=name, start=start, end=end)


def test_self_time_on_synthetic_nest():
    nest = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "verify.run_verification", 1.0, 9.0),
        _span(2, 1, "antichain.scan_hist", 2.0, 5.0),
        _span(3, 1, "geometry.level_grid", 5.0, 8.5),
        _span(4, 3, "antichain.scan_grid", 5.5, 8.0),
    ]
    own = spans.self_times(nest)
    assert own == pytest.approx({0: 2.0, 1: 1.5, 2: 3.0, 3: 1.0, 4: 2.5})
    ps = spans.PassSpans(nest)
    assert ps.self_time("geometry.level_grid") == pytest.approx(1.0)
    assert ps.total("geometry.level_grid") == pytest.approx(3.5)
    assert sum(own.values()) == pytest.approx(10.0)


def test_total_does_not_double_count_nested_calls():
    nest = [
        _span(0, None, "spectral.solve_sr", 0.0, 4.0),
        _span(1, 0, "spectral.solve_sr", 1.0, 2.0),
        _span(2, None, "spectral.solve_sr", 5.0, 6.0),
    ]
    assert spans.PassSpans(nest).total("spectral.solve_sr") == pytest.approx(5.0)


def test_tracer_wraps_names_imported_by_value_and_restores_them():
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import markovquant
    from markovquant import antichain, model, verify

    original = model.path_weight
    tracer = spans.Tracer()
    tracer.install(markovquant)
    try:
        assert verify.path_weight is model.path_weight is not original
        sysb = model.load_model(root / "fixtures" / "fixture_b.json")
        antichain.scan(sysb, 1, 3)
        antichain.scan(sysb, 1, 3, exact=True)
    finally:
        tracer.uninstall()
    assert verify.path_weight is original and markovquant.path_weight is original
    names = [s.name for s in tracer.spans]
    assert {"model.load_model", "antichain.scan_hist", "antichain.scan_exact"} <= set(names)
    hist = next(s for s in tracer.spans if s.name == "antichain.scan_hist")
    assert hist.counts["words"] > 0 and hist.parent is None
