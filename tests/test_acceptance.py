"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Heavy level series are computed once per model and shared.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from markovquant import (
    critical_analysis,
    cylinder_interval,
    discrete_cost,
    enumerate_chains,
    error_curve,
    grid_codebook,
    integrate_error,
    lloyd_refine,
    member_words,
    path_weight,
    quantile_codebook,
    realize,
    row_sum_bounds,
    solve_sr,
    theorem_ratio_series,
    transient_sums,
)
from markovquant.antichain import scan
from conftest import DECAY_LIMIT_B, S1_H1_B, S1_K_B, S_R_A, T11_A, grid_at

_MODULE_T0 = time.time()
GOLDEN = (1 + math.sqrt(5)) / 2


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} -- {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _band(values) -> float:
    return max(values) / min(values)


@pytest.fixture(scope="module")
def structures(sys_a, sys_b, sys_c):
    return {
        "a": critical_analysis(sys_a, 1),
        "b": critical_analysis(sys_b, 1),
        "c": critical_analysis(sys_c, 1),
    }


@pytest.fixture(scope="module")
def series(sys_a, sys_b, sys_c, structures):
    """Level series k = 6..16 for each model at r = 1 (A in exact mode)."""
    t0 = time.time()
    ks = range(6, 17)
    rows = {
        "a": theorem_ratio_series(sys_a, 1, ks, cs=structures["a"], exact=True),
        "b": theorem_ratio_series(sys_b, 1, ks, cs=structures["b"]),
        "c": theorem_ratio_series(sys_c, 1, ks, cs=structures["c"]),
    }
    rows["elapsed"] = time.time() - t0
    return rows


def test_criterion_01_root_exactness_fixture_a(sys_a):
    t0 = time.time()
    roots = [solve_sr(sys_a, "full", r).root for r in (1, 2)]
    elapsed = time.time() - t0
    ok = all(abs(root - S_R_A) <= 1e-9 for root in roots) and elapsed < 1.0
    _report(
        "1 s_r exactness (A)",
        ok,
        f"roots={roots[0]:.12f},{roots[1]:.12f} vs ln2/ln3={S_R_A:.12f}, "
        f"tol 1e-9, runtime {elapsed:.3f}s < 1s",
    )


def test_criterion_02_root_fixture_b(sys_b):
    s_h1 = solve_sr(sys_b, (1, 2), 1).root
    s_k = solve_sr(sys_b, (6, 7), 1).root
    ok = abs(s_h1 - S1_H1_B) <= 1e-8 and abs(s_k - S1_K_B) <= 1e-8 and s_h1 - s_k > 0.05
    _report(
        "2 s_r root (B)",
        ok,
        f"s(H1)={s_h1:.9f} (oracle {S1_H1_B:.9f}, tol 1e-8), "
        f"s(K)={s_k:.9f}, criticality gap {s_h1 - s_k:.6f} > 0.05",
    )


def test_criterion_03_structure(structures):
    cs_a, cs_b, cs_c = structures["a"], structures["b"], structures["c"]
    triples = {name: (cs.m_r, cs.t_r) for name, cs in
               (("a", cs_a), ("b", cs_b), ("c", cs_c))}
    chains_b = enumerate_chains(cs_b, 2)
    comps_b = cs_b.condensation.components
    ok = (
        triples == {"a": (1, 1), "b": (2, 2), "c": (2, 1)}
        and chains_b == ((0, 1),)
        and comps_b[0] == (1, 2)
        and comps_b[1] == (3, 4)
        and enumerate_chains(cs_c, 2) == ()
    )
    _report(
        "3 structure (M_r, T_r)",
        ok,
        f"(M,T): A={triples['a']} B={triples['b']} C={triples['c']}; "
        f"chains_2(B)={chains_b} over components {comps_b[:2]}, chains_2(C)=()",
    )


def test_criterion_04_level_growth_bands(series):
    details = []
    ok = True
    for name in ("a", "b", "c"):
        rows = series[name]
        logphi = [math.log(row.phi) / row.k for row in rows]
        band = _band(logphi)
        depth_ok = all(row.depth_min <= row.depth_max for row in rows)
        depth_ratio = max(row.depth_max / row.depth_min for row in rows)
        phis = [row.phi for row in rows]
        step_ok = all(1 <= b / a <= 400 for a, b in zip(phis, phis[1:]))
        ok = ok and band <= 2.0 and depth_ok and depth_ratio <= 3.0 and step_ok
        details.append(f"{name}: logphi/k band {band:.3f} <= 2, l2/l1 max {depth_ratio:.3f} <= 3")
    elapsed = series["elapsed"]
    ok = ok and elapsed < 120.0
    _report(
        "4 log phi ~ k bands",
        ok,
        "; ".join(details) + f"; series runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_05_eigenvector_band(sys_a, sys_b):
    rs_b = row_sum_bounds(sys_b, 1, (1, 2), solve_sr(sys_b, "full", 1, tol=1e-12).root, h_max=64)
    in_band = bool(
        (rs_b.sums >= rs_b.c1 - 1e-9).all() and (rs_b.sums <= rs_b.c2 + 1e-9).all()
    )
    rs_a = row_sum_bounds(sys_a, 1, (1, 2), solve_sr(sys_a, "full", 1, tol=1e-12).root, h_max=64)
    a_dev = float(np.abs(rs_a.sums - 1.0).max())
    ok = (
        abs(rs_b.c1 - 0.618034) <= 1e-5
        and abs(rs_b.c2 - 1.618034) <= 1e-5
        and in_band
        and a_dev <= 1e-10
    )
    _report(
        "5 eigenvector sum band",
        ok,
        f"B/H1: (C1,C2)=({rs_b.c1:.6f},{rs_b.c2:.6f}) vs (0.618034,1.618034) tol 1e-5, "
        f"h<=64 sums within [C1-1e-9, C2+1e-9]: {in_band}; "
        f"A: max |sum-1| = {a_dev:.2e} <= 1e-10",
    )


def test_criterion_06_transient_decay(sys_b, structures):
    cs = structures["b"]
    sums = dict(enumerate(transient_sums(cs, cs.s_r, 61), start=1))
    ratios = [sums[n + 1] / sums[n] for n in range(10, 61)]
    ok = all(0.90 <= q <= 0.94 for q in ratios)
    _report(
        "6 transient geometric decay",
        ok,
        f"ratios n=10..60 in [{min(ratios):.6f}, {max(ratios):.6f}] subset [0.90, 0.94], "
        f"oracle limit {DECAY_LIMIT_B:.6f}",
    )


def test_criterion_07_chain_sum_growth(series, structures, sys_a):
    rows_b = [row for row in series["b"] if row.k >= 8]
    lam_over_k = [row.class_sums[(0, 1)] / row.k for row in rows_b]
    s_over_k = [row.sum_dim / row.k for row in rows_b]
    band_lam = _band(lam_over_k)
    band_s = _band(s_over_k)
    lam_all = [row.class_sums[(0, 1)] for row in series["b"]]
    strictly_up = all(b > a for a, b in zip(lam_all, lam_all[1:]))
    band_a = _band([row.sum_dim for row in series["a"]])
    band_c = _band([row.sum_dim for row in series["c"]])
    # Fixture A exactly: one weight class (p, c) = (2^-(k+1), 3^-(k+1)) of
    # multiplicity 2^(k+2), so S_k = 2^(k+2) * (6^-(k+1))^{ln2/ln6} = 2
    exact_ok = True
    for row in series["a"]:
        k = row.k
        res = scan(sys_a, 1, k, cs=structures["a"], exact=True)
        keys = {(p, c): cnt for (_ch, _chi, p, c), cnt in res.hist.items()}
        exact_ok = exact_ok and keys == {
            (Fraction(1, 2 ** (k + 1)), Fraction(1, 3 ** (k + 1))): 2 ** (k + 2)
        }
        exact_ok = exact_ok and abs(row.sum_dim - 2.0) <= 1e-8
    ok = (
        band_lam <= 3.0 and band_s <= 3.0 and strictly_up
        and band_a <= 3.0 and band_c <= 3.0 and exact_ok
    )
    _report(
        "7 chain sums ~ k^(T_r - 1)",
        ok,
        f"B k=8..16: lambda(H1,H2)/k band {band_lam:.3f} <= 3, S_k/k band {band_s:.3f} <= 3, "
        f"lambda strictly increasing over k=6..16: {strictly_up}; "
        f"A S_k band {band_a:.3f} <= 3 with S_k = 2 exactly (weight-class check); "
        f"C S_k band {band_c:.3f} <= 3",
    )


def test_criterion_08_log_correction_surrogate(series):
    rows_b = [row for row in series["b"] if row.k >= 8]
    r_band = _band([row.corrected for row in rows_b])
    u_vals = [row.uncorrected for row in rows_b]
    monotone = all(b > a for a, b in zip(u_vals, u_vals[1:]))
    growth = u_vals[-1] / u_vals[0]
    band_a = _band([row.uncorrected for row in series["a"]])
    band_c = _band([row.uncorrected for row in series["c"]])
    ok = r_band <= 3.0 and monotone and growth > 3.0 and band_a <= 3.0 and band_c <= 3.0
    _report(
        "8 log-correction necessity (symbolic)",
        ok,
        f"B k=8..16: corrected band {r_band:.3f} <= 3, uncorrected monotone={monotone} "
        f"growth x{growth:.2f} > 3; A band {band_a:.3f}, C band {band_c:.3f} <= 3",
    )


def test_criterion_09_numeric_quantization(sys_a, sys_b, structures):
    details = []
    ok = True
    rz_a = realize(sys_a)
    for r in (1, 2):
        plain = error_curve(sys_a, r, range(4, 10), depth_offset=6, cs=None)
        refined = error_curve(sys_a, r, range(4, 10), refine=True, depth_offset=6)
        ok = ok and all(row.lower <= row.upper for row in plain)
        ok = ok and all(b.upper <= a.upper + 1e-15 for a, b in zip(plain, refined))
        # self-codebook identity at integration depth = level
        worst_dev = 0.0
        for k in range(4, 10):
            grid = grid_at(rz_a, r, k)
            est = integrate_error(grid, grid_codebook(grid))
            res = scan(sys_a, r, k, exact=True)
            expected = float(
                sum(cnt * chi * p * c**r for (_ch, chi, p, c), cnt in res.hist.items())
            ) / 2**r
            worst_dev = max(worst_dev, abs(est.upper - expected))
            ok = ok and est.lower == 0.0
        ok = ok and worst_dev <= 1e-12
        xs = [math.log(row.n) for row in plain]
        ys = [math.log(row.upper) for row in plain]
        slope = float(np.polyfit(xs, ys, 1)[0])
        target = -r / S_R_A
        ok = ok and abs(slope - target) <= 0.10 * abs(target)
        details.append(
            f"A r={r}: slope {slope:.4f} vs {target:.4f} (10%), "
            f"identity dev {worst_dev:.2e} <= 1e-12, refine never above plain"
        )
    curve_b = error_curve(sys_b, 1, range(6, 13), depth_offset=2, cs=structures["b"])
    ok = ok and all(row.lower <= row.upper for row in curve_b)
    corrected_band = _band([row.corrected for row in curve_b])
    uncorrected_band = _band([row.uncorrected for row in curve_b])
    ok = ok and corrected_band < uncorrected_band
    details.append(
        f"B k=6..12: corrected band {corrected_band:.3f} < uncorrected {uncorrected_band:.3f}"
    )
    _report("9 numeric quantization", ok, "; ".join(details))


def test_criterion_10_lloyd_equals_bruteforce(sys_a):
    # independent oracle: exact depth-10 discretization via words and interval
    # walks, then split enumeration with prefix sums (r = 2 closed forms)
    rz = realize(sys_a)
    pts = []
    for w in member_words(sys_a, scan(sys_a, 2, 10, exact=True)):
        left, length = cylinder_interval(rz, w)
        pw = path_weight(sys_a, w)
        pts.append((float(left + length / 2), float(pw.measure_weight)))
    pts.sort()
    x = np.array([p for p, _ in pts])
    m = np.array([q for _, q in pts])
    mw = np.concatenate(([0.0], np.cumsum(m)))
    mx = np.concatenate(([0.0], np.cumsum(m * x)))
    mx2 = np.concatenate(([0.0], np.cumsum(m * x * x)))

    def seg_cost(i, j):  # optimal 1-point cost of x[i:j], weighted, r = 2
        w = mw[j] - mw[i]
        s1 = mx[j] - mx[i]
        s2 = mx2[j] - mx2[i]
        return s2 - s1 * s1 / w

    best = math.inf
    for cut in range(1, x.size):
        cost = seg_cost(0, cut) + seg_cost(cut, x.size)
        if cost < best:
            best = cost

    grid = grid_at(rz, 2, 10)
    start = quantile_codebook(grid, 2, 2)
    refined, _trace = lloyd_refine(grid, start)
    lloyd_cost = discrete_cost(grid, refined)
    dev = abs(lloyd_cost - best)
    ok = dev <= 1e-9
    _report(
        "10 Lloyd equals 2-point brute force",
        ok,
        f"lloyd {lloyd_cost:.15e} vs split-enumeration {best:.15e}, |diff| {dev:.2e} <= 1e-9",
    )
    total = time.time() - _MODULE_T0
    print(f"[acceptance] total module runtime {total:.1f}s (< 600s budget)", flush=True)
    assert total < 600.0


@pytest.mark.parametrize("name, r", [("b", 1), ("b", 2), ("c", 1)], ids=["b-r1", "b-r2", "c-r1"])
def test_criterion_11_deep_chain_sum_exponent(request, name, r):
    # k = 40, 80, 160: member weights reach far below the float range (on B
    # at r = 2 from k = 147); the band is stated in k, where log phi ~ k
    # only up to a constant that a deep window would magnify
    sys_ = request.getfixturevalue(f"sys_{name}")
    cs = critical_analysis(sys_, r)
    rows = theorem_ratio_series(sys_, r, (40, 80, 160), cs=cs, capacity=10**300)
    band = _band([row.sum_dim / row.k ** (cs.t_r - 1) for row in rows])
    t_ok = all(cs.s_r / 2 <= row.t_k <= 2 * cs.s_r for row in rows)
    u_ok = all(math.isfinite(row.uncorrected) and row.uncorrected > 0 for row in rows)
    _report(
        f"11 deep S_k ~ k^(T_r - 1) ({name.upper()}, r={r})",
        band <= 1.5 and t_ok and u_ok,
        f"k=40,80,160: S_k/k^{cs.t_r - 1} band {band:.3f} <= 1.5, "
        f"t_k in [s_r/2, 2 s_r]: {t_ok}, U_k finite and positive: {u_ok}",
    )


def test_oracle_constant_t11_consistency(sys_a):
    # sanity tie-back: the frozen implicit-exponent oracle satisfies its
    # defining equation (guards against a corrupted constant)
    assert 8 * (1 / 36) ** (T11_A / (T11_A + 1)) == pytest.approx(1.0, abs=1e-12)
