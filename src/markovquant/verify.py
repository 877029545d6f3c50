"""Model-generic verification checks and the analysis report.

Every check verifies one prediction of the theory on the supplied model at
desk scale: spectral root consistency, the eigenvector band on matrix-power
column sums, geometric decay of the transient mass, growth bands for the
antichain cardinalities and chain sums, necessity of the logarithmic
correction when t_r >= 2, and the rigorous quantization bracket with its
cross-checks (closed-form codebook bound, Lloyd monotonicity, small-instance
brute-force equivalence, seeded Monte Carlo).

Checks are data: each returns pass/fail (or skipped-with-reason) along with
the band it was tested against and the measured values, so reports are
reproducible and machine-readable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb
from typing import Iterable

import numpy as np

from . import antichain as antichain_mod
from . import geometry, graphs, spectral
from .antichain import CapacityError, DEFAULT_CAPACITY
from .model import MarkovSystem, as_fraction, path_weight, validate_system

ROOT_CONSISTENCY_TOL = 1e-8
EIGVEC_BAND_SLACK = 1e-9
PHI_BAND_MAX = 2.0
DEPTH_RATIO_MAX = 3.0
CHAIN_BAND_MAX = 3.0
RATIO_BAND_MAX = 3.0
U_GROWTH_MIN = 3.0
SLOPE_REL_TOL = 0.10
CODEBOOK_IDENTITY_TOL = 1e-12
BRUTE_FORCE_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None  # None means skipped
    band: str
    measured: dict = field(default_factory=dict)
    reason: str = ""

    @property
    def status(self) -> str:
        if self.passed is None:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


@dataclass
class VerificationSuite:
    r: float
    k_range: tuple[int, ...]
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "k_range": list(self.k_range),
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "band": c.band,
                    "measured": c.measured,
                    "reason": c.reason,
                }
                for c in self.checks
            ],
        }


def _band(values) -> float:
    vals = list(values)
    lo, hi = min(vals), max(vals)
    return math.inf if lo <= 0 else hi / lo


def chain_label(chain: tuple[int, ...]) -> str:
    return "-".join(f"c{i}" for i in chain) if chain else "transient"


def analysis_report(sys: MarkovSystem, r) -> dict:
    """Structural and spectral analysis of one model at one order."""
    rf = float(as_fraction(r))
    cs = spectral.critical_analysis(sys, r)
    cond = cs.condensation
    full = spectral.solve_sr(sys, "full", r)
    chains: dict[str, list] = {}
    for length in range(1, max(cs.m_r, 1) + 1):
        found = graphs.enumerate_chains(cs, length)
        if found:
            chains[str(length)] = [list(ch) for ch in found]
    bounds = {}
    for idx in cs.critical_indices:
        rs = spectral.row_sum_bounds(sys, r, cond.components[idx], h_max=1, s=full.root)
        bounds[f"c{idx}"] = {"c1": rs.c1, "c2": rs.c2, "eigenvector": list(rs.eigenvector)}
    return {
        "schema_version": 1,
        "r": rf,
        "n_vertices": sys.n,
        "n_edges": len(sys.edges),
        "components": [list(comp) for comp in cond.components],
        "dag_edges": [list(e) for e in cond.dag_edges],
        "topo_order": list(cond.topo_order),
        "acyclic_components": [bool(a) for a in cond.acyclic],
        "component_roots": list(cs.per_component),
        "subcritical": [bool(sol is None or sol.subcritical) for sol in cs.roots.values()],
        "s_r": full.root,
        "s_r_component_max": cs.s_r,
        "critical": [bool(c) for c in cs.critical],
        "m_r": cs.m_r,
        "t_r": cs.t_r,
        "transient_set": sorted(cs.transient_set),
        "chains": chains,
        "power_exponent": -rf / full.root if full.root > 0 else None,
        "log_exponent": (cs.t_r - 1) * (1.0 + rf / full.root) if full.root > 0 else None,
        "eigenvector_bounds": bounds,
        "tolerances": {
            "criticality": graphs.CRITICAL_TOL,
            "root": spectral.ROOT_TOL,
            "radius": spectral.RADIUS_TOL,
        },
    }


def run_verification(
    sys: MarkovSystem,
    r,
    k_range: Iterable[int],
    *,
    depth_offset: int = 6,
    capacity: int = DEFAULT_CAPACITY,
    seed: int = 12345,
    mc_samples: int = 100_000,
    quant_points: int = 3,
) -> VerificationSuite:
    """Run every applicable check on one model at one order."""
    ks = tuple(sorted(set(int(k) for k in k_range)))
    if not ks:
        raise ValueError("empty k range")
    rf = float(as_fraction(r))
    suite = VerificationSuite(r=rf, k_range=ks)
    add = suite.checks.append

    rep = validate_system(sys)
    add(
        CheckResult(
            name="model_valid",
            passed=rep.ok,
            band="all model invariants",
            measured={"violations": list(rep.violations)},
        )
    )
    if not rep.ok:
        return suite

    # -- spectral structure ------------------------------------------------
    cs = spectral.critical_analysis(sys, r)
    cond = cs.condensation
    full = spectral.solve_sr(sys, "full", r)

    worst = 0.0
    for sol in list(cs.roots.values()) + [full]:
        if sol is not None and not sol.subcritical:
            psi = spectral.spectral_radius(spectral.weight_matrix(sys, sol.vertices, r, sol.root))
            worst = max(worst, abs(psi - 1.0))
    gap = abs(full.root - cs.s_r)
    add(
        CheckResult(
            name="spectral_root_consistency",
            passed=worst <= ROOT_CONSISTENCY_TOL and gap <= ROOT_CONSISTENCY_TOL,
            band=f"|Psi(root)-1| <= {ROOT_CONSISTENCY_TOL}; |global - max component| <= {ROOT_CONSISTENCY_TOL}",
            measured={"max_psi_deviation": worst, "global_vs_components": gap, "s_r": full.root},
        )
    )

    chain_card_ok = True
    cards = {}
    for length in range(1, max(cs.m_r, 1) + 1):
        card = len(graphs.enumerate_chains(cs, length))
        cards[str(length)] = card
        # C(m_r, l): distinct components are strictly ordered by reachability,
        # so each l-subset supports at most one chain
        if card > comb(cs.m_r, length):
            chain_card_ok = False
    add(
        CheckResult(
            name="critical_structure",
            passed=cs.m_r >= 1 and 1 <= cs.t_r <= cs.m_r and chain_card_ok,
            band="m_r >= 1; 1 <= t_r <= m_r; card(chains_l) <= C(m_r, l)",
            measured={"m_r": cs.m_r, "t_r": cs.t_r, "chain_cards": cards, "s_r": cs.s_r},
        )
    )

    # -- antichain definition at the smallest level (exact arithmetic) ------
    k0 = ks[0]
    try:
        ac0 = antichain_mod.enumerate_antichain(
            sys, r, k0, critical=cs, exact=True, store_words=True, capacity=capacity
        )
        rq = as_fraction(r)
        a_num, b_den = rq.numerator, rq.denominator
        p_lo = min(sys.edge_p(i, j) for i, j in sys.edges)
        c_lo = min(sys.edge_c(i, j) for i, j in sys.edges)
        thr_pow = p_lo ** (k0 * b_den) * c_lo ** (k0 * a_num)
        def_ok = True
        for w in ac0.words:
            pw = path_weight(sys, w)
            parent = path_weight(sys, w[:-1])
            if not (
                parent.p_weight**b_den * parent.c_weight**a_num >= thr_pow
                and pw.p_weight**b_den * pw.c_weight**a_num < thr_pow
            ):
                def_ok = False
                break
        partition = antichain_mod.measure_partition_sum(ac0)
        swords = sorted(ac0.words)
        prefix_free = all(
            not (len(u) <= len(v) and v[: len(u)] == u)
            for u, v in zip(swords, swords[1:])
        )
        add(
            CheckResult(
                name="antichain_definition",
                passed=def_ok and partition == 1 and prefix_free,
                band="exact: parent >= eta_lo^k > word; prefix-free; partition sum == 1",
                measured={
                    "k": k0,
                    "phi": ac0.phi,
                    "partition_sum": str(partition),
                    "prefix_free": prefix_free,
                },
            )
        )
    except CapacityError as exc:
        add(
            CheckResult(
                name="antichain_definition", passed=None,
                band="exact membership at smallest k", reason=str(exc),
            )
        )

    # -- growth bands over the level range ----------------------------------
    try:
        rows = antichain_mod.theorem_ratio_series(sys, r, ks, cs=cs, capacity=capacity)
    except CapacityError as exc:
        for name in ("phi_growth_band", "chain_sum_growth", "log_correction"):
            add(CheckResult(name=name, passed=None, band="level series", reason=str(exc)))
        rows = None
    if rows is not None:
        logphi = [math.log(row.phi) / row.k for row in rows]
        depth_ratio = max(row.depth_max / row.depth_min for row in rows)
        add(
            CheckResult(
                name="phi_growth_band",
                passed=_band(logphi) <= PHI_BAND_MAX and depth_ratio <= DEPTH_RATIO_MAX,
                band=f"max/min of log(phi)/k <= {PHI_BAND_MAX}; depth_max/depth_min <= {DEPTH_RATIO_MAX}",
                measured={
                    "logphi_over_k_band": _band(logphi),
                    "depth_ratio_max": depth_ratio,
                    "phi": {str(row.k): row.phi for row in rows},
                },
            )
        )

        if cs.t_r >= 2:
            top_chains = graphs.enumerate_chains(cs, cs.t_r)
            lam_bands = {}
            ok_lam = True
            for ch in top_chains:
                vals = [row.class_sums.get(ch, 0.0) / row.k ** (len(ch) - 1) for row in rows]
                bandv = _band(vals)
                lam_bands[chain_label(ch)] = bandv
                ok_lam = ok_lam and bandv <= CHAIN_BAND_MAX
            total_vals = [row.sum_dim / row.k ** (cs.t_r - 1) for row in rows]
            total_band = _band(total_vals)
            add(
                CheckResult(
                    name="chain_sum_growth",
                    passed=ok_lam and total_band <= CHAIN_BAND_MAX,
                    band=f"max/min of lambda_k/k^(l-1) and S_k/k^(t_r-1) <= {CHAIN_BAND_MAX}",
                    measured={"lambda_bands": lam_bands, "total_band": total_band},
                )
            )
        else:
            total_band = _band([row.sum_dim for row in rows])
            add(
                CheckResult(
                    name="chain_sum_growth",
                    passed=total_band <= CHAIN_BAND_MAX,
                    band=f"max/min of S_k <= {CHAIN_BAND_MAX} (t_r = 1)",
                    measured={"total_band": total_band},
                )
            )

        u_vals = [row.uncorrected for row in rows]
        r_vals = [row.corrected for row in rows]
        if cs.t_r >= 2:
            monotone = all(b > a for a, b in zip(u_vals, u_vals[1:]))
            growth = u_vals[-1] / u_vals[0]
            add(
                CheckResult(
                    name="log_correction",
                    passed=_band(r_vals) <= RATIO_BAND_MAX
                    and monotone
                    and growth > U_GROWTH_MIN,
                    band=f"corrected band <= {RATIO_BAND_MAX}; uncorrected strictly up by > {U_GROWTH_MIN}x",
                    measured={
                        "corrected_band": _band(r_vals),
                        "uncorrected_growth": growth,
                        "uncorrected_monotone": monotone,
                    },
                )
            )
        else:
            add(
                CheckResult(
                    name="log_correction",
                    passed=_band(u_vals) <= RATIO_BAND_MAX,
                    band=f"uncorrected band <= {RATIO_BAND_MAX} (t_r = 1, no correction)",
                    measured={"uncorrected_band": _band(u_vals)},
                )
            )

    # -- eigenvector column-sum band per critical component ------------------
    # matrix powers amplify root error ~ h-fold, so use a tighter root here
    s_tight = spectral.solve_sr(sys, "full", r, tol=1e-12).root
    ok_band = True
    bounds_meas = {}
    for idx in cs.critical_indices:
        rs = spectral.row_sum_bounds(sys, r, cond.components[idx], h_max=64, s=s_tight)
        lo = float(rs.sums.min())
        hi = float(rs.sums.max())
        bounds_meas[f"c{idx}"] = {"c1": rs.c1, "c2": rs.c2, "min_sum": lo, "max_sum": hi}
        if lo < rs.c1 - EIGVEC_BAND_SLACK or hi > rs.c2 + EIGVEC_BAND_SLACK:
            ok_band = False
    add(
        CheckResult(
            name="eigenvector_sum_band",
            passed=ok_band,
            band=f"h-step column sums (h<=64) within [c1 - {EIGVEC_BAND_SLACK}, c2 + {EIGVEC_BAND_SLACK}]",
            measured=bounds_meas,
        )
    )

    # -- transient decay ------------------------------------------------------
    tsums = [graphs.transient_sum(sys, cs, r, full.root, n) for n in range(1, 62)]
    if cs.transient_set and tsums[10] > 0:
        ratios = [tsums[n] / tsums[n - 1] for n in range(10, 61) if tsums[n - 1] > 0]
        tail = ratios[-10:]
        add(
            CheckResult(
                name="transient_decay",
                passed=bool(tail) and max(tail) < 1.0,
                band="transient_sum(n+1)/transient_sum(n) < 1 for n in 10..60",
                measured={
                    "limit_estimate": tail[-1] if tail else None,
                    "max_tail_ratio": max(tail) if tail else None,
                },
            )
        )
    else:
        add(
            CheckResult(
                name="transient_decay",
                passed=None,
                band="geometric decay of the transient mass",
                reason="transient set empty or carries no length-11+ words",
            )
        )

    # -- geometric checks ------------------------------------------------------
    try:
        rz = geometry.realize(sys)
    except geometry.InfeasibleLayoutError as exc:
        for name in (
            "quantization_bracket",
            "codebook_identity",
            "error_decay",
            "lloyd_monotone",
            "lloyd_vs_bruteforce",
            "monte_carlo_bracket",
        ):
            add(CheckResult(name=name, passed=None, band="1-D realization", reason=str(exc)))
        return suite

    if len(ks) <= quant_points:
        quant_ks = ks
    else:
        picks = np.linspace(0, len(ks) - 1, num=max(quant_points, 2)).round().astype(int)
        quant_ks = tuple(sorted({ks[i] for i in picks}))
    try:
        curve = geometry.error_curve(
            sys, r, quant_ks, refine=False, depth_offset=depth_offset, cs=cs,
            capacity=capacity,
        )
    except CapacityError as exc:
        curve = None
        add(
            CheckResult(
                name="quantization_bracket", passed=None,
                band="rigorous sandwich", reason=str(exc),
            )
        )
    if curve is not None:
        ok_bracket = all(row.lower <= row.upper for row in curve)
        add(
            CheckResult(
                name="quantization_bracket",
                passed=ok_bracket,
                band="lower <= upper at every level",
                measured={
                    str(row.k): {"n": row.n, "lower": row.lower, "upper": row.upper}
                    for row in curve
                },
            )
        )
        if cs.t_r == 1:
            xs = [math.log(row.n) for row in curve]
            ys = [math.log(row.upper) for row in curve]
            slope = float(np.polyfit(xs, ys, 1)[0])
            target = -rf / full.root
            add(
                CheckResult(
                    name="error_decay",
                    passed=abs(slope - target) <= SLOPE_REL_TOL * abs(target),
                    band=f"log-log slope within {SLOPE_REL_TOL:.0%} of -r/s_r = {target:.6f}",
                    measured={"slope": slope, "target": target},
                )
            )
        else:
            cb = _band([row.corrected for row in curve])
            ub = _band([row.uncorrected for row in curve])
            add(
                CheckResult(
                    name="error_decay",
                    passed=cb < ub,
                    band="corrected error band strictly tighter than uncorrected",
                    measured={"corrected_band": cb, "uncorrected_band": ub},
                )
            )

    # codebook identity: at the smallest level, with alpha = all midpoints and
    # integration at the same level, upper must equal 2^-r * sum mu * c^r
    k0 = quant_ks[0]
    try:
        ac_exact = antichain_mod.enumerate_antichain(
            sys, r, k0, critical=cs, exact=True, capacity=capacity
        )
        rq = as_fraction(r)
        if rq.denominator == 1:
            mu_cr = sum(
                cnt * chi * p * c**rq.numerator
                for (_ch, chi, p, c), cnt in ac_exact.hist.items()
            )
            expected = float(mu_cr) / 2.0 ** float(rq)
        else:
            expected = sum(
                cnt * float(chi) * float(p) * float(c) ** float(rq)
                for (_ch, chi, p, c), cnt in ac_exact.hist.items()
            ) / 2.0 ** float(rq)
        grid0 = geometry.level_grid(rz, r, k0, capacity=capacity)
        est0 = geometry.integrate_error(rz, geometry.grid_codebook(grid0), r, k0, grid=grid0)
        dev = abs(est0.upper - expected)
        add(
            CheckResult(
                name="codebook_identity",
                passed=est0.lower == 0.0 and dev <= max(CODEBOOK_IDENTITY_TOL, 1e-9 * expected),
                band=f"lower == 0 and |upper - 2^-r sum mu c^r| <= {CODEBOOK_IDENTITY_TOL} (abs or 1e-9 rel)",
                measured={"upper": est0.upper, "expected": expected, "deviation": dev},
            )
        )
    except CapacityError as exc:
        add(
            CheckResult(
                name="codebook_identity", passed=None,
                band="closed-form codebook bound", reason=str(exc),
            )
        )

    # Lloyd: monotone accepted trace, and 2-point agreement with brute force
    if rf >= 1.0:
        try:
            depth_l = min(10, k0 + depth_offset)
            grid_l = geometry.level_grid(rz, r, depth_l, capacity=capacity)
            start = geometry.quantile_codebook(grid_l, 2, rf)
            refined, trace = geometry.lloyd_refine(rz, start, r, depth_l, grid=grid_l)
            monotone = all(b.upper <= a.upper + 1e-15 for a, b in zip(trace, trace[1:]))
            add(
                CheckResult(
                    name="lloyd_monotone",
                    passed=monotone and trace[-1].upper <= trace[0].upper,
                    band="accepted upper bounds never increase",
                    measured={"iterations": len(trace) - 1, "upper_final": trace[-1].upper},
                )
            )
            bf_book, bf_cost = geometry.optimal_two_point(grid_l, r)
            lloyd_cost = geometry.discrete_cost(grid_l, refined, r)
            add(
                CheckResult(
                    name="lloyd_vs_bruteforce",
                    passed=abs(lloyd_cost - bf_cost) <= BRUTE_FORCE_TOL,
                    band=f"2-point discrete cost matches split enumeration within {BRUTE_FORCE_TOL}",
                    measured={
                        "lloyd_cost": lloyd_cost,
                        "bruteforce_cost": bf_cost,
                        "bruteforce_points": bf_book.points.tolist(),
                    },
                )
            )
        except CapacityError as exc:
            for name in ("lloyd_monotone", "lloyd_vs_bruteforce"):
                add(CheckResult(name=name, passed=None, band="Lloyd refinement", reason=str(exc)))
    else:
        for name in ("lloyd_monotone", "lloyd_vs_bruteforce"):
            add(CheckResult(name=name, passed=None, band="Lloyd refinement", reason="r < 1"))

    # Monte Carlo sidecar: seeded sample must fall in the widened bracket
    try:
        mid_k = quant_ks[len(quant_ks) // 2]
        grid_mc = geometry.level_grid(rz, r, mid_k, capacity=capacity)
        book_mc = geometry.quantile_codebook(grid_mc, min(4, grid_mc.size), rf if rf >= 1 else 2.0)
        depth_mc = mid_k + depth_offset
        est_mc = geometry.integrate_error(rz, book_mc, r, depth_mc, capacity=capacity)
        mc_mean, mc_err = geometry.monte_carlo_error(rz, book_mc, r, mc_samples, seed)
        add(
            CheckResult(
                name="monte_carlo_bracket",
                passed=est_mc.lower - 3 * mc_err <= mc_mean <= est_mc.upper + 3 * mc_err,
                band="MC estimate within [lower - 3 se, upper + 3 se]",
                measured={
                    "mc": mc_mean,
                    "mc_stderr": mc_err,
                    "lower": est_mc.lower,
                    "upper": est_mc.upper,
                    "samples": mc_samples,
                    "seed": seed,
                },
            )
        )
    except (CapacityError, geometry.SamplingResolutionError) as exc:
        add(
            CheckResult(
                name="monte_carlo_bracket", passed=None,
                band="seeded MC inside widened bracket", reason=str(exc),
            )
        )
    return suite
