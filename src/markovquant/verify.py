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
reproducible and machine-readable.  `_CHECKS` lists them in report order, each
entry with the names it reports, the band of its SKIPs and the function that
yields its results.  The functions share one `_Context`: it holds the spectral
analysis with s_r, the run's one full-scope root, solved tighter, and one
antichain pass over every level a check reads, built with the run, and
builds the 1-D realization on first use.  A check asks it for all its
levels, ascending, before any work.  Every other result has one reader,
which builds it.  Only the Lloyd and Monte Carlo checks lay out a grid: the
codebook identity sandwiches the smallest level's midpoints per member key,
as the error curve does.  The loop in `run_verification` turns a capacity,
layout or sampler error, or a check's own `_Skip`, into a SKIP of each of
the entry's names with the error text as the reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Iterator

import numpy as np

from . import antichain as antichain_mod
from . import geometry, graphs, spectral
from .antichain import CapacityError, DEFAULT_CAPACITY
from .geometry import InfeasibleLayoutError, SamplingResolutionError
# path_weight is unused: perfbench's tracer self-test patches verify.path_weight
from .model import MarkovSystem, as_fraction, path_weight, validate_system  # noqa: F401

ROOT_CONSISTENCY_TOL = 1e-8
EIGVEC_BAND_SLACK = 1e-9
PHI_BAND_MAX = 2.0
DEPTH_RATIO_MAX = 3.0
CHAIN_BAND_MAX = 3.0
RATIO_BAND_MAX = 3.0
U_GROWTH_MIN = 3.0
SLOPE_REL_TOL = 0.10
CODEBOOK_IDENTITY_TOL = 1e-12  # relative to 2^-r sum mu c^r
BRUTE_FORCE_TOL = 1e-9
_QUANT_POINTS = 3  # levels of the error curve, spread over the k range


class _Skip(Exception):
    """Raised by a check that does not apply to the model, with the reason."""


_SKIP_ERRORS = (_Skip, CapacityError, InfeasibleLayoutError, SamplingResolutionError)


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
    chains: dict[str, list] = {}
    for length in range(1, max(cs.m_r, 1) + 1):
        found = graphs.enumerate_chains(cs, length)
        if found:
            chains[str(length)] = [list(ch) for ch in found]
    bounds = {}
    for idx in cs.critical_indices:
        rs = spectral.row_sum_bounds(sys, r, cond.components[idx], h_max=1, s=cs.s_r)
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
        "s_r": cs.s_r,
        "s_r_component_max": cs.s_r,
        "critical": [bool(c) for c in cs.critical],
        "m_r": cs.m_r,
        "t_r": cs.t_r,
        "transient_set": sorted(cs.transient_set),
        "chains": chains,
        "power_exponent": -rf / cs.s_r if cs.s_r > 0 else None,
        "log_exponent": (cs.t_r - 1) * (1.0 + rf / cs.s_r) if cs.s_r > 0 else None,
        "eigenvector_bounds": bounds,
        "tolerances": {
            "criticality": graphs.CRITICAL_TOL,
            "root": spectral.ROOT_TOL,
            "radius": spectral.RADIUS_TOL,
        },
    }


class _Context:
    """The inputs of one run and the results its checks share.

    The spectral analysis, the full scope's root at 1e-12 (matrix powers
    amplify root error about h-fold, so the eigenvector band reads it) and
    the pass over the k range and, from r = 1 on, the Lloyd depth are built
    with the run; the realization, which can raise a SKIP error, on first
    use.  Grids are not shared.
    """

    def __init__(self, sys, r, ks, depth_offset, capacity, seed, mc_samples):
        self.sys, self.r, self.ks = sys, r, ks
        self.rq, self.rf = as_fraction(r), float(as_fraction(r))
        self.depth_offset, self.capacity = depth_offset, capacity
        self.seed, self.mc_samples = seed, mc_samples
        self.cs = spectral.critical_analysis(sys, r)
        self.s_tight = spectral.solve_sr(sys, "full", r, tol=1e-12).root
        # at most _QUANT_POINTS levels of the error curve, from ks[0] to ks[-1]
        picks = np.linspace(0, len(ks) - 1, num=_QUANT_POINTS).round().astype(int)
        self.quant_ks = tuple(sorted({ks[i] for i in picks}))
        self.depth_l = min(10, ks[0] + depth_offset)
        # the Lloyd check SKIPs below r = 1 without reading its depth
        plan = {*ks, self.depth_l} if self.rf >= 1.0 else {*ks}
        self.passes = _planned_passes(sys, r, sorted(plan), self.cs, capacity)

    def levels(self, *ks):
        """The passes of the levels ks, ascending; CapacityError at the first one missing."""
        for k in ks:
            if k not in self.passes:
                raise CapacityError(k, self.capacity)
        return [self.passes[k] for k in ks]

    @cached_property
    def rz(self):
        return geometry.realize(self.sys)


def _planned_passes(sys, r, plan, cs, capacity) -> dict:
    """One pass over `plan`.  Past an overrun at level k, the levels below k are
    complete within the cap, so a second pass, run once the handler has freed
    the first pass's tables, returns them."""
    try:
        return antichain_mod.scan_levels(sys, r, plan, cs=cs, capacity=capacity)
    except CapacityError as exc:
        below = [k for k in plan if k < exc.k]
    return antichain_mod.scan_levels(sys, r, below, cs=cs, capacity=capacity) if below else {}


def _spectral_root_consistency(ctx: _Context) -> Iterator[CheckResult]:
    cs, worst = ctx.cs, 0.0
    roots = [(sol.vertices, sol.root) for sol in cs.roots.values() if sol is not None and not sol.subcritical]
    for verts, s in roots + ([("full", cs.s_r)] if cs.s_r > 0 else []):  # and the full matrix at s_r
        psi = spectral.spectral_radius(spectral.weight_matrix(ctx.sys, verts, ctx.r, s))
        worst = max(worst, abs(psi - 1.0))
    gap = abs(ctx.s_tight - cs.s_r)
    yield CheckResult(
        name="spectral_root_consistency",
        passed=worst <= ROOT_CONSISTENCY_TOL and gap <= ROOT_CONSISTENCY_TOL,
        band=f"|Psi(root)-1| <= {ROOT_CONSISTENCY_TOL}; |global - max component| <= {ROOT_CONSISTENCY_TOL}",
        measured={"max_psi_deviation": worst, "global_vs_components": gap, "s_r": cs.s_r},
    )


def _critical_structure(ctx: _Context) -> Iterator[CheckResult]:
    cs = ctx.cs
    cards = {str(n): len(graphs.enumerate_chains(cs, n)) for n in range(1, max(cs.m_r, 1) + 1)}
    # C(m_r, l): distinct components are strictly ordered by reachability,
    # so each l-subset supports at most one chain
    chain_card_ok = all(card <= comb(cs.m_r, int(n)) for n, card in cards.items())
    yield CheckResult(
        name="critical_structure",
        passed=cs.m_r >= 1 and 1 <= cs.t_r <= cs.m_r and chain_card_ok,
        band="m_r >= 1; 1 <= t_r <= m_r; card(chains_l) <= C(m_r, l)",
        measured={"m_r": cs.m_r, "t_r": cs.t_r, "chain_cards": cards, "s_r": cs.s_r},
    )


def _definition_holds(sys: MarkovSystem, rq: Fraction, k: int, words) -> list[bool]:
    """Per word w, exactly: p^b c^a of w[:-1] >= eta_lo^(kb) > p^b c^a of w > 0, r = a/b.

    Each edge's p^b c^a is an integer pair (numerator, denominator); a word
    multiplies its pairs without reducing them, and each comparison with the
    threshold is one cross-multiplication.  A step along no edge weighs 0.
    """
    a, b = rq.numerator, rq.denominator
    powers = {}
    for i, j in sys.edges:
        p, c = sys.edge_p(i, j), sys.edge_c(i, j)
        powers[(i, j)] = (p.numerator**b * c.numerator**a, p.denominator**b * c.denominator**a)
    thr = antichain_mod._threshold_power(sys, rq) ** k
    tn, td = thr.numerator, thr.denominator
    holds = []
    for w in words:
        num = den = 1
        for e in zip(w, w[1:-1]):  # the parent's edges
            e_num, e_den = powers.get(e, (0, 1))
            num, den = num * e_num, den * e_den
        parent_ok = num * td >= tn * den
        e_num, e_den = powers.get(tuple(w[-2:]), (0, 1))
        num, den = num * e_num, den * e_den
        holds.append(parent_ok and tn * den > num * td and num > 0)
    return holds


def _antichain_definition(ctx: _Context) -> Iterator[CheckResult]:
    (ac0,) = ctx.levels(ctx.ks[0])
    words = antichain_mod.member_words(ctx.sys, ac0)
    def_ok = all(_definition_holds(ctx.sys, ctx.rq, ac0.k, words))
    partition = antichain_mod.measure_partition_sum(ac0)
    swords = sorted(words)
    prefix_free = all(
        not (len(u) <= len(v) and v[: len(u)] == u) for u, v in zip(swords, swords[1:])
    )
    yield CheckResult(
        name="antichain_definition",
        passed=def_ok and partition == 1 and prefix_free,
        band="exact: parent >= eta_lo^k > word; prefix-free; partition sum == 1",
        measured={
            "k": ac0.k,
            "phi": ac0.phi,
            "partition_sum": str(partition),
            "prefix_free": prefix_free,
        },
    )


def _growth_bands(ctx: _Context) -> Iterator[CheckResult]:
    cs = ctx.cs
    rows = [antichain_mod.series_row(res, cs) for res in ctx.levels(*ctx.ks)]
    logphi = [math.log(row.phi) / row.k for row in rows]
    depth_ratio = max(row.depth_max / row.depth_min for row in rows)
    yield CheckResult(
        name="phi_growth_band",
        passed=_band(logphi) <= PHI_BAND_MAX and depth_ratio <= DEPTH_RATIO_MAX,
        band=f"max/min of log(phi)/k <= {PHI_BAND_MAX}; depth_max/depth_min <= {DEPTH_RATIO_MAX}",
        measured={
            "logphi_over_k_band": _band(logphi),
            "depth_ratio_max": depth_ratio,
            "phi": {str(row.k): row.phi for row in rows},
        },
    )

    if cs.t_r >= 2:
        lam_bands = {}
        ok_lam = True
        for ch in graphs.enumerate_chains(cs, cs.t_r):
            vals = [row.class_sums.get(ch, 0.0) / row.k ** (len(ch) - 1) for row in rows]
            bandv = _band(vals)
            lam_bands[chain_label(ch)] = bandv
            ok_lam = ok_lam and bandv <= CHAIN_BAND_MAX
        total_band = _band([row.sum_dim / row.k ** (cs.t_r - 1) for row in rows])
        yield CheckResult(
            name="chain_sum_growth",
            passed=ok_lam and total_band <= CHAIN_BAND_MAX,
            band=f"max/min of lambda_k/k^(l-1) and S_k/k^(t_r-1) <= {CHAIN_BAND_MAX}",
            measured={"lambda_bands": lam_bands, "total_band": total_band},
        )
    else:
        total_band = _band([row.sum_dim for row in rows])
        yield CheckResult(
            name="chain_sum_growth",
            passed=total_band <= CHAIN_BAND_MAX,
            band=f"max/min of S_k <= {CHAIN_BAND_MAX} (t_r = 1)",
            measured={"total_band": total_band},
        )

    u_vals = [row.uncorrected for row in rows]
    r_vals = [row.corrected for row in rows]
    if cs.t_r >= 2:
        monotone = all(b > a for a, b in zip(u_vals, u_vals[1:]))
        growth = u_vals[-1] / u_vals[0]
        yield CheckResult(
            name="log_correction",
            passed=_band(r_vals) <= RATIO_BAND_MAX and monotone and growth > U_GROWTH_MIN,
            band=f"corrected band <= {RATIO_BAND_MAX}; uncorrected strictly up by > {U_GROWTH_MIN}x",
            measured={
                "corrected_band": _band(r_vals),
                "uncorrected_growth": growth,
                "uncorrected_monotone": monotone,
            },
        )
    else:
        yield CheckResult(
            name="log_correction",
            passed=_band(u_vals) <= RATIO_BAND_MAX,
            band=f"uncorrected band <= {RATIO_BAND_MAX} (t_r = 1, no correction)",
            measured={"uncorrected_band": _band(u_vals)},
        )


def _eigenvector_sum_band(ctx: _Context) -> Iterator[CheckResult]:
    cs = ctx.cs
    bounds_meas = {}
    for idx in cs.critical_indices:
        rs = spectral.row_sum_bounds(ctx.sys, ctx.r, cs.condensation.components[idx], h_max=64, s=ctx.s_tight)
        lo = float(rs.sums.min())
        hi = float(rs.sums.max())
        bounds_meas[f"c{idx}"] = {"c1": rs.c1, "c2": rs.c2, "min_sum": lo, "max_sum": hi}
    yield CheckResult(
        name="eigenvector_sum_band",
        passed=not any(
            b["min_sum"] < b["c1"] - EIGVEC_BAND_SLACK or b["max_sum"] > b["c2"] + EIGVEC_BAND_SLACK
            for b in bounds_meas.values()
        ),
        band=f"h-step column sums (h<=64) within [c1 - {EIGVEC_BAND_SLACK}, c2 + {EIGVEC_BAND_SLACK}]",
        measured=bounds_meas,
    )


def _transient_decay(ctx: _Context) -> Iterator[CheckResult]:
    cs = ctx.cs
    tsums = spectral.transient_sums(cs, cs.s_r, 61)
    if not (cs.transient_set and tsums[10] > 0):
        raise _Skip("transient set empty or carries no length-11+ words")
    ratios = [tsums[n] / tsums[n - 1] for n in range(10, 61) if tsums[n - 1] > 0]
    tail = ratios[-10:]
    yield CheckResult(
        name="transient_decay",
        passed=bool(tail) and max(tail) < 1.0,
        band="transient_sum(n+1)/transient_sum(n) < 1 for n in 10..60",
        measured={
            "limit_estimate": tail[-1] if tail else None,
            "max_tail_ratio": max(tail) if tail else None,
        },
    )


def _error_curve(ctx: _Context) -> Iterator[CheckResult]:
    rz = ctx.rz  # a bad layout is the reason before a missing level
    curve = [
        geometry.curve_row(rz, res, res.k + ctx.depth_offset, ctx.cs, capacity=ctx.capacity)
        for res in ctx.levels(*ctx.quant_ks)
    ]
    yield CheckResult(
        name="quantization_bracket",
        passed=all(row.lower <= row.upper for row in curve),
        band="lower <= upper at every level",
        measured={
            str(row.k): {"n": row.n, "lower": row.lower, "upper": row.upper}
            for row in curve
        },
    )
    if ctx.cs.t_r == 1:
        xs = [math.log(row.n) for row in curve]
        ys = [math.log(row.upper) for row in curve]
        slope = float(np.polyfit(xs, ys, 1)[0])
        target = -ctx.rf / ctx.cs.s_r
        yield CheckResult(
            name="error_decay",
            passed=abs(slope - target) <= SLOPE_REL_TOL * abs(target),
            band=f"log-log slope within {SLOPE_REL_TOL:.0%} of -r/s_r = {target:.6f}",
            measured={"slope": slope, "target": target},
        )
    else:
        cb = _band([row.corrected for row in curve])
        ub = _band([row.uncorrected for row in curve])
        yield CheckResult(
            name="error_decay",
            passed=cb < ub,
            band="corrected error band strictly tighter than uncorrected",
            measured={"corrected_band": cb, "uncorrected_band": ub},
        )


def _codebook_identity(ctx: _Context) -> Iterator[CheckResult]:
    # the level-k0 midpoints integrated at their own level, sandwiched per
    # member key: lower must be 0 and upper 2^-r * sum mu * c^r
    rz, rq = ctx.rz, ctx.rq
    (ac0,) = ctx.levels(ctx.ks[0])
    words: dict = {}  # by (chi, p, c): a key split by chain would round its terms apart
    for (_chain, *key), n in ac0.hist.items():
        words[tuple(key)] = words.get(tuple(key), 0) + n
    terms = words.items()
    if rq.denominator == 1:
        mu_cr = float(sum(n * chi * p * c**rq.numerator for (chi, p, c), n in terms))
    else:
        mu_cr = math.fsum(n * float(chi) * float(p) * float(c) ** ctx.rf for (chi, p, c), n in terms)
    expected = mu_cr / 2.0 ** ctx.rf
    est0 = geometry.member_sandwich(rz, ac0, ac0.k, capacity=ctx.capacity)
    dev = abs(est0.upper - expected)
    yield CheckResult(
        name="codebook_identity",
        passed=est0.lower == 0.0 and dev <= CODEBOOK_IDENTITY_TOL * expected,
        band=f"lower == 0 and |upper - 2^-r sum mu c^r| <= {CODEBOOK_IDENTITY_TOL} * 2^-r sum mu c^r",
        measured={"upper": est0.upper, "expected": expected, "deviation": dev},
    )


def _lloyd(ctx: _Context) -> Iterator[CheckResult]:
    # monotone accepted trace, and 2-point agreement with brute force
    rz = ctx.rz  # an infeasible layout is the reason even below r = 1
    if ctx.rf < 1.0:
        raise _Skip("r < 1")
    grid_l = geometry.level_grid(rz, *ctx.levels(ctx.depth_l))
    start = geometry.quantile_codebook(grid_l, 2, ctx.rf)
    refined, trace = geometry.lloyd_refine(grid_l, start)
    monotone = all(b.upper <= a.upper + 1e-15 for a, b in zip(trace, trace[1:]))
    bf_book, bf_cost = geometry.optimal_two_point(grid_l)
    lloyd_cost = geometry.discrete_cost(grid_l, refined)
    yield CheckResult(
        name="lloyd_monotone",
        passed=monotone and trace[-1].upper <= trace[0].upper,
        band="accepted upper bounds never increase",
        measured={"iterations": len(trace) - 1, "upper_final": trace[-1].upper},
    )
    yield CheckResult(
        name="lloyd_vs_bruteforce",
        passed=abs(lloyd_cost - bf_cost) <= BRUTE_FORCE_TOL,
        band=f"2-point discrete cost matches the exact 2-point optimum within {BRUTE_FORCE_TOL}",
        measured={
            "lloyd_cost": lloyd_cost,
            "bruteforce_cost": bf_cost,
            "bruteforce_points": bf_book.points.tolist(),
        },
    )


def _monte_carlo_bracket(ctx: _Context) -> Iterator[CheckResult]:
    """The seeded sample must fall in the widened bracket of an at most 4-point
    quantile codebook, summed on the level-mid_k grid the codebook comes from."""
    rz, rf = ctx.rz, ctx.rf
    mid_k = ctx.quant_ks[len(ctx.quant_ks) // 2]
    grid_mc = geometry.level_grid(rz, *ctx.levels(mid_k))
    book_mc = geometry.quantile_codebook(grid_mc, min(4, grid_mc.size), rf if rf >= 1 else 2.0)
    est_mc = geometry.integrate_error(grid_mc, book_mc)
    del grid_mc  # the sample walk, still the run's traced peak, needs only the codebook
    mc_mean, mc_err = geometry.monte_carlo_error(rz, book_mc, ctx.r, ctx.mc_samples, ctx.seed)
    yield CheckResult(
        name="monte_carlo_bracket",
        passed=est_mc.lower - 3 * mc_err <= mc_mean <= est_mc.upper + 3 * mc_err,
        band="MC estimate within [lower - 3 se, upper + 3 se]",
        measured={
            "mc": mc_mean,
            "mc_stderr": mc_err,
            "lower": est_mc.lower,
            "upper": est_mc.upper,
            "k": mid_k,
            "integration_depth": est_mc.integration_depth,
            "samples": ctx.mc_samples,
            "seed": ctx.seed,
        },
    )


# (names reported, band of their SKIPs, function yielding their results), in report order
_CHECKS = (
    (("spectral_root_consistency",), "pressure roots", _spectral_root_consistency),
    (("critical_structure",), "critical components and chains", _critical_structure),
    (("antichain_definition",), "exact membership at smallest k", _antichain_definition),
    (("phi_growth_band", "chain_sum_growth", "log_correction"), "level series", _growth_bands),
    (("eigenvector_sum_band",), "Perron eigenvector bounds", _eigenvector_sum_band),
    (("transient_decay",), "geometric decay of the transient mass", _transient_decay),
    (("quantization_bracket", "error_decay"), "error curve: rigorous sandwich and decay", _error_curve),
    (("codebook_identity",), "closed-form codebook bound", _codebook_identity),
    (("lloyd_monotone", "lloyd_vs_bruteforce"), "Lloyd refinement", _lloyd),
    (("monte_carlo_bracket",), "seeded MC inside widened bracket", _monte_carlo_bracket),
)


def run_verification(
    sys: MarkovSystem,
    r,
    k_range: Iterable[int],
    *,
    depth_offset: int = 6,
    capacity: int = DEFAULT_CAPACITY,
    seed: int = 12345,
    mc_samples: int = 100_000,
) -> VerificationSuite:
    """Run every applicable check on one model at one order.

    An invalid model gets the model_valid check only.
    """
    ks = tuple(sorted(set(int(k) for k in k_range)))
    if not ks:
        raise ValueError("empty k range")
    if len(ks) < 2:
        raise ValueError(f"k range {ks[0]}..{ks[-1]} has one level; verify needs at least two")
    if depth_offset < 0:
        raise ValueError(f"depth offset must be >= 0, got {depth_offset}")
    if mc_samples < 2:
        raise ValueError(f"Monte Carlo needs at least 2 samples, got {mc_samples}")
    if seed < 0:
        raise ValueError(f"Monte Carlo seed must be >= 0, got {seed}")
    if capacity < 1:
        raise ValueError(f"capacity cap must be >= 1, got {capacity}")
    suite = VerificationSuite(r=float(as_fraction(r)), k_range=ks)
    rep = validate_system(sys)
    suite.checks.append(
        CheckResult(
            name="model_valid", passed=rep.ok, band="all model invariants",
            measured={"violations": list(rep.violations)},
        )
    )
    if rep.ok:
        ctx = _Context(sys, r, ks, depth_offset, capacity, seed, mc_samples)
        for names, band, check in _CHECKS:
            try:
                suite.checks += list(check(ctx))
            except _SKIP_ERRORS as exc:
                suite.checks += [CheckResult(n, None, band, reason=str(exc)) for n in names]
    return suite
