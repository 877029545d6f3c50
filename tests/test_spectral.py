"""Weight matrices, spectral radii, pressure roots, eigenvector bands."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from markovquant import (
    MarkovSystem,
    NoCycleError,
    PowerIterationCapError,
    cli,
    critical_analysis,
    row_sum_bounds,
    solve_sr,
    spectral,
    spectral_radius,
    weight_matrix,
)
from markovquant.spectral import ROOT_TOL, left_perron_vector
from conftest import FIXTURE_DIR, S1_H1_B, S1_K_B, S_R_A, random_rational_system

GOLDEN = (1 + math.sqrt(5)) / 2


class TestWeightMatrix:
    def test_uniform_entries_fixture_a(self, sys_a):
        wm = weight_matrix(sys_a, "full", 1, 1.0)
        expected = (1 / 6) ** 0.5
        assert np.allclose(wm, expected)

    def test_zero_exponent_gives_adjacency(self, sys_b):
        wm = weight_matrix(sys_b, "full", 1, 0.0)
        adj = np.zeros((7, 7))
        for i, j in sys_b.edges:
            adj[i - 1, j - 1] = 1.0
        assert np.array_equal(wm, adj)

    def test_h1_pattern_at_root(self, sys_b):
        wm = weight_matrix(sys_b, (1, 2), 1, S1_H1_B)
        b = (1 / 6) ** (S1_H1_B / (S1_H1_B + 1))
        assert b == pytest.approx(1 / GOLDEN, abs=1e-5)
        assert wm == pytest.approx(np.array([[b, b], [b, 0.0]]))

    def test_entries_decrease_in_s(self, sys_b):
        w1 = weight_matrix(sys_b, "full", 1, 0.3)
        w2 = weight_matrix(sys_b, "full", 1, 0.4)
        mask = w1 > 0
        assert (w2[mask] < w1[mask]).all()

    def test_scope_validation(self, sys_a):
        with pytest.raises(ValueError):
            weight_matrix(sys_a, "part", 1, 0.5)
        with pytest.raises(IndexError):
            weight_matrix(sys_a, (1, 5), 1, 0.5)


class TestSpectralRadius:
    def test_single_self_loop(self):
        assert spectral_radius(np.array([[0.37]])) == pytest.approx(0.37, rel=1e-12)

    def test_rank_one_symmetric(self):
        b = 0.41
        assert spectral_radius(np.array([[b, b], [b, b]])) == pytest.approx(
            2 * b, rel=1e-12
        )

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.618, 0.9])
    def test_fibonacci_pattern(self, b):
        # characteristic equation x^2 - b x - b^2 = 0
        got = spectral_radius(np.array([[b, b], [b, 0.0]]))
        assert got == pytest.approx(b * GOLDEN, rel=1e-11)

    def test_reducible_takes_max_over_blocks(self):
        m = np.array(
            [
                [0.5, 0.9, 0.0],
                [0.0, 0.3, 0.1],
                [0.0, 0.0, 0.8],
            ]
        )
        assert spectral_radius(m) == pytest.approx(0.8, rel=1e-12)

    def test_periodic_pattern_converges(self):
        # pure 2-cycle: radius sqrt(ab); plain power iteration would oscillate
        m = np.array([[0.0, 0.5], [0.32, 0.0]])
        assert spectral_radius(m) == pytest.approx(math.sqrt(0.5 * 0.32), rel=1e-11)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(20240811)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            m = rng.uniform(0, 1, size=(n, n))
            m[rng.uniform(size=(n, n)) < 0.4] = 0.0
            expected = max(abs(np.linalg.eigvals(m)))
            assert spectral_radius(m) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[-0.1]]))


class TestSolveRoot:
    def test_fixture_a_closed_form(self, sys_a):
        for r in (1, 2):
            sol = solve_sr(sys_a, "full", r)
            assert not sol.subcritical
            assert sol.root == pytest.approx(S_R_A, abs=1e-9)

    def test_fixture_b_h1(self, sys_b):
        sol = solve_sr(sys_b, (1, 2), 1)
        assert sol.root == pytest.approx(S1_H1_B, abs=1e-8)

    def test_fixture_b_sink_subcritical_relative_to_global(self, sys_b):
        sol_k = solve_sr(sys_b, (6, 7), 1)
        sol_full = solve_sr(sys_b, "full", 1)
        assert sol_k.root == pytest.approx(S1_K_B, abs=1e-8)
        assert sol_full.root - sol_k.root > 0.05

    def test_full_equals_component_max(self, sys_a, sys_b, sys_c):
        for sys in (sys_a, sys_b, sys_c):
            full = solve_sr(sys, "full", 1)
            roots = [
                sol.root for sol in critical_analysis(sys, 1).roots.values() if sol is not None
            ]
            assert abs(full.root - max(roots)) <= 1e-8

    def test_single_self_loop_scope_flagged_subcritical(self, sys_b):
        # scope {6}: Psi(s) = (1/18)^{s/(s+1)} < 1 for every s > 0
        sol = solve_sr(sys_b, (6,), 1)
        assert sol.subcritical
        assert sol.root == 0.0

    def test_edgeless_scope_rejected(self, sys_b):
        with pytest.raises(NoCycleError):
            solve_sr(sys_b, (5,), 1)

    @pytest.mark.parametrize("r", [1e-300, 1e-20])
    def test_order_lost_in_the_float_weights_refused(self, sys_a, r):
        # r log c vanishes beside log p, so Psi never drops below 1: the
        # doubling cap names the scope and the order, not the model weights
        with pytest.raises(ValueError, match=rf"scope \(1, 2\) at r = {r!r}"):
            solve_sr(sys_a, "full", r)

    def test_root_consistency_on_fixtures(self, sys_a, sys_b, sys_c):
        for sys in (sys_a, sys_b, sys_c):
            sol = solve_sr(sys, "full", 1)
            psi = spectral_radius(weight_matrix(sys, "full", 1, sol.root))
            assert abs(psi - 1.0) <= 1e-8

    def test_evaluations_recorded(self, sys_a):
        # plain bisection to ROOT_TOL takes 37 evaluations here; log Psi is
        # linear in s/(s+1) on A, so the secant lands on the root at once
        sol = solve_sr(sys_a, "full", 1)
        assert len(sol.evaluations) <= 8
        assert spectral_radius(weight_matrix(sys_a, "full", 1, sol.root)) == pytest.approx(1.0, abs=1e-8)

    def test_random_systems_properties(self):
        rng = random.Random(424242)
        for _ in range(25):
            sys = random_rational_system(rng)
            sol = solve_sr(sys, "full", 1)
            # monotone decrease and root consistency
            psi_root = spectral_radius(weight_matrix(sys, "full", 1, sol.root))
            assert abs(psi_root - 1.0) <= 1e-8
            s1, s2 = sorted(rng.uniform(0.01, 3.0) for _ in range(2))
            if s2 - s1 > 1e-6:
                p1 = spectral_radius(weight_matrix(sys, "full", 1, s1))
                p2 = spectral_radius(weight_matrix(sys, "full", 1, s2))
                assert p2 < p1
            roots = [
                sol_h.root
                for sol_h in critical_analysis(sys, 1).roots.values()
                if sol_h is not None
            ]
            assert abs(sol.root - max(roots)) <= 1e-8


class TestRowSumBounds:
    def test_fixture_b_h1_bounds(self, sys_b):
        rs = row_sum_bounds(sys_b, 1, (1, 2), solve_sr(sys_b, "full", 1, tol=1e-12).root, h_max=64)
        assert rs.c1 == pytest.approx(1 / GOLDEN, abs=1e-5)
        assert rs.c2 == pytest.approx(GOLDEN, abs=1e-5)
        assert rs.eigenvector[0] == pytest.approx(0.618034, abs=1e-5)
        assert rs.eigenvector[1] == pytest.approx(0.381966, abs=1e-5)

    def test_fixture_b_h1_first_column_sum(self, sys_b):
        rs = row_sum_bounds(sys_b, 1, (1, 2), solve_sr(sys_b, "full", 1, tol=1e-12).root, h_max=1)
        # one-step sums into vertex 1: b + b = 2/golden
        assert rs.sums[0][0] == pytest.approx(2 / GOLDEN, abs=1e-5)
        assert rs.c1 - 1e-9 <= rs.sums[0][0] <= rs.c2 + 1e-9

    def test_sums_stay_in_band(self, sys_b):
        rs = row_sum_bounds(sys_b, 1, (1, 2), solve_sr(sys_b, "full", 1, tol=1e-12).root, h_max=64)
        assert (rs.sums >= rs.c1 - 1e-9).all()
        assert (rs.sums <= rs.c2 + 1e-9).all()

    def test_fixture_a_sums_are_one(self, sys_a):
        rs = row_sum_bounds(sys_a, 1, (1, 2), solve_sr(sys_a, "full", 1, tol=1e-12).root, h_max=64)
        assert rs.c1 == pytest.approx(1.0, abs=1e-10)
        assert rs.c2 == pytest.approx(1.0, abs=1e-10)
        assert np.abs(rs.sums - 1.0).max() <= 1e-10

    def test_trivial_component_rejected(self, sys_b):
        with pytest.raises(NoCycleError):
            row_sum_bounds(sys_b, 1, (5,), solve_sr(sys_b, "full", 1, tol=1e-12).root)

    def test_eigenvector_is_left_fixed_point(self, sys_b):
        rs = row_sum_bounds(sys_b, 1, (1, 2), solve_sr(sys_b, "full", 1, tol=1e-12).root)
        wm = weight_matrix(sys_b, (1, 2), 1, solve_sr(sys_b, (1, 2), 1, tol=1e-12).root)
        xi = np.array(rs.eigenvector)
        assert xi @ wm == pytest.approx(xi, abs=1e-9)


def ring_system(n: int, chord: int) -> MarkovSystem:
    """n-cycle in which vertex i also jumps chord steps ahead: nearly periodic
    for a small chord, so power iteration mixes slowly."""
    rng = random.Random(n * 31 + chord)
    edges = []
    for i in range(1, n + 1):
        p_next = Fraction(rng.randint(5, 9), 10)
        edges.append((i, i % n + 1, p_next, Fraction(rng.randint(1, 8), rng.randint(9, 20))))
        edges.append((i, (i + chord - 1) % n + 1, 1 - p_next, Fraction(rng.randint(1, 8), 20)))
    return MarkovSystem.from_edges(n, edges, [Fraction(1, n)] * n)


def slow_cycle(n: int = 40) -> np.ndarray:
    """A near-periodic irreducible block: an n-cycle with uneven weights and one weak chord."""
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = 0.9 if i % 2 else 0.4
    a[0, 2] = 0.01
    return a


def dense_radius(a: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(a)).max()) if a.size else 0.0


def cold_root(sys: MarkovSystem, verts, r) -> tuple[float, bool]:
    """solve_sr's bisection with each Psi(s) from dense eigenvalues of a fresh B(s)."""
    idx = np.array(verts) - 1
    p = np.array(sys.p, dtype=float)[np.ix_(idx, idx)]
    c = np.array(sys.c, dtype=float)[np.ix_(idx, idx)]
    edge = p > 0
    rf = float(r)

    def psi(s):
        b = np.zeros_like(p)
        b[edge] = (p[edge] * c[edge] ** rf) ** (s / (s + rf))
        return dense_radius(b)

    if psi(1e-9) < 1.0:
        return 0.0, True
    lo, hi = 1e-9, 1.0
    while psi(hi) >= 1.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if psi(mid) >= 1.0 else (lo, mid)
    return 0.5 * (lo + hi), False


def reference_power(a: np.ndarray, x: np.ndarray, target: float | None = None):
    """The Perron kernel as it was before Noda's steps: power iteration on
    a + I with the same bracket, stop rule and return value."""
    for _ in range(spectral._MAX_POWER_ITER):
        ax = a @ x
        ratios = ax / x
        lo, hi, est = float(ratios.min()), float(ratios.max()), float(ax.sum())
        if target is not None and (lo >= target or hi < target):
            return lo, hi, est, x
        y = (ax + x) / (est + 1.0)
        if hi - lo <= spectral.RADIUS_TOL * hi and float(np.abs(y - x).max()) <= spectral.RADIUS_TOL:
            return lo, hi, est, y
        x = y
    raise PowerIterationCapError("reference kernel reached its cap")


def reference_root(sys: MarkovSystem, verts, r, tol: float = ROOT_TOL) -> float:
    """solve_sr's root as it was computed before the secant: every midpoint
    of the bisection compared with 1 by the power kernel, from the previous
    comparison's vectors, on a scope compiled edge by edge from the Fractions."""
    rf = float(r)
    idx = {v: i for i, v in enumerate(verts)}
    inside = [(i, j) for i, j in sys.edges if i in idx and j in idx]
    rows = np.array([idx[i] for i, _ in inside], dtype=np.intp)
    cols = np.array([idx[j] for _, j in inside], dtype=np.intp)
    p = np.array([float(sys.edge_p(i, j)) for i, j in inside])
    c = np.array([float(sys.edge_c(i, j)) for i, j in inside])
    logw = np.log(p) + rf * np.log(c)
    blocks = []
    for comp in spectral._cyclic_blocks(len(verts), rows, cols):
        local = np.full(len(verts), -1)
        local[comp] = np.arange(len(comp))
        keep = (local[rows] >= 0) & (local[cols] >= 0)
        k = len(comp)
        blocks.append([local[rows[keep]], local[cols[keep]], logw[keep], np.zeros((k, k)), np.full(k, 1.0 / k)])

    def at_least_one(s: float) -> bool:
        lo = hi = est = 0.0
        for b in blocks:
            b[3][b[0], b[1]] = np.exp(b[2] * (s / (s + rf)))
            b_lo, b_hi, b_est, b[4] = reference_power(b[3], b[4], 1.0)
            lo, hi, est = max(lo, b_lo), max(hi, b_hi), max(est, b_est)
        return lo >= 1.0 or (hi >= 1.0 and est >= 1.0)

    if not at_least_one(spectral._SUBCRITICAL_PROBE):
        return 0.0
    lo, hi = spectral._SUBCRITICAL_PROBE, 1.0
    while at_least_one(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if at_least_one(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kernel_cases():
    """(name, nonnegative matrix) pairs: random model weights, cycles, blocks."""
    rng = random.Random(20261018)
    for k in range(6):
        sys = random_rational_system(rng)
        yield f"random{k}", weight_matrix(sys, "full", Fraction(3, 2), 0.4)
    yield "pure-cycle", np.roll(np.diag([0.3, 0.9, 0.5, 0.7, 0.2]), 1, axis=1)
    bip = np.zeros((6, 6))
    bip[:3, 3:] = [[0.2, 0.5, 0.1], [0.3, 0.3, 0.6], [0.9, 0.1, 0.4]]
    bip[3:, :3] = [[0.5, 0.2, 0.7], [0.1, 0.8, 0.3], [0.6, 0.4, 0.2]]
    yield "bipartite", bip
    yield "reducible", np.array(
        [
            [0.5, 0.9, 0.0, 0.2],
            [0.4, 0.1, 0.3, 0.0],
            [0.0, 0.0, 0.0, 0.8],
            [0.0, 0.0, 0.7, 0.0],
        ]
    )
    yield "one-by-one", np.array([[0.37]])
    yield "slow-cycle", slow_cycle()


KERNEL_CASES = list(kernel_cases())


def noda_cases():
    """(name, nonnegative matrix) pairs that stress Noda's steps."""
    yield "period-2", np.array([[0.0, 0.7], [0.45, 0.0]])
    # a cycle through two links of weight 1e-12: the Perron vector spans
    # 1e-12..1, and the solves of the cold start are not all strictly positive
    yield "wide-perron", np.array([[0.25, 0.0, 0.72], [1e-12, 0.28, 0.0], [0.39, 1e-12, 0.0]])
    # links of weight 1e-15: the cold start's solves stop shrinking the
    # bracket long before it is tight, and (a+I) steps have to finish it
    yield "rounding-stall", np.array([[0.72, 1e-15, 0.0], [0.49, 0.0, 0.93], [1e-15, 0.57, 0.32]])
    # circulant: the uniform start is the Perron vector at every exponent,
    # so the bracket is tight at once, and a solve at its shift is singular
    yield "exact-start", np.array([[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]])


NODA_CASES = list(noda_cases())


class TestPerronKernel:
    @pytest.mark.parametrize("name,a", KERNEL_CASES, ids=[name for name, _ in KERNEL_CASES])
    def test_bracket_contains_dense_radius(self, name, a):
        # a compiled scope over a's pattern: Psi(s) is the radius of a^(s/(s+1)),
        # evaluated with warm starts along s, untargeted and against several targets
        rows, cols = np.nonzero(a)
        pressure = spectral._Pressure(rows, cols, np.log(a[rows, cols]), a.shape[0], 1.0)
        for s in (0.05, 0.3, 0.31, 2.0, 7.0):
            b = np.zeros_like(a)
            b[rows, cols] = a[rows, cols] ** (s / (s + 1.0))
            rho = dense_radius(b)
            for target in (None, 1.0, 0.5 * rho, 0.999 * rho, 1.001 * rho, 2.0 * rho):
                lo, hi, est = pressure(s, target)
                slack = 1e-13 * rho
                assert lo - slack <= rho <= hi + slack, (name, s, target, lo, rho, hi)
                assert lo - slack <= est <= hi + slack
                if target is None:
                    assert hi - lo <= spectral.RADIUS_TOL * hi
                elif target in (0.5 * rho, 2.0 * rho):
                    assert lo >= target or hi < target  # decided before tight

    def test_spectral_radius_matches_dense(self):
        for name, a in KERNEL_CASES:
            assert spectral_radius(a) == pytest.approx(dense_radius(a), rel=1e-12), name


class TestNodaKernel:
    @pytest.mark.parametrize("name,a", NODA_CASES, ids=[name for name, _ in NODA_CASES])
    def test_bracket_contains_dense_radius(self, name, a):
        rows, cols = np.nonzero(a)
        pressure = spectral._Pressure(rows, cols, np.log(a[rows, cols]), a.shape[0], 1.0)
        for s in (0.05, 0.3, 2.0, 7.0):
            b = np.zeros_like(a)
            b[rows, cols] = a[rows, cols] ** (s / (s + 1.0))
            rho = dense_radius(b)
            for target in (None, 1.0, 0.999 * rho, 1.001 * rho):
                lo, hi, est = pressure(s, target)
                slack = 1e-13 * rho
                assert lo - slack <= rho <= hi + slack, (name, s, target, lo, rho, hi)
                assert lo - slack <= est <= hi + slack
                if target is None:
                    assert hi - lo <= spectral.RADIUS_TOL * hi

    @pytest.mark.parametrize("name,a", NODA_CASES, ids=[name for name, _ in NODA_CASES])
    def test_cold_start_brackets_dense_radius(self, name, a):
        k = a.shape[0]
        for m in (a, a.T):
            lo, hi, est, x = spectral._perron(m, np.full(k, 1.0 / k))
            rho = dense_radius(m)
            assert lo - 1e-13 * rho <= rho <= hi + 1e-13 * rho, name
            assert hi - lo <= spectral.RADIUS_TOL * hi
            assert (x > 0).all() and x.sum() == pytest.approx(1.0, rel=1e-12)

    def test_fallback_steps_are_taken(self, monkeypatch):
        # solves of the wide Perron vector that are not strictly positive fall
        # back to the (a+I) step, and the kernel still meets its stop rule
        refused, real = [], spectral._noda_step

        def counted(a, x, shift):
            y = real(a, x, shift)
            if y is None:
                refused.append(shift)
            return y

        monkeypatch.setattr(spectral, "_noda_step", counted)
        a = dict(NODA_CASES)["wide-perron"]
        lo, hi, _, x = spectral._perron(a, np.full(3, 1.0 / 3))
        assert refused
        assert lo - 1e-13 <= dense_radius(a) <= hi + 1e-13
        assert hi - lo <= spectral.RADIUS_TOL * hi and x.min() < 1e-11

    def test_exact_start_is_singular(self):
        # the uniform start of the circulant is its Perron vector: the
        # bracket is tight at once and the kernel returns without a solve,
        # which at that shift would be singular
        a = dict(NODA_CASES)["exact-start"]
        x = np.full(3, 1.0 / 3)
        assert np.array_equal(a @ x, x)
        assert spectral._noda_step(a, x, 1.0) is None
        assert spectral._perron(a, x)[:3] == (1.0, 1.0, 1.0)

    def test_left_vector_of_wide_block(self):
        a = dict(NODA_CASES)["wide-perron"]
        x = left_perron_vector(a)
        assert x @ a == pytest.approx(dense_radius(a) * x, rel=1e-9, abs=1e-15)


class TestWarmStartedRoots:
    def models(self, sys_a, sys_b, sys_c):
        rng = random.Random(77)
        return [sys_a, sys_b, sys_c, ring_system(30, 2), ring_system(12, 5)] + [
            random_rational_system(rng, 3, 7) for _ in range(6)
        ]

    @pytest.mark.parametrize("r", [1, Fraction(3, 2)])
    def test_matches_cold_reference(self, sys_a, sys_b, sys_c, r):
        for sys in self.models(sys_a, sys_b, sys_c):
            scopes = [tuple(sys.vertices)] + [
                sol.vertices for sol in critical_analysis(sys, r).roots.values() if sol is not None
            ]
            for verts in scopes:
                sol = solve_sr(sys, verts, r)
                root, subcritical = cold_root(sys, verts, r)
                assert sol.subcritical == subcritical
                assert abs(sol.root - root) <= ROOT_TOL, (sys, verts)

    def test_independent_of_earlier_scopes(self, sys_b, sys_c):
        # warm starts live in one solve: a scope solved again, after others
        # of the same and other sizes, repeats every evaluation exactly
        first = solve_sr(sys_b, (1, 2), 1)
        solve_sr(sys_b, (3, 4), 1)
        solve_sr(sys_c, "full", 1)
        solve_sr(ring_system(30, 2), "full", Fraction(3, 2))
        assert solve_sr(sys_b, (1, 2), 1).evaluations == first.evaluations

    def test_fixture_b_h1_root_50_digits(self, sys_b):
        # Psi on {1, 2} at r = 1 is the radius of [[b11, b12], [b21, 0]],
        # solved here in 50-digit arithmetic from the model's exact weights
        mpmath.mp.dps = 50
        try:
            w = {}
            for e in ((1, 1), (1, 2), (2, 1)):
                pc = sys_b.edge_p(*e) * sys_b.edge_c(*e)
                w[e] = mpmath.mpf(pc.numerator) / pc.denominator

            def psi(s):
                b = {e: v ** (s / (s + 1)) for e, v in w.items()}
                return (b[1, 1] + mpmath.sqrt(b[1, 1] ** 2 + 4 * b[1, 2] * b[2, 1])) / 2 - 1

            exact = mpmath.findroot(psi, (mpmath.mpf("0.1"), mpmath.mpf(1)), solver="anderson")
            assert abs(psi(exact)) < mpmath.mpf(10) ** -45
            exact = float(exact)
        finally:
            mpmath.mp.dps = 15
        assert exact == pytest.approx(S1_H1_B, abs=1e-16)
        # bisection width 1e-12, plus RADIUS_TOL over |Psi'(s)| ~ 0.96 where
        # the bracket cannot separate Psi from 1
        assert abs(solve_sr(sys_b, (1, 2), 1, tol=1e-12).root - exact) <= 2.5e-12


class TestReplayedBisection:
    """The secant's certified ends only skip comparisons the bisection would
    make the same way, so every root is today's float, bit for bit."""

    @staticmethod
    def scopes(sys, r):
        return [tuple(sys.vertices)] + [
            sol.vertices for sol in critical_analysis(sys, r).roots.values() if sol is not None
        ]

    def assert_same_roots(self, sys, r):
        for verts in self.scopes(sys, r):
            assert solve_sr(sys, verts, r).root == reference_root(sys, verts, r), (sys, r, verts)

    @pytest.mark.parametrize("r", [Fraction(1, 2), 1, Fraction(3, 2), 2])
    def test_fixtures(self, sys_a, sys_b, sys_c, r):
        for sys in (sys_a, sys_b, sys_c):
            self.assert_same_roots(sys, r)

    @pytest.mark.parametrize("n,chord", [(30, 2), (12, 5)])
    def test_rings(self, n, chord):
        for r in (1, Fraction(3, 2)):
            self.assert_same_roots(ring_system(n, chord), r)

    def test_random_models(self):
        rng = random.Random(20261019)
        for _ in range(20):
            sys = random_rational_system(rng)
            for r in (1, Fraction(3, 2)):
                self.assert_same_roots(sys, r)

    def test_fewer_evaluations(self, sys_b):
        # plain bisection evaluates Psi 37 times on B's full scope
        sol = solve_sr(sys_b, "full", 1)
        assert len(sol.evaluations) <= 12
        assert spectral_radius(weight_matrix(sys_b, "full", 1, sol.root)) == pytest.approx(1.0, abs=1e-8)

    def test_secant_stops_on_equal_estimates(self):
        # equal estimates at both ends leave the secant no slope: it makes no
        # step, and only the probe below the last end is evaluated
        calls = []

        def psi(s, target=None):
            calls.append((s, target))
            return 1.5, 1.5, 1.5

        tol = 1e-10
        a, b = spectral._certified_ends(psi, 1.0, (1.0, 0.5), (2.0, 0.5), tol)
        assert (a, b) == (2.0 - tol / 4, 2.0)
        assert calls == [(2.0 - tol / 4, 1.0)]


class TestIterationCap:
    def test_spectral_radius_raises_at_cap(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_POWER_ITER", 2)
        with pytest.raises(PowerIterationCapError, match="cap of 2 steps"):
            spectral_radius(slow_cycle())

    def test_left_perron_vector_raises_at_cap(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_POWER_ITER", 2)
        with pytest.raises(PowerIterationCapError, match="cap of 2 steps"):
            left_perron_vector(slow_cycle())

    def test_slow_cycle_converges_within_default_cap(self):
        a = slow_cycle()
        assert spectral_radius(a) == pytest.approx(dense_radius(a), rel=1e-12)
        x = left_perron_vector(a)
        assert x @ a == pytest.approx(dense_radius(a) * x, rel=1e-10)

    def test_slow_ring_left_vector(self):
        # power iteration alone reached the cap on this ring's left vector;
        # Noda's steps take a handful of solves
        ring = ring_system(120, 2)
        root = solve_sr(ring, "full", 1, tol=1e-12).root
        rs = row_sum_bounds(ring, 1, tuple(ring.vertices), root, h_max=1)
        a = weight_matrix(ring, "full", 1, root)
        xi = np.array(rs.eigenvector)
        assert xi @ a == pytest.approx(dense_radius(a) * xi, rel=1e-10)

    def test_cli_exits_2_with_reason(self, monkeypatch, capsys):
        monkeypatch.setattr(spectral, "_MAX_POWER_ITER", 2)
        assert cli.main(["analyze", str(FIXTURE_DIR / "fixture_b.json")]) == 2
        assert "cap of 2 steps" in capsys.readouterr().err
