"""Realization layout, cylinder geometry, error sandwich, Lloyd refinement."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovquant import (
    CapacityError,
    Codebook,
    CylinderGrid,
    InfeasibleLayoutError,
    MarkovSystem,
    SamplingResolutionError,
    UnsupportedOrderError,
    critical_analysis,
    cylinder_interval,
    discrete_cost,
    enumerate_antichain,
    error_curve,
    grid_codebook,
    integrate_error,
    level_grid,
    lloyd_refine,
    member_sandwich,
    member_words,
    monte_carlo_error,
    optimal_two_point,
    path_weight,
    quantile_codebook,
    realize,
    sample_support_points,
    validate_system,
)
from markovquant import geometry
from markovquant.antichain import descend, member_keys, scan, scan_levels
from markovquant.geometry import _cell_centers, _layout
from conftest import S_R_A, all_words, exact_member_sandwich, grid_at, random_rational_system

F = Fraction


def scalar_ternary(x: np.ndarray, m: np.ndarray, r: float) -> float:
    """One cell's ternary search on its cost, down to width 1e-12.

    An independent reference for `split_enumeration`, whose costs it is
    compared on.  Comparing costs locates the flat minimum only to about 1e-8
    of the cell width, so its point is no reference for `_cell_centers`.
    """

    def cost(t: float) -> float:
        return float(np.add.reduceat(m * np.abs(x - t) ** r, [0])[0])

    a, b = float(x[0]), float(x[-1])
    while b - a > 1e-12:
        t1 = a + (b - a) / 3.0
        t2 = b - (b - a) / 3.0
        if cost(t1) <= cost(t2):
            b = t2
        else:
            a = t1
    return 0.5 * (a + b)


def mp_rational(q):
    """A rational order as an exact int or an mpf at the current precision."""
    q = F(q)
    return int(q) if q.denominator == 1 else mpmath.mpf(q.numerator) / q.denominator


def mp_slope(x, m, r, t):
    """Sum m * sign(t - x) * |t - x|^(r-1) of one cell at the current mpmath precision."""
    e, t = mp_rational(F(r) - 1), mpmath.mpf(t)
    return mpmath.fsum(
        mi * (t - xi) ** e if xi < t else -mi * (xi - t) ** e for xi, mi in zip(x, m)
    )


def mp_cost(x, m, r, t):
    """Sum m * |t - x|^r of one cell at the current mpmath precision."""
    e, t = mp_rational(r), mpmath.mpf(t)
    return mpmath.fsum(mi * abs(t - xi) ** e for xi, mi in zip(x, m))


def mpmath_root(x, m, r) -> float:
    """The root of one cell's slope by a 50-digit bisection, to width 1e-14."""
    with mpmath.workdps(50):
        x, m = [mpmath.mpf(v) for v in x.tolist()], [mpmath.mpf(v) for v in m.tolist()]
        a, b = x[0], x[-1]
        while b - a > 1e-14:
            t = (a + b) / 2
            if mp_slope(x, m, r, t) < 0:
                a = t
            else:
                b = t
        return float((a + b) / 2)


def split_enumeration(grid, r) -> float:
    """Least 2-point cost over every split of the grid, each side recentered
    at its mean (r = 2), a weighted median (r = 1) or by `scalar_ternary`."""
    x, m = grid.mids, grid.masses
    r = float(r)

    def center(xs, ms):
        if r == 2:
            return float(ms @ xs / ms.sum())
        if r != 1:
            return scalar_ternary(xs, ms, r)
        cum = np.cumsum(ms)
        return float(xs[np.searchsorted(cum, 0.5 * cum[-1])])

    best = math.inf
    for cut in range(1, x.size):
        a, b = center(x[:cut], m[:cut]), center(x[cut:], m[cut:])
        cost = m[:cut] @ np.abs(x[:cut] - a) ** r + m[cut:] @ np.abs(x[cut:] - b) ** r
        best = min(best, float(cost))
    return best


def two_point_tolerance(r) -> dict:
    """1e-12 on a 2-point cost: absolute at r = 1 and 2, relative otherwise."""
    return {"abs": 1e-12} if r in (1, 2) else {"rel": 1e-12, "abs": 0.0}


def realizable_random_models(count: int, seed: int = 0) -> list:
    """The first `count` seeded random models whose child ratios fit each template."""
    rng = random.Random(seed)
    models = []
    while len(models) < count:
        sys = random_rational_system(rng)
        if all(sum(sys.edge_c(i, j) for j in sys.successors(i)) < 1 for i in sys.vertices):
            models.append(sys)
    return models


def per_sample_walk(rz, n_samples: int, seed: int) -> np.ndarray:
    """The sampler's reference walk: one sample at a time, in plain Python.

    It reads the sampler's own tables and the same uniform draws: one per
    sample for its start vertex, then one per sample and super-step.
    `sample_support_points` must return these arrays bit for bit.
    """
    tab = geometry._path_tables(rz)
    rng = np.random.default_rng(seed)
    roots, _ = rz.layout_floats()

    def pick(u, first, width, thresh, alias):
        x = u * width
        slot = first + math.floor(x)
        return slot if x - math.floor(x) < thresh[slot] else alias[slot]

    start = [pick(u, 0, rz.system.n, tab.start_thresh, tab.start_alias)
             for u in rng.random(n_samples).tolist()]
    left = [roots[v + 1] for v in start]
    length = [1.0] * n_samples
    row = [v * tab.width for v in start]
    while max(length) >= geometry._SAMPLE_RESOLUTION:
        for s, u in enumerate(rng.random(n_samples).tolist()):
            path = pick(u, row[s], tab.width, tab.thresh, tab.alias)
            left[s] += tab.offset[path] * length[s]
            length[s] *= tab.ratio[path]
            row[s] = tab.end_row[path]
    return np.array([x + 0.5 * h for x, h in zip(left, length)])


def alias_masses(thresh: np.ndarray, alias: np.ndarray) -> list:
    """Exact mass of each slot's outcome in an alias table, in slots: its own
    threshold plus the rest of every slot aliased to it."""
    mass = [F(0)] * thresh.size
    for s, (t, a) in enumerate(zip(thresh.tolist(), alias.tolist())):
        mass[s] += F(t)
        mass[a] += 1 - F(t)
    return mass


def padded_paths(sys_: MarkovSystem, levels: int):
    """(vertex, path index, exact (probability, offset, ratio), end vertex) of
    every path of `levels` edges in the sampler's layout; the exact triple is
    None for padding.  Offset and ratio compose the placement in Fractions."""
    rz = realize(sys_)
    deg = max(len(sys_.successors(i)) for i in sys_.vertices)
    for i in sys_.vertices:
        for a, ranks in enumerate(product(range(deg), repeat=levels)):
            cur, prob, off, ratio = i, F(1), F(0), F(1)
            for rank in ranks:
                succ = sys_.successors(cur)
                if rank >= len(succ):
                    yield i, a, None, None
                    break
                o, c = rz.placement[(cur, succ[rank])]
                prob, off, ratio = prob * sys_.edge_p(cur, succ[rank]), off + ratio * o, ratio * c
                cur = succ[rank]
            else:
                yield i, a, (prob, off, ratio), cur


class TestRealize:
    def test_fixture_a_middle_thirds(self, sys_a):
        rz = realize(sys_a)
        assert rz.placement[(1, 1)] == (F(0), F(1, 3))
        assert rz.placement[(1, 2)] == (F(2, 3), F(1, 3))
        assert rz.sep_t == 1
        assert rz.root_left == (F(0), F(2))

    def test_fixture_b_weak_row(self, sys_b):
        rz = realize(sys_b)
        assert rz.placement[(6, 6)] == (F(0), F(1, 9))
        assert rz.placement[(6, 7)] == (F(8, 9), F(1, 9))
        assert rz.row_gaps[5] == F(7, 9)
        assert rz.row_seps[5] == 7
        assert rz.sep_t == 1  # strong rows dominate the minimum

    def test_infeasible_row(self):
        sys = MarkovSystem(
            p=[[F(1, 3)] * 3] * 3,
            c=[["0.4"] * 3] * 3,
            chi=[F(1, 3)] * 3,
        )
        with pytest.raises(InfeasibleLayoutError):
            realize(sys)

    def test_children_fill_template_flush(self, sys_b):
        rz = realize(sys_b)
        for i in sys_b.vertices:
            succ = sys_b.successors(i)
            first_off, _ = rz.placement[(i, succ[0])]
            last_off, last_ratio = rz.placement[(i, succ[-1])]
            assert first_off == 0
            assert last_off + last_ratio == 1


class TestCylinderInterval:
    def test_fixture_a_examples(self, sys_a):
        rz = realize(sys_a)
        assert cylinder_interval(rz, (1, 2)) == (F(2, 3), F(1, 3))
        assert cylinder_interval(rz, (1, 2, 1)) == (F(2, 3), F(1, 9))
        assert cylinder_interval(rz, (2,)) == (F(2), F(1))

    def test_length_equals_ratio_product(self, sys_b):
        rz = realize(sys_b)
        for w in all_words(sys_b, 4)[::7]:
            from markovquant import path_weight

            _, length = cylinder_interval(rz, w)
            assert length == path_weight(sys_b, w).c_weight

    def test_nesting(self, sys_b):
        rz = realize(sys_b)
        for w in all_words(sys_b, 5)[::11]:
            l_out, len_out = cylinder_interval(rz, w[:-1])
            l_in, len_in = cylinder_interval(rz, w)
            assert l_out <= l_in and l_in + len_in <= l_out + len_out
            assert len_in / len_out == sys_b.edge_c(w[-2], w[-1])

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_sibling_separation_exhaustive(self, sys_b, depth):
        rz = realize(sys_b)
        for w in all_words(sys_b, depth):
            kids = [w + (j,) for j in sys_b.successors(w[-1])]
            intervals = [cylinder_interval(rz, kid) for kid in kids]
            for (l1, d1), (l2, d2) in combinations(intervals, 2):
                gap = max(l2 - (l1 + d1), l1 - (l2 + d2))
                assert gap >= rz.sep_t * max(d1, d2)


class TestGrids:
    def test_grid_size_matches_antichain(self, sys_b):
        rz = realize(sys_b)
        grid = grid_at(rz, 1, 4)
        ac = enumerate_antichain(sys_b, 1, 4)
        assert grid.size == ac.phi

    def test_masses_partition(self, sys_a, sys_b, sys_c):
        for sys in (sys_a, sys_b, sys_c):
            grid = grid_at(realize(sys), 1, 5)
            assert grid.masses.sum() == pytest.approx(1.0, abs=1e-12)
            assert (grid.masses > 0).all()

    def test_grid_matches_exact_intervals(self, sys_b, sys_c):
        # the grid is sorted by construction: its rows, in grid order, are the
        # exact intervals sorted by midpoint; at k = 6 states of B and C merge
        cases = [(sys_b, 1, 3), (sys_b, F(3, 2), 3)]
        cases += [(sys_b, 1, 6), (sys_b, F(3, 2), 6), (sys_c, F(3, 2), 6)]
        cases += [(sys, r, 2) for sys in realizable_random_models(3) for r in (1, F(3, 2))]
        for sys, r, k in cases:
            rz = realize(sys)
            grid = grid_at(rz, r, k)
            ac = enumerate_antichain(sys, r, k, exact=True)
            exact = []
            for w in member_words(sys, ac):
                left, length = cylinder_interval(rz, w)
                mass = path_weight(sys, w).measure_weight
                exact.append((float(left) + float(length) / 2, float(length) / 2, float(mass)))
            exact = np.array(sorted(exact))
            got = np.column_stack((grid.mids, grid.halves, grid.masses))
            assert got.shape == exact.shape
            assert np.allclose(got, exact, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_c"])
    @pytest.mark.parametrize("r", [1, F(3, 2)])
    def test_range_pass_lays_out_each_level(self, request, name, r):
        # a member of a lower level is an inner state of the pass: one row
        sys_ = request.getfixturevalue(name)
        place = realize(sys_).layout_floats()[1]
        for k, res in scan_levels(sys_, r, [3, 5, 6]).items():
            rows, below = _layout(sys_, place, res.levels, k)
            one_rows, one_below = _layout(sys_, place, scan(sys_, r, k).levels, k)
            assert below == one_below and np.array_equal(rows, one_rows)

    def test_deep_range_pass_lays_out_each_level(self, sys_c):
        # lloyd-c's pass over levels 4..13: each level's grid, laid out only
        # down to the level's own members, is its one-level grid bit for bit
        rz = realize(sys_c)
        for k, res in scan_levels(sys_c, F(3, 2), range(4, 14)).items():
            grid, one = level_grid(rz, res), grid_at(rz, F(3, 2), k)
            for name in ("mids", "halves", "masses"):
                assert np.array_equal(getattr(grid, name), getattr(one, name))

    @pytest.mark.parametrize(
        "name, r, k",
        [("sys_b", 1, 12), ("sys_c", F(3, 2), 13), ("sys_a", 1, 16)],
        ids=["b-12", "c-13", "a-16"],
    )
    def test_grid_peak_memory(self, request, name, r, k):
        # at most two depths of per-state layouts are alive at once; a view of
        # a consumed depth kept past its use reads about 1.9 on B
        rz = realize(request.getfixturevalue(name))
        tracemalloc.start()
        try:
            grid = grid_at(rz, r, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.65 * 24 * grid.size

    def test_grid_capacity_checked_before_arrays(self, sys_b):
        # phi at k = 40 is about 7.1e15; the pass stops once the words found
        # plus the words left to expand exceed the cap
        with pytest.raises(CapacityError):
            grid_at(realize(sys_b), 1, 40, capacity=10**6)

    def test_codebook_points_sorted_and_distinct(self, sys_b):
        grid = grid_at(realize(sys_b), 1, 6)
        book = grid_codebook(grid)
        assert book.points.tolist() == sorted(set(grid.mids.tolist()))
        assert Codebook(points=(2.5, 0.5, 2.5, 1.0)).points.tolist() == [0.5, 1.0, 2.5]
        with pytest.raises(ValueError):
            Codebook(points=())


class TestIntegrateError:
    def test_self_codebook_identity(self, sys_a):
        # alpha = all level-k midpoints, integration at the same level:
        # lower = 0 and upper = 2^-r * sum mu c^r exactly
        rz = realize(sys_a)
        for r in (1, 2):
            k = 4
            grid = grid_at(rz, r, k)
            est = integrate_error(grid, grid_codebook(grid))
            ac = enumerate_antichain(sys_a, r, k, exact=True)
            expected = float(
                sum(cnt * chi * p * c**r for (_ch, chi, p, c), cnt in ac.hist.items())
            ) / 2**r
            assert est.lower == 0.0
            assert est.upper == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("r", [1, F(3, 2)])
    def test_sandwich_chunks_match_one_pass(self, sys_b, monkeypatch, r):
        # the grid is summed a chunk at a time; reference: one pass over it,
        # reduced by numpy's loop as the sandwich is (not by a BLAS dot)
        rz = realize(sys_b)
        grid = grid_at(rz, r, 7)
        book = quantile_codebook(grid, 5, float(r))
        pts, rf = book.points, float(r)
        d = np.array([np.abs(pts - x).min() for x in grid.mids])
        lower = float(np.einsum("i,i->", grid.masses, np.maximum(d - grid.halves, 0.0) ** rf))
        upper = float(np.einsum("i,i->", grid.masses, (d + grid.halves) ** rf))
        assert grid.size <= geometry._SANDWICH_CHUNK
        one = integrate_error(grid, book)
        assert (one.lower, one.upper) == (lower, upper)
        monkeypatch.setattr(geometry, "_SANDWICH_CHUNK", 37)
        assert grid.size > 37 * 3
        est = integrate_error(grid, book)
        assert est.lower == pytest.approx(lower, rel=1e-12)
        assert est.upper == pytest.approx(upper, rel=1e-12)

    def test_sandwich_independent_of_blas_threads(self):
        # a BLAS dot over 65,536 cells rounds differently at 1 and 2 threads
        script = (
            "import numpy as np\n"
            "from markovquant.geometry import CylinderGrid, _sandwich\n"
            "rng = np.random.default_rng(5)\n"
            "n = 1 << 16\n"
            "grid = CylinderGrid(k=0, r=1.5, mids=np.sort(rng.uniform(0, 10, n)),\n"
            "    halves=rng.uniform(0, 1e-3, n), masses=rng.dirichlet(np.ones(n)))\n"
            "print(*(x.hex() for x in _sandwich(grid, np.array([2.0, 5.0, 8.0]))))\n"
        )
        src = str(Path(geometry.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=120, check=True,
            )
            outs.append(run.stdout)
        assert outs[0] and outs[0] == outs[1]

    def test_refinement_narrows(self, sys_a):
        rz = realize(sys_a)
        book = Codebook(points=(0.5, 2.5))
        widths = []
        bounds = []
        for depth in (4, 6, 8, 10):
            grid = grid_at(rz, 1, depth)
            est = integrate_error(grid, book)
            assert (est.r, est.integration_depth) == (grid.r, grid.k) == (1.0, depth)
            widths.append(est.width)
            bounds.append((est.lower, est.upper))
        assert widths == sorted(widths, reverse=True)
        # brackets are nested as the refinement deepens
        for (lo1, up1), (lo2, up2) in zip(bounds, bounds[1:]):
            assert lo2 >= lo1 - 1e-12 and up2 <= up1 + 1e-12

    def test_bracket_contains_monte_carlo(self, sys_a):
        rz = realize(sys_a)
        for pts in ((0.5, 2.5), (0.2, 0.8, 2.5), (1.7,)):
            book = Codebook(points=pts)
            est = integrate_error(grid_at(rz, 1, 10), book)
            mc, se = monte_carlo_error(rz, book, 1, 200_000, seed=99)
            assert est.lower - 3 * se <= mc <= est.upper + 3 * se

    def test_sampler_deterministic(self, sys_b):
        rz = realize(sys_b)
        xs = sample_support_points(rz, 500, seed=5)
        ys = sample_support_points(rz, 500, seed=5)
        assert np.array_equal(xs, ys)
        # all samples live in the root templates
        assert ((xs % 2) <= 1).all()

    @pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_c", *range(6)])
    def test_sampler_path_tables(self, request, name):
        sys_ = realizable_random_models(6)[name] if isinstance(name, int) else request.getfixturevalue(name)
        tab = geometry._path_tables(realize(sys_))
        n, deg = sys_.n, max(len(sys_.successors(i)) for i in sys_.vertices)
        # the most levels whose paths fit the table; every model here fits one
        assert tab.width == deg**tab.levels
        assert n * tab.width <= geometry._PATH_TABLE < n * tab.width * deg
        # a path's alias mass is its probability within 1e-15 relative, and
        # its offset and ratio are the exact composition, rounded at most
        # once per float operation
        u = 2.0**-53
        mass = alias_masses(tab.thresh, tab.alias)
        for i, a, exact, end in padded_paths(sys_, tab.levels):
            path = (i - 1) * tab.width + a
            if exact is None:
                assert mass[path] == 0
                continue
            prob, off, ratio = exact
            assert abs(mass[path] / tab.width / prob - 1) <= 1e-15
            assert abs(tab.offset[path] - float(off)) <= 4 * tab.levels * u
            assert abs(tab.ratio[path] / float(ratio) - 1) <= 2 * tab.levels * u
            assert tab.end_row[path] == (end - 1) * tab.width
        start = alias_masses(tab.start_thresh, tab.start_alias)
        for v, chi in enumerate(sys_.chi):
            assert abs(start[v] / n / chi - 1) <= 1e-15

    @pytest.mark.parametrize("name", ["sys_b", 1])
    def test_sampler_matches_per_sample_walk(self, request, name):
        # B's 7-level tables hold equal p's, where every slot keeps its own
        # path; random model 1's 9-level tables also exercise the aliases
        sys_ = realizable_random_models(6)[name] if isinstance(name, int) else request.getfixturevalue(name)
        rz = realize(sys_)
        assert geometry._path_tables(rz).levels == {"sys_b": 7, 1: 9}[name]
        for seed in (0, 5, 12345):
            for n in (1, 7, 1000):
                got = sample_support_points(rz, n, seed)
                want = per_sample_walk(rz, n, seed)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name, k", [("sys_a", 8), ("sys_b", 4), ("sys_c", 7), (1, 3)])
    def test_sampler_cylinder_counts_chi_square(self, request, name, k):
        # the deepest level at which every cell expects at least 50 of the
        # 100,000 samples (seed 12345, verify's default); the samples fall in
        # the cells of the level-k grid, up to the rounding of its float
        # endpoints, with counts a chi-square test accepts at the 1e-3 level
        sys_ = realizable_random_models(6)[name] if isinstance(name, int) else request.getfixturevalue(name)
        rz = realize(sys_)
        grid = grid_at(rz, 1, k)
        n = 100_000
        assert n * grid.masses.min() >= 50 > n * grid_at(rz, 1, k + 1).masses.min()
        xs = sample_support_points(rz, n, 12345)
        cell = np.searchsorted(grid.mids - grid.halves, xs, side="right") - 1
        assert (cell >= 0).all() and (xs <= grid.mids[cell] + grid.halves[cell] + 1e-14).all()
        expected = n * grid.masses
        stat = float(((np.bincount(cell, minlength=grid.size) - expected) ** 2 / expected).sum())
        df = grid.size - 1
        assert mpmath.gammainc(df / 2, stat / 2, mpmath.inf, regularized=True) >= 1e-3

    @pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_c"])
    def test_monte_carlo_z_scores(self, request, name):
        # 200 seeds of 2,000 samples against a bracket far narrower than one
        # standard error: the z-scores of an unbiased estimate are about
        # standard normal (mean within 3.5 of its standard errors, sd within
        # 4 of its own)
        rz = realize(request.getfixturevalue(name))
        for r in (1, 2):
            book = quantile_codebook(grid_at(rz, r, 6), 4, r)
            est = integrate_error(grid_at(rz, r, 10), book)
            zs = []
            for seed in range(200):
                mc, se = monte_carlo_error(rz, book, r, 2000, seed)
                assert est.upper - est.lower < 0.01 * se
                zs.append((mc - 0.5 * (est.lower + est.upper)) / se)
            assert abs(np.mean(zs)) <= 0.25 and 0.8 <= np.std(zs, ddof=1) <= 1.2

    @pytest.mark.parametrize("n", [-1, 0])
    def test_sampler_needs_one_sample(self, sys_a, n):
        with pytest.raises(ValueError, match=f"at least 1 sample, got {n}"):
            sample_support_points(realize(sys_a), n, seed=0)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_monte_carlo_needs_two_samples(self, sys_a, n):
        with pytest.raises(ValueError, match=f"got {n}"):
            monte_carlo_error(realize(sys_a), Codebook(points=(0.5,)), 1, n, seed=0)

    def test_template_midpoints_diameter_bound(self, sys_a):
        # one point per unit template: error of order r is at most 2^-r
        rz = realize(sys_a)
        book = Codebook(points=(0.5, 2.5))
        for r in (1, 2):
            est = integrate_error(grid_at(rz, r, 8), book)
            assert est.upper <= 2.0**-r

    def test_sampler_raises_at_step_cap(self):
        # valid, realizable, but cylinders shrink by only 0.999 per likely step
        q = F(1, 10**6)
        sys = MarkovSystem(
            p=[[1 - q, q], [q, 1 - q]],
            c=[[F(999, 1000), F(5, 10**4)], [F(5, 10**4), F(999, 1000)]],
            chi=[F(1, 2), F(1, 2)],
        )
        assert validate_system(sys).ok
        with pytest.raises(SamplingResolutionError):
            sample_support_points(realize(sys), 8, seed=0)

    def test_positive_order_required(self, sys_a):
        rz = realize(sys_a)
        with pytest.raises(ValueError):
            integrate_error(grid_at(rz, 0, 3), Codebook(points=(0.5,)))


class TestCellKernel:
    @pytest.mark.parametrize("r", [F(5, 4), F(3, 2), 3, 2])
    def test_matches_mpmath_root(self, r):
        rf = float(r)
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 300))
            mids = np.sort(rng.uniform(0.0, 10.0, n))
            masses = rng.uniform(0.01, 1.0, n)
            # cells over a random sub-range, with repeated cuts (empty
            # cells) and adjacent cuts (one-point cells)
            lo, hi = sorted(rng.choice(n + 1, 2, replace=False).tolist())
            inner = rng.integers(lo, hi + 1, int(rng.integers(0, 12))).tolist()
            cuts = np.array(sorted([lo, hi, lo, lo + 1, *inner]))
            starts, ends = cuts[:-1], cuts[1:]
            got = _cell_centers(mids, masses, starts, ends, rf)
            for i, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
                if s == e:
                    assert np.isnan(got[i])
                elif e - s == 1:
                    assert got[i] == mids[s]
                else:
                    assert abs(got[i] - mpmath_root(mids[s:e], masses[s:e], r)) <= 1e-12
        # equal masses placed symmetrically: the root is the middle grid point
        mids = np.array([0.5, 1.25, 2.0, 2.75, 3.5])
        masses = np.full(5, 0.2)
        assert mp_slope(mids.tolist(), masses.tolist(), r, 2.0) == 0
        got = _cell_centers(mids, masses, np.array([0]), np.array([5]), rf)
        assert abs(got[0] - 2.0) <= 1e-12

    def test_bracket_excluding_the_root_solves_from_the_cells_ends(self):
        # a bracket that leaves the first cell's root outside, above it or
        # empty, is dropped: every cell is solved from its own ends
        rng = np.random.default_rng(3)
        mids = np.sort(rng.uniform(0.0, 10.0, 40))
        masses = rng.uniform(0.01, 1.0, 40)
        starts, ends = np.array([0, 20]), np.array([20, 40])
        plain = _cell_centers(mids, masses, starts, ends, 1.5)
        above = 0.5 * (plain[0] + mids[19])
        for first in ((above, mids[19]), (mids[10], mids[5])):
            bracket = (np.array([first[0], mids[20]]), np.array([first[1], mids[39]]))
            got = _cell_centers(mids, masses, starts, ends, 1.5, bracket=bracket)
            assert np.array_equal(got, plain)

    def test_bracket_of_adjacent_floats_stops(self):
        # from 8192 on one ulp exceeds 1e-12, so a bracket of two adjacent
        # floats is never 1e-12 wide; in a subprocess, as a hang would not fail
        script = (
            "import numpy as np\n"
            "from markovquant.geometry import _cell_centers\n"
            "x = np.array([8192.0, 8192.0 + 2 ** -38, 16384.0 - 2 ** -39, 16384.0])\n"
            "c = _cell_centers(x, np.full(4, 0.25), np.array([0, 2]), np.array([2, 4]), 1.5)\n"
            "print(*(v.hex() for v in c))\n"
        )
        env = dict(os.environ)
        src = str(Path(geometry.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        got = [float.fromhex(v) for v in run.stdout.split()]
        assert 8192.0 <= got[0] <= 8192.0 + 2**-38
        assert 16384.0 - 2**-39 <= got[1] <= 16384.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        cell=st.lists(
            st.tuples(st.floats(0.0, 10.0), st.floats(0.01, 1.0)), min_size=2, max_size=40
        ),
        r=st.sampled_from([F(5, 4), F(3, 2), F(5, 2), F(3), F(2)]),
    )
    def test_center_brackets_the_root(self, cell, r):
        mids = np.sort(np.array([x for x, _ in cell]))
        masses = np.array([w for _, w in cell])
        c = float(_cell_centers(mids, masses, np.array([0]), np.array([mids.size]), float(r))[0])
        with mpmath.workdps(50):
            mids = [mpmath.mpf(v) for v in mids.tolist()]
            masses = [mpmath.mpf(v) for v in masses.tolist()]
            # the root lies within 1e-12 of c
            assert mp_slope(mids, masses, r, c - 1e-12) <= 0
            assert mp_slope(mids, masses, r, c + 1e-12) >= 0
            # so, by convexity, cost(c) exceeds the least cost by at most
            # |cost'(c)| * 1e-12: the whole excess on a cell narrower than
            # the bracket, whose midpoint c is, and negligible on wider ones
            best = min(mp_cost(mids, masses, r, x) for x in mids)
            slack = abs(r * mp_slope(mids, masses, r, c)) * mpmath.mpf(1e-12)
            assert mp_cost(mids, masses, r, c) <= best * (1 + mpmath.mpf(1e-12)) + slack

    def test_weighted_median_is_a_least_cost_point(self):
        # cells as in test_matches_mpmath_root; every other grid has equal
        # dyadic masses, so its cumulative sums are exact and half of an even
        # cell's mass falls on a point, where two points tie
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = int(rng.integers(2, 300))
            mids = np.sort(rng.uniform(0.0, 10.0, n))
            masses = np.full(n, 2.0**-6) if trial % 2 else rng.uniform(0.01, 1.0, n)
            lo, hi = sorted(rng.choice(n + 1, 2, replace=False).tolist())
            inner = rng.integers(lo, hi + 1, int(rng.integers(0, 12))).tolist()
            cuts = np.array(sorted([lo, hi, lo, lo + 1, *inner]))
            starts, ends = cuts[:-1], cuts[1:]
            got = _cell_centers(mids, masses, starts, ends, 1.0)
            for c, s, e in zip(got.tolist(), starts.tolist(), ends.tolist()):
                if s == e:
                    assert math.isnan(c)
                    continue
                assert c in mids[s:e].tolist()
                with mpmath.workdps(50):
                    x = [mpmath.mpf(v) for v in mids[s:e].tolist()]
                    m = [mpmath.mpf(v) for v in masses[s:e].tolist()]
                    assert mp_cost(x, m, 1, c) <= min(mp_cost(x, m, 1, t) for t in x)


ADVERSARIAL_ORDERS = [F(101, 100), F(5, 4), F(3, 2), F(3), F(8)]


def cluster_cell(base, size, far, exps):
    """`size` points 1e-10 apart from `base` and one point `far` away, with
    masses 10^exps."""
    x = np.sort(np.append(base + 1e-10 * np.arange(size), base + far))
    return x, 10.0 ** np.array(exps[: size + 1])


def adversarial_batch(rng, count):
    """`count` cells of each adversarial kind, drawn as `adversarial_cells` draws them."""
    cells = []
    for _ in range(count):
        n = int(rng.integers(2, 41))
        cells.append((np.sort(rng.uniform(0.0, 10.0, n)), 10.0 ** rng.uniform(-9.0, 0.0, n)))
        far = rng.uniform(0.5, 10.0) * rng.choice([-1.0, 1.0])
        exps = rng.uniform(-9.0, 0.0, 31).tolist()
        cells.append(cluster_cell(rng.uniform(0.0, 5.0), int(rng.integers(1, 31)), far, exps))
    return cells


def assert_brackets_root(x, m, r, c, slack=True):
    """The 50-digit conditions of `test_center_brackets_the_root` on center c."""
    with mpmath.workdps(50):
        x = [mpmath.mpf(v) for v in x.tolist()]
        m = [mpmath.mpf(v) for v in m.tolist()]
        assert mp_slope(x, m, r, c - 1e-12) <= 0
        assert mp_slope(x, m, r, c + 1e-12) >= 0
        if slack:
            best = min(mp_cost(x, m, r, t) for t in x)
            excess = abs(r * mp_slope(x, m, r, c)) * mpmath.mpf(1e-12)
            assert mp_cost(x, m, r, c) <= best * (1 + mpmath.mpf(1e-12)) + excess


# the cells where regula falsi stalls: masses spanning 1e-9..1 in one cell,
# and a cluster of points 1e-10 apart beside a far point
adversarial_cells = st.one_of(
    st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(-9.0, 0.0)), min_size=2, max_size=40).map(
        lambda cell: (np.sort([x for x, _ in cell]), 10.0 ** np.array([e for _, e in cell]))
    ),
    st.builds(
        cluster_cell,
        base=st.floats(0.0, 5.0),
        size=st.integers(1, 30),
        far=st.floats(0.5, 10.0) | st.floats(-10.0, -0.5),
        exps=st.lists(st.floats(-9.0, 0.0), min_size=31, max_size=31),
    ),
)


class TestCellKernelAdversarial:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cell=adversarial_cells, r=st.sampled_from(ADVERSARIAL_ORDERS))
    def test_center_brackets_the_root(self, cell, r):
        x, m = cell
        c = float(_cell_centers(x, m, np.array([0]), np.array([x.size]), float(r))[0])
        assert_brackets_root(x, m, r, c)

    def test_batch_stops(self):
        # every order's cells in one call, side by side, 30 apart; in a
        # subprocess, as a stalled loop would hang rather than fail
        cells = adversarial_batch(np.random.default_rng(5), 20)
        x = np.concatenate([cx + 30.0 * i for i, (cx, _m) in enumerate(cells)])
        m = np.concatenate([cm for _x, cm in cells])
        ends = np.cumsum([cx.size for cx, _m in cells])
        script = (
            "import sys, numpy as np\n"
            "from markovquant.geometry import _cell_centers\n"
            "x, m, ends = (np.array([float.fromhex(v) for v in line.split()])\n"
            "              for line in sys.stdin)\n"
            "ends = ends.astype(int)\n"
            "starts = np.concatenate(([0], ends[:-1]))\n"
            f"for r in {[float(r) for r in ADVERSARIAL_ORDERS]}:\n"
            "    print(*(v.hex() for v in _cell_centers(x, m, starts, ends, r)))\n"
        )
        feed = "\n".join(" ".join(float(v).hex() for v in a) for a in (x, m, ends)) + "\n"
        env = dict(os.environ)
        src = str(Path(geometry.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        run = subprocess.run(
            [sys.executable, "-c", script], input=feed, env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        lines = run.stdout.splitlines()
        assert len(lines) == len(ADVERSARIAL_ORDERS)
        for r, line in zip(ADVERSARIAL_ORDERS, lines):
            centers = [float.fromhex(v) for v in line.split()]
            for s, e, c in zip([0, *ends[:-1]], ends, centers):
                assert_brackets_root(x[s:e], m[s:e], r, c, slack=False)

    def test_lloyd_cells_match_mpmath_root(self, sys_c):
        # lloyd-c's last row: the level-9 midpoints assign the level-13 grid
        # to 16-point cells; 50 of them, solved in one call with all the others
        rz = realize(sys_c)
        grid = grid_at(rz, F(3, 2), 13)
        book = grid_at(rz, F(3, 2), 9).mids
        bounds = 0.5 * (book[1:] + book[:-1])
        starts = np.concatenate(([0], np.searchsorted(grid.mids, bounds, "right")))
        ends = np.append(starts[1:], grid.size)
        got = _cell_centers(grid.mids, grid.masses, starts, ends, 1.5)
        for i in np.random.default_rng(13).choice(starts.size, 50, replace=False).tolist():
            x, m = grid.mids[starts[i] : ends[i]], grid.masses[starts[i] : ends[i]]
            assert abs(got[i] - mpmath_root(x, m, F(3, 2))) <= 1e-12


class TestLloyd:
    def test_fixed_point_returned_unchanged(self, sys_a):
        rz = realize(sys_a)
        grid = grid_at(rz, 2, 8)
        book, _cost = optimal_two_point(grid)
        refined, trace = lloyd_refine(grid, book)
        assert refined.points == pytest.approx(book.points, abs=1e-12)
        assert len(trace) == 1

    def test_trace_monotone_and_improves(self, sys_a):
        rz = realize(sys_a)
        grid = grid_at(rz, 2, 8)
        start = Codebook(points=(0.1, 0.2, 0.3))
        refined, trace = lloyd_refine(grid, start)
        uppers = [e.upper for e in trace]
        assert all(b <= a for a, b in zip(uppers, uppers[1:]))
        assert uppers[-1] < uppers[0]
        assert discrete_cost(grid, refined) < discrete_cost(grid, start)

    def test_empty_cell_respawn(self, sys_a):
        rz = realize(sys_a)
        grid = grid_at(rz, 2, 6)
        start = Codebook(points=(-5.0, 0.5, 2.5))  # leftmost cell is empty
        refined, trace = lloyd_refine(grid, start)
        assert refined.size == 3
        assert min(refined.points) >= 0.0
        assert trace[-1].upper <= trace[0].upper

    def test_respawn_runs_out_of_distinct_midpoints(self):
        # three code points on two midpoints: the empty middle cell finds no
        # unused midpoint, and the codebook shrinks to the two
        grid = CylinderGrid(
            k=0, r=2.0, mids=np.array([0.25, 0.75]), halves=np.zeros(2), masses=np.full(2, 0.5)
        )
        refined, trace = lloyd_refine(grid, Codebook(points=(0.1, 0.5, 0.9)))
        assert refined.points.tolist() == [0.25, 0.75]
        assert trace[-1].upper < trace[0].upper

    def test_weighted_median_for_order_one(self, sys_a):
        rz = realize(sys_a)
        grid = grid_at(rz, 1, 8)
        refined, trace = lloyd_refine(grid, quantile_codebook(grid, 2, 1))
        # a weighted median never leaves the support
        for p in refined.points:
            assert grid.mids.min() <= p <= grid.mids.max()
        assert all(b.upper <= a.upper for a, b in zip(trace, trace[1:]))

    def test_general_order_ternary_search(self, sys_a):
        rz = realize(sys_a)
        grid = grid_at(rz, 1.5, 6)
        refined, trace = lloyd_refine(grid, quantile_codebook(grid, 2, 1.5))
        assert all((e.r, e.integration_depth) == (grid.r, grid.k) == (1.5, 6) for e in trace)
        assert trace[-1].upper <= trace[0].upper
        assert refined.size == 2

    def test_rejects_small_order(self, sys_a):
        rz = realize(sys_a)
        with pytest.raises(UnsupportedOrderError):
            lloyd_refine(grid_at(rz, 0.5, 4), Codebook(points=(0.5,)))

    @pytest.mark.parametrize("r", [F(1, 2), F(99, 100)], ids=str)
    def test_recentering_rejects_small_order(self, sys_c, r):
        # below r = 1 a cell's cost is not convex: no quantile warm start or
        # 2-point optimum is computed, not even with one-point cells
        grid = grid_at(realize(sys_c), r, 4)
        for n in (2, grid.size):
            with pytest.raises(UnsupportedOrderError):
                quantile_codebook(grid, n, float(r))
        with pytest.raises(UnsupportedOrderError):
            optimal_two_point(grid)

    @pytest.mark.parametrize(
        "name,k,r",
        [(name, k, r) for name, k in [("a", 5), ("a", 7), ("b", 4), ("c", 4)] for r in (1, 2)]
        + [(name, k, r) for name, k in [("a", 5), ("c", 4)] for r in (F(5, 4), F(3, 2), 3)],
        ids=str,
    )
    def test_two_point_matches_split_enumeration(self, request, name, k, r):
        # fixture A's masses tie exactly, so equal-cost splits occur
        grid = grid_at(realize(request.getfixturevalue(f"sys_{name}")), r, k)
        book, cost = optimal_two_point(grid)
        tol = two_point_tolerance(r)
        assert cost == pytest.approx(split_enumeration(grid, r), **tol)
        assert discrete_cost(grid, book) == pytest.approx(cost, **tol)

    @pytest.mark.parametrize("r", [1, 2, F(5, 4), F(3, 2), 3], ids=str)
    def test_two_point_matches_split_enumeration_random(self, r):
        # the ternary reference costs O(n) searches per grid: smaller grids there
        rng = np.random.default_rng(11)
        n_max, count = (200, 10) if r in (1, 2) else (61, 5)
        for _ in range(count):
            n = int(rng.integers(2, n_max))
            mids = np.sort(rng.uniform(0.0, 10.0, n))
            grid = CylinderGrid(
                k=0, r=float(r), mids=mids, halves=np.zeros(n), masses=rng.dirichlet(np.ones(n))
            )
            book, cost = optimal_two_point(grid)
            tol = two_point_tolerance(r)
            assert cost == pytest.approx(split_enumeration(grid, r), **tol)
            assert discrete_cost(grid, book) == pytest.approx(cost, **tol)

    @pytest.mark.parametrize("r", [1, 2, F(3, 2)], ids=str)
    def test_two_point_optimum_at_either_end(self, r):
        # a lone far cell beside a cluster: the best cut is the first or the last
        cluster = np.linspace(10.0, 11.0, 20)
        for mids, lone in ((np.concatenate(([0.0], cluster)), 0.0), (np.append(cluster, 21.0), 21.0)):
            n = mids.size
            grid = CylinderGrid(
                k=0, r=float(r), mids=mids, halves=np.zeros(n), masses=np.full(n, 1.0 / n)
            )
            book, cost = optimal_two_point(grid)
            assert lone in book.points.tolist()
            assert cost == pytest.approx(split_enumeration(grid, r), **two_point_tolerance(r))

    def test_two_point_evaluates_few_cuts(self, sys_b, monkeypatch):
        # B at level 5 has 1,602 cells at r = 3/2: enumeration recenters 1,601 cuts
        grid = grid_at(realize(sys_b), F(3, 2), 5)
        calls = []
        kernel = geometry._cell_centers
        monkeypatch.setattr(
            geometry, "_cell_centers", lambda *args: calls.append(1) or kernel(*args)
        )
        optimal_two_point(grid)
        assert grid.size == 1602
        assert 0 < len(calls) <= 200

    def test_two_point_at_order_one_shares_one_prefix_sum(self, sys_b, monkeypatch):
        # at r = 1 every cut's two cells span the grid, so one cumulative sum
        # serves all cuts; each cut's centers must be, bit for bit, those of
        # recentering that cut alone
        grid = grid_at(realize(sys_b), 1, 5)
        calls = []
        medians = geometry._weighted_medians

        def spy(x, cum, starts, ends):
            calls.append((cum, starts, ends, medians(x, cum, starts, ends)))
            return calls[-1][-1]

        monkeypatch.setattr(geometry, "_weighted_medians", spy)
        monkeypatch.setattr(geometry, "_cell_centers", None)  # not called at r = 1
        optimal_two_point(grid)
        monkeypatch.undo()
        assert 0 < len(calls) <= 200
        assert len({id(cum) for cum, *_ in calls}) == 1
        for _cum, starts, ends, got in calls:
            want = _cell_centers(grid.mids, grid.masses, starts, ends, 1.0)
            assert got.tobytes() == want.tobytes()

    def test_two_point_optimum_agreement(self, sys_a):
        # split-enumeration optimum is reproduced by Lloyd from quantile init
        rz = realize(sys_a)
        grid = grid_at(rz, 2, 8)
        bf_book, bf_cost = optimal_two_point(grid)
        refined, _ = lloyd_refine(grid, quantile_codebook(grid, 2, 2))
        assert discrete_cost(grid, refined) == pytest.approx(bf_cost, abs=1e-12)
        assert refined.points == pytest.approx(bf_book.points, abs=1e-9)


class TestErrorCurve:
    def test_fixture_a_slope(self, sys_a):
        rows = error_curve(sys_a, 1, range(4, 10))
        xs = [math.log(row.n) for row in rows]
        ys = [math.log(row.upper) for row in rows]
        slope = np.polyfit(xs, ys, 1)[0]
        target = -1 / S_R_A
        assert abs(slope - target) <= 0.10 * abs(target)

    def test_bracket_and_monotonicity(self, sys_a):
        rows = error_curve(sys_a, 1, range(4, 10))
        assert all(row.lower <= row.upper for row in rows)
        uppers = [row.upper for row in rows]
        assert uppers == sorted(uppers, reverse=True)

    def test_refined_no_worse(self, sys_a):
        plain = error_curve(sys_a, 2, range(4, 7))
        refined = error_curve(sys_a, 2, range(4, 7), refine=True)
        for a, b in zip(plain, refined):
            assert b.upper <= a.upper + 1e-15
            assert b.n == a.n

    def test_negative_depth_offset_rejected(self, sys_a):
        with pytest.raises(ValueError, match="depth offset"):
            error_curve(sys_a, 1, range(4, 6), depth_offset=-2)

    def test_corrected_coincides_when_no_log_term(self, sys_a):
        rows = error_curve(sys_a, 1, range(4, 8))
        for row in rows:
            assert row.corrected == row.uncorrected

    def test_unrefined_curve_builds_no_grid(self, sys_b, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid codebook's curve built a grid")

        monkeypatch.setattr(geometry, "CylinderGrid", no_grid)
        rows = error_curve(sys_b, 1, (6, 9), depth_offset=2)
        assert [row.k for row in rows] == [6, 9]

    def test_unrefined_n_is_phi(self, sys_b):
        rows = error_curve(sys_b, F(3, 2), (5, 7), depth_offset=1)
        assert [row.n for row in rows] == [scan(sys_b, F(3, 2), k).phi for k in (5, 7)]

    def test_ratios_in_logs_past_the_float_range(self, sys_b):
        # n^{r/s_r} is about e^711.8 here, past the float range, while upper
        # is a normal float
        cs = critical_analysis(sys_b, 2)
        (row,) = error_curve(sys_b, 2, [160], depth_offset=2, cs=cs, capacity=10**300)
        assert 1e-300 < row.upper < 1e-290
        power = 2 / cs.s_r
        log_expo = (cs.t_r - 1) * (1 + power)
        with mpmath.workdps(30):
            log_u = mpmath.log(row.upper) + power * mpmath.log(row.n)
            log_c = log_u - log_expo * mpmath.log(mpmath.log(row.n))
            assert row.uncorrected == pytest.approx(float(mpmath.exp(log_u)), rel=1e-12)
            assert row.corrected == pytest.approx(float(mpmath.exp(log_c)), rel=1e-12)

    @pytest.mark.parametrize("r", [1, 2])
    def test_ratios_match_the_direct_normalization(self, sys_b, r):
        cs = critical_analysis(sys_b, r)
        power = r / cs.s_r
        log_expo = (cs.t_r - 1) * (1 + power)
        for row in error_curve(sys_b, r, range(6, 13), depth_offset=2, cs=cs):
            norm = row.n**power
            assert row.uncorrected == pytest.approx(row.upper * norm, rel=1e-13)
            assert row.corrected == pytest.approx(
                row.upper * norm / math.log(row.n) ** log_expo, rel=1e-13
            )

    def test_upper_below_the_float_range_raises(self, sys_b):
        with pytest.raises(ValueError, match="upper at k=168"):
            error_curve(sys_b, 2, [168], depth_offset=2, capacity=10**300)


class TestMemberSandwich:
    @pytest.mark.parametrize("name", ["a", "b", "c"])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("k, depth", [(3, 5), (5, 8)])
    def test_contains_exact_sandwich(self, request, name, r, k, depth):
        model = request.getfixturevalue(f"sys_{name}")
        est = member_sandwich(realize(model), scan(model, r, k), depth)
        lower, upper = exact_member_sandwich(model, r, k, depth)
        assert est.lower <= lower and upper <= est.upper
        assert float(lower) == pytest.approx(est.lower, rel=1e-12)
        assert float(upper) == pytest.approx(est.upper, rel=1e-12)

    def test_contains_exact_sandwich_at_depth(self, sys_b):
        # the grid route read both bounds 8e-8 low here
        est = member_sandwich(realize(sys_b), scan(sys_b, 1, 12), 14)
        lower, upper = exact_member_sandwich(sys_b, 1, 12, 14)
        assert est.lower <= lower and upper <= est.upper
        assert float(lower) == 9.329153872254421e-12
        assert float(upper) == pytest.approx(9.818750947144317e-12, rel=1e-15)
        assert (est.lower, est.upper) == pytest.approx((lower, upper), rel=1e-13)
        assert (est.keys, est.n) == (46, 686254)

    @pytest.mark.parametrize("name", ["a", "b", "c"])
    @pytest.mark.parametrize("r", [1, F(3, 2), 2])
    @pytest.mark.parametrize("k, depth", [(3, 5), (5, 8)])
    def test_matches_grid_route(self, request, name, r, k, depth):
        # sep_t = 1 on A-C: the codebook point nearest a cell is its member's
        rz = realize(request.getfixturevalue(f"sys_{name}"))
        book = grid_codebook(grid_at(rz, r, k))
        grid_est = integrate_error(grid_at(rz, r, depth), book)
        est = member_sandwich(rz, scan(rz.system, r, k), depth)
        assert est.lower == pytest.approx(grid_est.lower, rel=1e-11)
        assert est.upper == pytest.approx(grid_est.upper, rel=1e-11)
        assert est.n == book.size

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("r", [1, 2])
    def test_contains_grid_bracket_below_half_separation(self, seed, r):
        # sep_t 0.375 and 1/12: a neighbour's midpoint can be the nearest one,
        # so the per-key lower is a bound, not the distance; the grid route's
        # own rounding gets a 1e-12 relative allowance
        rz = realize(random_rational_system(random.Random(seed)))
        assert rz.sep_t < F(1, 2)
        grid_est = integrate_error(grid_at(rz, r, 5), grid_codebook(grid_at(rz, r, 3)))
        est = member_sandwich(rz, scan(rz.system, r, 3), 5)
        assert est.lower <= grid_est.lower * (1 + 1e-12)
        assert grid_est.upper * (1 - 1e-12) <= est.upper

    def test_own_level_is_the_codebook_identity(self, sys_b):
        rz = realize(sys_b)
        grid = grid_at(rz, 2, 6)
        est = member_sandwich(rz, scan(sys_b, 2, 6), 6)
        assert est.lower == 0.0 and est.rows == est.keys
        assert est.upper == pytest.approx(
            integrate_error(grid, grid_codebook(grid)).upper, rel=1e-13
        )

    def test_keys_partition_the_measure(self, sys_b, sys_c):
        for model in (sys_b, sys_c):
            keys = member_keys(model, scan(model, F(3, 2), 7))
            assert sum(w * p for (_v, p, _c), w in keys.items()) == 1

    def test_capacity_counts_rows_laid_out(self, sys_a):
        rz = realize(sys_a)
        est = member_sandwich(rz, scan(sys_a, 1, 4), 10)
        assert scan(sys_a, 1, 4).phi < est.rows - 1
        assert member_sandwich(rz, scan(sys_a, 1, 4), 10, capacity=est.rows).rows == est.rows
        with pytest.raises(CapacityError, match="k=10"):
            member_sandwich(rz, scan(sys_a, 1, 4), 10, capacity=est.rows - 1)

    def test_descend_rejects_roots_off_the_depth_scale(self, sys_a):
        with pytest.raises(ValueError, match="integer scales of depth 2"):
            descend(sys_a, 1, 6, [(1, F(1, 8), F(1, 3))], 2)

    def test_depth_below_level_rejected(self, sys_a):
        with pytest.raises(ValueError, match="below the codebook level"):
            member_sandwich(realize(sys_a), scan(sys_a, 1, 5), 4)

