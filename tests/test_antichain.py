"""Antichain enumeration against brute-force oracles, sums, exponents, chains."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovquant import (
    CapacityError,
    MarkovSystem,
    antichain,
    critical_analysis,
    enumerate_antichain,
    error_curve,
    eta_bounds,
    implicit_exponent,
    measure_partition_sum,
    member_words,
    path_weight,
    theorem_ratio_series,
    visited_chain,
)
from markovquant.antichain import member_keys, scan, scan_levels
from conftest import S1_H1_B, S_R_A, T11_A, oracle_antichain, random_rational_system

F = Fraction


class TestAgainstOracle:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_fixture_b_words_match(self, sys_b, k):
        ac = enumerate_antichain(sys_b, 1, k, exact=True)
        assert member_words(sys_b, ac) == oracle_antichain(sys_b, 1, k)

    @pytest.mark.parametrize("sys_name,k", [("a", 3), ("c", 3), ("a", 5), ("c", 5)])
    def test_other_fixtures_match(self, request, sys_name, k):
        sys = request.getfixturevalue(f"sys_{sys_name}")
        ac = enumerate_antichain(sys, 1, k, exact=True)
        assert member_words(sys, ac) == oracle_antichain(sys, 1, k)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_order_two_matches(self, sys_a, k):
        ac = enumerate_antichain(sys_a, 2, k, exact=True)
        assert member_words(sys_a, ac) == oracle_antichain(sys_a, 2, k)

    @pytest.mark.parametrize("r", [F(1), F(2), F(3, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_models_match(self, seed, r):
        # states barely merge on these models, and on some no single edge
        # holds both p_min and c_min, so the threshold p_min * c_min^r is
        # below every edge's p * c^r
        sys = random_rational_system(random.Random(seed))
        ac = enumerate_antichain(sys, r, 2, exact=True)
        words = member_words(sys, ac)
        assert words == oracle_antichain_fractional(sys, r, 2)
        if r.denominator == 1:
            assert words == oracle_antichain(sys, r.numerator, 2)
        if (seed, r) == (1, 1):
            assert len(words) == 216
        assert measure_partition_sum(ac) == 1

    def test_words_deeper_than_the_recursion_limit(self):
        # two vertices, self-loops (p, c) = (a, a) and cross edges (b, b); at
        # k = r = 1 the threshold is b^2.  Per root v (u the other vertex):
        # the tie (v, u) stays internal, so (v, u, u) and (v, u, v) are
        # members; so are v^(m+1) u for m = 1..L, L the last m with
        # a^(2m) >= b^2, and the all-self-loop word v^(L+2)
        a, b = F(199, 200), F(1, 200)
        edges = [(1, 1, a, a), (1, 2, b, b), (2, 2, a, a), (2, 1, b, b)]
        sys = MarkovSystem.from_edges(2, edges, chi=[F(1, 2), F(1, 2)])
        big_l, w = 0, a * a
        while w >= b * b:
            big_l, w = big_l + 1, w * a * a
        expected = []
        for v, u in ((1, 2), (2, 1)):
            expected += [(v, u, u), (v, u, v), (v,) * (big_l + 2)]
            expected += [(v,) * (m + 1) + (u,) for m in range(1, big_l + 1)]
        ac = enumerate_antichain(sys, 1, 1)
        # deeper than Python's default recursion limit of 1000
        assert ac.depth_max == big_l + 2 > 1000
        assert member_words(sys, ac) == sorted(expected)

    def test_float_mode_agrees_with_exact(self, sys_b):
        for k in (2, 5, 8):
            fast = enumerate_antichain(sys_b, 1, k)
            slow = enumerate_antichain(sys_b, 1, k, exact=True)
            assert fast.phi == slow.phi
            assert (fast.depth_min, fast.depth_max) == (slow.depth_min, slow.depth_max)
            assert fast.sum_dim == pytest.approx(slow.sum_dim, rel=1e-12)
            assert float(fast.sum_energy) == pytest.approx(float(slow.sum_energy), rel=1e-12)


class TestFixtureAClosedForms:
    def test_level_one(self, sys_a):
        ac = enumerate_antichain(sys_a, 1, 1, exact=True)
        assert ac.phi == 8
        assert ac.depth_min == ac.depth_max == 3
        assert ac.sum_energy == F(2, 9)
        words = member_words(sys_a, ac)
        assert len(words) == 8 and all(len(w) == 3 for w in words)

    @pytest.mark.parametrize("k", [2, 4, 7, 10])
    def test_cardinality_and_single_weight_class(self, sys_a, k):
        ac = enumerate_antichain(sys_a, 1, k, exact=True)
        assert ac.phi == 2 ** (k + 2)
        assert ac.depth_min == ac.depth_max == k + 2
        # one exact weight class: p = 2^-(k+1), c = 3^-(k+1)
        keys = {(p, c) for (_ch, _chi, p, c) in ac.hist}
        assert keys == {(F(1, 2 ** (k + 1)), F(1, 3 ** (k + 1)))}
        assert ac.sum_energy == 2 ** (k + 2) * F(1, 6 ** (k + 1))

    @pytest.mark.parametrize("k", [2, 6, 10, 14])
    def test_dimension_sum_is_two(self, sys_a, k):
        ac = enumerate_antichain(sys_a, 1, k)
        assert ac.sum_dim == pytest.approx(2.0, abs=1e-8)

    def test_ties_stay_internal(self, sys_a):
        # every length-(k+1) word has weight exactly eta_lo^k; the strict
        # right inequality keeps it out, so members all have length k+2
        for r in (1, F(3, 2)):
            ac = enumerate_antichain(sys_a, r, 6, exact=True)
            assert ac.depth_min == 8


class TestDefinitionalInvariants:
    @pytest.mark.parametrize("sys_name", ["a", "b", "c"])
    def test_membership_inequalities_exact(self, request, sys_name):
        sys = request.getfixturevalue(f"sys_{sys_name}")
        k = 3
        eta_lo, _ = eta_bounds(sys, 1)
        thr = eta_lo**k
        ac = enumerate_antichain(sys, 1, k, exact=True)
        for w in member_words(sys, ac):
            pw = path_weight(sys, w)
            parent = path_weight(sys, w[:-1])
            assert parent.p_weight * parent.c_weight >= thr
            assert pw.p_weight * pw.c_weight < thr
            # weight band: one more step loses at most the minimal factor
            assert pw.p_weight * pw.c_weight >= thr * eta_lo

    @pytest.mark.parametrize("sys_name", ["a", "b", "c"])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_partition_of_measure_exact(self, request, sys_name, k):
        sys = request.getfixturevalue(f"sys_{sys_name}")
        ac = enumerate_antichain(sys, 1, k, exact=True)
        assert measure_partition_sum(ac) == 1

    def test_prefix_free(self, sys_b):
        ac = enumerate_antichain(sys_b, 1, 4, exact=True)
        words = sorted(member_words(sys_b, ac))
        for u, v in zip(words, words[1:]):
            assert not (len(u) <= len(v) and v[: len(u)] == u)

    def test_depth_bounds_vs_eta(self, sys_b):
        # eta_lo^{l1-1} <= eta_lo^k and eta_lo^k <= eta_hi^{l2-2}
        lo, hi = eta_bounds(sys_b, 1)
        for k in (2, 5, 9):
            ac = enumerate_antichain(sys_b, 1, k)
            assert lo ** (ac.depth_min - 1) <= lo**k
            assert lo**k <= hi ** (ac.depth_max - 2)


def bisected_exponent(ac) -> float:
    """`implicit_exponent` by bisection of Sum count * w^{t/(t+r)} - 1 in t,
    down to a bracket of width 1e-10."""
    rf = float(ac.r)

    def f(t: float) -> float:
        return math.fsum(math.exp(lc + t / (t + rf) * lw) for _chain, lw, lc in ac.log_weights) - 1.0

    lo, hi = 0.0, 1.0
    while f(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


class TestImplicitExponent:
    def test_level_one_closed_form(self, sys_a):
        ac = enumerate_antichain(sys_a, 1, 1, exact=True)
        t = implicit_exponent(ac)
        assert t == pytest.approx(T11_A, abs=1e-9)
        # substitution: 8 * (1/36)^{t/(t+1)} == 1
        assert 8 * (1 / 36) ** (t / (t + 1)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("k", [6, 10, 14])
    def test_closed_form_general_level(self, sys_a, k):
        # phi * w^{t/(t+1)} = 1 with phi = 2^{k+2}, w = 6^-(k+1)
        y = (k + 2) * math.log(2) / ((k + 1) * math.log(6))
        expected = y / (1 - y)
        ac = enumerate_antichain(sys_a, 1, k)
        assert implicit_exponent(ac) == pytest.approx(expected, abs=1e-9)

    def test_converges_toward_dimension(self, sys_a):
        gaps = []
        for k in (4, 8, 12, 16):
            ac = enumerate_antichain(sys_a, 1, k)
            gaps.append(abs(implicit_exponent(ac) - S_R_A))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.1

    def test_fixture_b_bracket(self, sys_b):
        # for large k the exponent sits within [s_r/2, 2 s_r]
        ac = enumerate_antichain(sys_b, 1, 12)
        t = implicit_exponent(ac)
        assert S1_H1_B / 2 <= t <= 2 * S1_H1_B

    def test_substitution_property(self, sys_b):
        ac = enumerate_antichain(sys_b, 1, 6)
        t = implicit_exponent(ac)
        total = sum(
            cnt * float(p * c) ** (t / (t + 1)) for (_ch, _chi, p, c), cnt in ac.hist.items()
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_single_word_rejected(self, sys_a):
        ac = enumerate_antichain(sys_a, 1, 1, exact=True)
        crippled = dataclasses.replace(ac, phi=1)
        with pytest.raises(ValueError):
            implicit_exponent(crippled)

    @pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_c", *range(7)])
    def test_matches_bisection(self, request, name):
        # the bracketed Newton and secant steps land within the tolerance of
        # plain bisection on the same sum, over A-C and random models 0-6
        if isinstance(name, int):
            sys_, levels = random_rational_system(random.Random(name)), (1, 2)
        else:
            sys_, levels = request.getfixturevalue(name), (2, 6, 10)
        for r in (Fraction(1), Fraction(3, 2), Fraction(2)):
            for k in levels:
                ac = enumerate_antichain(sys_, r, k)
                assert abs(implicit_exponent(ac) - bisected_exponent(ac)) <= 1e-10


class TestChainDecomposition:
    def test_fixture_b_classes(self, sys_b):
        cs = critical_analysis(sys_b, 1)
        ac = enumerate_antichain(sys_b, 1, 10, critical=cs)
        assert set(ac.class_sums) == {(), (0,), (1,), (0, 1)}
        assert ac.class_sums[()] > 0  # the transient (l = 0) residual
        assert sum(ac.class_sums.values()) == pytest.approx(ac.sum_dim, rel=1e-12)

    def test_fixture_c_no_pair_class(self, sys_c):
        cs = critical_analysis(sys_c, 1)
        for k in (3, 6, 10):
            ac = enumerate_antichain(sys_c, 1, k, critical=cs)
            assert (0, 1) not in ac.class_sums
            assert (1, 0) not in ac.class_sums

    def test_pair_mass_increases_with_level(self, sys_b):
        cs = critical_analysis(sys_b, 1)
        vals = []
        for k in range(6, 13):
            ac = enumerate_antichain(sys_b, 1, k, critical=cs)
            vals.append(ac.class_sums[(0, 1)])
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_chain_tracking_matches_per_word_classification(self, sys_b):
        from markovquant import visited_chain

        cs = critical_analysis(sys_b, 1)
        ac = enumerate_antichain(sys_b, 1, 4, critical=cs, exact=True)
        expo = cs.s_r / (cs.s_r + 1.0)
        expected: dict = {}
        for w in member_words(sys_b, ac):
            pw = path_weight(sys_b, w)
            ch = visited_chain(cs, w)
            expected[ch] = expected.get(ch, 0.0) + float(pw.p_weight * pw.c_weight) ** expo
        assert set(expected) == set(ac.class_sums)
        for ch, val in expected.items():
            assert ac.class_sums[ch] == pytest.approx(val, rel=1e-12)


def _fold_words(sys, words, key) -> dict:
    """key(word, its path weight) gives (table key, value); sum the values by key."""
    out: dict = {}
    for w in words:
        k, val = key(w, path_weight(sys, w))
        out[k] = out.get(k, 0) + val
    return out


class TestMemberTableFolds:
    """Both folds of the pass's member table against its words, one by one."""

    CASES = [(name, 4) for name in "abc"] + [(seed, 2) for seed in range(4)] + [(0, 3)]

    @pytest.mark.parametrize("r", [F(1), F(3, 2), F(2)])
    @pytest.mark.parametrize("model,k", CASES)
    def test_folds_match_the_words(self, request, model, k, r):
        if isinstance(model, str):
            sys = request.getfixturevalue(f"sys_{model}")
        else:
            sys = random_rational_system(random.Random(model))
        cs = critical_analysis(sys, r)
        res = scan(sys, r, k, cs=cs)
        words = member_words(sys, res)
        chi = {v: sys.chi[v - 1] for v in sys.vertices}
        assert member_keys(sys, res) == _fold_words(
            sys, words, lambda w, pw: ((w[-1], pw.p_weight, pw.c_weight), chi[w[0]])
        )
        assert res.hist == _fold_words(
            sys, words,
            lambda w, pw: ((visited_chain(cs, w), chi[w[0]], pw.p_weight, pw.c_weight), 1),
        )
        assert measure_partition_sum(res) == 1
        if model == "b":  # the keys' chains are not all ()
            assert {(0,), (0, 1)} <= {chain for chain, *_ in res.hist}

    def test_statistics_build_no_fraction_histogram(self, sys_b, monkeypatch):
        # the series and the error curve read the integer histogram alone
        passes, real = [], antichain.scan_levels

        def recorded(*args, **kwargs):
            passes.append(real(*args, **kwargs))
            return passes[-1]

        monkeypatch.setattr(antichain, "scan_levels", recorded)
        theorem_ratio_series(sys_b, 1, range(6, 15))
        error_curve(sys_b, 1, range(4, 7), depth_offset=2)
        assert [len(levels) for levels in passes] == [9, 3]
        for res in (res for levels in passes for res in levels.values()):
            assert "hist" not in vars(res)
        # a read view is cached, and the statistics' fields do not take it in
        res = passes[0][6]
        assert res.hist is res.hist and "hist" in vars(res)
        ac = antichain._statistics(res, 1.0)
        assert "hist" not in vars(ac) and ac.hist == res.hist


class TestSeries:
    def test_fixture_a_constant_uncorrected(self, sys_a):
        rows = theorem_ratio_series(sys_a, 1, range(4, 13))
        for row in rows:
            assert row.corrected == row.uncorrected  # t_r = 1, no correction
            assert row.uncorrected == pytest.approx(6.0, rel=1e-7)

    def test_fixture_c_constant_uncorrected(self, sys_c):
        rows = theorem_ratio_series(sys_c, 1, range(4, 11))
        expected = 5.0 ** (1 + math.log(3) / math.log(2))
        for row in rows:
            assert row.uncorrected == pytest.approx(expected, rel=1e-7)

    def test_fixture_b_growth_smoke(self, sys_b):
        cs = critical_analysis(sys_b, 1)
        rows = theorem_ratio_series(sys_b, 1, range(6, 10), cs=cs)
        u = [row.uncorrected for row in rows]
        assert all(b > a for a, b in zip(u, u[1:]))
        r_band = max(row.corrected for row in rows) / min(row.corrected for row in rows)
        u_band = u[-1] / u[0]
        assert r_band < u_band

    def test_row_fields_consistent(self, sys_b):
        cs = critical_analysis(sys_b, 1)
        (row,) = theorem_ratio_series(sys_b, 1, [5], cs=cs)
        ac = enumerate_antichain(sys_b, 1, 5, critical=cs)
        assert row.phi == ac.phi
        assert row.sum_dim == pytest.approx(ac.sum_dim)
        assert row.uncorrected == pytest.approx(ac.phi ** (1 / cs.s_r) * float(ac.sum_energy))

    def test_energy_below_the_float_range_raises(self, sys_b):
        # at r = 2 the energy sum of B leaves the normal float range at
        # k = 169 (about 6e-321 at k = 175) while sum_dim and the exponent,
        # taken from log weights, stay finite
        ac = enumerate_antichain(sys_b, 2, 175, capacity=10**300)
        assert ac.sum_dim > 1.0 and 0.0 < implicit_exponent(ac) < 1.0
        with pytest.raises(ValueError, match="k=175"):
            theorem_ratio_series(sys_b, 2, [175], capacity=10**300)

    @pytest.mark.parametrize("sys_name", ["a", "b", "c"])
    def test_consecutive_cardinality_ratio_bounded(self, request, sys_name):
        # phi_{k+1} / phi_k stays bounded (eta_lo^-2 would suffice; 400 on fixtures)
        sys = request.getfixturevalue(f"sys_{sys_name}")
        rows = theorem_ratio_series(sys, 1, range(4, 10))
        phis = [row.phi for row in rows]
        assert all(1 <= b / a <= 400 for a, b in zip(phis, phis[1:]))


class TestCapacity:
    def test_cap_exceeded_raises(self, sys_b):
        with pytest.raises(CapacityError):
            enumerate_antichain(sys_b, 1, 8, capacity=1000)

    def test_cap_exceeded_raises_exact_mode(self, sys_b):
        with pytest.raises(CapacityError):
            enumerate_antichain(sys_b, 1, 8, exact=True, capacity=1000)

    def test_cap_propagates_through_series(self, sys_b):
        with pytest.raises(CapacityError):
            theorem_ratio_series(sys_b, 1, range(6, 9), capacity=1000)


def _one_level_loop(sys, r, ks, cs=None, capacity=10**8):
    """{k: scan of k alone} over the distinct levels of ks in increasing order,
    or the message of the loop's first CapacityError."""
    try:
        return {k: scan(sys, r, k, cs=cs, capacity=capacity) for k in sorted(set(ks))}
    except CapacityError as exc:
        return str(exc)


def _assert_levels_match(sys, passes, alone):
    """Each level of one range pass equals its one-level pass, and no word is
    a member of two levels."""
    assert sorted(passes) == sorted(alone)
    seen: set = set()
    for k, one in alone.items():
        res = passes[k]
        assert (res.k, res.r, res.phi) == (one.k, one.r, one.phi)
        assert (res.depth_min, res.depth_max) == (one.depth_min, one.depth_max)
        assert res.hist == one.hist and res.members == one.members
        assert member_keys(sys, res) == member_keys(sys, one)
        words = member_words(sys, res)
        assert words == member_words(sys, one)
        assert seen.isdisjoint(words)
        seen.update(words)


class TestRangePass:
    """One pass over a set of levels against one pass per level."""

    CAP = 4000  # words; a random model past it must raise as the loop does

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10**6),
        r=st.sampled_from([F(1), F(3, 2), F(2)]),
        ks=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    )
    @example(seed=1, r=F(1), ks=[1, 3])
    @example(seed=3, r=F(3, 2), ks=[3, 1, 2])
    @example(seed=2, r=F(2), ks=[2])
    @example(seed=0, r=F(1), ks=[2, 2, 1])
    def test_levels_match_one_level_passes(self, seed, r, ks):
        sys = random_rational_system(random.Random(seed), n_max=4)
        cs = critical_analysis(sys, r)
        alone = _one_level_loop(sys, r, ks, cs=cs, capacity=self.CAP)
        if isinstance(alone, str):
            with pytest.raises(CapacityError) as info:
                scan_levels(sys, r, ks, cs=cs, capacity=self.CAP)
            assert str(info.value) == alone
            return
        passes = scan_levels(sys, r, ks, cs=cs, capacity=self.CAP)
        _assert_levels_match(sys, passes, alone)
        if r.denominator == 1:
            for k, res in passes.items():
                assert member_words(sys, res) == oracle_antichain(sys, r.numerator, k)
        rows = theorem_ratio_series(sys, r, ks, cs=cs, capacity=self.CAP)
        assert rows == [theorem_ratio_series(sys, r, [k], cs=cs)[0] for k in ks]

    @pytest.mark.parametrize("r", [1, F(3, 2)])
    def test_ties_stay_internal_at_every_level(self, sys_a, r):
        # on A every length-(k+1) word weighs exactly eta_lo^k
        ks = [2, 4, 5, 6, 9]
        passes = scan_levels(sys_a, r, ks)
        _assert_levels_match(sys_a, passes, _one_level_loop(sys_a, r, ks))
        assert [passes[k].depth_min for k in ks] == [k + 2 for k in ks]

    @pytest.mark.parametrize("name, r, ks", [
        ("a", 1, [1, 3, 5]), ("a", 2, [1, 2, 4]), ("b", 1, [1, 2, 3, 4, 5]), ("c", 2, [2, 4]),
    ])
    def test_words_match_oracle(self, request, name, r, ks):
        sys = request.getfixturevalue(f"sys_{name}")
        passes = scan_levels(sys, r, ks)
        for k in ks:
            assert member_words(sys, passes[k]) == oracle_antichain(sys, r, k)

    @pytest.mark.parametrize("name, ks", [("a", range(4, 9)), ("b", range(6, 10))])
    def test_cap_names_the_level_of_the_one_level_loop(self, request, name, ks):
        # caps between consecutive phi_k: phi_k - 1 is first overrun at k, phi_k
        # at k + 1; phi_{k_max} - 1 is overrun by the top level only
        sys = request.getfixturevalue(f"sys_{name}")
        phis = [scan(sys, 1, k).phi for k in ks]
        for cap in sorted({phi + d for phi in phis[:-1] for d in (-1, 0)} | {phis[-1] - 1}):
            message = _one_level_loop(sys, 1, ks, capacity=cap)
            assert isinstance(message, str)
            with pytest.raises(CapacityError) as series:
                theorem_ratio_series(sys, 1, ks, capacity=cap)
            with pytest.raises(CapacityError) as curve:
                error_curve(sys, 1, ks, depth_offset=2, capacity=cap)
            assert str(series.value) == str(curve.value) == message
        assert message == f"antichain at k={ks[-1]} exceeds capacity cap {cap} words"


# each entry point that takes a critical structure, called at r = 2
AT_ORDER_2 = {
    "scan_levels": lambda sys, cs: scan_levels(sys, 2, [3, 4], cs=cs),
    "scan": lambda sys, cs: scan(sys, 2, 3, cs=cs),
    "theorem_ratio_series": lambda sys, cs: theorem_ratio_series(sys, 2, [3, 4], cs=cs),
    "enumerate_antichain": lambda sys, cs: enumerate_antichain(sys, 2, 3, critical=cs),
    "error_curve": lambda sys, cs: error_curve(sys, 2, [3, 4], depth_offset=2, cs=cs),
}


class TestValidationOfArguments:
    @pytest.mark.parametrize("entry", sorted(AT_ORDER_2))
    def test_structure_of_another_order_refused(self, sys_b, entry):
        # its chains and s_r belong to r = 1; the same call at r = 2 runs
        with pytest.raises(ValueError, match="built at r = 1.0, not at r = 2.0"):
            AT_ORDER_2[entry](sys_b, critical_analysis(sys_b, 1))
        AT_ORDER_2[entry](sys_b, critical_analysis(sys_b, 2))

    def test_structure_of_an_equal_order_accepted(self, sys_b):
        cs = critical_analysis(sys_b, "3/2")
        assert scan(sys_b, F(3, 2), 3, cs=cs).hist == scan(sys_b, 1.5, 3, cs=cs).hist

    def test_bad_level(self, sys_a):
        with pytest.raises(ValueError):
            enumerate_antichain(sys_a, 1, 0)

    def test_bad_order(self, sys_a):
        with pytest.raises(ValueError):
            enumerate_antichain(sys_a, -1, 3)

    def test_fractional_order_runs(self, sys_a):
        ac = enumerate_antichain(sys_a, "3/2", 3, exact=True)
        words = member_words(sys_a, ac)
        assert ac.phi == len(words) > 0
        assert words == oracle_antichain_fractional(sys_a, F(3, 2), 3)


def oracle_antichain_fractional(sys, rq, k):
    """Definitional oracle for rational non-integer order."""
    a, b = rq.numerator, rq.denominator
    p_lo = min(sys.edge_p(i, j) for i, j in sys.edges)
    c_lo = min(sys.edge_c(i, j) for i, j in sys.edges)
    thr = p_lo ** (k * b) * c_lo ** (k * a)
    out = []
    frontier = [(i,) for i in sys.vertices]
    while frontier:
        nxt = []
        for w in frontier:
            pw = path_weight(sys, w)
            parent = path_weight(sys, w[:-1])
            below = pw.p_weight**b * pw.c_weight**a < thr
            par_ok = parent.p_weight**b * parent.c_weight**a >= thr
            if par_ok and below:
                out.append(w)
            elif not below:
                nxt.extend(w + (j,) for j in sys.successors(w[-1]))
        frontier = nxt
    return sorted(out)
