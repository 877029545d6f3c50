"""Verification suite: one list of checks on every path, and the results its checks share."""

import dataclasses
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from markovquant import antichain, geometry, run_verification, spectral, verify
from markovquant.antichain import CapacityError
from markovquant.cli import main
from markovquant.model import MarkovSystem
from markovquant.verify import analysis_report
from conftest import FIXTURE_DIR

NAMES = [
    "model_valid",
    "spectral_root_consistency",
    "critical_structure",
    "antichain_definition",
    "phi_growth_band",
    "chain_sum_growth",
    "log_correction",
    "eigenvector_sum_band",
    "transient_decay",
    "quantization_bracket",
    "error_decay",
    "codebook_identity",
    "lloyd_monotone",
    "lloyd_vs_bruteforce",
    "monte_carlo_bracket",
]
GEOMETRIC = NAMES[9:]

# a valid measure model whose rows cannot be realized in 1-D: every c entry is
# < 1, but the ratios of a row sum to 1.2
WIDE = MarkovSystem.from_config(
    {
        "n": 2,
        "edges": [
            {"from": i, "to": j, "p": "1/2", "c": "0.6"} for i in (1, 2) for j in (1, 2)
        ],
        "chi": ["1/2", "1/2"],
    }
)


def _verify_a(sys_a, r=1, **kwargs):
    return run_verification(sys_a, r, range(4, 9), depth_offset=2, mc_samples=20000, **kwargs)


def _by_name(suite):
    return {c.name: c for c in suite.checks}


@pytest.mark.parametrize("path", ["plain", "capped", "infeasible_layout", "r_below_one"])
def test_every_path_lists_every_check_in_order(sys_a, path):
    if path == "plain":
        suite = _verify_a(sys_a)
    elif path == "capped":
        suite = _verify_a(sys_a, capacity=1500)
    elif path == "infeasible_layout":
        suite = run_verification(WIDE, 1, range(3, 7))
    else:
        suite = _verify_a(sys_a, r=Fraction(1, 2))
    assert [c.name for c in suite.checks] == NAMES
    assert suite.ok


def test_infeasible_layout_skips_every_geometric_check():
    suite = run_verification(WIDE, 1, range(3, 7))
    skipped = [c.name for c in suite.checks if c.status == "SKIP" and "ratios sum to" in c.reason]
    assert skipped == GEOMETRIC
    assert _by_name(suite)["log_correction"].status == "PASS"


def test_lloyd_skipped_below_order_one(sys_a):
    suite = _verify_a(sys_a, r=Fraction(1, 2))
    for name in ("lloyd_monotone", "lloyd_vs_bruteforce"):
        check = _by_name(suite)[name]
        assert check.status == "SKIP" and check.reason == "r < 1"
    assert _by_name(suite)["quantization_bracket"].status == "PASS"


def test_invalid_model_reports_model_valid_only(sys_a):
    edges = [(i, j, sys_a.edge_p(i, j), sys_a.edge_c(i, j)) for i, j in sys_a.edges]
    edges[0] = edges[0][:2] + (Fraction(2, 5),) + edges[0][3:]
    bad = MarkovSystem.from_edges(sys_a.n, edges, sys_a.chi)
    suite = run_verification(bad, 1, range(3, 5))
    assert [(c.name, c.status) for c in suite.checks] == [("model_valid", "FAIL")]


def _overrun(*args, **kwargs):
    # a stand-in: the grid codebook's curve builds no grid that overruns this cap
    raise CapacityError(10, 1500)


def test_capped_curve_skips_bracket_and_decay_from_one_run(sys_a, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _overrun(*args, **kwargs)

    monkeypatch.setattr(geometry, "curve_row", counted)
    suite = _verify_a(sys_a, capacity=1500)
    assert len(calls) == 1
    capacity_skips = [
        c.name for c in suite.checks if c.status == "SKIP" and "capacity" in c.reason
    ]
    assert capacity_skips == ["quantization_bracket", "error_decay"]
    reasons = {_by_name(suite)[n].reason for n in capacity_skips}
    assert len(reasons) == 1
    assert _by_name(suite)["codebook_identity"].status == "PASS"


def test_capped_curve_does_not_keep_its_grids(sys_a, monkeypatch):
    # the curve's capacity error, once reported, must not hold the curve's
    # arrays through its traceback while the later checks build their grids
    curve_arrays, alive_after = [], []
    real_grid = geometry.level_grid

    def curve(*args, **kwargs):
        held = np.ones(1 << 16)
        curve_arrays.append(weakref.ref(held))
        return _overrun(*args, **kwargs)

    def level_grid(*args, **kwargs):
        if curve_arrays and not alive_after:
            alive_after.append(sum(ref() is not None for ref in curve_arrays))
        return real_grid(*args, **kwargs)

    monkeypatch.setattr(geometry, "curve_row", curve)
    monkeypatch.setattr(geometry, "level_grid", level_grid)
    suite = _verify_a(sys_a, capacity=1500)
    assert _by_name(suite)["error_decay"].status == "SKIP"
    assert len(curve_arrays) == 1 and alive_after == [0]


def test_cap_below_the_smallest_level_skips_each_check_with_its_own_level(sys_a):
    # phi_4 of A is 64 words: every reader of a level-4 antichain overruns a
    # cap of 10, and the Lloyd and Monte Carlo grids overrun it at level 6
    suite = run_verification(sys_a, 1, range(4, 9), depth_offset=2, capacity=10)
    at_4 = "antichain at k=4 exceeds capacity cap 10 words"
    at_6 = "antichain at k=6 exceeds capacity cap 10 words"
    no_transient = "transient set empty or carries no length-11+ words"
    expected = {name: ("PASS", "") for name in NAMES}
    for name in ("antichain_definition", "phi_growth_band", "chain_sum_growth",
                 "log_correction", "quantization_bracket", "error_decay",
                 "codebook_identity"):
        expected[name] = ("SKIP", at_4)
    for name in ("lloyd_monotone", "lloyd_vs_bruteforce", "monte_carlo_bracket"):
        expected[name] = ("SKIP", at_6)
    expected["transient_decay"] = ("SKIP", no_transient)
    assert [(c.name, c.status, c.reason) for c in suite.checks] == [
        (name, *expected[name]) for name in NAMES
    ]
    assert suite.ok


@pytest.mark.parametrize(
    "name, ks, curve, lloyd",
    [("a", range(4, 9), (4, 6, 8), 6), ("b", range(6, 13), (6, 9, 12), 8)],
    ids=["a", "b"],
)
def test_each_check_skips_at_its_own_level(request, name, ks, curve, lloyd):
    # caps of phi_k - 1, phi_k and phi_k + 1 for every planned level k: each
    # check's SKIP names the smallest of its own levels that a one-level pass
    # refuses, and a check none of whose levels is refused runs
    sys_ = request.getfixturevalue(f"sys_{name}")
    ks = list(ks)
    own = {
        "antichain_definition": ks[:1], "codebook_identity": ks[:1],
        **dict.fromkeys(("phi_growth_band", "chain_sum_growth", "log_correction"), ks),
        **dict.fromkeys(("quantization_bracket", "error_decay"), curve),
        **dict.fromkeys(("lloyd_monotone", "lloyd_vs_bruteforce"), [lloyd]),
        "monte_carlo_bracket": [curve[1]],
    }
    phis = [antichain.scan(sys_, 1, k).phi for k in sorted({*ks, lloyd})]
    for cap in sorted({phi + d for phi in phis for d in (-1, 0, 1)}):
        refused = {}
        for k in {*ks, lloyd}:
            try:
                antichain.scan(sys_, 1, k, capacity=cap)
            except CapacityError as exc:
                refused[k] = str(exc)
        suite = run_verification(sys_, 1, ks, depth_offset=2, capacity=cap, mc_samples=2000)
        for check in suite.checks:
            reasons = [refused[k] for k in own.get(check.name, ()) if k in refused]
            if reasons:
                assert (check.status, check.reason) == ("SKIP", reasons[0]), (cap, check.name)
            else:
                assert "capacity" not in check.reason, (cap, check.name)


def test_grid_curve_fits_where_its_grids_overran(sys_a):
    # 1,500 words cannot hold a depth-10 integration grid (4,096 cells), but
    # the curve lays out its member keys instead, in far fewer rows
    suite = _verify_a(sys_a, capacity=1500)
    assert all(c.status != "SKIP" or "capacity" not in c.reason for c in suite.checks)
    assert _by_name(suite)["quantization_bracket"].status == "PASS"
    assert _by_name(suite)["error_decay"].status == "PASS"


def _grids_built(monkeypatch) -> list:
    """Record (check function, level) of every level_grid built in later runs."""
    built, current = [], []
    real_grid = geometry.level_grid

    def level_grid(rz, res):
        built.append((current[-1], res.k))
        return real_grid(rz, res)

    def tagged(check):
        def run(ctx):
            current.append(check.__name__)
            yield from check(ctx)

        return run

    monkeypatch.setattr(geometry, "level_grid", level_grid)
    monkeypatch.setattr(verify, "_CHECKS", tuple((n, b, tagged(f)) for n, b, f in verify._CHECKS))
    return built


def test_monte_carlo_bracket_builds_one_grid_at_its_codebook_level(sys_a, monkeypatch):
    # levels 4, 6, 8 on the curve: the codebook comes from level 6, and its
    # bracket is summed on that grid, not on one at 6 + depth_offset
    built = _grids_built(monkeypatch)
    suite = run_verification(sys_a, 1, range(4, 9), depth_offset=2)
    assert [k for name, k in built if name == "_monte_carlo_bracket"] == [6]
    assert 8 not in [k for _name, k in built]
    check = _by_name(suite)["monte_carlo_bracket"]
    assert check.status == "PASS"
    assert (check.measured["k"], check.measured["integration_depth"]) == (6, 6)


def test_only_lloyd_and_monte_carlo_build_grids(sys_b, monkeypatch):
    # k 6..12 at offset 2: Lloyd at level 8, Monte Carlo at the curve's middle
    # level 9; the codebook identity at k0 = 6 is sandwiched per member key
    built = _grids_built(monkeypatch)
    suite = run_verification(sys_b, 1, range(6, 13), depth_offset=2)
    assert built == [("_lloyd", 8), ("_monte_carlo_bracket", 9)]
    assert _by_name(suite)["codebook_identity"].status == "PASS"


def _counted(monkeypatch, module, name) -> list:
    """Record the arguments of every later call of module.name."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_one_pass_per_reader(sys_b, monkeypatch):
    # verify-b's configuration: one planned pass from the vertices serves the
    # smallest level, the level series, the error curve and the Lloyd and
    # Monte Carlo grids (`scan` is the one-level `scan_levels`); the curve
    # descends from the member keys of its 3 levels
    passes = _counted(monkeypatch, antichain, "scan_levels")
    descents = _counted(monkeypatch, antichain, "descend")
    suite = run_verification(sys_b, 1, range(6, 13), depth_offset=2)
    assert suite.ok
    assert (len(passes), len(descents)) == (1, 3)


def test_pass_leaves_out_the_lloyd_depth_below_order_one(sys_b, monkeypatch):
    # below r = 1 the Lloyd check SKIPs before it reads its depth, here level
    # 9 above the k range, so the pass stops at the range
    passes = _counted(monkeypatch, antichain, "scan_levels")
    suite = run_verification(sys_b, Fraction(1, 2), range(3, 5), depth_offset=6)
    assert [set(ks) for _sys, _r, ks in passes] == [{3, 4}]
    assert {c.name: c.status for c in suite.checks}["lloyd_monotone"] == "SKIP"


def test_overrun_at_the_smallest_level_starts_one_pass(sys_a, monkeypatch):
    # phi_4 of A is 64 words: the planned pass overruns a cap of 10 at its
    # smallest level, so no level is left to pass again
    passes = _counted(monkeypatch, antichain, "scan_levels")
    suite = run_verification(sys_a, 1, range(4, 9), depth_offset=2, capacity=10)
    assert suite.ok
    assert len(passes) == 1


def test_refined_curve_lays_out_each_level_once(sys_c, monkeypatch):
    # lloyd-c's configuration: rows 4..9 read the grids of levels 4..13, and
    # levels 8 and 9 are both a codebook level and an integration depth
    passes = _counted(monkeypatch, antichain, "scan_levels")
    grids = _counted(monkeypatch, geometry, "level_grid")
    geometry.error_curve(sys_c, Fraction(3, 2), range(4, 10), refine=True, depth_offset=4)
    assert len(passes) == 1
    assert sorted(res.k for _rz, res in grids) == list(range(4, 14))


def test_codebook_identity_band_is_relative(sys_b, monkeypatch):
    # at k0 = 8 on B at r = 2, 2^-r sum mu c^r is about 2.5e-16: an absolute
    # band of 1e-12 would pass any upper, so an upper off by 1e-9 must fail
    real = geometry.member_sandwich

    def scaled(rz, res, depth, **kwargs):
        est = real(rz, res, depth, **kwargs)
        return dataclasses.replace(est, upper=est.upper * (1 + 1e-9)) if depth == res.k else est

    def identity():
        suite = run_verification(sys_b, 2, range(8, 10), depth_offset=1, mc_samples=2000)
        return _by_name(suite)["codebook_identity"]

    check = identity()
    assert check.status == "PASS"
    assert check.measured["expected"] == pytest.approx(2.53e-16, rel=1e-2)
    monkeypatch.setattr(geometry, "member_sandwich", scaled)
    assert identity().status == "FAIL"
    assert check.measured["deviation"] <= 1e-14 * check.measured["expected"]


@pytest.mark.parametrize("r, k0", [(Fraction(3, 2), 4), (Fraction(7, 3), 8), (Fraction(1, 2), 5)])
def test_codebook_identity_folds_the_chains_out(sys_b, r, k0):
    # the planned pass splits B's keys by critical chain; summed per split
    # key, the closed form would round off the sum over the bare pass's keys
    ctx = verify._Context(sys_b, r, (k0, k0 + 1), 2, 10**8, 1, 2)
    bare = antichain.scan(sys_b, r, k0)
    assert len(ctx.levels(k0)[0].hist) > len(bare.hist)
    rf = float(r)
    expected = math.fsum(
        n * float(chi) * float(p) * float(c) ** rf for (_ch, chi, p, c), n in bare.hist.items()
    ) / 2.0**rf
    (check,) = verify._codebook_identity(ctx)
    assert check.measured["expected"] == expected


def test_antichain_definition_fails_on_a_word_past_the_threshold(sys_a, monkeypatch):
    # replace one member by one of its children: still prefix-free with the
    # same partition sum, but the child's parent is already below eta_lo^k
    real = antichain.member_words

    def extended(sys_, ac):
        words = real(sys_, ac)
        w = words[0]
        child = next(j for j in sys_.vertices if sys_.is_edge(w[-1], j))
        return [w + (child,)] + words[1:]

    assert _by_name(_verify_a(sys_a))["antichain_definition"].status == "PASS"
    monkeypatch.setattr(antichain, "member_words", extended)
    check = _by_name(_verify_a(sys_a))["antichain_definition"]
    assert check.status == "FAIL"
    assert check.measured["prefix_free"] is True
    assert check.measured["partition_sum"] == "1"


@pytest.mark.parametrize("fixture", ["sys_b", "sys_c"])
@pytest.mark.parametrize("r", [1, Fraction(3, 2)], ids=["r1", "r3_2"])
def test_antichain_definition_passes_on_asymmetric_fixtures(fixture, r, request):
    sys_ = request.getfixturevalue(fixture)
    suite = run_verification(sys_, r, range(3, 5), depth_offset=1, mc_samples=1000)
    assert _by_name(suite)["antichain_definition"].status == "PASS"


def _fraction_definition(sys_, rq, k, w) -> bool:
    """The definition from fresh Fraction products: parent >= eta_lo^k > word > 0."""
    a, b = rq.numerator, rq.denominator

    def power(word):
        p = c = Fraction(1)
        for i, j in zip(word, word[1:]):
            p, c = p * sys_.edge_p(i, j), c * sys_.edge_c(i, j)
        return p**b * c**a

    p_lo = min(sys_.edge_p(i, j) for i, j in sys_.edges)
    c_lo = min(sys_.edge_c(i, j) for i, j in sys_.edges)
    return power(w[:-1]) >= (p_lo**b * c_lo**a) ** k > power(w) > 0


@pytest.mark.parametrize("fixture", ["sys_a", "sys_b", "sys_c"])
@pytest.mark.parametrize("r", [1, Fraction(3, 2), 2], ids=["r1", "r3_2", "r2"])
def test_integer_definition_matches_fractions(fixture, r, request):
    # members, their children, their parents, and words with a step along no edge
    sys_ = request.getfixturevalue(fixture)
    rq, k = Fraction(r), 4
    members = antichain.member_words(sys_, antichain.scan(sys_, r, k, exact=True))
    words = list(members)
    for w in members[:50]:
        words += [w + (j,) for j in sys_.successors(w[-1])] + [w[:-1]]
        words += [w[:-1] + (j,) for j in sys_.vertices if not sys_.is_edge(w[-2], j)]
        words += [(i,) + w for i in sys_.vertices if not sys_.is_edge(i, w[0])]
    got = verify._definition_holds(sys_, rq, k, words)
    assert got == [_fraction_definition(sys_, rq, k, w) for w in words]
    assert all(got[: len(members)]) and not any(got[len(members) :])


def test_integer_definition_keeps_fixture_a_ties(sys_a):
    # every depth-k word of fixture A weighs exactly eta_lo^k: each member's
    # parent sits on the threshold and must still count as internal
    members = antichain.member_words(sys_a, antichain.scan(sys_a, 1, 4, exact=True))
    assert {len(w) for w in members} == {6}
    assert all(verify._definition_holds(sys_a, Fraction(1), 4, members))
    assert not any(verify._definition_holds(sys_a, Fraction(1), 4, [w[:-1] for w in members]))


def test_negative_depth_offset_rejected(sys_a):
    with pytest.raises(ValueError, match="depth offset"):
        run_verification(sys_a, 1, range(4, 6), depth_offset=-2)


def test_negative_seed_rejected_before_any_check(sys_a, monkeypatch):
    # refused up front, not by numpy at the Monte Carlo check: no check may start
    monkeypatch.setattr(verify, "validate_system", None)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run_verification(sys_a, 1, range(4, 6), depth_offset=2, seed=-1)


@pytest.mark.parametrize("cap", [0, -5])
def test_capacity_below_one_rejected_before_any_check(sys_a, monkeypatch, cap):
    # a cap below one word used to SKIP every check that reads an antichain
    monkeypatch.setattr(verify, "validate_system", None)
    with pytest.raises(ValueError, match=f"capacity cap must be >= 1, got {cap}"):
        run_verification(sys_a, 1, range(4, 7), depth_offset=1, capacity=cap)


def test_one_level_range_rejected(sys_a):
    # the series and curve checks compare levels: one level leaves them nothing to compare
    with pytest.raises(ValueError, match=r"k range 8\.\.8 has one level"):
        run_verification(sys_a, 1, range(8, 9), depth_offset=2)
    suite = run_verification(sys_a, 1, range(4, 6), depth_offset=2, mc_samples=2000)
    assert [c.name for c in suite.checks] == NAMES
    assert suite.ok


def _count_solves(monkeypatch) -> list:
    """Record (scope, keyword arguments) of every spectral.solve_sr call."""
    calls = []
    solve = spectral.solve_sr

    def counted(sys_, scope, r, **kwargs):
        calls.append((scope, kwargs))
        return solve(sys_, scope, r, **kwargs)

    monkeypatch.setattr(spectral, "solve_sr", counted)
    return calls


def test_one_component_model_solves_its_scope_once(sys_a, sys_b, monkeypatch):
    calls = _count_solves(monkeypatch)
    analysis_report(sys_a, 1)  # one SCC holding both vertices: the full scope
    assert len(calls) == 1 and calls[0][0] != "full"
    calls.clear()
    analysis_report(sys_b, 1)  # four components: s_r is the largest of their roots
    assert [scope for scope, _ in calls].count("full") == 0
    calls.clear()
    _verify_a(sys_a)  # the tight solve read by the eigenvector band is the only full one
    assert [kwargs for scope, kwargs in calls if scope == "full"] == [{"tol": 1e-12}]


def test_verify_at_a_fractional_order_lists_every_check(tmp_path, capsys):
    # the 2-point optimum at r = 3/2 runs on the depth-6 grid of fixture C
    args = ["verify", str(FIXTURE_DIR / "fixture_c.json"), "--r", "3/2",
            "--k-min", "4", "--k-max", "6", "--depth-offset", "2", "--out", str(tmp_path)]
    assert main(args) == 0, capsys.readouterr().out
    checks = json.loads((tmp_path / "verify_fixture_c.json").read_text())["results"][0]["checks"]
    assert [c["name"] for c in checks] == NAMES
    assert {c["name"]: c["status"] for c in checks}["lloyd_vs_bruteforce"] == "PASS"
