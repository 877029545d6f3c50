"""Verification suite: one list of checks on every path, and the results its checks share."""

import json
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
    raise CapacityError("antichain at k=10 exceeds capacity cap 1500 words")


def test_capped_curve_skips_bracket_and_decay_from_one_run(sys_a, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _overrun(*args, **kwargs)

    monkeypatch.setattr(geometry, "error_curve", counted)
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

    monkeypatch.setattr(geometry, "error_curve", curve)
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


def test_grid_curve_fits_where_its_grids_overran(sys_a):
    # 1,500 words cannot hold a depth-10 integration grid (4,096 cells), but
    # the curve lays out its member keys instead, in far fewer rows
    suite = _verify_a(sys_a, capacity=1500)
    assert all(c.status != "SKIP" or "capacity" not in c.reason for c in suite.checks)
    assert _by_name(suite)["quantization_bracket"].status == "PASS"
    assert _by_name(suite)["error_decay"].status == "PASS"


def test_monte_carlo_bracket_builds_one_grid_at_its_codebook_level(sys_a, monkeypatch):
    # levels 4, 6, 8 on the curve: the codebook comes from level 6, and its
    # bracket is summed on that grid, not on one at 6 + depth_offset
    built, current = [], []
    real_grid = geometry.level_grid

    def level_grid(rz, r, k, **kwargs):
        built.append((current[-1], k))
        return real_grid(rz, r, k, **kwargs)

    def tagged(check):
        def run(ctx):
            current.append(check.__name__)
            yield from check(ctx)

        return run

    monkeypatch.setattr(geometry, "level_grid", level_grid)
    monkeypatch.setattr(verify, "_CHECKS", tuple((n, b, tagged(f)) for n, b, f in verify._CHECKS))
    suite = run_verification(sys_a, 1, range(4, 9), depth_offset=2)
    assert [k for name, k in built if name == "_monte_carlo_bracket"] == [6]
    assert 8 not in [k for _name, k in built]
    check = _by_name(suite)["monte_carlo_bracket"]
    assert check.status == "PASS"
    assert (check.measured["k"], check.measured["integration_depth"]) == (6, 6)


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
    members = antichain.member_words(sys_, antichain.enumerate_antichain(sys_, r, k, exact=True))
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
    members = antichain.member_words(sys_a, antichain.enumerate_antichain(sys_a, 1, 4, exact=True))
    assert {len(w) for w in members} == {6}
    assert all(verify._definition_holds(sys_a, Fraction(1), 4, members))
    assert not any(verify._definition_holds(sys_a, Fraction(1), 4, [w[:-1] for w in members]))


def test_negative_depth_offset_rejected(sys_a):
    with pytest.raises(ValueError, match="depth offset"):
        run_verification(sys_a, 1, range(4, 6), depth_offset=-2)


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
    analysis_report(sys_b, 1)  # four components: the full scope is its own
    assert [scope for scope, _ in calls].count("full") == 1
    calls.clear()
    _verify_a(sys_a)  # the tight solve of the eigenvector band is the only full one
    assert [kwargs for scope, kwargs in calls if scope == "full"] == [{"tol": 1e-12}]


def test_analyze_json_unchanged_by_the_reused_root(monkeypatch, tmp_path, capsys):
    args = ["analyze", str(FIXTURE_DIR / "fixture_a.json"), "--r", "1", "--r", "3/2"]
    assert main(args + ["--out", str(tmp_path / "reused")]) == 0
    monkeypatch.setattr(
        spectral, "full_solution", lambda sys_, cs: spectral.solve_sr(sys_, "full", cs.r)
    )
    assert main(args + ["--out", str(tmp_path / "solved")]) == 0
    capsys.readouterr()
    reused, solved = (
        (tmp_path / d / "analyze_fixture_a.json").read_bytes() for d in ("reused", "solved")
    )
    assert reused == solved
    assert json.loads(reused)["orders"][1]["r"] == 1.5


def test_verify_at_a_fractional_order_lists_every_check(tmp_path, capsys):
    # the 2-point optimum at r = 3/2 runs on the depth-6 grid of fixture C
    args = ["verify", str(FIXTURE_DIR / "fixture_c.json"), "--r", "3/2",
            "--k-min", "4", "--k-max", "6", "--depth-offset", "2", "--out", str(tmp_path)]
    assert main(args) == 0, capsys.readouterr().out
    checks = json.loads((tmp_path / "verify_fixture_c.json").read_text())["results"][0]["checks"]
    assert [c["name"] for c in checks] == NAMES
    assert {c["name"]: c["status"] for c in checks}["lloyd_vs_bruteforce"] == "PASS"
