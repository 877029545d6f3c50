"""Verification suite: one list of checks on every path, and shared stages."""

import dataclasses
import weakref
from fractions import Fraction

import pytest

from markovquant import antichain, geometry, run_verification
from markovquant.model import MarkovSystem

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


def test_capped_curve_skips_bracket_and_decay_from_one_run(sys_a, monkeypatch):
    # only the depth-10 integration grid (4,096 cells) overruns 1,500 words
    calls = []
    real = geometry.error_curve

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

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
    # the kept capacity error must not hold the curve's grids through its
    # traceback while the later checks build theirs
    grids, curve_grids, alive_after = [], [], []
    real_curve, real_grid = geometry.error_curve, geometry.level_grid

    def curve(*args, **kwargs):
        try:
            return real_curve(*args, **kwargs)
        finally:
            curve_grids.extend(grids)

    def level_grid(*args, **kwargs):
        if curve_grids and not alive_after:
            alive_after.append(sum(ref() is not None for ref in curve_grids))
        grid = real_grid(*args, **kwargs)
        grids.append(weakref.ref(grid))
        return grid

    monkeypatch.setattr(geometry, "error_curve", curve)
    monkeypatch.setattr(geometry, "level_grid", level_grid)
    suite = _verify_a(sys_a, capacity=1500)
    assert _by_name(suite)["error_decay"].status == "SKIP"
    assert len(curve_grids) == 5 and alive_after == [0]


def test_antichain_definition_fails_on_a_word_past_the_threshold(sys_a, monkeypatch):
    # replace one member by one of its children: still prefix-free with the
    # same partition sum, but the child's parent is already below eta_lo^k
    real = antichain.enumerate_antichain

    def extended(*args, **kwargs):
        ac = real(*args, **kwargs)
        if not kwargs.get("store_words"):
            return ac
        w = ac.words[0]
        child = next(j for j in sys_a.vertices if sys_a.is_edge(w[-1], j))
        return dataclasses.replace(ac, words=(w + (child,),) + ac.words[1:])

    assert _by_name(_verify_a(sys_a))["antichain_definition"].status == "PASS"
    monkeypatch.setattr(antichain, "enumerate_antichain", extended)
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
