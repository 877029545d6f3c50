"""Model construction, validation, weights, and the config loader."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovquant import (
    InvalidWordError,
    MarkovSystem,
    ModelFormatError,
    load_model,
    path_weight,
    validate_system,
)
from markovquant.model import NORMALIZATION_TOL, edge_extremes
from conftest import random_rational_system

F = Fraction
HALF, THIRD = F(1, 2), F(1, 3)


def oracle_violations(sys: MarkovSystem) -> tuple[str, ...]:
    """The validator as it read every one of the n^2 entries, comparing Fractions."""
    bad: list[str] = []
    n = sys.n
    for i in range(1, n + 1):
        row = sys.p[i - 1]
        s = sum(row)
        if any(x < 0 or x > 1 for x in row):
            bad.append(f"row {i} has a probability outside [0, 1]")
        if abs(s - 1) > NORMALIZATION_TOL:
            bad.append(f"row {i} sums to {float(s):.12g}")
        deg = len(sys.successors(i))
        if deg < 2:
            bad.append(f"row {i} has out-degree {deg} < 2")
        for j in range(1, n + 1):
            pij, cij = sys.p[i - 1][j - 1], sys.c[i - 1][j - 1]
            if (pij > 0) != (cij > 0):
                bad.append(f"entry ({i},{j}): c and p support mismatch")
            if cij >= 1 or cij < 0:
                bad.append(f"entry ({i},{j}): ratio {float(cij):.12g} outside [0, 1)")
    if any(x <= 0 for x in sys.chi):
        bad.append("chi has a non-positive entry")
    if abs(sum(sys.chi) - 1) > NORMALIZATION_TOL:
        bad.append(f"chi sums to {float(sum(sys.chi)):.12g}")
    return tuple(bad)


# zeros are frequent, so rows have few entries; the rest straddle every bound
ENTRIES = st.sampled_from(
    [F(0)] * 6
    + [F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1), F(5, 4), F(-1, 4), F(1, 10**13),
       F(1, 2) + F(1, 10**13), F(1, 2) - F(1, 10**11), F(7, 9)]
)


@st.composite
def matrix_models(draw):
    n = draw(st.integers(1, 4))
    square = st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    chi = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    return MarkovSystem(draw(square), draw(square), chi)


class TestValidation:
    def test_fixture_a_ok(self, sys_a):
        report = validate_system(sys_a)
        assert report.ok
        assert report.violations == ()

    def test_row_sum_violation(self):
        sys = MarkovSystem(
            p=[["0.5", "0.4"], ["0.5", "0.5"]],
            c=[[THIRD, THIRD], [THIRD, THIRD]],
            chi=[HALF, HALF],
        )
        report = validate_system(sys)
        assert not report.ok
        assert any("row 1 sums to 0.9" in v for v in report.violations)

    def test_out_degree_violation(self):
        sys = MarkovSystem(
            p=[[1, 0], [HALF, HALF]],
            c=[[THIRD, 0], [THIRD, THIRD]],
            chi=[HALF, HALF],
        )
        report = validate_system(sys)
        assert not report.ok
        assert any("row 1 has out-degree 1 < 2" in v for v in report.violations)

    def test_support_mismatch(self):
        sys = MarkovSystem(
            p=[[HALF, HALF], [HALF, HALF]],
            c=[[THIRD, 0], [THIRD, THIRD]],
            chi=[HALF, HALF],
        )
        report = validate_system(sys)
        assert any("support mismatch" in v for v in report.violations)

    def test_ratio_must_be_below_one(self):
        sys = MarkovSystem(
            p=[[HALF, HALF], [HALF, HALF]],
            c=[[1, THIRD], [THIRD, THIRD]],
            chi=[HALF, HALF],
        )
        report = validate_system(sys)
        assert any("outside [0, 1)" in v for v in report.violations)

    def test_chi_violations(self):
        sys = MarkovSystem(
            p=[[HALF, HALF], [HALF, HALF]],
            c=[[THIRD, THIRD], [THIRD, THIRD]],
            chi=[1, 0],
        )
        report = validate_system(sys)
        assert any("non-positive" in v for v in report.violations)

    def test_fixtures_b_c_ok(self, sys_b, sys_c):
        assert validate_system(sys_b).ok
        assert validate_system(sys_c).ok

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sys=matrix_models())
    def test_matches_dense_oracle(self, sys):
        assert validate_system(sys).violations == oracle_violations(sys)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sys=matrix_models())
    def test_edge_list_gives_the_same_model(self, sys):
        # every nonzero entry listed once, p = 0 with c > 0 included
        listed = [
            (i + 1, j + 1, sys.p[i][j], sys.c[i][j])
            for i in range(sys.n) for j in range(sys.n)
            if sys.p[i][j] != 0 or sys.c[i][j] != 0
        ]
        built = MarkovSystem.from_edges(sys.n, listed, sys.chi)
        assert (built.p, built.c, built.chi, built.edges) == (sys.p, sys.c, sys.chi, sys.edges)
        assert validate_system(built).violations == oracle_violations(sys)

    def test_random_models_match_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            sys = random_rational_system(rng, 2, 8)
            assert validate_system(sys).violations == oracle_violations(sys) == ()


class TestSuccessors:
    def test_fixture_a(self, sys_a):
        assert sys_a.successors(1) == (1, 2)
        assert sys_a.successors(2) == (1, 2)

    def test_fixture_b(self, sys_b):
        assert sys_b.successors(2) == (1, 5)
        assert sys_b.successors(4) == (3, 6)
        assert sys_b.successors(6) == (6, 7)

    def test_out_of_range(self, sys_a):
        with pytest.raises(IndexError):
            sys_a.successors(3)
        with pytest.raises(IndexError):
            sys_a.successors(0)


class TestPathWeight:
    def test_fixture_a_example(self, sys_a):
        pw = path_weight(sys_a, (1, 2, 1))
        assert pw.p_weight == F(1, 4)
        assert pw.c_weight == F(1, 9)
        assert pw.measure_weight == F(1, 8)

    def test_single_letter(self, sys_a, sys_b):
        for sys in (sys_a, sys_b):
            for i in sys.vertices:
                pw = path_weight(sys, (i,))
                assert pw.p_weight == 1 and pw.c_weight == 1
                assert pw.measure_weight == sys.chi[i - 1]

    def test_empty_word(self, sys_a):
        pw = path_weight(sys_a, ())
        assert pw == (1, 1, 1)

    def test_fixture_b_example(self, sys_b):
        pw = path_weight(sys_b, (2, 5, 3))
        assert pw.p_weight == F(1, 4)
        assert pw.c_weight == F(1, 9)

    def test_non_edge_rejected(self, sys_b):
        with pytest.raises(InvalidWordError):
            path_weight(sys_b, (1, 3))
        with pytest.raises(InvalidWordError):
            path_weight(sys_b, (6, 5))

    def test_vertex_out_of_range(self, sys_a):
        with pytest.raises(InvalidWordError):
            path_weight(sys_a, (1, 3))

    def test_concatenation_multiplicative(self, sys_b):
        # p_{sigma*omega} = p_sigma * p_(last,first) * p_omega, same for c
        rng = random.Random(7)
        for _ in range(200):
            sigma = _random_word(sys_b, rng, rng.randint(1, 6))
            omega = _random_word_from(sys_b, rng, rng.choice(sys_b.successors(sigma[-1])),
                                      rng.randint(1, 6))
            joined = sigma + omega
            pw = path_weight(sys_b, joined)
            ps, cs_ = path_weight(sys_b, sigma)[:2]
            po, co = path_weight(sys_b, omega)[:2]
            bridge_p = sys_b.edge_p(sigma[-1], omega[0])
            bridge_c = sys_b.edge_c(sigma[-1], omega[0])
            assert pw.p_weight == ps * bridge_p * po
            assert pw.c_weight == cs_ * bridge_c * co

    def test_depth_partition_is_exact(self, sys_a, sys_b, sys_c):
        from conftest import all_words

        for sys in (sys_a, sys_b, sys_c):
            for k in (1, 3, 6, 8):
                total = sum(path_weight(sys, w).measure_weight for w in all_words(sys, k))
                assert total == 1

    def test_one_step_ratio_in_eta_band(self, sys_b):
        rng = random.Random(11)
        lo, hi = TestEtaBounds.band(sys_b, 1)
        for _ in range(100):
            w = _random_word(sys_b, rng, rng.randint(2, 8))
            pw = path_weight(sys_b, w)
            parent = path_weight(sys_b, w[:-1])
            ratio = (pw.p_weight * pw.c_weight) / (parent.p_weight * parent.c_weight)
            assert lo <= ratio <= hi


def _random_word(sys, rng, length):
    w = [rng.choice(list(sys.vertices))]
    while len(w) < length:
        w.append(rng.choice(sys.successors(w[-1])))
    return tuple(w)


def _random_word_from(sys, rng, start, length):
    w = [start]
    while len(w) < length:
        w.append(rng.choice(sys.successors(w[-1])))
    return tuple(w)


class TestEtaBounds:
    """The one-step weight band (eta_lo, eta_hi) = (p_min c_min^r, p_max
    c_max^r), read off the exact `edge_extremes`."""

    @staticmethod
    def band(sys, r: int) -> tuple[F, F]:
        p_lo, c_lo, p_hi, c_hi = edge_extremes(sys)
        return p_lo * c_lo**r, p_hi * c_hi**r

    def test_fixture_a(self, sys_a):
        assert edge_extremes(sys_a) == (HALF, THIRD, HALF, THIRD)
        assert self.band(sys_a, 1) == (F(1, 6), F(1, 6))
        assert self.band(sys_a, 2) == (F(1, 18), F(1, 18))

    def test_fixture_b(self, sys_b):
        assert edge_extremes(sys_b) == (HALF, F(1, 9), HALF, THIRD)
        assert self.band(sys_b, 1) == (F(1, 18), F(1, 6))

    def test_exact_for_integer_order(self, sys_b):
        assert all(isinstance(x, F) for x in edge_extremes(sys_b))
        lo, hi = self.band(sys_b, 2)
        assert isinstance(lo, F) and lo == F(1, 2) * F(1, 81)
        assert hi == F(1, 2) * F(1, 9)


class TestLoader:
    def test_round_trip_exactness(self, sys_a):
        assert sys_a.edge_p(1, 2) == HALF
        assert sys_a.edge_c(2, 1) == THIRD
        assert sys_a.chi == (HALF, HALF)

    def test_decimal_strings_are_exact(self):
        sys = MarkovSystem(
            p=[["0.5", "0.5"], ["0.25", "0.75"]],
            c=[["0.1", "0.2"], ["0.3", "0.4"]],
            chi=["0.5", "0.5"],
        )
        assert sys.edge_p(2, 1) == F(1, 4)
        assert sys.edge_c(2, 2) == F(2, 5)

    def test_float_entries_go_through_repr(self):
        sys = MarkovSystem(p=[[0.5, 0.5]] * 2, c=[[0.1, 0.1]] * 2, chi=[0.5, 0.5])
        assert sys.edge_c(1, 1) == F(1, 10)

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "edges": []}')
        with pytest.raises(ModelFormatError):
            load_model(path)
        path.write_text("not json")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ModelFormatError):
            MarkovSystem.from_edges(
                2,
                [(1, 1, HALF, THIRD), (1, 1, HALF, THIRD), (2, 1, 1, THIRD)],
                [HALF, HALF],
            )

    @pytest.mark.parametrize("first", ["0", "1/2"])
    def test_duplicate_edge_rejected_in_either_order(self, first):
        # a listing with p = 0 is still a listing: its repeat is refused either way
        other = {"0": "1/2", "1/2": "0"}[first]
        cfg = {
            "n": 2,
            "edges": [
                {"from": 1, "to": 1, "p": first, "c": "1/3"},
                {"from": 1, "to": 2, "p": "1/2", "c": "1/3"},
                {"from": 1, "to": 1, "p": other, "c": "1/3"},
                {"from": 2, "to": 1, "p": "1/2", "c": "1/3"},
                {"from": 2, "to": 2, "p": "1/2", "c": "1/3"},
            ],
            "chi": ["1/2", "1/2"],
        }
        with pytest.raises(ModelFormatError, match=r"duplicate edge \(1,1\)"):
            MarkovSystem.from_config(cfg)

    def test_edge_list_chi_length_mismatch(self):
        with pytest.raises(ModelFormatError, match="chi has length 3, expected n=2"):
            MarkovSystem.from_edges(2, [(1, 1, HALF, THIRD), (1, 2, HALF, THIRD)], [HALF, HALF, 0])

    def test_edge_out_of_range(self):
        with pytest.raises(ModelFormatError):
            MarkovSystem.from_edges(2, [(1, 3, HALF, THIRD)], [HALF, HALF])

    def test_config_mismatched_chi(self, tmp_path):
        cfg = {"n": 2, "edges": [], "chi": ["1"]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ModelFormatError):
            load_model(path)
