"""Command-line interface: exit codes, report formats, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from markovquant import geometry, theorem_ratio_series
from markovquant.antichain import CapacityError
from markovquant.cli import main
from conftest import FIXTURE_DIR, S1_H1_B, S_R_A

ROOT = Path(__file__).resolve().parent.parent
A = str(FIXTURE_DIR / "fixture_a.json")
B = str(FIXTURE_DIR / "fixture_b.json")
C = str(FIXTURE_DIR / "fixture_c.json")
# valid measure model whose rows cannot be realized in 1-D:
# ratios sum to 1.2 per row, but every c entry is < 1
WIDE = {
    "n": 2,
    "edges": [
        {"from": 1, "to": 1, "p": "1/2", "c": "0.6"},
        {"from": 1, "to": 2, "p": "1/2", "c": "0.6"},
        {"from": 2, "to": 1, "p": "1/2", "c": "0.6"},
        {"from": 2, "to": 2, "p": "1/2", "c": "0.6"},
    ],
    "chi": ["1/2", "1/2"],
}


def write_wide(tmp_path) -> str:
    model = tmp_path / "wide.json"
    model.write_text(json.dumps(WIDE))
    return str(model)


def write_invalid(tmp_path, model: str) -> tuple[str, list[str]]:
    """An invalid model file and the violation lines `validate` prints for it."""
    if model == "unnormalized":
        cfg = json.loads(Path(A).read_text())
        cfg["edges"][0]["p"] = "1/4"  # row 1 sums to 3/4
        expected = ["violation: row 1 sums to 0.75"]
    else:  # vertex 1 keeps all its mass on a self-loop of ratio 1
        cfg = {
            "n": 2,
            "edges": [
                {"from": 1, "to": 1, "p": "1", "c": "1"},
                {"from": 2, "to": 1, "p": "1/2", "c": "1/3"},
                {"from": 2, "to": 2, "p": "1/2", "c": "1/3"},
            ],
            "chi": ["1/2", "1/2"],
        }
        expected = [
            "violation: row 1 has out-degree 1 < 2",
            "violation: entry (1,1): ratio 1 outside [0, 1)",
        ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    return str(bad), expected


class TestValidate:
    def test_ok_exit_zero(self, capsys):
        assert main(["validate", A]) == 0
        assert "ok" in capsys.readouterr().out

    def test_violation_exit_one(self, tmp_path, capsys):
        cfg = json.loads(Path(A).read_text())
        cfg["edges"][0]["p"] = "0.4"  # row 1 now sums to 0.9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["validate", str(bad)]) == 1
        assert "row 1 sums to 0.9" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["antichain", "quantize"])
    @pytest.mark.parametrize("model", ["unnormalized", "unit_ratio"])
    def test_series_commands_refuse_invalid_models(self, tmp_path, capsys, command, model):
        bad, expected = write_invalid(tmp_path, model)
        assert main([command, bad, "--k-min", "2", "--k-max", "3"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == expected and err == ""

    @pytest.mark.parametrize("model", ["unnormalized", "unit_ratio"])
    def test_analyze_refuses_invalid_models(self, tmp_path, capsys, model):
        # the unit-ratio model has no pressure root: unvalidated, its solve
        # raised from the doubling of the bracket
        bad, expected = write_invalid(tmp_path, model)
        assert main(["analyze", bad, "--r", "1"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == expected and err == ""

    def test_missing_file_exit_two(self, capsys):
        assert main(["validate", "/nonexistent/model.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_json_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["validate", str(bad)]) == 2

    @pytest.mark.parametrize(
        "key,value", [("n", 2.7), ("n", True), ("from", True), ("from", "1"), ("from", 1.0)]
    )
    def test_non_integer_size_or_vertex_exit_two(self, tmp_path, capsys, key, value):
        # 2.7 validated as 2 vertices and true as vertex 1; "1" and 1.0 died
        # with a TypeError traceback
        cfg = json.loads(Path(A).read_text())
        (cfg if key == "n" else cfg["edges"][1])[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["validate", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_chi_not_a_list_exit_two(self, tmp_path, capsys):
        # the string "11" loaded as chi = (1, 1) and failed validation (exit 1)
        cfg = json.loads(Path(A).read_text())
        cfg["chi"] = "11"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["validate", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: chi must be a list, got '11'\n"


class TestAnalyze:
    def test_fixture_a(self, capsys):
        assert main(["analyze", A, "--r", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        block = report["orders"][0]
        assert block["s_r"] == pytest.approx(S_R_A, abs=1e-9)
        assert block["t_r"] == 1 and block["m_r"] == 1
        assert block["log_exponent"] == 0.0

    def test_fixture_b(self, capsys):
        assert main(["analyze", B, "--r", "1"]) == 0
        block = json.loads(capsys.readouterr().out)["orders"][0]
        assert block["s_r"] == pytest.approx(S1_H1_B, abs=1e-8)
        assert block["m_r"] == 2 and block["t_r"] == 2
        assert block["power_exponent"] == pytest.approx(-2.7234319190018, abs=1e-6)
        assert block["log_exponent"] == pytest.approx(3.7234319190018, abs=1e-6)
        assert block["components"] == [[1, 2], [3, 4], [5], [6, 7]]
        assert block["chains"]["2"] == [[0, 1]]
        assert block["transient_set"] == [5, 6, 7]

    def test_fixture_c(self, capsys):
        assert main(["analyze", C, "--r", "1"]) == 0
        block = json.loads(capsys.readouterr().out)["orders"][0]
        assert block["m_r"] == 2 and block["t_r"] == 1
        assert block["s_r"] == pytest.approx(S_R_A, abs=1e-9)
        assert "2" not in block["chains"]

    def test_multiple_orders(self, capsys):
        assert main(["analyze", A, "--r", "1", "--r", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [blk["r"] for blk in report["orders"]] == [1.0, 2.0]

    def test_deterministic_bytes(self, capsys, tmp_path):
        assert main(["analyze", B, "--r", "1", "--out", str(tmp_path / "x")]) == 0
        assert main(["analyze", B, "--r", "1", "--out", str(tmp_path / "y")]) == 0
        capsys.readouterr()
        fx = (tmp_path / "x" / "analyze_fixture_b.json").read_bytes()
        fy = (tmp_path / "y" / "analyze_fixture_b.json").read_bytes()
        assert fx == fy


class TestAntichainCommand:
    def test_csv_matches_module(self, capsys, sys_b):
        assert main(["antichain", B, "--r", "1", "--k-min", "4", "--k-max", "6"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        expected = theorem_ratio_series(sys_b, 1, range(4, 7))
        assert [int(row["phi"]) for row in rows] == [r.phi for r in expected]
        assert [int(row["k"]) for row in rows] == [4, 5, 6]
        assert "lambda_c0-c1" in rows[0]
        for got, want in zip(rows, expected):
            assert float(got["U_k"]) == pytest.approx(want.uncorrected, rel=1e-12)
            assert float(got["t_k"]) == pytest.approx(want.t_k, rel=1e-9)

    def test_file_output(self, tmp_path, capsys):
        assert main(
            ["antichain", A, "--r", "2", "--k-min", "2", "--k-max", "3",
             "--out", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        path = tmp_path / "antichain_fixture_a_r2.csv"
        assert path.exists()
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 2


class TestQuantizeCommand:
    def test_csv_columns(self, capsys):
        assert main(
            ["quantize", A, "--r", "1", "--k-min", "3", "--k-max", "5",
             "--depth-offset", "3"]
        ) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3
        for row in rows:
            assert float(row["lower"]) <= float(row["upper"])
            assert int(row["n"]) == 2 ** (int(row["k"]) + 2)
            assert row["iterations"] == "0"

    def test_refine_reports_iterations(self, capsys):
        assert main(
            ["quantize", A, "--r", "2", "--k-min", "2", "--k-max", "2",
             "--depth-offset", "4", "--refine"]
        ) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1


class TestVerifyCommand:
    def test_fixture_a_passes(self, capsys, tmp_path):
        code = main(
            ["verify", A, "--r", "1", "--k-min", "4", "--k-max", "8",
             "--depth-offset", "3", "--mc-samples", "20000",
             "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAIL" not in out
        report = json.loads((tmp_path / "verify_fixture_a.json").read_text())
        suite = report["results"][0]
        assert suite["ok"] is True
        names = {c["name"] for c in suite["checks"]}
        assert {"model_valid", "spectral_root_consistency", "log_correction",
                "quantization_bracket", "lloyd_vs_bruteforce"} <= names
        # fixture A has no transient part: that check must be skipped, not failed
        by_name = {c["name"]: c for c in suite["checks"]}
        assert by_name["transient_decay"]["status"] == "SKIP"

    def test_summary_counts_checks(self, capsys, monkeypatch):
        # verify-b-cap's configuration, with an error curve that overruns the cap
        def overrun(*args, **kwargs):
            raise CapacityError(14, 1000000)

        monkeypatch.setattr(geometry, "curve_row", overrun)
        code = main(["verify", B, "--r", "1", "--k-min", "6", "--k-max", "12",
                     "--depth-offset", "2", "--cap", "1000000"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count("[SKIP]") == 2
        assert out.splitlines()[-1] == "verification: ok (13 pass, 2 skip, 0 fail)"

    def test_capped_run_passes_every_check(self, capsys):
        # verify-b-cap's configuration: the error curve lays out 46 member
        # keys at depth 14, not the 3.53M-cell grid that overran the cap
        code = main(["verify", B, "--r", "1", "--k-min", "6", "--k-max", "12",
                     "--depth-offset", "2", "--cap", "1000000"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.splitlines()[-1] == "verification: ok (15 pass, 0 skip, 0 fail)"

    def test_invalid_model_fails_fast(self, tmp_path, capsys):
        cfg = json.loads(Path(A).read_text())
        cfg["edges"][0]["p"] = "0.4"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main(["verify", str(bad), "--r", "1", "--k-min", "3", "--k-max", "4"])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] model_valid" in out

    def test_infeasible_layout_skips_geometry_runs_symbolic(self, tmp_path, capsys):
        code = main(
            ["verify", write_wide(tmp_path), "--r", "1", "--k-min", "3", "--k-max", "6"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "[SKIP] quantization_bracket" in out
        assert "ratios sum to" in out
        assert "[PASS] spectral_root_consistency" in out
        assert "[PASS] log_correction" in out


class TestArgErrors:
    def test_nonpositive_order(self, capsys):
        assert main(["analyze", A, "--r", "0"]) == 2

    def test_unparseable_order(self, capsys):
        assert main(["analyze", A, "--r", "abc"]) == 2

    def test_capacity_cap_is_config_error(self, capsys):
        assert main(
            ["antichain", B, "--r", "1", "--k-min", "8", "--k-max", "8", "--cap", "100"]
        ) == 2
        assert "capacity" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_verify_needs_two_mc_samples(self, tmp_path, capsys, samples):
        # the wide model SKIPs the Monte Carlo check: only an up-front test rejects it
        for args in (
            [A, "--r", "1", "--k-min", "3", "--k-max", "4", "--depth-offset", "1"],
            [write_wide(tmp_path), "--r", "1", "--k-min", "3", "--k-max", "5"],
        ):
            assert main(["verify", *args, "--mc-samples", samples]) == 2
            assert f"at least 2 samples, got {samples}" in capsys.readouterr().err

    def test_verify_rejects_negative_depth_offset(self, capsys):
        args = ["verify", A, "--k-min", "4", "--k-max", "6", "--depth-offset", "-2"]
        assert main(args) == 2
        assert "depth offset must be >= 0, got -2" in capsys.readouterr().err

    def test_verify_rejects_one_level_range(self, capsys):
        args = ["verify", B, "--k-min", "8", "--k-max", "8", "--depth-offset", "2"]
        assert main(args) == 2
        assert "k range 8..8 has one level" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["antichain", "quantize", "verify"])
    def test_empty_k_range(self, capsys, command):
        assert main([command, A, "--k-min", "9", "--k-max", "8"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "empty k range" in err

    def test_verify_rejects_capacity_below_one(self, capsys):
        args = ["verify", A, "--k-min", "4", "--k-max", "6", "--depth-offset", "1"]
        assert main(args + ["--cap", "-5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "capacity cap must be >= 1, got -5" in err

    def test_verify_rejects_negative_seed(self, capsys):
        args = ["verify", A, "--k-min", "4", "--k-max", "6", "--depth-offset", "2"]
        assert main(args + ["--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "seed must be >= 0, got -1" in err

    def test_verify_report_deterministic(self, tmp_path, capsys):
        args = ["verify", A, "--r", "1", "--k-min", "3", "--k-max", "5",
                "--depth-offset", "2", "--mc-samples", "5000", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "x")]) == 0
        assert main(args + ["--out", str(tmp_path / "y")]) == 0
        capsys.readouterr()
        fx = (tmp_path / "x" / "verify_fixture_a.json").read_bytes()
        fy = (tmp_path / "y" / "verify_fixture_a.json").read_bytes()
        assert fx == fy


@pytest.mark.parametrize(
    "argv",
    [
        ["quantize", C, "--r", "3/2", "--k-min", "4", "--k-max", "6", "--refine"],
        ["verify", B, "--r", "1", "--k-min", "6", "--k-max", "12", "--depth-offset", "2"],
    ],
    ids=["quantize-refine", "verify"],
)
def test_runs_never_import_numpy_ma(argv):
    # numpy imports numpy.ma lazily (np.unique does); its import in the
    # middle of a run leaves cyclic garbage alive until a full collection
    code = (
        "import contextlib, io, sys\n"
        "from markovquant.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        "print(rc, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.stdout.split() == ["0", "False"], done.stdout + done.stderr
