import json
import math

import numpy as np
import pytest

from dsda.cli import emit_report, run_cli
from dsda.driver import ConvergenceReport, IterationRecord
from dsda.mmio import save_matrix_market
from dsda.problems import FAMILY_MATRIX_KEYS, gen_random_care, gen_random_mare


@pytest.fixture
def care_files(tmp_path):
    p = gen_random_care(8, 2, 2, seed=0)
    paths = {}
    for name, mat in (("A", p.a), ("B", p.b), ("C", p.c)):
        path = tmp_path / f"{name.lower()}.mtx"
        save_matrix_market(path, mat)
        paths[name] = str(path)
    return paths


@pytest.fixture
def mare_lines(tmp_path):
    """Config lines naming a seeded MARE instance, which has a default
    for every setting (the shift defaults to the diagonal maximum)."""
    p = gen_random_mare(5, 4, 2, 1, seed=3)
    lines = ["family = mare"]
    for key in FAMILY_MATRIX_KEYS["mare"]:
        path = tmp_path / f"{key}.mtx"
        save_matrix_market(path, getattr(p, key.lower()))
        lines.append(f"{key} = {path}")
    return lines


def solve_args(paths, *extra):
    return ["solve", "--family", "care", "--method", "dsda",
            "--A", paths["A"], "--B", paths["B"], "--C", paths["C"],
            "--gamma", "1.0", *extra]


class TestSolve:
    def test_csv_report(self, care_files, capsys):
        code = run_cli(solve_args(care_files))
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "k,residual,rank,basis_cols,elapsed_ms"
        assert len(out) > 1
        first = out[1].split(",")
        assert first[0] == "1"
        float(first[1])  # residual parses
        assert "e" in first[1]

    def test_missing_gamma_exit_1(self, care_files, capsys):
        args = ["solve", "--family", "care", "--A", care_files["A"],
                "--B", care_files["B"], "--C", care_files["C"]]
        code = run_cli(args)
        err = capsys.readouterr().err
        assert code == 1
        assert "--gamma" in err

    def test_missing_matrix_flag_exit_1(self, care_files, capsys):
        args = ["solve", "--family", "care", "--gamma", "1.0",
                "--A", care_files["A"]]
        code = run_cli(args)
        err = capsys.readouterr().err
        assert code == 1
        assert "--B" in err and "--C" in err

    def test_unknown_flag_usage_error(self, care_files, capsys):
        code = run_cli(solve_args(care_files, "--frobnicate"))
        err = capsys.readouterr().err
        assert code == 1
        assert "usage" in err.lower()

    def test_json_report_roundtrips(self, care_files, tmp_path):
        out_path = tmp_path / "report.json"
        code = run_cli(solve_args(care_files, "--output", "json",
                                  "--out-path", str(out_path)))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["status"] == "Converged"
        assert payload["iterations"][0]["k"] == 1
        assert payload["family"] == "care"
        # Config echo travels with the report
        assert payload["config"]["tol"] == 1e-13
        assert payload["config"]["gamma"] == 1.0
        assert payload["config"]["method"] == "dsda"

    def test_budget_exit_code(self, care_files):
        code = run_cli(solve_args(care_files, "--column-budget", "4",
                                  "--tol", "1e-30"))
        assert code == 3

    def test_max_iter_exit_code(self, care_files):
        code = run_cli(solve_args(care_files, "--max-iter", "2",
                                  "--tol", "1e-30"))
        assert code == 2

    def test_env_budget_override(self, care_files, monkeypatch):
        monkeypatch.setenv("RICCATI_COLUMN_BUDGET", "4")
        code = run_cli(solve_args(care_files, "--tol", "1e-30"))
        assert code == 3

    def test_flag_beats_env_budget(self, care_files, monkeypatch):
        monkeypatch.setenv("RICCATI_COLUMN_BUDGET", "4")
        code = run_cli(solve_args(care_files, "--column-budget", "4096"))
        assert code == 0

    def test_config_default_budget_beats_env(self, care_files, tmp_path,
                                            monkeypatch):
        # A file that sets the default value still sets the key.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"family = care\ngamma = 1.0\ncolumn_budget = 4096\n"
                       f"A = {care_files['A']}\nB = {care_files['B']}\n"
                       f"C = {care_files['C']}\n")
        monkeypatch.setenv("RICCATI_COLUMN_BUDGET", "2")
        out_path = tmp_path / "report.json"
        code = run_cli(["solve", "--config", str(cfg), "--output", "json",
                        "--out-path", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["config"]["column_budget"] == 4096

    @pytest.mark.parametrize("key,flag,default,file_value,flag_value", [
        ("tol", "--tol", 1e-13, 1e-10, 1e-11),
        ("max_iter", "--max-iter", 20, 5, 7),
        ("method", "--method", "dsda", "sda", "adda"),
        ("gamma", "--gamma", None, 10.0, 12.0),
    ], ids=["tol", "max_iter", "method", "gamma"])
    def test_flag_beats_file_beats_default(self, mare_lines, tmp_path, key,
                                           flag, default, file_value,
                                           flag_value):
        def echoed(file_lines, *flags):
            cfg = tmp_path / "run.cfg"
            cfg.write_text("\n".join(mare_lines + file_lines) + "\n")
            out_path = tmp_path / "report.json"
            run_cli(["solve", "--config", str(cfg), "--output", "json",
                     "--out-path", str(out_path), *flags])
            return json.loads(out_path.read_text())["config"][key]

        assert echoed([]) == default
        assert echoed([f"{key} = {file_value}"]) == file_value
        assert echoed([f"{key} = {file_value}"],
                      flag, str(flag_value)) == flag_value

    def test_bad_env_budget(self, care_files, monkeypatch, capsys):
        monkeypatch.setenv("RICCATI_COLUMN_BUDGET", "plenty")
        code = run_cli(solve_args(care_files))
        assert code == 1
        assert "RICCATI_COLUMN_BUDGET" in capsys.readouterr().err

    def test_config_file_run(self, care_files, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"family = care\nmethod = dsda\ngamma = 1.0\n"
                       f"A = {care_files['A']}\nB = {care_files['B']}\n"
                       f"C = {care_files['C']}\n")
        code = run_cli(["solve", "--config", str(cfg)])
        assert code == 0
        assert capsys.readouterr().out.startswith("k,residual")

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("family = care\ntrunc_tol = 1e-8\n")
        code = run_cli(["solve", "--config", str(cfg)])
        assert code == 1
        assert "trunc_tol" in capsys.readouterr().err

    def test_singular_shift_exit_4(self, tmp_path, capsys):
        # gamma equal to an eigenvalue of A makes the Cayley shift singular
        for name, mat in (("a", np.diag([0.5, 2.0])), ("b", np.ones((2, 1))),
                          ("c", np.ones((1, 2)))):
            save_matrix_market(tmp_path / f"{name}.mtx", mat)
        code = run_cli(["solve", "--family", "care",
                        "--A", str(tmp_path / "a.mtx"),
                        "--B", str(tmp_path / "b.mtx"),
                        "--C", str(tmp_path / "c.mtx"),
                        "--gamma", "0.5"])
        capsys.readouterr()
        assert code == 4

    def test_complex_matrix_rejected_for_real_family(self, tmp_path, capsys):
        save_matrix_market(tmp_path / "a.mtx", np.eye(2) * (0.5 + 0j))
        save_matrix_market(tmp_path / "b.mtx", np.ones((2, 1)))
        save_matrix_market(tmp_path / "c.mtx", np.ones((1, 2)))
        code = run_cli(["solve", "--family", "dare",
                        "--A", str(tmp_path / "a.mtx"),
                        "--B", str(tmp_path / "b.mtx"),
                        "--C", str(tmp_path / "c.mtx")])
        err = capsys.readouterr().err
        assert code == 1
        assert "complex" in err


class TestSelftest:
    def test_passes(self, capsys):
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 8

    def test_impossible_tolerance_fails(self, capsys):
        assert run_cli(["selftest", "--tol", "1e-18"]) == 1


class TestGen:
    @pytest.mark.parametrize("family", ["care", "dare", "mare", "bsep"])
    def test_generates_solvable_problem(self, family, tmp_path, capsys):
        out_dir = tmp_path / family
        code = run_cli(["gen", "--family", family, "--seed", "3",
                        "--out-dir", str(out_dir), "--n", "6", "--m", "4",
                        "--m1", "1", "--n1", "1", "--p", "1"])
        assert code == 0
        cfg_path = capsys.readouterr().out.strip()
        code = run_cli(["solve", "--config", cfg_path])
        capsys.readouterr()
        assert code == 0

    def test_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            run_cli(["gen", "--family", "dare", "--seed", "11",
                     "--out-dir", str(d), "--n", "5"])
        assert (d1 / "A.mtx").read_text() == (d2 / "A.mtx").read_text()


class TestEmitReport:
    def report(self):
        recs = (IterationRecord(1, 3.287e-2, 12, 12, 1.5),
                IterationRecord(2, 9.694e-4, 24, 24, 2.5))
        return ConvergenceReport(recs, "Converged", np.eye(2), None,
                                 "care", "dsda")

    def test_csv_two_rows_and_header(self, tmp_path):
        path = tmp_path / "r.csv"
        with open(path, "w") as sink:
            emit_report(self.report(), "csv", sink)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("1,3.287e-02,12,12,")

    def test_scientific_notation_4_significant_digits(self, tmp_path):
        path = tmp_path / "r.csv"
        with open(path, "w") as sink:
            emit_report(self.report(), "csv", sink)
        assert "3.287e-02" in path.read_text()

    def test_csv_json_values_consistent(self, tmp_path):
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        with open(csv_path, "w") as sink:
            emit_report(self.report(), "csv", sink)
        with open(json_path, "w") as sink:
            emit_report(self.report(), "json", sink)
        payload = json.loads(json_path.read_text())
        csv_rows = csv_path.read_text().splitlines()[1:]
        for row, rec in zip(csv_rows, payload["iterations"]):
            k, res, rank, cols, _ = row.split(",")
            assert int(k) == rec["k"]
            assert float(res) == pytest.approx(rec["residual"], rel=1e-3)
            assert int(rank) == rec["rank"]
            assert int(cols) == rec["basis_cols"]
