import numpy as np
import pytest

from dsda.config import read_config
from dsda.driver import SolveConfig
from dsda.errors import ConfigError, ParseError, UnsupportedFieldError
from dsda.mmio import load_matrix_market, save_matrix_market


class TestLoadMatrixMarket:
    def test_coordinate_diag(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "% a comment\n"
                        "2 2 2\n"
                        "1 1 1.0\n"
                        "2 2 2.0\n")
        assert np.array_equal(load_matrix_market(path), np.diag([1.0, 2.0]))

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 3\n"
                        "1 1 4.0\n"
                        "2 1 -1.0\n"
                        "2 2 5.0\n")
        expected = np.array([[4.0, -1.0], [-1.0, 5.0]])
        assert np.array_equal(load_matrix_market(path), expected)

    def test_truncated_coordinate_file(self, tmp_path):
        path = tmp_path / "t.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 3\n"
                        "1 1 1.0\n")
        with pytest.raises(ParseError):
            load_matrix_market(path)

    def test_malformed_entry_reports_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "1 1 1\n"
                        "1 1 oops\n")
        with pytest.raises(ParseError, match=":3:"):
            load_matrix_market(path)

    def test_pattern_field_unsupported(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                        "1 1 1\n"
                        "1 1\n")
        with pytest.raises(UnsupportedFieldError):
            load_matrix_market(path)

    def test_array_column_major(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n"
                        "2 2\n1\n2\n3\n4\n")
        assert np.array_equal(load_matrix_market(path),
                              np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_complex_coordinate(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                        "1 2 2\n"
                        "1 1 1.0 -2.0\n"
                        "1 2 0.5 0.25\n")
        got = load_matrix_market(path)
        assert got.dtype == np.complex128
        assert np.array_equal(got, np.array([[1.0 - 2.0j, 0.5 + 0.25j]]))

    def test_hermitian_expansion(self, tmp_path):
        path = tmp_path / "h.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex hermitian\n"
                        "2 2 2\n"
                        "1 1 1.0 0.0\n"
                        "2 1 2.0 3.0\n")
        got = load_matrix_market(path)
        assert got[0, 1] == np.conj(got[1, 0])

    def test_integer_field_as_real(self, tmp_path):
        path = tmp_path / "i.mtx"
        path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                        "1 1 1\n"
                        "1 1 7\n")
        assert load_matrix_market(path)[0, 0] == 7.0


class TestRoundTrip:
    def test_real_bit_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        mat = rng.standard_normal((5, 3)) * np.exp(rng.uniform(-30, 30, (5, 3)))
        path = tmp_path / "r.mtx"
        save_matrix_market(path, mat, comment="roundtrip check")
        assert np.array_equal(load_matrix_market(path), mat)

    def test_complex_bit_identical(self, tmp_path):
        rng = np.random.default_rng(13)
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "z.mtx"
        save_matrix_market(path, mat)
        assert np.array_equal(load_matrix_market(path), mat)


class TestLoadConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "problem.cfg"
        path.write_text(text)
        return path

    def test_minimal_defaults(self, tmp_path):
        path = self.write(tmp_path,
                          "family = care\nmethod = dsda\n"
                          "A = A.mtx\nB = B.mtx\nC = C.mtx\n")
        settings, paths = read_config(path)
        assert settings == {"family": "care", "method": "dsda"}
        cfg = SolveConfig(method=settings["method"])
        assert cfg.tol == 1e-13
        assert cfg.max_iter == 20
        assert set(paths) == {"A", "B", "C"}
        assert paths["A"].endswith("A.mtx")

    def test_zero_tol_rejected(self, tmp_path):
        path = self.write(tmp_path, "family = care\ntol = 0\n")
        with pytest.raises(ConfigError):
            read_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "family = care\ntrunc_tol = 1e-8\n")
        with pytest.raises(ConfigError, match="trunc_tol"):
            read_config(path)

    def test_zero_max_iter_rejected(self, tmp_path):
        path = self.write(tmp_path, "family = dare\nmax_iter = 0\n")
        with pytest.raises(ConfigError):
            read_config(path)

    def test_comments_and_shifts(self, tmp_path):
        path = self.write(tmp_path,
                          "# benchmark setup\n"
                          "family = mare\n"
                          "alpha = 2.5  # D-side shift\n"
                          "beta = 3.5\n"
                          "method = adda\n")
        settings, _ = read_config(path)
        assert settings["alpha"] == 2.5
        assert settings["beta"] == 3.5
        assert settings["method"] == "adda"
