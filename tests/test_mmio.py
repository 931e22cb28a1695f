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


def _hdr(rest):
    return f"%%MatrixMarket matrix {rest}\n"


_BANNER = ("malformed header, expected "
           "'%%MatrixMarket matrix <format> <field> <symmetry>'")
_INF, _NAN = float("inf"), float("nan")

#: Inline files with the reader's outcome: the array it returns, or the
#: exception type and the message after ``<path>:``.
READER_CORPUS = [
    # Header, format, field and symmetry.
    ("empty", "", (ParseError, "1: empty file")),
    ("header-short", _hdr("coordinate real") + "1 1 0\n",
     (ParseError, "1: " + _BANNER)),
    ("header-banner", "%MatrixMarket matrix array real general\n1 1\n1\n",
     (ParseError, "1: " + _BANNER)),
    ("header-object", "%%MatrixMarket vector array real general\n1 1\n1\n",
     (ParseError, "1: " + _BANNER)),
    ("format", _hdr("compressed real general") + "1 1\n1\n",
     (ParseError, "1: unsupported format 'compressed'")),
    ("field-pattern", _hdr("coordinate pattern general") + "1 1 1\n1 1\n",
     (UnsupportedFieldError, "1: unsupported field 'pattern'")),
    ("symmetry-skew", _hdr("array real skew-symmetric") + "2 2\n0\n1\n0\n",
     (UnsupportedFieldError, "1: unsupported symmetry 'skew-symmetric'")),
    ("header-case", "%%MatrixMarket MATRIX Array REAL General\n1 2\n1\n2\n",
     np.array([[1.0, 2.0]])),
    ("header-indented", "  " + _hdr("array real general") + "1 1\n5\n",
     np.array([[5.0]])),
    # Size line.
    ("size-missing", _hdr("array real general") + "% only a comment\n\n",
     (ParseError, "3: missing size line")),
    ("coordinate-size-tokens", _hdr("coordinate real general") + "2 2\n",
     (ParseError, "2: coordinate size line must be 'rows cols nnz'")),
    ("coordinate-size-int", _hdr("coordinate real general") + "2 2 1.5\n",
     (ParseError, "2: size line entries must be integers")),
    ("array-size-tokens", _hdr("array real general") + "% c\n2 2 4\n",
     (ParseError, "3: array size line must be 'rows cols'")),
    ("array-size-int", _hdr("array real general") + "2 x\n",
     (ParseError, "2: size line entries must be integers")),
    # Token counts.
    ("coordinate-real-tokens",
     _hdr("coordinate real general") + "2 2 1\n1 1 1.0 0.0\n",
     (ParseError, "3: expected 3 fields, got 4")),
    ("coordinate-complex-tokens",
     _hdr("coordinate complex general") + "1 1 1\n1 1 1.0\n",
     (ParseError, "3: expected 4 fields, got 3")),
    ("array-real-tokens", _hdr("array real general") + "2 1\n1.0\n2.0 3.0\n",
     (ParseError, "4: array entries must be one value per line")),
    ("array-complex-tokens", _hdr("array complex general") + "1 1\n1.0\n",
     (ParseError, "3: complex array entries need 're im'")),
    ("indented-comment",
     _hdr("coordinate real general") + "1 1 1\n  % indented\n1 1 2\n",
     (ParseError, "3: expected 3 fields, got 2")),
    # Malformed entries.
    ("coordinate-bad-value", _hdr("coordinate real general") + "1 1 1\n1 1 oops\n",
     (ParseError, "3: malformed entry")),
    ("coordinate-float-index",
     _hdr("coordinate real general") + "2 2 1\n1.0 1 2.0\n",
     (ParseError, "3: malformed entry")),
    ("array-bad-value", _hdr("array real general") + "2 1\n1.0\nabc\n",
     (ParseError, "4: malformed entry")),
    ("array-complex-bad-value", _hdr("array complex general") + "1 1\n1.0 x\n",
     (ParseError, "3: malformed entry")),
    # Indices.
    ("index-zero", _hdr("coordinate real general") + "2 2 1\n0 1 1.0\n",
     (ParseError, "3: index (0, 1) out of bounds")),
    ("index-row-range", _hdr("coordinate real general") + "2 2 1\n3 1 1.0\n",
     (ParseError, "3: index (3, 1) out of bounds")),
    ("index-negative", _hdr("coordinate real general") + "2 3 1\n1 -1 1.0\n",
     (ParseError, "3: index (1, -1) out of bounds")),
    ("index-before-malformed",
     _hdr("coordinate real general") + "2 2 2\n1 3 1.0\n1 1 x\n",
     (ParseError, "3: index (1, 3) out of bounds")),
    ("malformed-before-index",
     _hdr("coordinate real general") + "2 2 2\n1 1 x\n1 3 1.0\n",
     (ParseError, "3: malformed entry")),
    ("tokens-before-index",
     _hdr("coordinate real general") + "2 2 2\n1 1\n1 3 1.0\n",
     (ParseError, "3: expected 3 fields, got 2")),
    ("symmetric-upper", _hdr("coordinate real symmetric") + "2 2 1\n1 2 1.0\n",
     (ParseError, "3: symmetric storage must keep the lower triangle")),
    ("hermitian-upper",
     _hdr("coordinate complex hermitian") + "2 2 2\n1 1 1 0\n1 2 1 1\n",
     (ParseError, "4: symmetric storage must keep the lower triangle")),
    ("coordinate-hermitian-complex-diagonal",
     _hdr("coordinate complex hermitian") + "2 2 2\n2 1 2.0 3.0\n1 1 1.0 0.5\n",
     (ParseError, "4: hermitian diagonal entries must be real")),
    ("array-hermitian-complex-diagonal",
     _hdr("array complex hermitian") + "2 2\n1 0\n2 3\n4 -1\n",
     (ParseError, "5: hermitian diagonal entries must be real")),
    # Packed symmetric storage must be square; entries are checked first.
    ("symmetric-array-nonsquare", _hdr("array real symmetric") + "2 3\n1\n2\n3\n",
     (ParseError, "2: symmetric matrices must be square")),
    ("symmetric-array-nonsquare-bad-entry",
     _hdr("array real symmetric") + "2 3\n1\nx\n",
     (ParseError, "4: malformed entry")),
    # Entry counts, reported at the last line.
    ("coordinate-too-few", _hdr("coordinate real general") + "2 2 3\n1 1 1.0\n",
     (ParseError, "3: expected 3 entries, found 1")),
    ("coordinate-too-many",
     _hdr("coordinate real general") + "1 1 1\n1 1 1.0\n1 1 2.0\n% end\n",
     (ParseError, "5: expected 1 entries, found 2")),
    ("array-too-few", _hdr("array real general") + "2 2\n1\n2\n3\n",
     (ParseError, "5: expected 4 values, found 3")),
    ("array-too-many", _hdr("array real general") + "2 1\n1\n2\n3\n",
     (ParseError, "5: expected 2 values, found 3")),
    ("symmetric-array-count", _hdr("array real symmetric") + "2 2\n1\n2\n3\n4\n",
     (ParseError, "6: expected 3 values, found 4")),
    # Values and shapes.
    ("repeated-entry-last-wins",
     _hdr("coordinate real general") + "2 2 3\n1 1 1.0\n2 2 2.0\n1 1 5.0\n",
     np.array([[5.0, 0.0], [0.0, 2.0]])),
    ("coordinate-nonfinite",
     _hdr("coordinate real general") + "2 2 3\n1 1 inf\n2 1 nan\n2 2 -Infinity\n",
     np.array([[_INF, 0.0], [_NAN, -_INF]])),
    ("array-nonfinite", _hdr("array complex general") + "1 2\nnan 1\n1 -inf\n",
     np.array([[complex(_NAN, 1.0), complex(1.0, -_INF)]])),
    ("symmetric-nonfinite", _hdr("array real symmetric") + "2 2\n1\nnan\n2\n",
     np.array([[1.0, _NAN], [_NAN, 2.0]])),
    ("python-number-syntax",
     _hdr("coordinate real general") + "1 1 1\n01 +1 1_0.5\n",
     np.array([[10.5]])),
    ("coordinate-empty", _hdr("coordinate real general") + "0 0 0\n",
     np.zeros((0, 0))),
    ("array-empty", _hdr("array complex general") + "0 3\n",
     np.zeros((0, 3), dtype=np.complex128)),
    ("integer-coordinate",
     _hdr("coordinate integer general") + "1 2 2\n1 1 7\n1 2 -3\n",
     np.array([[7.0, -3.0]])),
    ("integer-array-symmetric", _hdr("array integer symmetric") + "2 2\n1\n2\n3\n",
     np.array([[1.0, 2.0], [2.0, 3.0]])),
    # Valid files in both layouts.
    ("coordinate-general",
     _hdr("coordinate real general")
     + "% comment\n\n3 2 3\n1 2 0.5\n\n% between entries\n3 1 -2\n2 2 1e-3\n",
     np.array([[0.0, 0.5], [0.0, 1e-3], [-2.0, 0.0]])),
    ("coordinate-symmetric",
     _hdr("coordinate real symmetric") + "3 3 4\n1 1 4\n2 1 -1\n3 2 2\n3 3 5\n",
     np.array([[4.0, -1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, 2.0, 5.0]])),
    ("coordinate-hermitian",
     _hdr("coordinate complex hermitian") + "2 2 2\n1 1 1.0 0.0\n2 1 2.0 3.0\n",
     np.array([[1.0, 2.0 - 3.0j], [2.0 + 3.0j, 0.0]])),
    ("coordinate-real-hermitian",
     _hdr("coordinate real hermitian") + "2 2 1\n2 1 4.0\n",
     np.array([[0.0, 4.0], [4.0, 0.0]])),
    ("array-general", _hdr("array real general") + "2 3\n1\n2\n3\n4\n5\n6\n",
     np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])),
    ("array-complex", _hdr("array complex general") + "2 1\n1 -1\n0.5 2\n",
     np.array([[1.0 - 1.0j], [0.5 + 2.0j]])),
    ("array-symmetric",
     _hdr("array real symmetric") + "3 3\n1\n2\n3\n4\n5\n6\n",
     np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])),
    ("array-hermitian",
     _hdr("array complex hermitian") + "2 2\n1 0\n2 3\n4 0\n",
     np.array([[1.0, 2.0 - 3.0j], [2.0 + 3.0j, 4.0]])),
    ("array-complex-symmetric",
     _hdr("array complex symmetric") + "2 2\n1 0\n2 3\n4 0\n",
     np.array([[1.0, 2.0 + 3.0j], [2.0 + 3.0j, 4.0]])),
    ("crlf-line-ends",
     _hdr("array real general").replace("\n", "\r\n") + "% c\r\n1 2\r\n1\r\n2\r\n",
     np.array([[1.0, 2.0]])),
]


def _same_array(got, want):
    """Equal dtype, shape and entries, NaN equal to NaN in each part."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.real, want.real, equal_nan=True)
            and np.array_equal(got.imag, want.imag, equal_nan=True))


@pytest.mark.parametrize("text, want",
                         [pytest.param(t, w, id=i) for i, t, w in READER_CORPUS])
def test_reader_corpus(tmp_path, text, want):
    path = tmp_path / "m.mtx"
    path.write_bytes(text.encode("ascii"))
    if isinstance(want, np.ndarray):
        assert _same_array(load_matrix_market(path), want)
        return
    kind, where = want
    with pytest.raises(ParseError) as info:
        load_matrix_market(path)
    assert type(info.value) is kind
    assert str(info.value) == f"{path}:{where}"



@pytest.mark.parametrize("data, where", [
    pytest.param(_hdr("array real general").encode() + b"% caf\xc3\xa9\n1 1\n1\n",
                 "2: non-ASCII byte", id="comment-utf8"),
    pytest.param(_hdr("array real general").encode() + b"1 2\r\n\r\n1\r\n2\xb5\r\n",
                 "5: non-ASCII byte", id="value-latin1-crlf"),
    pytest.param(_hdr("coordinate real general").encode() + b"-1 2 0\n",
                 "2: size line entries must be nonnegative", id="negative-rows"),
    pytest.param(_hdr("array real general").encode() + b"0 -1\n",
                 "2: size line entries must be nonnegative", id="negative-cols"),
    pytest.param(_hdr("coordinate real symmetric").encode() + b"1 3 1\n1 1 2\n",
                 "2: symmetric matrices must be square", id="wide-symmetric"),
    pytest.param(_hdr("coordinate real hermitian").encode() + b"3 2 1\n3 1 2\n",
                 "2: symmetric matrices must be square", id="tall-hermitian"),
])
def test_reader_rejects_bytes_and_sizes(tmp_path, data, where):
    """Non-ASCII bytes, negative sizes and non-square symmetric
    coordinate storage are malformed input too."""
    path = tmp_path / "m.mtx"
    path.write_bytes(data)
    with pytest.raises(ParseError) as info:
        load_matrix_market(path)
    assert type(info.value) is ParseError
    assert str(info.value) == f"{path}:{where}"

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

    @pytest.mark.parametrize("text,message,where", [
        ("family = care\nmethod dsda\n", "expected 'key = value'", ":2:"),
        ("family = care\ntol = 1e-8\ntol = 1e-9\n", "duplicate key 'tol'",
         ":3:"),
        ("family = care\n\nmax_iter =\n", "key 'max_iter' has no value",
         ":3:"),
        ("method = dsda\n", "missing required key 'family'", ":"),
        ("family = lyapunov\n", "unknown family 'lyapunov'", None),
        ("family = care\ntol = small\n", "key 'tol' needs a number, got "
         "'small'", None),
        ("family = care\ncolumn_budget = 0\n",
         "column_budget must be at least 1, got 0", None),
        ("family = care\nmethod = fast\n", "method must be one of", None),
    ], ids=["no-equals", "duplicate", "empty-value", "no-family",
            "unknown-family", "non-numeric-tol", "zero-budget",
            "unknown-method"])
    def test_refused_lines_name_their_place(self, tmp_path, text, message,
                                            where):
        path = self.write(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            read_config(path)
        assert message in str(err.value)
        if where is not None:
            assert str(err.value).startswith(f"{path}{where}")
