"""Matrix Market reading and writing.

Supports the coordinate and array formats with real, integer and
complex fields and general/symmetric/hermitian symmetry, which covers
the benchmark data this package consumes.  Matrices are returned dense.
The reader rejects pattern and skew-symmetric data, entries above the
diagonal in symmetric storage, a non-real diagonal entry in hermitian
storage, a size that cannot be allocated and any byte outside ASCII,
each with the file and line.  A coordinate entry given twice keeps its
last value.
The writer emits the array format with 17 significant digits so a
written matrix reloads bit-identically.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError, UnsupportedFieldError

_FORMATS = {"coordinate", "array"}
_FIELDS = {"real", "integer", "complex"}
_SYMMETRIES = {"general", "symmetric", "hermitian"}

#: Message for a data line with the wrong token count; ``{}`` is the count.
_MISCOUNT = {("coordinate", False): "expected 3 fields, got {}",
             ("coordinate", True): "expected 4 fields, got {}",
             ("array", False): "array entries must be one value per line",
             ("array", True): "complex array entries need 're im'"}


def _fail(path, lineno, msg):
    raise ParseError(f"{path}:{lineno}: {msg}")


def load_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file into a dense array.

    Symmetric/hermitian storage (lower triangle) is expanded to the full
    matrix.  Raises ``ParseError`` with the offending line number on
    malformed input or a size line whose matrix cannot be allocated,
    and ``UnsupportedFieldError`` for pattern data or an unsupported
    symmetry.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        text = fh.read()
    if "\ufffd" in text:
        upto = text[:text.index("\ufffd") + 1]
        _fail(path, len(upto.splitlines()), "non-ASCII byte")
    lines = text.splitlines()
    if not lines:
        _fail(path, 1, "empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or \
            header[1].lower() != "matrix":
        _fail(path, 1, "malformed header, expected "
              "'%%MatrixMarket matrix <format> <field> <symmetry>'")
    fmt, fld, sym = (tok.lower() for tok in header[2:5])
    if fmt not in _FORMATS:
        _fail(path, 1, f"unsupported format '{fmt}'")
    if fld not in _FIELDS:
        raise UnsupportedFieldError(f"{path}:1: unsupported field '{fld}'")
    if sym not in _SYMMETRIES:
        raise UnsupportedFieldError(f"{path}:1: unsupported symmetry '{sym}'")
    complex_field = fld == "complex"
    coordinate = fmt == "coordinate"

    # The numbered data lines after the header: all but comments and
    # blank lines.  The first is the size line.
    body = ((n, tok) for n, raw in enumerate(lines[1:], start=2)
            if (tok := raw.split()) and raw[0] != "%")
    lineno, size_tokens = next(body, (len(lines), None))
    if size_tokens is None:
        _fail(path, lineno, "missing size line")
    size = "rows cols nnz" if coordinate else "rows cols"
    if len(size_tokens) != len(size.split()):
        _fail(path, lineno, f"{fmt} size line must be '{size}'")
    try:
        rows, cols, *nnz = (int(t) for t in size_tokens)
    except ValueError:
        _fail(path, lineno, "size line entries must be integers")
    if min(rows, cols, *nnz) < 0:
        _fail(path, lineno, "size line entries must be nonnegative")

    # A coordinate entry leads with its two 1-based indices, checked
    # where they stand.
    first = 2 if coordinate else 0
    width = first + 1 + complex_field
    index, values, linenos = [], [], []
    for off, tok in body:
        if len(tok) != width:
            _fail(path, off, _MISCOUNT[fmt, complex_field].format(len(tok)))
        try:
            if coordinate:
                i, j = int(tok[0]), int(tok[1])
            values.append(float(tok[first]))
            if complex_field:
                values.append(float(tok[first + 1]))
        except ValueError:
            _fail(path, off, "malformed entry")
        if coordinate:
            if not (1 <= i <= rows and 1 <= j <= cols):
                _fail(path, off, f"index ({i}, {j}) out of bounds")
            if sym != "general" and i < j:
                _fail(path, off, "symmetric storage must keep the lower triangle")
            index += i - 1, j - 1
        linenos.append(off)
    vals = np.array(values).view(np.complex128 if complex_field else np.float64)

    if sym != "general" and rows != cols:
        _fail(path, lineno, "symmetric matrices must be square")
    if coordinate:
        expected, noun = nnz[0], "entries"
    else:
        expected = rows * cols if sym == "general" else rows * (rows + 1) // 2
        noun = "values"
    if vals.size != expected:
        _fail(path, len(lines), f"expected {expected} {noun}, found {vals.size}")

    # Coordinate entries go where their indices say; array values run
    # down the columns, of the lower triangle in symmetric storage.
    if coordinate:
        r, c = np.array(index, dtype=np.intp).reshape(-1, 2).T
    elif sym == "general":
        return vals.reshape((rows, cols), order="F")
    else:
        c, r = np.triu_indices(rows)
    bad = np.flatnonzero((r == c) & (vals.imag != 0.0))
    if sym == "hermitian" and bad.size:
        _fail(path, linenos[bad[0]], "hermitian diagonal entries must be real")
    try:
        mat = np.zeros((rows, cols), dtype=vals.dtype)
    except (ValueError, MemoryError):
        _fail(path, lineno, f"cannot allocate a {rows} x {cols} matrix")
    mat[r, c] = vals
    if sym != "general":
        lower = np.tril(mat, -1)
        mat = mat + (lower.conj().T if sym == "hermitian" else lower.T)
    return mat


def save_matrix_market(path, mat, comment: str | None = None) -> None:
    """Write a dense matrix in Matrix Market array format.

    Values are printed with 17 significant digits, so reloading the file
    reproduces the float64 entries exactly.
    """
    arr = np.atleast_2d(np.asarray(mat))
    complex_field = np.iscomplexobj(arr)
    field = "complex" if complex_field else "real"
    rows, cols = arr.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix array {field} general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{rows} {cols}\n")
        for j in range(cols):
            for i in range(rows):
                v = arr[i, j]
                if complex_field:
                    fh.write(f"{v.real:.17g} {v.imag:.17g}\n")
                else:
                    fh.write(f"{float(v):.17g}\n")
