"""Matrix Market reading and writing.

Supports the real-valued subset used by the CLI: ``array`` and ``coordinate``
formats with ``general`` or ``symmetric`` symmetry. Symmetric files are
expanded to full storage on read. Values are written with shortest
round-tripping decimal representation, so read(write(M)) reproduces M exactly.
Parse failures report the offending 1-based line number.
"""

import os
import tempfile
from itertools import chain

import numpy as np

from .errors import MatrixMarketError

_BANNER = "%%MatrixMarket"


def atomic_write_text(path, text: str):
    """Write via a sibling temp file and rename, so failures leave no partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kronlap-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _parse_header(line):
    tokens = line.strip().split()
    if len(tokens) != 5 or tokens[0] != _BANNER:
        raise MatrixMarketError(
            f"expected header '{_BANNER} matrix <format> <field> <symmetry>', got {line.strip()!r}",
            line=1,
        )
    _, obj, fmt, field, symmetry = (t.lower() for t in tokens)
    if obj != "matrix":
        raise MatrixMarketError(f"unsupported object {obj!r} (only 'matrix')", line=1)
    if fmt not in ("array", "coordinate"):
        raise MatrixMarketError(f"unsupported format {fmt!r} (array or coordinate)", line=1)
    if field != "real":
        raise MatrixMarketError(f"unsupported field {field!r} (only 'real')", line=1)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(
            f"unsupported symmetry {symmetry!r} (general or symmetric)", line=1
        )
    return fmt, symmetry


def _data_lines(lines):
    """Yield (1-based line number, stripped content), skipping comments and blanks."""
    for number, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield number, stripped


def _parse_floats(text, number, expected=None):
    tokens = text.split()
    if expected is not None and len(tokens) != expected:
        raise MatrixMarketError(
            f"expected {expected} fields, got {len(tokens)}", line=number
        )
    out = []
    for tok in tokens:
        try:
            v = float(tok)
        except ValueError:
            raise MatrixMarketError(f"cannot parse value {tok!r}", line=number) from None
        if not np.isfinite(v):
            raise MatrixMarketError(f"non-finite value {tok!r}", line=number)
        out.append(v)
    return out


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file into a dense 2-D float array.

    An array-format body is parsed in one streamed pass. When that pass finds
    anything it cannot take as is (a comment line, a bad or non-finite token,
    a wrong count), the file is read again line by line, which either
    succeeds or names the offending line. Coordinate files are read line by
    line.
    """
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError("empty file", line=1)
    fmt, symmetry = _parse_header(lines[0])

    data = _data_lines(lines)
    try:
        size_number, size_line = next(data)
    except StopIteration:
        raise MatrixMarketError("missing size line", line=len(lines)) from None

    tokens = size_line.split()
    want = 2 if fmt == "array" else 3
    if len(tokens) != want:
        raise MatrixMarketError(
            f"size line must have {want} integers for {fmt} format, got {size_line!r}",
            line=size_number,
        )
    try:
        dims = [int(t) for t in tokens]
    except ValueError:
        raise MatrixMarketError(f"bad size line {size_line!r}", line=size_number) from None
    if any(d < 0 for d in dims):
        raise MatrixMarketError(f"negative size in {size_line!r}", line=size_number)
    if symmetry == "symmetric" and dims[0] != dims[1]:
        raise MatrixMarketError("symmetric matrix must be square", line=size_number)

    if fmt == "coordinate":
        return _read_coordinate(data, dims, symmetry, len(lines))
    m = _fast_array(lines[size_number:], dims, symmetry)
    return m if m is not None else _read_array(data, dims, symmetry, len(lines))


def _array_count(dims, symmetry):
    rows, cols = dims
    return rows * cols if symmetry == "general" else rows * (rows + 1) // 2


def _fill_array(values, dims, symmetry):
    """Place column-major array-format values; symmetric ones fill both triangles."""
    rows, cols = dims
    if symmetry == "general":
        return values.reshape(cols, rows).T.copy()
    m = np.zeros((rows, cols))
    jj, ii = np.triu_indices(rows)  # (j, i) with i >= j, j slowest: column-major lower triangle
    m[ii, jj] = values
    m[jj, ii] = values
    return m


def _fast_array(body, dims, symmetry):
    """Array-format values of ``body`` in one streamed pass, or None if any is off."""
    tokens = chain.from_iterable(map(str.split, body))
    try:
        # a bad token or too few values raises; count= stops before any surplus
        values = np.fromiter(map(float, tokens), dtype=float, count=_array_count(dims, symmetry))
    except ValueError:
        return None
    if next(tokens, None) is not None or not np.isfinite(values).all():
        return None
    return _fill_array(values, dims, symmetry)


def _read_array(data, dims, symmetry, last_line):
    expected = _array_count(dims, symmetry)
    values = []
    for number, text in data:
        for v in _parse_floats(text, number):
            values.append(v)
            if len(values) > expected:
                raise MatrixMarketError(
                    f"more than the expected {expected} values", line=number
                )
    if len(values) < expected:
        raise MatrixMarketError(
            f"expected {expected} values, found {len(values)}", line=last_line
        )
    return _fill_array(np.array(values, dtype=float), dims, symmetry)


def _read_coordinate(data, dims, symmetry, last_line):
    rows, cols, nnz = dims
    m = np.zeros((rows, cols))
    seen = 0
    for number, text in data:
        tokens = text.split()
        if len(tokens) != 3:
            raise MatrixMarketError(
                f"coordinate entry must be 'i j value', got {text!r}", line=number
            )
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise MatrixMarketError(f"bad indices in {text!r}", line=number) from None
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixMarketError(
                f"index ({i}, {j}) out of range for {rows}x{cols}", line=number
            )
        (v,) = _parse_floats(tokens[2], number, expected=1)
        seen += 1
        if seen > nnz:
            raise MatrixMarketError(f"more than the declared {nnz} entries", line=number)
        m[i - 1, j - 1] += v
        if symmetry == "symmetric" and i != j:
            m[j - 1, i - 1] += v
    if seen < nnz:
        raise MatrixMarketError(f"expected {nnz} entries, found {seen}", line=last_line)
    return m


def write_matrix_market(path, matrix, fmt: str = "array"):
    """Write a dense 2-D array as a Matrix Market file (general symmetry)."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"unsupported output format {fmt!r}")
    rows, cols = m.shape
    if fmt == "array":
        out = [f"{_BANNER} matrix array real general", f"{rows} {cols}"]
        out += map(repr, m.T.ravel().tolist())
    else:
        ii, jj = np.nonzero(m)
        out = [f"{_BANNER} matrix coordinate real general", f"{rows} {cols} {len(ii)}"]
        out += (
            f"{i} {j} {v!r}"
            for i, j, v in zip((ii + 1).tolist(), (jj + 1).tolist(), m[ii, jj].tolist())
        )
    atomic_write_text(path, "\n".join(out) + "\n")
