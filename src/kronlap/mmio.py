"""Matrix Market reading and writing.

Supports the real-valued subset used by the CLI: ``array`` and ``coordinate``
formats with ``general`` or ``symmetric`` symmetry. Symmetric files are
expanded to full storage on read; duplicate coordinate entries are summed.
The reader parses the body in one vectorized pass and reads only a rejected
file again, line by line, to name the offending 1-based line; an input that
cannot seek is held in memory for that. Values are written in shortest
round-tripping form, so read(write(M)) reproduces M exactly, a few thousand at
a time, so the text of the whole matrix is never built.
"""

import io
import math
import os
import tempfile
from itertools import chain, islice

import numpy as np

from .errors import MatrixMarketError
from .kron_core import _as_matrix, _require_finite

_BANNER = "%%MatrixMarket"


def atomic_write_text(path, text: str):
    """Write via a sibling temp file and rename, so failures leave no partial file."""
    _atomic_write(path, (text,))


def _atomic_write(path, pieces):
    """:func:`atomic_write_text` for text given as an iterable of pieces, written as they come."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kronlap-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
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


def _read_head(fh):
    """Header fields, size line number and text, and the body text up to the next newline."""
    number = 0
    for raw in iter(fh.readline, ""):
        lines = raw.splitlines()
        for k, line in enumerate(lines):
            number += 1
            if number == 1:
                header = _parse_header(line)
            elif (size_line := line.strip()) and not size_line.startswith("%"):
                return header, number, size_line, "\n".join(lines[k + 1:])
    raise MatrixMarketError("missing size line" if number else "empty file", line=number or 1)


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file into a dense 2-D float array.

    The body is read in chunks of about 64 KiB that end at a newline. Array
    values go through ``float`` into one array, coordinate entries into an
    (nnz, 3) table; counts, finiteness and index ranges are checked on the
    whole. A file this pass rejects is read again to name the offending line.
    """
    with open(path, "r") as raw:
        # a rejected body is read again from its start, so input that cannot seek is held
        fh = raw if raw.seekable() else io.StringIO(raw.read())
        (fmt, symmetry), size_number, size_line, rest = _read_head(fh)
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

        # every chunk ends at a newline, so no line spans two chunks
        chunks = iter(lambda: fh.read(1 << 16) + fh.readline(), "")
        body = map(_uncommented, chain([rest], chunks))
        coordinate = fmt == "coordinate"
        if coordinate:
            count, dtype = dims[2], (float, 3)
            items = chain.from_iterable(map(_entries, body))
        else:
            rows, cols = dims
            count = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
            dtype, items = float, map(float, chain.from_iterable(map(str.split, body)))
        try:
            # a bad token raises; an array stops at count= (or raises short of it), while a
            # coordinate table grows, so a false nnz on the size line allocates nothing
            table = np.fromiter(items, dtype=dtype, count=-1 if coordinate else count)
            whole = len(table) == count and next(items, None) is None
        except (ValueError, OverflowError):  # OverflowError: an index beyond float range
            whole = False
        if whole and np.isfinite(table).all():
            if not coordinate or ((table[:, :2] >= 1) & (table[:, :2] <= dims[:2])).all():
                return _fill(table, dims, symmetry, coordinate)
        _raise_first_error(fh, size_number, dims, count, coordinate)


def _uncommented(chunk):
    """``chunk`` without its comment lines; only a chunk holding '%' is split into lines."""
    if "%" not in chunk:
        return chunk
    return "\n".join(line for line in chunk.splitlines() if not line.lstrip().startswith("%"))


def _entries(chunk):
    """(i, j, value) of each entry line of ``chunk``, parsed by int, int and float."""
    fields = list(filter(None, map(str.split, chunk.splitlines())))
    # the strict zip or the unpacking raises ValueError unless every line has three fields
    i, j, v = zip(*fields, strict=True) if fields else ((), (), ())
    return zip(map(int, i), map(int, j), map(float, v))


def _fill(table, dims, symmetry, coordinate):
    """Dense matrix of a parsed body; a symmetric file fills both triangles.

    Array values are column-major. Coordinate rows are 1-based (i, j, value),
    summed in file order.
    """
    rows, cols = dims[:2]
    if not coordinate and symmetry == "general":
        return table.reshape(cols, rows).T.copy()
    m = np.zeros((rows, cols))
    if coordinate:
        i, j = table[:, :2].T.astype(np.intp) - 1
        if symmetry == "symmetric":  # entries at (i, j) and (j, i) are summed below the diagonal
            i, j = np.maximum(i, j), np.minimum(i, j)
        np.add.at(m, (i, j), table[:, 2])
    else:
        j, i = np.triu_indices(rows)  # (j, i) with i >= j, j slowest: column-major lower triangle
        m[i, j] = table
    if symmetry == "symmetric":
        m[j, i] = m[i, j]
    return m


def _raise_first_error(fh, size_number, dims, count, coordinate):
    """Read the body again line by line and raise the error of its first bad line.

    Runs only after the vectorized pass rejected the body; never returns values.
    """
    fh.seek(0)
    lines = enumerate(chain.from_iterable(map(str.splitlines, fh)), start=1)
    noun, bound = ("entries", "declared") if coordinate else ("values", "expected")
    rows, cols = dims[:2]
    seen, number = 0, size_number
    for number, line in islice(lines, size_number, None):
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        tokens = text.split()
        if coordinate:
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
            tokens = tokens[2:]
        for tok in tokens:
            try:
                v = float(tok)
            except ValueError:
                raise MatrixMarketError(f"cannot parse value {tok!r}", line=number) from None
            if not math.isfinite(v):
                raise MatrixMarketError(f"non-finite value {tok!r}", line=number)
        seen += 1 if coordinate else len(tokens)
        if seen > count:
            raise MatrixMarketError(f"more than the {bound} {count} {noun}", line=number)
    raise MatrixMarketError(f"expected {count} {noun}, found {seen}", line=number)


def write_matrix_market(path, matrix, fmt: str = "array"):
    """Write a dense 2-D array as a Matrix Market file (general symmetry)."""
    m = _as_matrix(matrix)
    _require_finite(m)
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"unsupported output format {fmt!r}")
    rows, cols = m.shape
    piece = 1 << 13  # values per written piece, so no text of the whole matrix is built
    if fmt == "array":
        head = f"{_BANNER} matrix array real general\n{rows} {cols}\n"
        values = m.T.flat  # column-major
        body = (_lines(map(repr, values[k : k + piece].tolist())) for k in range(0, m.size, piece))
    else:
        head = f"{_BANNER} matrix coordinate real general\n{rows} {cols} {np.count_nonzero(m)}\n"
        step = max(1, piece // max(cols, 1))  # rows per piece
        body = (_entry_lines(m[r : r + step], r) for r in range(0, rows, step))
    _atomic_write(path, chain([head], body))


def _lines(texts):
    """The texts, each ended by a newline."""
    text = "\n".join(texts)
    return text + "\n" if text else text


def _entry_lines(block, first_row):
    """'i j value' lines of the nonzeros of ``block``, whose row 0 is row ``first_row`` (0-based)."""
    ii, jj = np.nonzero(block)
    return _lines(
        f"{i} {j} {v!r}"
        for i, j, v in zip((ii + first_row + 1).tolist(), (jj + 1).tolist(), block[ii, jj].tolist())
    )
