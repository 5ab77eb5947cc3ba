"""Matrix Market reading and writing.

Supports the real-valued subset used by the CLI: ``array`` and ``coordinate``
formats with ``general`` or ``symmetric`` symmetry. Symmetric files are
expanded to full storage on read; duplicate coordinate entries are summed.
The reader reads the body once, in chunks, each parsed in one vectorized
step; a chunk it rejects is scanned line by line to name the offending
1-based line, so a pipe reads like a file. Values are written in shortest
round-tripping form, so read(write(M)) reproduces M exactly, a few thousand at
a time, so the text of the whole matrix is never built.
"""

import math
import os
from itertools import chain

import numpy as np

from .errors import MatrixMarketError
from .kron_core import _as_matrix, _check_dense_cap, _require_finite

_BANNER = "%%MatrixMarket"


def atomic_write_text(path, text: str):
    """Write via a sibling temp file and rename, so failures leave no partial file."""
    _atomic_write(path, (text,))


def _atomic_write(path, pieces):
    """:func:`atomic_write_text` for text given as an iterable of pieces, written as they come."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    while True:
        tmp = os.path.join(directory, f".kronlap-{os.urandom(8).hex()}.tmp")
        try:  # mode 0666 less the umask, as for any new file (mkstemp would give 0600)
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            pass
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
        lines = raw.splitlines(keepends=True)
        for k, line in enumerate(lines):
            number += 1
            if number == 1:
                header = _parse_header(line)
            elif (size_line := line.strip()) and not size_line.startswith("%"):
                return header, number, size_line, "".join(lines[k + 1:])
    raise MatrixMarketError("missing size line" if number else "empty file", line=number or 1)


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file into a dense 2-D float array.

    The body is read once, in chunks of about 64 KiB that end at a newline.
    Array values go through ``float``, coordinate entries into (i, j, value)
    rows; each chunk's count, finiteness and index ranges are checked as it
    arrives, and a rejected chunk is scanned line by line to name the
    offending line. A size line of more than cap^2 entries, or with more than
    cap^2 rows or columns, raises SizeLimitError before anything is allocated.
    """
    with open(path, "r") as fh:
        (fmt, symmetry), number, size_line, rest = _read_head(fh)
        tokens = size_line.split()
        want = 2 if fmt == "array" else 3
        if len(tokens) != want:
            raise MatrixMarketError(
                f"size line must have {want} integers for {fmt} format, got {size_line!r}",
                line=number,
            )
        try:
            dims = [int(t) for t in tokens]
        except ValueError:
            raise MatrixMarketError(f"bad size line {size_line!r}", line=number) from None
        if any(d < 0 for d in dims):
            raise MatrixMarketError(f"negative size in {size_line!r}", line=number)
        if symmetry == "symmetric" and dims[0] != dims[1]:
            raise MatrixMarketError("symmetric matrix must be square", line=number)
        # ceil(sqrt(.)) of rows * cols, rows and cols: each is at most cap^2, so a zero
        # side cannot carry a huge one past the cap
        _check_dense_cap(math.isqrt(max(dims[0] * dims[1], *dims[:2], 1) - 1) + 1)

        coordinate = fmt == "coordinate"
        if coordinate:
            # entries are summed into the matrix as they come, so a false nnz allocates nothing
            count, dtype, parse, out = dims[2], (float, 3), _entries, np.zeros(dims[:2])
        else:
            count = dims[0] * dims[1] if symmetry == "general" else dims[0] * (dims[0] + 1) // 2
            dtype, parse, out = float, lambda text: map(float, text.split()), np.empty(count)
        seen = 0
        # every chunk ends at a newline, so no line spans two chunks
        for chunk in chain([rest], iter(lambda: fh.read(1 << 16) + fh.readline(), "")):
            text, lines = _uncommented(chunk)
            try:
                part = np.fromiter(parse(text), dtype=dtype)
                inside = not coordinate or ((part[:, :2] >= 1) & (part[:, :2] <= dims[:2])).all()
                good = inside and seen + len(part) <= count and np.isfinite(part).all()
            except (ValueError, OverflowError):  # OverflowError: an index beyond float range
                good = False
            if not good:
                _raise_first_error(chunk, number, seen, dims, count, coordinate)
            if coordinate:  # 1-based (i, j, value) rows, summed in file order
                i, j = part[:, :2].T.astype(np.intp) - 1
                if symmetry == "symmetric":  # (i, j) and (j, i) are summed below the diagonal
                    i, j = np.maximum(i, j), np.minimum(i, j)
                np.add.at(out, (i, j), part[:, 2])
            else:
                out[seen : seen + len(part)] = part
            seen += len(part)
            number += lines
    if seen < count:
        _raise_first_error("", number, seen, dims, count, coordinate)
    return _fill(out, dims, symmetry, coordinate)


def _uncommented(chunk):
    """``chunk`` without its comment lines, and its number of lines by str.splitlines rules.

    Text mode reads CR and CRLF as LF, so only a chunk holding '%' or another
    line break, or not ending in LF, is split into lines.
    """
    if chunk.endswith("\n") and not any(c in chunk for c in "%\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"):
        return chunk, chunk.count("\n")
    lines = chunk.splitlines()
    return "\n".join(line for line in lines if not line.lstrip().startswith("%")), len(lines)


def _entries(chunk):
    """(i, j, value) of each entry line of ``chunk``, parsed by int, int and float."""
    fields = list(filter(None, map(str.split, chunk.splitlines())))
    # the strict zip or the unpacking raises ValueError unless every line has three fields
    i, j, v = zip(*fields, strict=True) if fields else ((), (), ())
    return zip(map(int, i), map(int, j), map(float, v))


def _fill(out, dims, symmetry, coordinate):
    """Dense matrix of a read body; a symmetric file fills both triangles.

    ``out`` is the summed coordinate matrix or the array's column-major values.
    """
    rows, cols = dims[:2]
    if symmetry == "general":
        return out if coordinate else out.reshape(cols, rows).T.copy()
    j, i = np.triu_indices(rows)  # (j, i) with i >= j, j slowest: column-major lower triangle
    m = out if coordinate else np.zeros((rows, cols))
    if not coordinate:
        m[i, j] = out
    m[j, i] = m[i, j]
    return m


def _raise_first_error(chunk, number, seen, dims, count, coordinate):
    """Raise the error of the first bad line of ``chunk``, or the short-body error.

    ``chunk`` starts at line ``number + 1``, after ``seen`` values or entries;
    an empty ``chunk`` stands for the end of a body short of ``count``.
    """
    noun, bound = ("entries", "declared") if coordinate else ("values", "expected")
    rows, cols = dims[:2]
    for number, line in enumerate(chunk.splitlines(), start=number + 1):
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
