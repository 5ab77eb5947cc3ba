import os
import stat
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronlap import (
    MatrixMarketError,
    SizeLimitError,
    build_poisson,
    lap_to_dense,
    read_matrix_market,
    write_matrix_market,
)
from kronlap.mmio import _atomic_write

from oracles import matrix_market_array_by_repr


def test_array_identity(tmp_path):
    f = tmp_path / "id2.mtx"
    f.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n")
    np.testing.assert_array_equal(read_matrix_market(f), np.eye(2))


def test_symmetric_coordinate_expands(tmp_path, adjacency6):
    # lower-triangle entries of the graph adjacency matrix; mirror on read
    entries = [(2, 1), (4, 1), (3, 2), (5, 2), (6, 3), (5, 4), (6, 5)]
    lines = ["%%MatrixMarket matrix coordinate real symmetric", f"6 6 {len(entries)}"]
    lines += [f"{i} {j} 1.0" for i, j in entries]
    f = tmp_path / "adj.mtx"
    f.write_text("\n".join(lines) + "\n")
    np.testing.assert_array_equal(read_matrix_market(f), adjacency6)


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_round_trip_exact(tmp_path, fmt):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 8))
    f = tmp_path / "m.mtx"
    write_matrix_market(f, m, fmt=fmt)
    np.testing.assert_array_equal(read_matrix_market(f), m)


def test_round_trip_vector(tmp_path):
    v = np.array([[0.1], [-2.5], [3e-17]])
    f = tmp_path / "v.mtx"
    write_matrix_market(f, v)
    np.testing.assert_array_equal(read_matrix_market(f), v)


def test_symmetric_array(tmp_path):
    # column-major lower triangle of [[1,2],[2,5]]
    f = tmp_path / "s.mtx"
    f.write_text("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n5.0\n")
    np.testing.assert_array_equal(read_matrix_market(f), np.array([[1.0, 2.0], [2.0, 5.0]]))


def test_comments_and_blanks_skipped(tmp_path):
    f = tmp_path / "c.mtx"
    for text in (
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n\n2 2 1\n% another\n2 1 4.5\n",
        "%%MatrixMarket matrix array real general\n"
        "% a comment\n\n2 2\n0.0\n4.5\n% another\n\n0.0\n0.0\n",
    ):
        f.write_text(text)
        np.testing.assert_array_equal(read_matrix_market(f), np.array([[0.0, 0.0], [4.5, 0.0]]))



@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_file_mode_follows_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_matrix_market(tmp_path / "x.mtx", np.eye(2))
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "x.mtx").st_mode) == mode


def test_writer_text(tmp_path):
    m = np.array([[1.0, -0.0], [2.5, 0.1]])
    f = tmp_path / "w.mtx"
    write_matrix_market(f, m)
    assert f.read_text() == (
        "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.5\n-0.0\n0.1\n"
    )
    write_matrix_market(f, m, fmt="coordinate")
    assert f.read_text() == (
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 1 2.5\n2 2 0.1\n"
    )


_PIECE = 1 << 13  # values per piece the writer writes
# -0.0, subnormals, and 10.0 and -100.0, whose text ends in "0.0", go through
# repr like any value but +0.0, whose bits are all zero
_NEAR_ZERO = [-0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 10.0, -100.0, 0.1]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.sampled_from([1, 3, 100]),
    size=st.integers(1, 3 * _PIECE),
    density=st.sampled_from([0.0, 1e-4, 0.01, 0.5, 1.0]),
    run=st.tuples(st.integers(0, 3 * _PIECE), st.integers(0, 3 * _PIECE)),
    seed=st.integers(0, 2**32 - 1),
)
# one run of +0.0 from before the first piece boundary to past the second,
# one ending right at the first boundary, and no zero at all
@example(rows=1, size=3 * _PIECE, density=0.5, run=(_PIECE - 5, 2 * _PIECE + 5), seed=0)
@example(rows=100, size=2 * _PIECE, density=0.01, run=(1, _PIECE), seed=1)
@example(rows=3, size=_PIECE + 1, density=1.0, run=(0, 0), seed=2)
def test_writer_matches_repr_per_value(tmp_path_factory, rows, size, density, run, seed):
    rng = np.random.default_rng(seed)
    cols = -(-size // rows)
    values = np.where(rng.uniform(size=rows * cols) < 0.5, rng.choice(_NEAR_ZERO, rows * cols),
                      rng.standard_normal(rows * cols))
    values[rng.uniform(size=values.size) >= density] = 0.0
    values[slice(*sorted(run))] = 0.0
    m = values.reshape(cols, rows).T  # column-major, as the file stores it
    f = tmp_path_factory.mktemp("mm") / "m.mtx"
    write_matrix_market(f, m)
    assert f.read_bytes() == matrix_market_array_by_repr(m).encode()


# tokens that read as a zero, or end in "0.0", but are not the writer's "0.0"
_ZERO_LIKE = ["0", "-0.0", "+0.0", "0.00", "00.0", "0.0e0", ".0", "0.", "1.0", "10.0", "-100.0",
              "\uff10.\uff10", "\uff11.\uff15"]  # fullwidth digits: 0.0 and 1.5
# separators that str.split knows and the writer never writes
_SEPARATORS = [" ", "\t", "\r\n", "\x85", "\xa0", "\u3000", "\n\n", " \n"]


@settings(max_examples=40, deadline=None)
@given(
    count=st.sampled_from([1, 7, 20_000, 45_000]),
    odd_tokens=st.sampled_from([0.0, 1e-3, 0.05, 0.5]),
    odd_separators=st.sampled_from([0.0, 1e-4, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
# zero runs across two 64 KiB chunk boundaries, with and without other separators
@example(count=45_000, odd_tokens=1e-3, odd_separators=0.0, seed=0)
@example(count=45_000, odd_tokens=0.05, odd_separators=1e-4, seed=1)
def test_reader_matches_float_per_token(tmp_path_factory, count, odd_tokens, odd_separators, seed):
    rng = np.random.default_rng(seed)
    tokens = np.array(["0.0"] * count, dtype=object)
    odd = rng.uniform(size=count) < odd_tokens
    tokens[odd] = [rng.choice(_ZERO_LIKE) if rng.uniform() < 0.7 else repr(rng.standard_normal())
                   for _ in range(odd.sum())]
    separators = np.array(["\n"] * count, dtype=object)
    odd = rng.uniform(size=count) < odd_separators
    separators[odd] = rng.choice(_SEPARATORS, odd.sum())
    body = "".join(tokens + separators)
    f = tmp_path_factory.mktemp("mm") / "v.mtx"
    with open(f, "w", newline="") as fh:  # keep "\r\n" as written
        fh.write(f"%%MatrixMarket matrix array real general\n{count} 1\n" + body)
    expected = np.fromiter(map(float, body.split()), float)
    assert expected.size == count
    assert read_matrix_market(f).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["file", "pipe"])
@pytest.mark.parametrize(
    "token, message",
    [("bogus", "cannot parse value 'bogus'"), ("0.0x", "cannot parse value '0.0x'"),
     ("1e999", "non-finite value '1e999'")],
)
def test_bad_token_after_a_long_zero_run_names_its_line(tmp_path, kind, token, message):
    # 40,000 "0.0" lines run through two 64 KiB chunks; the bad token follows in the third
    values = ["0.0"] * 50_000
    values[40_000] = token
    f = tmp_path / "big.mtx"
    f.write_text("%%MatrixMarket matrix array real general\n50000 1\n" + "\n".join(values) + "\n")
    with _source(kind, f) as path:
        with pytest.raises(MatrixMarketError, match=f"^line 40003: {message}$"):
            read_matrix_market(path)


def test_poisson_array_memory_stays_near_matrix_size(tmp_path):
    # a Laplacian-like matrix is almost all +0.0: its runs are written and read
    # in bulk, and neither direction holds more than its pieces
    m = lap_to_dense(build_poisson(8).operator)
    f = tmp_path / "poisson.mtx"
    for step in (lambda: write_matrix_market(f, m), lambda: read_matrix_market(f)):
        tracemalloc.start()
        try:
            out = step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * m.nbytes
    assert out.tobytes() == m.tobytes()


# a signed zero, a subnormal and values far apart in magnitude
_AWKWARD = [1e16, 1.0, -1e16, -0.0, 0.1, 3e-310, -2.5, 7.0]
# str.splitlines breaks at each of these, so each ends a line; blank and
# comment lines may sit anywhere in the body, long ones included
_LINE_BREAKS = [
    "\n", "\r\n", "\x0c", "\x85", "\n\n", "\x0c \x85", "\n% a comment\n", "\x0c \t%\x85",
    "\n%" + "=" * 600 + "\n",
]


def _body(rng, fields, in_line):
    """Join lines of fields with random separators, one also before the first line."""
    breaks = rng.choice(_LINE_BREAKS, size=len(fields) + 1, p=[0.3, 0.1, 0.1, 0.1] + [0.08] * 5)
    parts = []
    for sep, line in zip(breaks, fields):
        parts += [sep, rng.choice(in_line).join(line)]
    return "".join(parts) + breaks[-1]


@settings(max_examples=30, deadline=None)
@given(
    fmt=st.sampled_from(["array", "coordinate"]),
    symmetry=st.sampled_from(["general", "symmetric"]),
    n=st.sampled_from([1, 2, 7, 150]),
    extra_cols=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
# at n = 150 files run to a few hundred KiB, so chunked reading splits the
# body many times, at line breaks and comments alike
@example(fmt="array", symmetry="general", n=150, extra_cols=1, seed=0)
@example(fmt="coordinate", symmetry="symmetric", n=150, extra_cols=0, seed=1)
def test_reader_matches_written_values(tmp_path_factory, fmt, symmetry, n, extra_cols, seed):
    rng = np.random.default_rng(seed)
    rows, cols = n, n if symmetry == "symmetric" else n + extra_cols
    expected = np.zeros((rows, cols))
    if fmt == "array":
        # column-major, only the lower triangle when symmetric
        lower = symmetry == "symmetric"
        cells = [(i, j) for j in range(cols) for i in range(rows) if i >= j or not lower]
        values = rng.choice(_AWKWARD, len(cells)).tolist()
        for (i, j), v in zip(cells, values):
            expected[i, j] = v
            if lower:
                expected[j, i] = v
        size = f"{rows} {cols}"
        # several values on one line are allowed too
        width = int(rng.integers(1, 4))
        fields = [list(map(repr, values[k:k + width])) for k in range(0, len(values), width)]
        in_line = [" ", "\t", "  "]
    else:
        # duplicates are summed in file order; a symmetric entry counts for (j, i) as well
        nnz = max(1, rows * cols // 2)
        ii = rng.integers(1, rows + 1, nnz).tolist()
        jj = rng.integers(1, cols + 1, nnz).tolist()
        values = rng.choice(_AWKWARD, nnz).tolist()
        for i, j, v in zip(ii, jj, values):
            expected[i - 1, j - 1] += v
            if symmetry == "symmetric" and i != j:
                expected[j - 1, i - 1] += v
        size = f"{rows} {cols} {nnz}"
        fields = [[str(i), str(j), repr(v)] for i, j, v in zip(ii, jj, values)]
        in_line = [" ", "\t", " \t "]
    f = tmp_path_factory.mktemp("mm") / "m.mtx"
    header = f"%%MatrixMarket matrix {fmt} real {symmetry}\n{size}"
    with open(f, "w", newline="") as fh:  # keep "\r\n" as written
        fh.write(header + _body(rng, fields, in_line))
    m = read_matrix_market(f)
    assert m.tobytes() == expected.tobytes()
    assert m.shape == expected.shape and m.flags.c_contiguous
    if symmetry == "symmetric":
        np.testing.assert_array_equal(m, m.T)


def _array_line_by_line(text):
    """Reference parse of an array file: split lines, drop comments and blanks, fill by column."""
    header, *lines = text.splitlines()
    lines = [s for s in lines if s.strip() and not s.lstrip().startswith("%")]
    symmetric = header.split()[-1] == "symmetric"
    rows, cols = map(int, lines[0].split())
    values = [float(tok) for line in lines[1:] for tok in line.split()]
    cells = [(i, j) for j in range(cols) for i in range(rows) if i >= j or not symmetric]
    assert len(values) == len(cells)
    m = np.zeros((rows, cols))
    for (i, j), v in zip(cells, values):
        m[i, j] = v
        if symmetric:
            m[j, i] = v
    return m


class TestFastReaderMatchesLineByLine:
    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_array(self, tmp_path, symmetry):
        rng = np.random.default_rng(1)
        n = 7
        count = n * n if symmetry == "general" else n * (n + 1) // 2
        values = [repr(v) for v in rng.choice(_AWKWARD, count).tolist()]
        # several values on one line and blank lines are both allowed
        body = [" ".join(values[k:k + 3]) for k in range(0, count, 3)]
        body.insert(2, "")
        f = tmp_path / "a.mtx"
        f.write_text(f"%%MatrixMarket matrix array real {symmetry}\n{n} {n}\n" + "\n".join(body))
        fast = read_matrix_market(f)
        slow = _array_line_by_line(f.read_text())
        assert fast.tobytes() == slow.tobytes()
        assert fast.flags.c_contiguous
        if symmetry == "symmetric":
            np.testing.assert_array_equal(fast, fast.T)

    def test_other_line_breaks(self, tmp_path):
        # str.splitlines also breaks at form feed, NEL and the like, even right
        # after the size line, and error messages count lines the same way
        f = tmp_path / "a.mtx"
        f.write_text("%%MatrixMarket matrix array real general\n2 2\x0c1.0\x0c0.0\n0.0\x851.0\n")
        fast = read_matrix_market(f)
        assert fast.tobytes() == _array_line_by_line(f.read_text()).tobytes() == np.eye(2).tobytes()
        f.write_text("%%MatrixMarket matrix array real general\n2 2\x0c1.0\x0cx\n0.0\n1.0\n")
        with pytest.raises(MatrixMarketError, match="^line 4: cannot parse value 'x'$"):
            read_matrix_market(f)
        # the blank line between form feed and newline counts as well
        f.write_text("%%MatrixMarket matrix array real general\n2 2\x0c\n1.0\nx\n0.0\n1.0\n")
        with pytest.raises(MatrixMarketError, match="^line 5: cannot parse value 'x'$"):
            read_matrix_market(f)


_COORDINATE = "%%MatrixMarket matrix coordinate real {}\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        (_COORDINATE.format("general") + "2 2 1\n1.0 1 1.0\n",
         "^line 3: bad indices in '1.0 1 1.0'$"),
        (_COORDINATE.format("general") + "2 2 1\n3 1 1.0\n",
         r"^line 3: index \(3, 1\) out of range for 2x2$"),
        # six fields in all, but not three on each line
        (_COORDINATE.format("general") + "2 2 2\n1 1\n1.0 2 2 2.0\n",
         "^line 3: coordinate entry must be 'i j value', got '1 1'$"),
        (_COORDINATE.format("general") + "2 2 2\n1 1 1.0\n2 2 -inf\n",
         "^line 4: non-finite value '-inf'$"),
        # far more entries declared than could be stored
        (_COORDINATE.format("general") + "2 2 1000000000000000\n1 1 1.0\n",
         "^line 3: expected 1000000000000000 entries, found 1$"),
        # both triangles sum the entries at (2, 1) and (1, 2) in file order
        (_COORDINATE.format("symmetric") + "2 2 3\n2 1 1.0\n1 2 2.0\n2 1 0.1\n",
         [[0.0, 3.1], [3.1, 0.0]]),
    ],
)
def test_coordinate_errors_and_sums(tmp_path, text, expected):
    f = tmp_path / "c.mtx"
    f.write_text(text)
    if isinstance(expected, str):
        with pytest.raises(MatrixMarketError, match=expected):
            read_matrix_market(f)
    else:
        np.testing.assert_array_equal(read_matrix_market(f), np.array(expected))


@contextmanager
def _source(kind, f):
    """``f`` itself, or the read end of a pipe that a thread feeds ``f``'s bytes to."""
    if kind == "file":
        yield f
        return
    data = f.read_bytes()
    r, w = os.pipe()

    def feed():  # a thread, since writing blocks once the pipe's small buffer is full
        try:
            with open(w, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped at a bad line and closed its end
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield r  # an int path is the pipe's file descriptor
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()


@pytest.mark.parametrize("kind", ["file", "pipe"])
def test_array_read_memory_stays_near_result_size(tmp_path, kind):
    # the body is read once, in chunks, so neither its text nor a list of its
    # lines or tokens is held, from a file or from a pipe
    f = tmp_path / "big.mtx"
    write_matrix_market(f, np.random.default_rng(0).standard_normal((512, 512)))
    with _source(kind, f) as path:
        tracemalloc.start()
        try:
            m = read_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 3 * m.nbytes


def test_coordinate_read_memory_stays_near_result_size(tmp_path):
    # entries are summed into the matrix chunk by chunk, so no (nnz, 3) table is held
    f = tmp_path / "big.mtx"
    write_matrix_market(f, np.random.default_rng(0).standard_normal((512, 512)), fmt="coordinate")
    tracemalloc.start()
    try:
        m = read_matrix_market(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * m.nbytes


@pytest.mark.parametrize("fmt, bound", [("array", 2.5), ("coordinate", 2.0)])
def test_symmetric_read_memory_stays_near_result_size(tmp_path, fmt, bound):
    # the upper triangle is filled from the lower through one boolean mask,
    # with no index arrays of the triangle's size
    n = 512
    j, i = np.triu_indices(n)  # the lower triangle (i, j), column-major
    values = np.random.default_rng(0).standard_normal(i.size)
    expected = np.zeros((n, n))
    expected[i, j] = expected[j, i] = values
    if fmt == "array":
        lines = map(repr, values.tolist())
        size = f"{n} {n}"
    else:
        lines = (f"{p} {q} {v!r}" for p, q, v in zip((i + 1).tolist(), (j + 1).tolist(), values.tolist()))
        size = f"{n} {n} {i.size}"
    f = tmp_path / "sym.mtx"
    f.write_text(f"%%MatrixMarket matrix {fmt} real symmetric\n{size}\n" + "\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        m = read_matrix_market(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(m, expected)
    assert peak <= bound * m.nbytes


@pytest.mark.parametrize(
    "head", ["array real general\n50000 50000", "coordinate real general\n50000 50000 1"],
    ids=["array", "coordinate"],
)
def test_size_line_over_the_cap_raises_before_the_body(tmp_path, monkeypatch, head):
    # the body is malformed in either format, so reading it would raise MatrixMarketError
    monkeypatch.delenv("KRONLAP_DENSE_CAP", raising=False)
    f = tmp_path / "huge.mtx"
    f.write_text(f"%%MatrixMarket matrix {head}\nx\n")
    message = "^dense materialization of size 50000 exceeds the configured cap 4096$"
    with pytest.raises(SizeLimitError, match=message):
        read_matrix_market(f)


@pytest.mark.parametrize("size", ["100000000000000000000 0", "0 100000000000000000000"])
@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_size_line_with_a_huge_side_raises_before_the_body(tmp_path, monkeypatch, fmt, size):
    # rows * cols is 0, but numpy cannot build an array with a side of 10^20
    monkeypatch.delenv("KRONLAP_DENSE_CAP", raising=False)
    f = tmp_path / "huge.mtx"
    nnz = " 1\n1 1 1.0" if fmt == "coordinate" else ""
    f.write_text(f"%%MatrixMarket matrix {fmt} real general\n{size}{nnz}\n")
    message = "^dense materialization of size 10000000000 exceeds the configured cap 4096$"
    with pytest.raises(SizeLimitError, match=message):
        read_matrix_market(f)


@pytest.mark.parametrize(
    "shape, fits",
    [((4, 4), True), ((5, 5), False), ((16, 1), True), ((1, 16), True), ((17, 1), False),
     ((5, 4), False), ((0, 9), True), ((0, 0), True), ((0, 16), True), ((0, 17), False),
     ((17, 0), False)],
    ids=str,
)
def test_size_line_cap_is_on_rows_times_cols(tmp_path, monkeypatch, shape, fits):
    # cap 4 allows 4 x 4 = 16 entries in any shape, so a vector longer than the cap still reads;
    # each side is held to 16 too, so an empty matrix cannot declare a side past that
    monkeypatch.setenv("KRONLAP_DENSE_CAP", "4")
    m = np.arange(float(shape[0] * shape[1])).reshape(shape)
    for fmt in ("array", "coordinate"):
        f = tmp_path / f"m_{fmt}.mtx"
        write_matrix_market(f, m, fmt=fmt)
        if fits:
            np.testing.assert_array_equal(read_matrix_market(f), m)
        else:
            with pytest.raises(SizeLimitError, match="exceeds the configured cap 4$"):
                read_matrix_market(f)


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_write_memory_stays_near_matrix_size(tmp_path, fmt):
    # the text is written in pieces, so neither every value's text nor the whole is held
    m = np.random.default_rng(0).standard_normal((512, 512))
    tracemalloc.start()
    try:
        write_matrix_market(tmp_path / "big.mtx", m, fmt=fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * m.nbytes
    np.testing.assert_array_equal(read_matrix_market(tmp_path / "big.mtx"), m)


def test_error_line_from_a_pipe():
    # a pipe cannot seek, yet a malformed body is still reported at its line
    r, w = os.pipe()
    os.write(w, b"%%MatrixMarket matrix array real general\n2 1\n1.0\nx\n")
    os.close(w)
    with pytest.raises(MatrixMarketError, match="^line 4: cannot parse value 'x'$"):
        read_matrix_market(r)  # an int path is the pipe's file descriptor


def test_read_from_a_pipe():
    r, w = os.pipe()
    os.write(w, b"%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n% c\n2 1 3.5\n1 1 1\n")
    os.close(w)
    np.testing.assert_array_equal(read_matrix_market(r), [[1.0, 3.5], [3.5, 0.0]])


class TestErrors:
    def test_malformed_header(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text("%%NotMatrixMarket stuff\n1 1\n1.0\n")
        with pytest.raises(MatrixMarketError, match="line 1"):
            read_matrix_market(f)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("%%MatrixMarket vector array real general\n1\n1.0\n",
             r"^line 1: unsupported object 'vector' \(only 'matrix'\)$"),
            ("%%MatrixMarket matrix dense real general\n1 1\n1.0\n",
             r"^line 1: unsupported format 'dense' \(array or coordinate\)$"),
            ("%%MatrixMarket matrix array real hermitian\n1 1\n1.0\n",
             r"^line 1: unsupported symmetry 'hermitian' \(general or symmetric\)$"),
            ("%%MatrixMarket matrix array real general\n% c\n1 1 1\n1.0\n",
             "^line 3: size line must have 2 integers for array format, got '1 1 1'$"),
            ("%%MatrixMarket matrix array real general\n1 x\n1.0\n",
             "^line 2: bad size line '1 x'$"),
            ("%%MatrixMarket matrix coordinate real general\n2 -2 0\n",
             "^line 2: negative size in '2 -2 0'$"),
            # the rejected chunk is scanned past its comment and blank lines
            ("%%MatrixMarket matrix array real general\n2 2\n1.0\n% c\n\nx\n0.0\n",
             "^line 6: cannot parse value 'x'$"),
        ],
    )
    def test_rejected_file_names_its_line(self, tmp_path, text, message):
        f = tmp_path / "bad.mtx"
        f.write_text(text)
        with pytest.raises(MatrixMarketError, match=message):
            read_matrix_market(f)

    def test_unsupported_field(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text("%%MatrixMarket matrix array complex general\n1 1\n1.0 0.0\n")
        with pytest.raises(MatrixMarketError, match="complex"):
            read_matrix_market(f)

    def test_too_few_values(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n")
        with pytest.raises(MatrixMarketError, match="expected 4 values"):
            read_matrix_market(f)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("%%MatrixMarket matrix array real general\n2 2\n1.0\x0c2.0\n3.0\n% end\n\n",
             "^line 7: expected 4 values, found 3$"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n% end\n",
             "^line 4: expected 2 entries, found 1$"),
            # the last line has no line break, yet counts
            ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0",
             "^line 5: expected 4 values, found 3$"),
            ("%%MatrixMarket matrix array real general\n% only a comment\n\n",
             "^line 3: missing size line$"),
        ],
    )
    def test_short_file_names_its_last_line(self, tmp_path, text, message):
        f = tmp_path / "bad.mtx"
        f.write_text(text)
        with pytest.raises(MatrixMarketError, match=message):
            read_matrix_market(f)

    def test_too_many_array_values(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0 2.0\n3.0 4.0\n5.0\n")
        with pytest.raises(MatrixMarketError, match="^line 5: more than the expected 4 values$"):
            read_matrix_market(f)

    def test_too_many_entries(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n"
        )
        with pytest.raises(MatrixMarketError, match="line 4"):
            read_matrix_market(f)

    def test_index_out_of_range(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="line 3"):
            read_matrix_market(f)

    def test_non_finite_value(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text("%%MatrixMarket matrix array real general\n1 1\nnan\n")
        with pytest.raises(MatrixMarketError, match="line 3"):
            read_matrix_market(f)

    def test_unparseable_value(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text("%%MatrixMarket matrix array real general\n1 1\nbogus\n")
        with pytest.raises(MatrixMarketError, match="line 3"):
            read_matrix_market(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix_market(tmp_path / "nope.mtx")

    def test_write_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix_market(tmp_path / "x.mtx", np.array([[np.nan]]))

    def test_write_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="^unsupported output format 'csv'$"):
            write_matrix_market(tmp_path / "x.mtx", np.eye(2), fmt="csv")
        assert not (tmp_path / "x.mtx").exists()

    def test_no_partial_file_on_failed_write(self, tmp_path):
        target = tmp_path / "sub" / "x.mtx"
        with pytest.raises(OSError):
            write_matrix_market(target, np.eye(2))
        assert not target.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failed_write_keeps_the_target_and_no_temporary(self, tmp_path, existing):
        target = tmp_path / "x.mtx"
        if existing:
            target.write_text("old\n")

        def pieces():
            yield "new\n"
            raise RuntimeError("piece failed")

        with pytest.raises(RuntimeError, match="piece failed"):
            _atomic_write(target, pieces())
        assert sorted(tmp_path.iterdir()) == ([target] if existing else [])
        if existing:
            assert target.read_text() == "old\n"

    def test_symmetric_coordinate_not_square_names_size_line(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n% c\n2 3 1\n1 1 1.0\n"
        )
        with pytest.raises(MatrixMarketError, match="^line 3: symmetric matrix must be square$"):
            read_matrix_market(f)

    @pytest.mark.parametrize("kind", ["file", "pipe"])
    def test_bad_token_deep_in_large_array(self, tmp_path, kind):
        # 23 bytes a line put the bad one about 165 KiB into the body, past two 64 KiB chunks
        values = ["0.50000000000000000000"] * 10_000
        values[7321] = "bogus"  # data starts on line 3
        f = tmp_path / "big.mtx"
        f.write_text("%%MatrixMarket matrix array real general\n100 100\n" + "\n".join(values) + "\n")
        with _source(kind, f) as path:
            with pytest.raises(MatrixMarketError, match="^line 7324: cannot parse value 'bogus'$"):
                read_matrix_market(path)

    @pytest.mark.parametrize("kind", ["file", "pipe"])
    def test_bad_line_number_counts_every_line_break(self, tmp_path, kind):
        # lines end in any break str.splitlines knows, and blank and comment
        # lines count. Each run of 3000 lines, more than a 64 KiB chunk, ends
        # its lines in one way, and a run that holds no "\n" comes between two
        # that do, so some chunk holds that one kind of break alone.
        kinds = ["\x0b", "\n", "\x0c", "\r\n", "\x1c", "\r", "\x1d", "\n\n",
                 "\x1e", "\n% c\n", "\x85", "\n", "\u2028", "\r\n", "\u2029", "\n"]
        breaks = [kinds[k // 3000] for k in range(48_000)]
        head = "%%MatrixMarket matrix array real general\n480 100\n"
        body = "".join(f"0.{k:020d}{sep}" for k, sep in enumerate(breaks))
        f = tmp_path / "big.mtx"
        with open(f, "w", newline="") as fh:  # keep "\r\n" and "\r" as written
            fh.write(head + body + "bogus\n")
        line = len((head + body).splitlines()) + 1
        with _source(kind, f) as path:
            with pytest.raises(MatrixMarketError, match=f"^line {line}: cannot parse value 'bogus'$"):
                read_matrix_market(path)

    def test_coordinate_entry_with_extra_field(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 2.0 9\n1 2 3.0\n"
        )
        with pytest.raises(MatrixMarketError, match="^line 4: coordinate entry must be 'i j value'"):
            read_matrix_market(f)
