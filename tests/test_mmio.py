import numpy as np
import pytest

import kronlap.mmio as mmio
from kronlap import MatrixMarketError, read_matrix_market, write_matrix_market


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


def _read_both(path, monkeypatch):
    """Read once by the streamed pass and once line by line; assert each path ran."""

    def must_not_run(*args):
        raise AssertionError("line-by-line reader ran on a well-formed file")

    with monkeypatch.context() as mp:
        mp.setattr(mmio, "_read_array", must_not_run)
        fast = read_matrix_market(path)
    with monkeypatch.context() as mp:
        mp.setattr(mmio, "_fast_array", lambda *args: None)
        slow = read_matrix_market(path)
    return fast, slow


# a signed zero, a subnormal and values far apart in magnitude
_AWKWARD = [1e16, 1.0, -1e16, -0.0, 0.1, 3e-310, -2.5, 7.0]


class TestFastReaderMatchesLineByLine:
    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_array(self, tmp_path, monkeypatch, symmetry):
        rng = np.random.default_rng(1)
        n = 7
        count = n * n if symmetry == "general" else n * (n + 1) // 2
        values = [repr(v) for v in rng.choice(_AWKWARD, count).tolist()]
        # several values on one line and blank lines are both allowed
        body = [" ".join(values[k:k + 3]) for k in range(0, count, 3)]
        body.insert(2, "")
        f = tmp_path / "a.mtx"
        f.write_text(f"%%MatrixMarket matrix array real {symmetry}\n{n} {n}\n" + "\n".join(body))
        fast, slow = _read_both(f, monkeypatch)
        assert fast.tobytes() == slow.tobytes()
        assert fast.flags.c_contiguous and slow.flags.c_contiguous
        if symmetry == "symmetric":
            np.testing.assert_array_equal(fast, fast.T)


    def test_other_line_breaks(self, tmp_path, monkeypatch):
        # str.splitlines also breaks at form feed, NEL and the like, even right
        # after the size line; both readers must count lines the same way
        f = tmp_path / "a.mtx"
        f.write_text("%%MatrixMarket matrix array real general\n2 2\x0c1.0\x0c0.0\n0.0\x851.0\n")
        fast, slow = _read_both(f, monkeypatch)
        assert fast.tobytes() == slow.tobytes() == np.eye(2).tobytes()
        f.write_text("%%MatrixMarket matrix array real general\n2 2\x0c1.0\x0cx\n0.0\n1.0\n")
        with pytest.raises(MatrixMarketError, match="^line 4: cannot parse value 'x'$"):
            read_matrix_market(f)


class TestErrors:
    def test_malformed_header(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text("%%NotMatrixMarket stuff\n1 1\n1.0\n")
        with pytest.raises(MatrixMarketError, match="line 1"):
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

    def test_no_partial_file_on_failed_write(self, tmp_path):
        target = tmp_path / "sub" / "x.mtx"
        with pytest.raises(OSError):
            write_matrix_market(target, np.eye(2))
        assert not target.exists()

    def test_symmetric_coordinate_not_square_names_size_line(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n% c\n2 3 1\n1 1 1.0\n"
        )
        with pytest.raises(MatrixMarketError, match="^line 3: symmetric matrix must be square$"):
            read_matrix_market(f)

    def test_bad_token_deep_in_large_array(self, tmp_path):
        values = ["0.5"] * 10_000
        values[7321] = "bogus"  # data starts on line 3
        f = tmp_path / "big.mtx"
        f.write_text("%%MatrixMarket matrix array real general\n100 100\n" + "\n".join(values) + "\n")
        with pytest.raises(MatrixMarketError, match="^line 7324: cannot parse value 'bogus'$"):
            read_matrix_market(f)

    def test_coordinate_entry_with_extra_field(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 2.0 9\n1 2 3.0\n"
        )
        with pytest.raises(MatrixMarketError, match="^line 4: coordinate entry must be 'i j value'"):
            read_matrix_market(f)
