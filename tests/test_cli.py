import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kronlap.cli
from kronlap import read_matrix_market, write_matrix_market
from kronlap.cli import main
from kronlap.kron_core import embed
from kronlap.poisson import poisson1d_stencil

from conftest import ADJ6_X1, ADJ6_X2, SPARSE30_ALPHA, SPARSE30_X1, SPARSE30_X2, SPARSE30_X3

REPORT_KEYS = {
    "dims",
    "alpha",
    "factors",
    "residual_fro",
    "relative_residual",
    "is_member",
    "method",
    "sweeps_used",
}


SRC = Path(__file__).resolve().parents[1] / "src"

# gen and decompose never factor a matrix, so they must not load scipy; the
# solve afterwards must, or the first check would pass on a broken probe
COLD_START = """
import sys
import kronlap, kronlap.cli

def run(*argv):
    assert kronlap.cli.main(list(argv)) == 0, argv

run("gen", "--kind", "poisson", "--n", "4", "--output", "p")
run("decompose", "--input", "p_A.mtx", "--dims", "4,4,4", "--output", "report.json")
assert "scipy" not in sys.modules
run("solve", "--matrix", "p_A.mtx", "--rhs", "p_b.mtx", "--dims", "4,4,4", "--output", "x.mtx")
assert "scipy.linalg" in sys.modules
"""


def run(*argv):
    return main(list(argv))


def test_cold_start_loads_scipy_only_to_solve(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", COLD_START], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_malformed_body_on_stdin_names_its_line(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = ["decompose", "--input", "/dev/stdin", "--dims", "2", "--output", "r.json"]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, kronlap.cli; sys.exit(kronlap.cli.main(sys.argv[1:]))", *argv],
        input="%%MatrixMarket matrix array real general\n2 2\n1.0\nx\n0.0\n1.0\n",
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 1
    assert out.stderr == "error: line 4: cannot parse value 'x'\n"
    assert not (tmp_path / "r.json").exists()


class TestDecompose:
    def test_adjacency(self, tmp_path, adjacency6):
        src = tmp_path / "a.mtx"
        out = tmp_path / "report.json"
        write_matrix_market(src, adjacency6)
        code = run("decompose", "--input", str(src), "--dims", "2,3", "--output", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report.keys()) == REPORT_KEYS
        assert report["alpha"] == 0.0
        np.testing.assert_array_equal(np.array(report["factors"][0]), ADJ6_X1)
        np.testing.assert_array_equal(np.array(report["factors"][1]), ADJ6_X2)
        assert report["relative_residual"] <= 1e-12
        assert report["is_member"] is True
        assert report["method"] == "closed_form"
        assert report["sweeps_used"] == 0

    def test_sparse30(self, tmp_path, sparse30):
        src = tmp_path / "a.mtx"
        out = tmp_path / "report.json"
        write_matrix_market(src, sparse30, fmt="coordinate")
        code = run("decompose", "--input", str(src), "--dims", "2,3,5", "--output", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["alpha"] == pytest.approx(SPARSE30_ALPHA, abs=1e-12)
        np.testing.assert_allclose(np.array(report["factors"][0]), SPARSE30_X1, atol=1e-12)
        np.testing.assert_allclose(np.array(report["factors"][1]), SPARSE30_X2, atol=1e-12)
        np.testing.assert_allclose(np.array(report["factors"][2]), SPARSE30_X3, atol=1e-12)

    @pytest.mark.parametrize("option", [["--method", "iterative"], ["--iter-max", "3"]])
    def test_removed_sweep_options_exit_2(self, tmp_path, adjacency6, option):
        src = tmp_path / "a.mtx"
        out = tmp_path / "r.json"
        write_matrix_market(src, adjacency6)
        code = run("decompose", "--input", str(src), "--dims", "2,3", *option, "--output", str(out))
        assert code == 2
        assert not out.exists()

    def test_membership_threshold_default_and_flag(self, tmp_path, adjacency6):
        a = adjacency6.copy()
        a[0, 5] += 1e-12  # off every mode's support: relative residual about 2e-13
        src = tmp_path / "a.mtx"
        out = tmp_path / "r.json"
        write_matrix_market(src, a)
        argv = ["decompose", "--input", str(src), "--dims", "2,3", "--output", str(out)]
        assert run(*argv) == 0  # laplacian_distance's default threshold
        assert json.loads(out.read_text())["is_member"] is True
        assert run(*argv, "--tol", "1e-20") == 0
        assert json.loads(out.read_text())["is_member"] is False

    @pytest.mark.parametrize("tol", ["0", "-1.0", "nan"])
    def test_bad_tol_exit_2(self, tmp_path, adjacency6, tol, capsys):
        src = tmp_path / "a.mtx"
        out = tmp_path / "r.json"
        write_matrix_market(src, adjacency6)
        code = run("decompose", "--input", str(src), "--dims", "2,3", "--tol", tol, "--output", str(out))
        assert code == 2
        assert "tol must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_dims_mismatch_exit_2(self, tmp_path, adjacency6, capsys):
        src = tmp_path / "a.mtx"
        write_matrix_market(src, adjacency6)
        code = run("decompose", "--input", str(src), "--dims", "4,2",
                   "--output", str(tmp_path / "r.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "6x6" in err and "8" in err
        assert not (tmp_path / "r.json").exists()

    def test_missing_file_exit_1(self, tmp_path):
        code = run("decompose", "--input", str(tmp_path / "ghost.mtx"), "--dims", "2,3",
                   "--output", str(tmp_path / "r.json"))
        assert code == 1

    def test_malformed_file_exit_1(self, tmp_path):
        src = tmp_path / "bad.mtx"
        src.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n")
        code = run("decompose", "--input", str(src), "--dims", "2,3",
                   "--output", str(tmp_path / "r.json"))
        assert code == 1

    def test_dense_cap_env(self, tmp_path, adjacency6, monkeypatch):
        monkeypatch.setenv("KRONLAP_DENSE_CAP", "4")
        src = tmp_path / "a.mtx"
        write_matrix_market(src, adjacency6)
        code = run("decompose", "--input", str(src), "--dims", "2,3",
                   "--output", str(tmp_path / "r.json"))
        assert code == 2


class TestSolve:
    def test_identity_system(self, tmp_path):
        a = tmp_path / "a.mtx"
        b = tmp_path / "b.mtx"
        x = tmp_path / "x.mtx"
        write_matrix_market(a, np.eye(6))
        rhs = np.kron([1.0, 2.0], [1.0, -1.0, 0.5])
        write_matrix_market(b, rhs.reshape(-1, 1))
        code = run("solve", "--matrix", str(a), "--rhs", str(b), "--dims", "2,3",
                   "--output", str(x))
        assert code == 0
        solution = read_matrix_market(x).reshape(-1)
        np.testing.assert_allclose(solution, rhs, atol=1e-10)
        sidecar = json.loads((tmp_path / "x.mtx.json").read_text())
        assert sidecar["method"] == "grou_laplacian"
        assert sidecar["terms_used"] == 1
        assert sidecar["stop_reason"] == "residual_below_eps"

    def test_poisson_files_match_direct(self, tmp_path):
        prefix = tmp_path / "p"
        assert run("gen", "--kind", "poisson", "--n", "4", "--output", str(prefix)) == 0
        x = tmp_path / "x.mtx"
        code = run(
            "solve", "--matrix", f"{prefix}_A.mtx", "--rhs", f"{prefix}_b.mtx",
            "--dims", "4,4,4", "--output", str(x),
        )
        assert code == 0
        from kronlap import direct_solve

        a = read_matrix_market(f"{prefix}_A.mtx")
        b = read_matrix_market(f"{prefix}_b.mtx").reshape(-1)
        x_direct = direct_solve(a, b)
        x_grou = read_matrix_market(x).reshape(-1)
        rel = np.max(np.abs(x_grou - x_direct)) / np.max(np.abs(x_direct))
        assert rel <= 1e-4
        sidecar = json.loads((tmp_path / "x.mtx.json").read_text())
        assert sidecar["method"] == "grou_laplacian"

    def test_direct_method_on_poisson_files(self, tmp_path):
        prefix = tmp_path / "p"
        assert run("gen", "--kind", "poisson", "--n", "4", "--output", str(prefix)) == 0
        x = tmp_path / "x.mtx"
        code = run(
            "solve", "--matrix", f"{prefix}_A.mtx", "--rhs", f"{prefix}_b.mtx",
            "--dims", "4,4,4", "--method", "direct", "--output", str(x),
        )
        assert code == 0
        a = read_matrix_market(f"{prefix}_A.mtx")
        b = read_matrix_market(f"{prefix}_b.mtx").reshape(-1)
        want = np.linalg.solve(a, b)
        got = read_matrix_market(x).reshape(-1)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        sidecar = json.loads((tmp_path / "x.mtx.json").read_text())
        assert (sidecar["method"], sidecar["stop_reason"], sidecar["terms_used"]) == ("direct", "direct", 0)
        history = sidecar["residual_history"]
        assert len(history) == 2
        assert sidecar["relative_residual"] == history[1] / history[0]

    def test_non_member_uses_dense_path(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(6, 6)) + 6 * np.eye(6)
        am = tmp_path / "a.mtx"
        bm = tmp_path / "b.mtx"
        write_matrix_market(am, a)
        write_matrix_market(bm, np.ones((6, 1)))
        code = run("solve", "--matrix", str(am), "--rhs", str(bm), "--dims", "2,3",
                   "--output", str(tmp_path / "x.mtx"))
        assert code == 0
        sidecar = json.loads((tmp_path / "x.mtx.json").read_text())
        assert sidecar["method"] == "grou_dense"

    @pytest.mark.parametrize("flags, passed", [
        ([], {}),
        (["--eps", "1e-3", "--seed", "7"], {"eps": 1e-3, "seed": 7}),
        (["--eps", "1e-6", "--tol", "2.22e-6", "--rank-max", "3000", "--als-iter-max", "15",
          "--seed", "0"], {"eps": 1e-6, "tol": 2.22e-6, "rank_max": 3000, "als_iter_max": 15, "seed": 0}),
    ], ids=["none", "some", "all"])
    def test_grou_gets_only_the_flags_given(self, tmp_path, monkeypatch, flags, passed):
        seen = []
        real = kronlap.cli.grou

        def spy(op, b, **kwargs):
            seen.append(kwargs)
            return real(op, b, **kwargs)

        monkeypatch.setattr(kronlap.cli, "grou", spy)
        am = tmp_path / "a.mtx"
        bm = tmp_path / "b.mtx"
        write_matrix_market(am, np.eye(6))
        write_matrix_market(bm, np.ones((6, 1)))
        code = run("solve", "--matrix", str(am), "--rhs", str(bm), "--dims", "2,3", *flags,
                   "--output", str(tmp_path / "x.mtx"))
        assert code == 0
        assert seen == [passed]
        assert all(type(v) is type(passed[k]) for k, v in seen[0].items())

    def test_singular_direct_exit_3(self, tmp_path, capsys):
        am = tmp_path / "a.mtx"
        bm = tmp_path / "b.mtx"
        write_matrix_market(am, np.zeros((6, 6)))
        write_matrix_market(bm, np.ones((6, 1)))
        code = run("solve", "--matrix", str(am), "--rhs", str(bm), "--dims", "2,3",
                   "--method", "direct", "--output", str(tmp_path / "x.mtx"))
        assert code == 3
        assert "pivot" in capsys.readouterr().err

    def test_rhs_length_mismatch_exit_2(self, tmp_path):
        am = tmp_path / "a.mtx"
        bm = tmp_path / "b.mtx"
        write_matrix_market(am, np.eye(6))
        write_matrix_market(bm, np.ones((5, 1)))
        code = run("solve", "--matrix", str(am), "--rhs", str(bm), "--dims", "2,3",
                   "--output", str(tmp_path / "x.mtx"))
        assert code == 2

    def test_rhs_not_a_vector_exit_2(self, tmp_path, capsys):
        am = tmp_path / "a.mtx"
        bm = tmp_path / "b.mtx"
        write_matrix_market(am, np.eye(4))
        write_matrix_market(bm, np.eye(2))
        code = run("solve", "--matrix", str(am), "--rhs", str(bm), "--dims", "2,2",
                   "--output", str(tmp_path / "x.mtx"))
        assert code == 2
        assert "must hold a vector" in capsys.readouterr().err
        assert not (tmp_path / "x.mtx").exists()


class TestGen:
    def test_laplacian_deterministic(self, tmp_path):
        f1 = tmp_path / "a.mtx"
        f2 = tmp_path / "b.mtx"
        assert run("gen", "--kind", "laplacian", "--dims", "2,3", "--seed", "0",
                   "--output", str(f1)) == 0
        assert run("gen", "--kind", "laplacian", "--dims", "2,3", "--seed", "0",
                   "--output", str(f2)) == 0
        assert f1.read_text() == f2.read_text()

    def test_laplacian_is_member(self, tmp_path):
        f = tmp_path / "a.mtx"
        out = tmp_path / "r.json"
        assert run("gen", "--kind", "laplacian", "--dims", "2,3", "--seed", "1",
                   "--output", str(f)) == 0
        assert run("decompose", "--input", str(f), "--dims", "2,3", "--output", str(out)) == 0
        assert json.loads(out.read_text())["is_member"] is True

    def test_poisson_operator_is_stencil_sum(self, tmp_path):
        prefix = tmp_path / "p"
        assert run("gen", "--kind", "poisson", "--n", "3", "--output", str(prefix)) == 0
        a = read_matrix_market(f"{prefix}_A.mtx")
        st = poisson1d_stencil(3, 0.25)
        expected = sum(embed(i, st, (3, 3, 3)) for i in range(3))
        np.testing.assert_allclose(a, expected, atol=1e-12)

    def test_dense_kind(self, tmp_path):
        f = tmp_path / "d.mtx"
        assert run("gen", "--kind", "dense", "--dims", "2,3", "--seed", "2",
                   "--output", str(f)) == 0
        m = read_matrix_market(f)
        assert m.shape == (6, 6)
        assert np.all((m >= 0.0) & (m < 1.0))

    @pytest.mark.parametrize("kind", ["dense", "laplacian"])
    def test_dense_cap_env(self, kind, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KRONLAP_DENSE_CAP", "4")
        f = tmp_path / "d.mtx"
        assert run("gen", "--kind", kind, "--dims", "2,3", "--output", str(f)) == 2
        assert "size 6 exceeds the configured cap 4" in capsys.readouterr().err
        assert not f.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    @pytest.mark.parametrize("command", ["decompose", "gen"])
    def test_bad_dense_cap_env_exit_2(self, value, command, tmp_path, adjacency6, monkeypatch, capsys):
        src = tmp_path / "a.mtx"
        write_matrix_market(src, adjacency6)
        monkeypatch.setenv("KRONLAP_DENSE_CAP", value)
        out = tmp_path / "out"
        argv = (["decompose", "--input", str(src)] if command == "decompose"
                else ["gen", "--kind", "dense"])
        assert run(*argv, "--dims", "2,3", "--output", str(out)) == 2
        assert f"KRONLAP_DENSE_CAP must be a positive integer, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_requires_dims(self, tmp_path):
        assert run("gen", "--kind", "dense", "--output", str(tmp_path / "d.mtx")) == 2

    def test_gen_poisson_requires_n(self, tmp_path):
        assert run("gen", "--kind", "poisson", "--output", str(tmp_path / "p")) == 2


class TestArgs:
    def test_bad_dims_string(self, tmp_path):
        assert run("decompose", "--input", "x", "--dims", "2,three",
                   "--output", "r.json") == 2

    # `bench` gets a complete argument list, so only an unknown subcommand can reject it
    @pytest.mark.parametrize("argv", [["frobnicate"], ["bench", "poisson", "--sizes", "4"]],
                             ids=["frobnicate", "bench"])
    def test_unknown_command(self, argv, tmp_path):
        assert run(*argv, "--output", str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()
