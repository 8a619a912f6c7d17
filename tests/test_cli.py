"""End-to-end tests of the command line through real subprocesses."""

import subprocess
import sys

import numpy as np
import pytest

from meshdiff import assemble, chebyshev_gauss_lobatto, cli, uniform
from meshdiff.cli import main
from meshdiff.fileio import read_matrix, read_mesh, read_values, write_mesh, write_values


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "meshdiff", *map(str, args)],
        capture_output=True,
        text=True,
    )


def run_main(capsys, *args):
    """(exit code, stderr) of cli.main run in this process; cheaper than run_cli."""
    try:
        code = main([str(a) for a in args])
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_mesh_writes_readable_file(tmp_path):
    out = tmp_path / "mesh.txt"
    res = run_cli("mesh", "--kind", "chebyshev", "--n", 9, "--a", -1, "--b", 1, "--out", out)
    assert res.returncode == 0, res.stderr
    assert "N=9" in res.stdout
    msh = read_mesh(out)
    assert msh.n == 9 and msh.points[0] == -1.0


def test_mesh_round_trip_through_cli_is_bit_exact(tmp_path):
    out = tmp_path / "mesh.txt"
    run_cli("mesh", "--kind", "legendre", "--n", 12, "--a", 0.1, "--b", 0.7, "--out", out)
    from meshdiff import legendre_gauss_lobatto

    ref = legendre_gauss_lobatto(12, 0.1, 0.7)
    assert np.array_equal(read_mesh(out).points, ref.points)


def test_assemble_writes_one_file_per_order(tmp_path):
    mesh_file = tmp_path / "mesh.txt"
    write_mesh(mesh_file, uniform(10, 0.0, 1.0))
    prefix = tmp_path / "op"
    res = run_cli("assemble", "--mesh", mesh_file, "--stencil", 5, "--orders", 2,
                  "--out-prefix", prefix)
    assert res.returncode == 0, res.stderr
    assert "nnz=50" in res.stdout
    ref = assemble(uniform(10, 0.0, 1.0), 5, 2)
    for s in (1, 2):
        back = read_matrix(f"{prefix}_D{s}.mtx")
        assert np.array_equal(back.data, ref.matrix(s).data)
        assert np.array_equal(back.col_start, ref.matrix(s).col_start)
        assert back.order == s and back.stencil_width == 5


def test_apply_differentiates_through_files(tmp_path):
    mesh_file = tmp_path / "mesh.txt"
    write_mesh(mesh_file, uniform(3, 0.0, 2.0))
    prefix = tmp_path / "op"
    run_cli("assemble", "--mesh", mesh_file, "--stencil", 3, "--orders", 1,
            "--out-prefix", prefix)
    samples = tmp_path / "f.txt"
    write_values(samples, [0.0, 1.0, 4.0])
    out = tmp_path / "df.txt"
    res = run_cli("apply", "--matrix", f"{prefix}_D1.mtx", "--samples", samples,
                  "--out", out)
    assert res.returncode == 0, res.stderr
    assert read_values(out).tolist() == [0.0, 2.0, 4.0]


def test_converge_reports_second_order(tmp_path):
    out = tmp_path / "report.txt"
    res = run_cli("converge", "--function", "sin", "--kind", "uniform",
                  "--stencil", 3, "--order", 1, "--resolutions", "17,33,65,129",
                  "--out", out)
    assert res.returncode == 0, res.stderr
    text = out.read_text()
    assert "fitted order" in text
    fitted = float(text.rsplit(":", 1)[1])
    assert 1.7 <= fitted <= 2.3
    csv = (tmp_path / "report.txt.csv").read_text().splitlines()
    assert csv[0] == "n,h,max_error,fitted_order"
    assert len(csv) == 5


def test_assemble_whole_mesh_stencil(tmp_path):
    msh = chebyshev_gauss_lobatto(9, -1.0, 1.0)
    mesh_file = tmp_path / "mesh.txt"
    write_mesh(mesh_file, msh)
    res = run_cli("assemble", "--mesh", mesh_file, "--stencil", "N", "--orders", 1,
                  "--out-prefix", tmp_path / "op")
    assert res.returncode == 0, res.stderr
    back = read_matrix(tmp_path / "op_D1.mtx")
    ref = assemble(msh, 9, 1).matrix(1)
    assert np.array_equal(back.data, ref.data)
    assert np.array_equal(back.col_start, ref.col_start)
    assert back.stencil_width == 9


def test_converge_whole_mesh_stencil(tmp_path):
    out = tmp_path / "report.txt"
    res = run_cli("converge", "--function", "exp", "--kind", "chebyshev",
                  "--stencil", "N", "--order", 1, "--resolutions", "6,10,14",
                  "--out", out)
    assert res.returncode == 0, res.stderr


def test_converge_fits_only_above_rounding_floor(tmp_path, capsys):
    # errors from N = 17 on are rounding noise; a fit through them read 9.297
    out = tmp_path / "report.txt"
    code, err = run_main(capsys, "converge", "--function", "exp", "--kind", "chebyshev",
                         "--stencil", "N", "--resolutions", "5,9,17,33,65", "--out", out)
    assert code == 0, err
    text = out.read_text()
    assert "9.297" not in text
    lines = text.splitlines()
    assert lines[-2] == "fit over N = 5..9"
    assert lines[-1].startswith("fitted order: ")


def test_converge_flags_saturation(tmp_path):
    out = tmp_path / "report.txt"
    res = run_cli("converge", "--function", "cubic", "--kind", "uniform",
                  "--stencil", 5, "--order", 1, "--resolutions", "9,17",
                  "--out", out)
    assert res.returncode == 0, res.stderr
    assert "DegenerateFit" in out.read_text()
    csv = (tmp_path / "report.txt.csv").read_text().splitlines()
    assert csv[1].endswith(",")


# --- exit-code contract -----------------------------------------------------


def one_line(stream: str) -> bool:
    return len(stream.strip().splitlines()) == 1


def test_mesh_too_few_points_exits_2(tmp_path):
    res = run_cli("mesh", "--kind", "uniform", "--n", 1, "--a", 0, "--b", 1,
                  "--out", tmp_path / "m.txt")
    assert res.returncode == 2
    assert "TooFew" in res.stderr and one_line(res.stderr)


def test_assemble_even_stencil_exits_3(tmp_path):
    mesh_file = tmp_path / "mesh.txt"
    write_mesh(mesh_file, uniform(10, 0.0, 1.0))
    res = run_cli("assemble", "--mesh", mesh_file, "--stencil", 4, "--orders", 1,
                  "--out-prefix", tmp_path / "op")
    assert res.returncode == 3
    assert "EvenStencil" in res.stderr and one_line(res.stderr)


def test_assemble_wide_stencil_exits_3(tmp_path):
    mesh_file = tmp_path / "mesh.txt"
    write_mesh(mesh_file, uniform(10, 0.0, 1.0))
    res = run_cli("assemble", "--mesh", mesh_file, "--stencil", 12, "--orders", 1,
                  "--out-prefix", tmp_path / "op")
    assert res.returncode == 3
    assert "StencilTooWide" in res.stderr and one_line(res.stderr)


def test_apply_wrong_length_exits_3(tmp_path):
    mesh_file = tmp_path / "mesh.txt"
    write_mesh(mesh_file, uniform(10, 0.0, 1.0))
    prefix = tmp_path / "op"
    run_cli("assemble", "--mesh", mesh_file, "--stencil", 5, "--orders", 1,
            "--out-prefix", prefix)
    samples = tmp_path / "f.txt"
    write_values(samples, np.ones(7))
    res = run_cli("apply", "--matrix", f"{prefix}_D1.mtx", "--samples", samples,
                  "--out", tmp_path / "g.txt")
    assert res.returncode == 3
    assert "DimensionMismatch" in res.stderr and one_line(res.stderr)


def test_empty_interval_exits_2(tmp_path):
    res = run_cli("mesh", "--kind", "uniform", "--n", 5, "--a", 2, "--b", 1,
                  "--out", tmp_path / "m.txt")
    assert res.returncode == 2
    assert "EmptyInterval" in res.stderr and one_line(res.stderr)


def test_corrupt_mesh_file_exits_2(tmp_path):
    mesh_file = tmp_path / "mesh.txt"
    mesh_file.write_text("0.0\nbogus\n")
    res = run_cli("assemble", "--mesh", mesh_file, "--stencil", 3, "--orders", 1,
                  "--out-prefix", tmp_path / "op")
    assert res.returncode == 2
    assert "FileFormatError" in res.stderr and one_line(res.stderr)


def test_matrix_width_contradicting_metadata_exits_2(tmp_path, capsys):
    matrix = tmp_path / "d1.mtx"
    matrix.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% order=1 stencil_width=5\n"
        "2 2 4\n1 1 1.0\n1 2 2.0\n2 1 3.0\n2 2 4.0\n"
    )
    samples = tmp_path / "f.txt"
    write_values(samples, [0.0, 1.0])
    code, err = run_main(capsys, "apply", "--matrix", matrix, "--samples", samples,
                         "--out", tmp_path / "g.txt")
    assert code == 2
    assert "FileFormatError" in err and "d1.mtx" in err and one_line(err)
    assert not (tmp_path / "g.txt").exists()


def test_missing_file_exits_2(tmp_path):
    res = run_cli("assemble", "--mesh", tmp_path / "nope.txt", "--stencil", 3,
                  "--orders", 1, "--out-prefix", tmp_path / "op")
    assert res.returncode == 2
    assert one_line(res.stderr)


def test_unknown_flag_exits_2():
    res = run_cli("mesh", "--bogus")
    assert res.returncode == 2
    assert res.stderr.strip() != ""


def test_order_too_high_exits_3(tmp_path):
    mesh_file = tmp_path / "mesh.txt"
    write_mesh(mesh_file, uniform(10, 0.0, 1.0))
    res = run_cli("assemble", "--mesh", mesh_file, "--stencil", 3, "--orders", 3,
                  "--out-prefix", tmp_path / "op")
    assert res.returncode == 3
    assert "OrderTooHigh" in res.stderr and one_line(res.stderr)

def test_non_finite_weights_exit_3_without_output(tmp_path):
    mesh_file = tmp_path / "mesh.txt"
    # D2 entries near 1/h**2 = 6.4e321 overflow to inf
    write_mesh(mesh_file, uniform(9, 0.0, 1e-160))
    res = run_cli("assemble", "--mesh", mesh_file, "--stencil", 3, "--orders", 2,
                  "--out-prefix", tmp_path / "op")
    assert res.returncode == 3
    assert "InvalidStencil" in res.stderr and one_line(res.stderr)
    assert not list(tmp_path.glob("*.mtx"))


def test_zero_orders_exits_2(tmp_path):
    mesh_file = tmp_path / "mesh.txt"
    write_mesh(mesh_file, uniform(10, 0.0, 1.0))
    res = run_cli("assemble", "--mesh", mesh_file, "--stencil", 3, "--orders", 0,
                  "--out-prefix", tmp_path / "op")
    assert res.returncode == 2
    assert "--orders" in res.stderr and one_line(res.stderr)
    assert not list(tmp_path.glob("*.mtx"))


def test_decreasing_resolutions_exit_2(tmp_path):
    out = tmp_path / "report.txt"
    res = run_cli("converge", "--function", "sin", "--kind", "uniform",
                  "--stencil", 3, "--resolutions", "33,17", "--out", out)
    assert res.returncode == 2
    assert "--resolutions" in res.stderr and one_line(res.stderr)
    assert not out.exists()


def test_assemble_rejects_bad_stencil_token(tmp_path, capsys):
    mesh_file = tmp_path / "mesh.txt"
    write_mesh(mesh_file, uniform(10, 0.0, 1.0))
    code, err = run_main(capsys, "assemble", "--mesh", mesh_file, "--stencil", "x",
                         "--orders", 1, "--out-prefix", tmp_path / "op")
    assert code == 2
    assert "--stencil" in err and one_line(err)


@pytest.mark.parametrize("flag", ["--mesh", "--matrix"])
def test_non_utf8_input_exits_2(tmp_path, capsys, flag):
    bad = tmp_path / "bin.txt"
    bad.write_bytes(b"\xff\xfe1\x000\x00\n")
    mesh_file = tmp_path / "mesh.txt"
    write_mesh(mesh_file, uniform(3, 0.0, 1.0))
    samples = tmp_path / "f.txt"
    write_values(samples, [0.0, 1.0, 2.0])
    if flag == "--mesh":
        args = ["assemble", "--mesh", bad, "--stencil", 3, "--orders", 1,
                "--out-prefix", tmp_path / "op"]
    else:
        args = ["apply", "--matrix", bad, "--samples", samples, "--out", tmp_path / "g.txt"]
    code, err = run_main(capsys, *args)
    assert code == 2
    assert "FileFormatError" in err and "bin.txt" in err and one_line(err)


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's MemoryError subclass, whose name is private."""


@pytest.mark.parametrize(
    "exc",
    [
        _ArrayMemoryError(
            "Unable to allocate 22.4 GiB for an array with shape (3000000000,) "
            "and data type float64"
        ),
        MemoryError(),
    ],
)
def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch, exc):
    def exhausted(n, a, b):
        raise exc

    monkeypatch.setitem(cli._GENERATORS, "uniform", exhausted)
    out = tmp_path / "mesh.txt"
    code, err = run_main(capsys, "mesh", "--kind", "uniform", "--n", 3_000_000_000,
                         "--a", 0, "--b", 1, "--out", out)
    assert code == 3
    assert err.startswith("meshdiff: MemoryError: ") and one_line(err)
    assert "Traceback" not in err and not out.exists()
