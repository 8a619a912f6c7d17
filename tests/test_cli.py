"""End-to-end tests of the command line through real subprocesses."""

import subprocess
import sys

import numpy as np
import pytest

from meshdiff import assemble, uniform
from meshdiff.fileio import read_matrix, read_mesh, read_values, write_mesh, write_values


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "meshdiff", *map(str, args)],
        capture_output=True,
        text=True,
    )


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


def test_converge_whole_mesh_stencil(tmp_path):
    out = tmp_path / "report.txt"
    res = run_cli("converge", "--function", "exp", "--kind", "chebyshev",
                  "--stencil", "N", "--order", 1, "--resolutions", "6,10,14",
                  "--out", out)
    assert res.returncode == 0, res.stderr


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
