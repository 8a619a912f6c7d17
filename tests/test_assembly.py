"""Tests for matrix assembly, banded storage, apply, and the Kronecker lift."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse

import meshdiff
from meshdiff import (
    DimensionMismatch,
    EvenStencil,
    InvalidStencil,
    NonSquare,
    OrderTooHigh,
    SparseBandMatrix,
    StencilTooWide,
    apply,
    assemble,
    chebyshev_gauss_lobatto,
    kron_lift,
    legendre_gauss_lobatto,
    oracle_rows,
    stencil_rows,
    uniform,
    validate,
)
from meshdiff.stencil import Stencil
from conftest import reference_rows

EPS = np.finfo(float).eps


# --- frozen small examples ------------------------------------------------------


def test_assemble_uniform_three_wide():
    dset = assemble(uniform(5, 0.0, 4.0), 3, 2)
    d1 = dset.matrix(1)
    d2 = dset.matrix(2)
    assert d1.col_start.tolist() == [0, 0, 1, 2, 2]
    assert d1.data.tolist() == [
        [-1.5, 2.0, -0.5],
        [-0.5, 0.0, 0.5],
        [-0.5, 0.0, 0.5],
        [-0.5, 0.0, 0.5],
        [0.5, -2.0, 1.5],
    ]
    assert d2.data.tolist() == [[1.0, -2.0, 1.0]] * 5
    assert d1.order == 1 and d2.order == 2
    assert d1.stencil_width == 3


def test_assemble_accepts_raw_coordinates():
    dset = assemble([0.0, 1.0, 2.0], 3, 1)
    assert dset.mesh.n == 3
    assert dset.matrix(1).n_rows == 3


def test_assemble_two_point_full_width():
    d1 = assemble(uniform(2, 0.0, 2.0), 2, 1).matrix(1)
    assert d1.toarray().tolist() == [[-0.5, 0.5], [-0.5, 0.5]]


def test_apply_differentiates_quadratic_exactly():
    d1 = assemble(uniform(3, 0.0, 2.0), 3, 1).matrix(1)
    out = apply(d1, [0.0, 1.0, 4.0])
    assert out.tolist() == [0.0, 2.0, 4.0]


# --- window bookkeeping ---------------------------------------------------------


def test_window_map_three_cases():
    n, m = 10, 5
    d1 = assemble(uniform(n, 0.0, 1.0), m, 1).matrix(1)
    assert d1.col_start.tolist() == [0, 0, 0, 1, 2, 3, 4, 5, 5, 5]
    first = d1.col_start
    last = first + d1.width - 1
    assert d1.width == m
    assert np.all((0 <= first) & (last < n))
    assert np.all((first <= np.arange(n)) & (np.arange(n) <= last))


def test_window_rows_match_direct_stencil_calls():
    msh = uniform(10, 0.0, 1.0)
    d2 = assemble(msh, 5, 2).matrix(2)
    for i in range(10):
        start = int(d2.col_start[i])
        window = msh.points[start : start + 5]
        ref = stencil_rows(Stencil(window, i - start), 2).row(2)
        assert np.array_equal(d2.data[i], ref)


def test_last_interior_row_equals_right_boundary_map():
    """At the crossover row the centered and right-edge maps coincide."""
    n, m = 10, 5
    c = (m - 1) // 2
    i = n - 1 - c
    assert i - c == n - m
    assert i - (n - m) == c
    d1 = assemble(uniform(n, 0.0, 1.0), m, 1).matrix(1)
    assert d1.col_start[i] == n - m


def test_stored_zeros_are_kept():
    d1 = assemble(uniform(8, 0.0, 7.0), 3, 1).matrix(1)
    assert d1.nnz == 8 * 3
    assert d1.data[3][1] == 0.0
    csr = d1.to_csr()
    assert csr.nnz == 24
    assert np.array_equal(csr.toarray(), d1.toarray())


def test_full_width_equals_mesh_size():
    msh = chebyshev_gauss_lobatto(6, -1.0, 1.0)
    d1 = assemble(msh, 6, 1).matrix(1)
    assert d1.col_start.tolist() == [0] * 6
    assert d1.width == 6


# --- error paths ----------------------------------------------------------------


def test_assemble_rejects_wide_stencil():
    with pytest.raises(StencilTooWide):
        assemble(uniform(10, 0.0, 1.0), 12, 1)


def test_assemble_rejects_even_partial_stencil():
    with pytest.raises(EvenStencil):
        assemble(uniform(10, 0.0, 1.0), 4, 1)


def test_assemble_allows_even_full_width():
    dset = assemble(uniform(4, 0.0, 1.0), 4, 3)
    assert dset.matrix(3).width == 4


def test_assemble_rejects_high_order():
    with pytest.raises(OrderTooHigh):
        assemble(uniform(10, 0.0, 1.0), 3, 3)


def test_assemble_rejects_tiny_stencil():
    with pytest.raises(InvalidStencil):
        assemble(uniform(10, 0.0, 1.0), 1, 1)


def test_assemble_rejects_zero_order():
    with pytest.raises(ValueError):
        assemble(uniform(10, 0.0, 1.0), 3, 0)


@pytest.mark.parametrize("n, m, s", [(11, 5, 3), (8, 8, 2)])
def test_counts_are_read_from_the_matrices(n, m, s):
    """Sliding and whole-mesh sets: width and order count come from the operators."""
    dset = assemble(uniform(n, 0.0, 1.0), m, s)
    assert [f.name for f in dataclasses.fields(dset)] == ["matrices", "mesh"]
    assert dset.max_order == len(dset.matrices) == s
    assert dset.stencil_width == m
    with pytest.raises(ValueError):
        dset.matrix(s + 1)


def test_apply_rejects_wrong_length():
    d1 = assemble(uniform(5, 0.0, 1.0), 3, 1).matrix(1)
    with pytest.raises(DimensionMismatch):
        apply(d1, np.ones(4))
    with pytest.raises(DimensionMismatch):
        apply(d1, np.ones((5, 1)))


# --- numerical equivalences -----------------------------------------------------


@pytest.mark.parametrize("m", [3, 5, 7])
def test_uniform_rows_match_oracle(m):
    """Banded assembly reproduces the exact finite-difference weights."""
    msh = uniform(17, 0.0, 1.0)
    smax = min(3, m - 1)
    dset = assemble(msh, m, smax)
    for s in range(1, smax + 1):
        mat = dset.matrix(s)
        for i in range(msh.n):
            start = int(mat.col_start[i])
            window = msh.points[start : start + m]
            ref = oracle_rows(window, i - start, s)[s - 1]
            ref = np.array([float(v) for v in ref])
            err = np.abs(mat.data[i] - ref).max()
            assert err <= 1e-12 * np.abs(ref).max()


def test_full_width_rows_match_oracle():
    msh = chebyshev_gauss_lobatto(6, -1.0, 1.0)
    dset = assemble(msh, 6, 3)
    for s in (1, 2, 3):
        mat = dset.matrix(s)
        for i in range(6):
            ref = oracle_rows(msh.points, i, s)[s - 1]
            ref = np.array([float(v) for v in ref])
            assert np.abs(mat.data[i] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_error_not_increasing_with_width():
    msh = uniform(64, -1.0, 1.0)
    f = np.exp(msh.points)
    errors = []
    for m in (3, 5, 7, 9):
        d1 = assemble(msh, m, 1).matrix(1)
        errors.append(np.abs(apply(d1, f) - f).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= 1.1 * coarse


def test_constants_annihilated_to_row_scale():
    """D_s of the all-ones vector vanishes to rounding, row by row."""
    configs = [
        (uniform(20, 0.0, 1.0), 5, 3),
        (uniform(9, -2.0, 3.0), 9, 3),
        (chebyshev_gauss_lobatto(16, -1.0, 1.0), 16, 3),
    ]
    for msh, m, smax in configs:
        dset = assemble(msh, m, smax)
        ones = np.ones(msh.n)
        for s in range(1, smax + 1):
            mat = dset.matrix(s)
            out = np.abs(apply(mat, ones))
            bound = 4.0 * EPS * np.abs(mat.data).sum(axis=1)
            assert np.all(out <= bound)


def test_diagonal_is_bitwise_negated_sum():
    for msh, m in [(uniform(12, 0.0, 1.0), 5), (chebyshev_gauss_lobatto(8, -1.0, 1.0), 8)]:
        dset = assemble(msh, m, 3)
        for s in (1, 2, 3):
            mat = dset.matrix(s)
            for i in range(msh.n):
                row = mat.data[i].copy()
                k = i - int(mat.col_start[i])
                diag = row[k]
                row[k] = 0.0
                assert diag == -row.sum()


# --- Kronecker lift -------------------------------------------------------------


def test_kron_lift_identity_times_matrix_is_block_diagonal():
    d1 = assemble(uniform(3, 0.0, 2.0), 3, 1).matrix(1)
    lifted = kron_lift(2, d1)
    assert sparse.issparse(lifted) and lifted.format == "csr"
    ref = np.block(
        [
            [d1.toarray(), np.zeros((3, 3))],
            [np.zeros((3, 3)), d1.toarray()],
        ]
    )
    assert np.array_equal(lifted.toarray(), ref)


def test_kron_lift_differentiates_tensor_grid():
    """x- and y-derivatives of x**2 + y**2 on a 2-d tensor grid, x outermost."""
    xm = uniform(5, 0.0, 1.0)
    ym = uniform(4, 0.0, 1.0)
    dx = assemble(xm, 3, 1).matrix(1)
    dy = assemble(ym, 4, 1).matrix(1)
    xx, yy = np.meshgrid(xm.points, ym.points, indexing="ij")
    u = (xx**2 + yy**2).ravel()
    ddx = kron_lift(dx, ym.n) @ u
    ddy = kron_lift(xm.n, dy) @ u
    assert np.abs(ddx - (2.0 * xx).ravel()).max() <= 1e-13
    assert np.abs(ddy - (2.0 * yy).ravel()).max() <= 1e-13


def test_kron_lift_accepts_sparse_and_dense_squares():
    d1 = assemble(uniform(3, 0.0, 2.0), 3, 1).matrix(1)
    eye = sparse.identity(2, format="csr")
    a = kron_lift(eye, d1).toarray()
    b = kron_lift(2, d1.to_csr()).toarray()
    c = kron_lift(np.eye(2), d1.toarray()).toarray()
    assert np.array_equal(a, b) and np.array_equal(a, c)


def test_commands_import_no_scipy_until_kron_lift():
    """One fresh process: the package and CLI load without scipy.sparse.

    Assembly and a convergence study, the work of the commands, load
    neither numpy.ma (np.unique does) nor fractions.
    """
    code = (
        "import sys, numpy, meshdiff, meshdiff.cli\n"
        "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse loaded at import'\n"
        "meshdiff.assemble(meshdiff.uniform(40, 0, 1), 5, 2)\n"
        "meshdiff.convergence_order(numpy.exp, numpy.exp, lambda n: meshdiff.uniform(n, 0, 1),"
        " 5, 1, [17, 33])\n"
        "loaded = {'numpy.ma', 'fractions'} & set(sys.modules)\n"
        "assert not loaded, f'{loaded} loaded by the command path'\n"
        "lifted = meshdiff.kron_lift(2, meshdiff.assemble(meshdiff.uniform(3, 0, 1), 3, 1).matrix(1))\n"
        "assert lifted.format == 'csr' and lifted.shape == (6, 6)\n"
    )
    src = str(Path(meshdiff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr


def test_kron_lift_rejects_non_square():
    d1 = assemble(uniform(3, 0.0, 2.0), 3, 1).matrix(1)
    with pytest.raises(NonSquare):
        kron_lift(np.zeros((2, 3)), d1)
    with pytest.raises(NonSquare):
        kron_lift(d1, np.zeros((2, 3)))
    rect = SparseBandMatrix(2, 3, np.array([0, 0]), np.zeros((2, 2)))
    with pytest.raises(NonSquare):
        kron_lift(rect, 2)


# --- batched kernel against the per-row reference ---------------------------------


def assert_matches_reference(points, m, s_max):
    dset = assemble(points, m, s_max)
    x = dset.mesh.points
    starts = dset.matrix(1).col_start
    for i, start in enumerate(starts):
        ref = reference_rows(x[start : start + m], i - start, s_max)
        for s in range(1, s_max + 1):
            assert np.array_equal(dset.matrix(s).data[i], ref[s - 1]), (i, s)


@pytest.mark.parametrize("family", ["jittered", "tanh", "rough"])
def test_sliding_rows_match_reference_bitwise(family):
    rng = np.random.default_rng(["jittered", "tanh", "rough"].index(family) + 40)
    for m, s_max in ((3, 2), (5, 3), (9, 3), (11, 4)):
        n = int(rng.integers(200, 301))
        if family == "jittered":
            x = np.linspace(0.0, 1.0, n)
            x[1:-1] += (rng.random(n - 2) - 0.5) * 0.6 / (n - 1)
        elif family == "tanh":
            beta = rng.uniform(2.4, 2.6)
            x = np.tanh(beta * np.linspace(-1.0, 1.0, n)) / np.tanh(beta)
        else:
            # neighbouring spacings log-uniform over 1e-3 .. 1
            x = np.concatenate(([0.0], np.cumsum(10.0 ** (-3.0 * rng.random(n - 1)))))
        assert_matches_reference(x, m, s_max)


@pytest.mark.parametrize("family", [chebyshev_gauss_lobatto, legendre_gauss_lobatto])
def test_whole_mesh_rows_match_reference_bitwise(family):
    for n in (16, 17, 64, 65):
        assert_matches_reference(family(n, -1.0, 1.0), n, 3)


def test_geometric_stencil_rows_match_reference_bitwise():
    """The criterion-7 nodes 0, 1, 3, ..., 255, every order."""
    assert_matches_reference(np.array([2.0**k - 1.0 for k in range(9)]), 9, 8)


def test_assemble_rejects_near_duplicate_points():
    x = np.array([0.0, 1.0, 1.0 + math.ulp(1.0), 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(InvalidStencil, match="too close"):
        assemble(x, 3, 1)


def test_assemble_rejects_quotient_overflow():
    x = np.concatenate((np.arange(30) * 1e-14, [1.0]))
    with pytest.raises(InvalidStencil, match="overflow"):
        assemble(x, x.size, 1)


def test_assemble_rejects_non_finite_weights():
    x = np.array([0.0, 1e-200, 2e-200])
    with pytest.raises(InvalidStencil, match="order-2"):
        assemble(x, 3, 2)
    # the first-order weights, about 1e200, are still representable
    assert np.all(np.isfinite(assemble(x, 3, 1).matrix(1).data))


def test_whole_mesh_assembly_memory_stays_bounded():
    """Temporaries are chunked: far below the 216 MB of an N^3 tensor at N = 300."""
    msh = chebyshev_gauss_lobatto(300, -1.0, 1.0)
    tracemalloc.start()
    try:
        assemble(msh, 300, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


# --- storage validation ----------------------------------------------------------


@pytest.mark.parametrize("m", [5, 40])
def test_apply_matches_window_gather_bitwise(m):
    """apply is the plain gather-multiply-sum, sliding (M < N) or whole mesh."""
    msh = chebyshev_gauss_lobatto(40, -1.0, 1.0)
    f = np.exp(msh.points) * np.sin(3.0 * msh.points)
    for mat in assemble(msh, m, 2).matrices:
        idx = mat.col_start[:, None] + np.arange(mat.width)
        ref = (mat.data * f[idx]).sum(1)
        assert apply(mat, f).tobytes() == ref.tobytes()


def test_window_columns_are_cached_and_read_only():
    mat = assemble(uniform(9, 0.0, 1.0), 3, 1).matrix(1)
    cols = mat.columns
    assert cols is mat.columns
    assert np.array_equal(cols, mat.col_start[:, None] + np.arange(3))
    assert not cols.flags.writeable
    with pytest.raises(ValueError):
        cols[0, 0] = 5


def test_shifted_windows_each_use_their_own_columns():
    """Same data, col_start shifted left in one row: toarray, apply and CSR follow."""
    base = assemble(uniform(9, 0.0, 1.0), 3, 1).matrix(1)
    base.columns  # cache the unshifted index before building the copy
    starts = base.col_start.copy()
    starts[4] -= 1
    shifted = SparseBandMatrix(9, 9, starts, base.data, base.order, base.stencil_width)
    assert np.array_equal(shifted.columns[4], [2, 3, 4])
    assert np.array_equal(base.columns[4], [3, 4, 5])
    f = np.arange(9.0) ** 2
    assert apply(shifted, f)[4] != apply(base, f)[4]
    dense = shifted.toarray()
    assert np.array_equal(dense[4, 2:5], base.data[4]) and dense[4, 5] == 0.0
    assert np.array_equal(shifted.to_csr().toarray(), dense)


def test_band_matrix_rejects_out_of_range_windows():
    with pytest.raises(ValueError):
        SparseBandMatrix(2, 3, np.array([0, 2]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SparseBandMatrix(2, 3, np.array([-1, 0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SparseBandMatrix(2, 3, np.array([0]), np.zeros((2, 2)))


def test_band_matrix_rejects_contradicting_stencil_width():
    starts, data = np.array([0, 1]), np.ones((2, 2))
    assert SparseBandMatrix(2, 3, starts, data, 1, None).stencil_width is None
    assert SparseBandMatrix(2, 3, starts, data, 1, 2).stencil_width == 2
    with pytest.raises(ValueError, match="stencil_width 3 contradicts window width 2"):
        SparseBandMatrix(2, 3, starts, data, 1, 3)
