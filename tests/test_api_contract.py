"""The public names that outside callers, such as the benchmark, depend on.

Cheap existence and shape checks only: the behaviour behind each name is
tested in the module's own test file.
"""

import inspect

import numpy as np

import meshdiff
import meshdiff.cli
import meshdiff.fileio
from meshdiff import DiffMatrixSet, SparseBandMatrix, Stencil, stencil_rows


_PUBLIC_NAMES = [
    "ConvergenceReport", "DiffMatrixSet", "DimensionMismatch", "EmptyInterval",
    "EvenStencil", "FileFormatError", "InputError", "InvalidStencil", "Mesh",
    "MeshdiffError", "NoConvergence", "NonFinite", "NonSquare", "NotIncreasing",
    "NumericalError", "OrderTooHigh", "SparseBandMatrix", "Stencil", "StencilRows",
    "StencilTooWide", "TooFew", "TooLarge", "apply", "assemble",
    "chebyshev_gauss_lobatto", "convergence_order", "kron_lift",
    "legendre_gauss_lobatto", "oracle_rows", "stable_quotients", "stencil_rows",
    "uniform", "validate",
]


def test_public_surface_is_pinned():
    """Adding or removing a public name means editing this list on purpose."""
    assert sorted(meshdiff.__all__) == _PUBLIC_NAMES
    for name in meshdiff.__all__:
        assert getattr(meshdiff, name) is not None, name


def test_package_functions_exist():
    for name in (
        "assemble", "apply", "validate", "kron_lift", "oracle_rows",
        "uniform", "chebyshev_gauss_lobatto", "legendre_gauss_lobatto",
    ):
        assert callable(getattr(meshdiff, name)), name
    assert inspect.signature(meshdiff.oracle_rows).parameters["max_points"]
    assert len(meshdiff.oracle_rows([0.0, 1.0, 2.0], 0, 1, max_points=None)[0]) == 3


def test_fileio_and_cli_entry_points_exist():
    for name in ("read_matrix", "read_values", "read_mesh"):
        assert callable(getattr(meshdiff.fileio, name)), name
    assert callable(meshdiff.cli.main)


def test_band_matrix_positional_constructor():
    mat = SparseBandMatrix(2, 3, np.array([0, 1]), np.ones((2, 2)), 1, 2)
    assert (mat.n_rows, mat.n_cols, mat.width) == (2, 3, 2)
    assert (mat.order, mat.stencil_width) == (1, 2)


def test_diff_matrix_set_fields():
    dset = meshdiff.assemble(meshdiff.uniform(5, 0.0, 1.0), 3, 2)
    assert isinstance(dset, DiffMatrixSet)
    assert dset.mesh.n == 5
    assert (dset.stencil_width, dset.max_order) == (3, 2)
    assert dset.matrix(2).order == 2


def test_stencil_rows_has_rows():
    rows = stencil_rows(Stencil(np.array([0.0, 1.0, 2.0]), 1), 2).rows
    assert rows.shape == (2, 3)
