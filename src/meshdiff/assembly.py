"""Assembly of differentiation matrices over a whole mesh.

Each mesh point gets one stencil of M contiguous points.  With M = N the
stencil is the whole mesh (spectral collocation); with odd M < N the
stencil slides: it is pinned at the left edge for the first points,
centered in the interior, and pinned at the right edge for the last
points.  All rows and orders come from one call of the batched stencil
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionMismatch,
    EvenStencil,
    InvalidStencil,
    NonSquare,
    StencilTooWide,
)
from .mesh import Mesh, validate
from .stencil import _weights

if TYPE_CHECKING:
    import scipy.sparse as sparse


@dataclass(frozen=True, eq=False)
class SparseBandMatrix:
    """Row-sparse matrix whose rows hold one contiguous column window each.

    data[i] are the values of row i in columns col_start[i] ..
    col_start[i] + width - 1.  Zeros inside a window stay stored, so every
    row carries exactly `width` entries and the sparsity pattern encodes
    the stencil bookkeeping directly.
    """

    n_rows: int
    n_cols: int
    col_start: np.ndarray
    data: np.ndarray
    order: int | None = None
    stencil_width: int | None = None

    def __post_init__(self):
        starts = np.asarray(self.col_start, dtype=int)
        vals = np.asarray(self.data, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != self.n_rows:
            raise ValueError("data must have shape (n_rows, width)")
        if starts.shape != (self.n_rows,):
            raise ValueError("col_start must have one entry per row")
        width = vals.shape[1]
        if width > self.n_cols or starts.min(initial=0) < 0 or (
            self.n_rows and starts.max() + width > self.n_cols
        ):
            raise ValueError("column windows fall outside the matrix")
        if self.stencil_width not in (None, width):
            raise ValueError(
                f"stencil_width {self.stencil_width} contradicts window width {width}"
            )
        starts = starts.copy()
        vals = vals.copy()
        starts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "col_start", starts)
        object.__setattr__(self, "data", vals)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def nnz(self) -> int:
        return self.n_rows * self.width

    @cached_property
    def columns(self) -> np.ndarray:
        """Read-only (n_rows, width) column index of every stored entry."""
        cols = self.col_start[:, None] + np.arange(self.width)
        cols.setflags(write=False)
        return cols

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[np.arange(self.n_rows)[:, None], self.columns] = self.data
        return out

    def to_csr(self) -> sparse.csr_matrix:
        """CSR copy keeping explicitly stored zeros."""
        import scipy.sparse as sparse

        indptr = np.arange(0, self.nnz + 1, self.width)
        return sparse.csr_matrix(
            (self.data.ravel().copy(), self.columns.ravel().copy(), indptr),
            shape=(self.n_rows, self.n_cols),
        )


@dataclass(frozen=True, eq=False)
class DiffMatrixSet:
    """Differentiation matrices D_1..D_max_order sharing one mesh and pattern."""

    matrices: tuple
    mesh: Mesh

    @property
    def stencil_width(self) -> int:
        return self.matrices[0].width

    @property
    def max_order(self) -> int:
        return len(self.matrices)

    def matrix(self, order: int) -> SparseBandMatrix:
        """The operator for one derivative order (1-based order)."""
        if not 1 <= order <= self.max_order:
            raise ValueError(f"order must be in 1..{self.max_order}, got {order}")
        return self.matrices[order - 1]


def assemble(mesh, stencil_width: int, max_order: int) -> DiffMatrixSet:
    """Build D_1..D_max_order for a mesh with sliding stencils of odd width.

    Parameters
    ----------
    mesh : Mesh or array-like
        Strictly increasing points; raw arrays are validated first.
    stencil_width : int
        Points per stencil, M.  M = N uses the whole mesh and may be even;
        M < N must be odd (EvenStencil) and at most N (StencilTooWide).
    max_order : int
        Highest derivative order S with 1 <= S <= M - 1 (OrderTooHigh).

    Row i of each matrix is the stencil row for mesh point i.  For M < N
    with center offset c = (M-1)/2 the stencil of row i starts at column
    0 while i < c, at i - c in the interior (i <= N-1-c), and at N - M
    near the right edge; the interior and right maps agree at the row
    where they meet.
    """
    msh = mesh if isinstance(mesh, Mesh) else validate(mesh)
    x = msh.points
    n = x.size
    m = int(stencil_width)
    if m < 2:
        raise InvalidStencil(f"a stencil needs at least 2 points, got {m}")
    if m > n:
        raise StencilTooWide(f"stencil width {m} exceeds mesh size {n}")
    if m < n and m % 2 == 0:
        raise EvenStencil(f"a sliding stencil must have odd width, got {m}")
    start = np.clip(np.arange(n) - (m - 1) // 2, 0, n - m)
    data = _weights(x, start, np.arange(n) - start, m, max_order)
    matrices = tuple(
        SparseBandMatrix(n, n, start, rows, order=s + 1, stencil_width=m)
        for s, rows in enumerate(data)
    )
    return DiffMatrixSet(matrices, msh)


def apply(matrix: SparseBandMatrix, samples) -> np.ndarray:
    """Derivative samples: the matrix applied to function samples."""
    f = np.asarray(samples, dtype=float)
    if f.shape != (matrix.n_cols,):
        raise DimensionMismatch(
            f"matrix has {matrix.n_cols} columns, samples have shape {f.shape}"
        )
    return (matrix.data * f[matrix.columns]).sum(axis=1)


def _as_square_csr(op, side: str) -> sparse.csr_matrix:
    import scipy.sparse as sparse

    if isinstance(op, (int, np.integer)):
        if op < 1:
            raise ValueError(f"identity size must be positive, got {op}")
        return sparse.identity(int(op), format="csr")
    if isinstance(op, SparseBandMatrix):
        if op.n_rows != op.n_cols:
            raise NonSquare(f"{side} factor is {op.n_rows} x {op.n_cols}")
        return op.to_csr()
    if sparse.issparse(op):
        if op.shape[0] != op.shape[1]:
            raise NonSquare(f"{side} factor is {op.shape[0]} x {op.shape[1]}")
        return op.tocsr()
    arr = np.asarray(op, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquare(f"{side} factor has shape {arr.shape}")
    return sparse.csr_matrix(arr)


def kron_lift(left, right) -> sparse.csr_matrix:
    """Kronecker product for lifting 1-d operators onto tensor grids.

    Either factor may be an integer p, meaning the p x p identity, so the
    usual 2-d operators are kron_lift(n_y, dx_matrix) acting along x of
    each y-slice of a row-major-in-y sample vector, and
    kron_lift(dy_matrix, n_x) acting along y.  Returns scipy CSR: the
    x-lift stays block banded, but the y-lift has strided rows that a
    contiguous-window format cannot hold.
    """
    import scipy.sparse as sparse

    return sparse.kron(
        _as_square_csr(left, "left"), _as_square_csr(right, "right"), format="csr"
    )
