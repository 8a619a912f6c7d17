"""Differentiation matrices for arbitrary 1-d meshes via sliding Lagrange stencils.

Builds the N x N operators D_1..D_S that map samples of a function on a
strictly increasing mesh to samples of its derivatives.  Each row comes
from Lagrange interpolation on a stencil of M contiguous mesh points:
M = N gives the classical spectral collocation matrices, odd M < N on a
uniform mesh reproduces central finite differences, and anything in
between works on arbitrary point distributions.
"""

from .assembly import DiffMatrixSet, SparseBandMatrix, apply, assemble, kron_lift
from .errors import (
    DimensionMismatch,
    EmptyInterval,
    EvenStencil,
    FileFormatError,
    InputError,
    InvalidStencil,
    MeshdiffError,
    NoConvergence,
    NonFinite,
    NonSquare,
    NotIncreasing,
    NumericalError,
    OrderTooHigh,
    StencilTooWide,
    TooFew,
    TooLarge,
)
from .mesh import (
    Mesh,
    chebyshev_gauss_lobatto,
    legendre_gauss_lobatto,
    uniform,
    validate,
)
from .stencil import (
    Stencil,
    StencilRows,
    stable_quotients,
    stencil_rows,
)
from .verify import (
    ConvergenceReport,
    convergence_order,
    oracle_rows,
)

__version__ = "0.1.0"

__all__ = [
    "Mesh",
    "validate",
    "uniform",
    "chebyshev_gauss_lobatto",
    "legendre_gauss_lobatto",
    "Stencil",
    "StencilRows",
    "stable_quotients",
    "stencil_rows",
    "SparseBandMatrix",
    "DiffMatrixSet",
    "assemble",
    "apply",
    "kron_lift",
    "ConvergenceReport",
    "oracle_rows",
    "convergence_order",
    "MeshdiffError",
    "InputError",
    "NumericalError",
    "TooFew",
    "NotIncreasing",
    "NonFinite",
    "EmptyInterval",
    "FileFormatError",
    "InvalidStencil",
    "OrderTooHigh",
    "StencilTooWide",
    "EvenStencil",
    "DimensionMismatch",
    "NonSquare",
    "TooLarge",
    "NoConvergence",
]
