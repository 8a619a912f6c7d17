"""Exact-rational references and accuracy measurement tools.

Everything here exists to check the floating-point pipeline from the
outside: weight rows recomputed in Fraction arithmetic with no rounding
anywhere, side-by-side error measurement of the two quotient evaluation
schemes, and empirical convergence-order fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .assembly import apply, assemble
from .errors import InvalidStencil, OrderTooHigh, TooLarge
from .stencil import Stencil, stable_quotients

# cost guard for the Fraction recursion; callers with patience may raise it
ORACLE_MAX_POINTS = 12

# below this every measured error is considered rounding floor
SATURATION_FLOOR = 1e-14


def _exact_points(points) -> list[Fraction]:
    # Fraction(float) is exact, so double coordinates carry over losslessly
    return [Fraction(p) for p in points]


def _node_derivatives(pts: list[Fraction]) -> list[Fraction]:
    """a_j = product of (x_j - x_k) over k != j, exactly."""
    out = []
    for j, xj in enumerate(pts):
        acc = Fraction(1)
        for k, xk in enumerate(pts):
            if k != j:
                acc *= xj - xk
        out.append(acc)
    return out


def oracle_rows(points, eval_index, max_order, max_points=ORACLE_MAX_POINTS):
    """Derivative weight rows in exact rational arithmetic.

    Runs the same order-by-order recursion as stencil_rows but over
    Fractions, with the weight ratios a_i/a_m formed from direct unsorted
    products, so the result is exact and shares no floating-point code
    with the production path.

    Parameters
    ----------
    points : sequence of numbers
        Pairwise distinct coordinates; floats convert exactly.
    eval_index : int
        Which point the rows refer to.
    max_order : int
        Highest derivative order, at most len(points) - 1.
    max_points : int or None
        Size guard (TooLarge beyond it); None disables the guard.

    Returns
    -------
    list of rows, one per order 1..max_order, each a list of Fractions.
    """
    pts = _exact_points(points)
    m_total = len(pts)
    if max_points is not None and m_total > int(max_points):
        raise TooLarge(
            f"{m_total} points exceed the exact-arithmetic guard of {int(max_points)}"
        )
    if m_total < 2:
        raise InvalidStencil(f"a stencil needs at least 2 points, got {m_total}")
    if len(set(pts)) != m_total:
        raise InvalidStencil("stencil points must be pairwise distinct")
    i = int(eval_index)
    if not 0 <= i < m_total:
        raise InvalidStencil(f"eval_index {i} out of range for {m_total} points")
    s_max = int(max_order)
    if s_max < 1:
        raise ValueError(f"max_order must be at least 1, got {s_max}")
    if s_max > m_total - 1:
        raise OrderTooHigh(
            f"order {s_max} needs at least {s_max + 1} points, stencil has {m_total}"
        )
    a = _node_derivatives(pts)
    ratios = [a[i] / am for am in a]
    prev = [Fraction(1) if k == i else Fraction(0) for k in range(m_total)]
    rows = []
    for s in range(1, s_max + 1):
        cur = [Fraction(0)] * m_total
        for k in range(m_total):
            if k != i:
                cur[k] = s * (ratios[k] * prev[i] - prev[k]) / (pts[i] - pts[k])
        cur[i] = -sum(cur)
        rows.append(cur)
        prev = cur
    return rows


@dataclass(frozen=True)
class QuotientComparison:
    """Per-entry relative errors of the two a_i/a_m evaluation schemes."""

    sorted_error: np.ndarray
    naive_error: np.ndarray


def quotient_comparison(stencil: Stencil, eval_index: int | None = None) -> QuotientComparison:
    """Measure sorted-product quotients against naive separate products.

    Both schemes are evaluated in double precision and compared entry by
    entry with the exact rational ratio; errors are computed in rational
    arithmetic before the final float conversion, so the measurement adds
    no noise of its own.
    """
    i = stencil.eval_index if eval_index is None else int(eval_index)
    pts = stencil.points
    m_total = pts.size
    if not 0 <= i < m_total:
        raise InvalidStencil(f"eval_index {i} out of range for {m_total} points")
    exact_a = _node_derivatives(_exact_points(pts))

    sorted_vals = stable_quotients(stencil, i)
    # naive scheme: both full products in natural order, then one division
    prods = np.empty(m_total)
    for j in range(m_total):
        f = pts[j] - pts
        f[j] = 1.0
        prods[j] = np.prod(f)
    naive_vals = prods[i] / prods

    sorted_err = np.empty(m_total)
    naive_err = np.empty(m_total)
    for m in range(m_total):
        exact = Fraction(1) if m == i else exact_a[i] / exact_a[m]
        sorted_err[m] = float(abs(Fraction(float(sorted_vals[m])) - exact) / abs(exact))
        naive_err[m] = float(abs(Fraction(float(naive_vals[m])) - exact) / abs(exact))
    return QuotientComparison(sorted_err, naive_err)


@dataclass(frozen=True)
class ConvergenceReport:
    """Max-norm errors over a mesh family and the fitted order in h."""

    resolutions: tuple
    spacings: tuple
    errors: tuple
    fitted_order: float | None

    def __post_init__(self):
        if len(self.resolutions) != len(self.errors) or len(self.spacings) != len(
            self.errors
        ):
            raise ValueError("resolutions, spacings, errors must align")
        if any(b <= a for a, b in zip(self.resolutions, self.resolutions[1:])):
            raise ValueError("resolutions must be strictly increasing")

    @property
    def degenerate(self) -> bool:
        """True when every error sat at rounding floor and no order was fit."""
        return self.fitted_order is None

    def table(self) -> str:
        lines = [f"{'N':>7} {'h':>16} {'max_error':>16}"]
        for n, h, e in zip(self.resolutions, self.spacings, self.errors):
            lines.append(f"{n:7d} {h:16.8e} {e:16.8e}")
        if self.degenerate:
            lines.append(
                f"fitted order: DegenerateFit "
                f"(all errors at rounding floor, below {SATURATION_FLOOR:g})"
            )
        else:
            lines.append(f"fitted order: {self.fitted_order:.3f}")
        return "\n".join(lines)


def convergence_order(
    f,
    exact_derivative,
    mesh_family,
    stencil_width,
    order,
    resolutions,
) -> ConvergenceReport:
    """Empirical convergence order of one operator on a mesh family.

    Parameters
    ----------
    f, exact_derivative : callables
        Sampled on the mesh points; exact_derivative must match `order`.
    mesh_family : callable
        Maps a point count to a Mesh.
    stencil_width : int or None
        None means the whole mesh (stencil width N at every resolution).
    order : int
        Derivative order under test.
    resolutions : sequence of int
        At least two point counts, strictly increasing.

    The fitted order is the least-squares slope of log(max error) against
    log(h) with h = (b - a)/(N - 1).  When every error is below the
    saturation floor the report flags DegenerateFit instead of fitting.
    """
    res = [int(r) for r in resolutions]
    if len(res) < 2:
        raise ValueError("need at least two resolutions")
    errors = []
    spacings = []
    for n in res:
        msh = mesh_family(n)
        width = n if stencil_width is None else int(stencil_width)
        dset = assemble(msh, width, int(order))
        approx = apply(dset.matrix(int(order)), f(msh.points))
        errors.append(float(np.max(np.abs(approx - exact_derivative(msh.points)))))
        spacings.append((msh.b - msh.a) / (n - 1))
    if all(e < SATURATION_FLOOR for e in errors):
        fitted = None
    else:
        slope = np.polyfit(np.log(spacings), np.log(errors), 1)[0]
        fitted = float(slope)
    return ConvergenceReport(tuple(res), tuple(spacings), tuple(errors), fitted)
