"""Exact-rational references and accuracy measurement tools.

Everything here exists to check the floating-point pipeline from the
outside: weight rows recomputed in Fraction arithmetic with no rounding
anywhere, and empirical convergence-order fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .assembly import apply, assemble
from .errors import InvalidStencil, OrderTooHigh, TooLarge

# cost guard for the Fraction recursion; max_points=None lifts it
_ORACLE_MAX_POINTS = 12

# errors up to 16 u ||D||_inf max|f| (u = 2**-53) count as rounding noise: in
# units of u ||D||_inf max|f|, saturated studies measured 0.1-1.5, converging >= 5e3
_NOISE_FLOOR = 16 * 2.0**-53


def oracle_rows(points, eval_index, max_order, max_points=_ORACLE_MAX_POINTS):
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
    from fractions import Fraction  # local: command processes never load it

    # Fraction(float) is exact, so double coordinates carry over losslessly
    pts = [Fraction(p) for p in points]
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
    # a_j = product of (x_j - x_k) over k != j, exactly
    a = [prod(xj - xk for xk in pts[:j] + pts[j + 1:]) for j, xj in enumerate(pts)]
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
class ConvergenceReport:
    """Max-norm errors over a mesh family and the fitted order in h."""

    resolutions: tuple
    spacings: tuple
    errors: tuple
    fitted_order: float | None
    fitted_points: int | None = None

    def __post_init__(self):
        if len(self.resolutions) != len(self.errors) or len(self.spacings) != len(
            self.errors
        ):
            raise ValueError("resolutions, spacings, errors must align")
        if any(b <= a for a, b in zip(self.resolutions, self.resolutions[1:])):
            raise ValueError("resolutions must be strictly increasing")

    @property
    def degenerate(self) -> bool:
        """True when fewer than two errors cleared the rounding floor."""
        return self.fitted_order is None

    def table(self) -> str:
        lines = [f"{'N':>7} {'h':>16} {'max_error':>16}"]
        for n, h, e in zip(self.resolutions, self.spacings, self.errors):
            lines.append(f"{n:7d} {h:16.8e} {e:16.8e}")
        if self.degenerate:
            lines.append(
                "fitted order: DegenerateFit "
                "(fewer than two errors above the rounding floor)"
            )
        else:
            last = self.resolutions[(self.fitted_points or len(self.resolutions)) - 1]
            lines.append(f"fit over N = {self.resolutions[0]}..{last}")
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
    log(h) with h = (b - a)/(N - 1), over the leading resolutions whose
    error exceeds the rounding floor 16 u ||D||_inf max|f|; with fewer than
    two of them the report flags DegenerateFit instead of fitting.
    """
    res = [int(r) for r in resolutions]
    if len(res) < 2 or any(b <= a for a, b in zip(res, res[1:])):
        raise ValueError(f"need at least two strictly increasing resolutions, got {res}")
    errors, spacings, floors = [], [], []
    for n in res:
        msh = mesh_family(n)
        width = n if stencil_width is None else int(stencil_width)
        op = assemble(msh, width, int(order)).matrix(int(order))
        samples = f(msh.points)
        approx = apply(op, samples)
        errors.append(float(np.max(np.abs(approx - exact_derivative(msh.points)))))
        spacings.append((msh.b - msh.a) / (n - 1))
        norm = np.abs(op.data).sum(axis=1).max() * np.max(np.abs(samples))
        floors.append(_NOISE_FLOOR * norm)
    run = next((k for k, (e, fl) in enumerate(zip(errors, floors)) if e <= fl), len(res))
    fitted = None
    if run >= 2:
        fitted = float(np.polyfit(np.log(spacings[:run]), np.log(errors[:run]), 1)[0])
    return ConvergenceReport(tuple(res), tuple(spacings), tuple(errors), fitted, run)
