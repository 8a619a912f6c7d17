"""Correctness gate and accuracy measurement for benchmark outputs.

Everything here runs outside the timed region.  The gate judges one
operator against the documented contracts of ``meshdiff.assemble``:

* window starts follow the left / interior / right map (all zero for a
  whole-mesh stencil);
* every stored entry is finite;
* each diagonal equals the negated float sum of the rest of its row, bit
  for bit, recomputed row by row the way acceptance criterion 5 does;
* the moment conditions sum_j w_j (x_j - x_i)^k = s! delta_ks hold for
  k = 0 .. M-1, as a residual scaled by sum_j |w_j| |x_j - x_i|^k, within
  a tolerance fixed per mesh family.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EPS = np.finfo(float).eps


def expected_starts(n: int, m: int) -> np.ndarray:
    """Window start of every row under the documented sliding map."""
    if m == n:
        return np.zeros(n, dtype=int)
    c = (m - 1) // 2
    return np.clip(np.arange(n) - c, 0, n - m)


def max_moment_residual(mat, x: np.ndarray, order: int) -> float:
    """Largest scaled moment residual over all rows and powers."""
    cols = mat.col_start[:, None] + np.arange(mat.width)[None, :]
    d = x[cols] - x[:, None]
    w = mat.data
    power = np.ones_like(d)
    worst = 0.0
    for k in range(mat.width):
        target = math.factorial(order) if k == order else 0.0
        resid = np.abs((w * power).sum(axis=1) - target)
        scale = (np.abs(w) * np.abs(power)).sum(axis=1) + target
        worst = max(worst, float((resid / scale).max()))
        power *= d
    return worst


def check_band(mat, x: np.ndarray, order: int, tol: float) -> list[str]:
    """Reasons the operator breaks a contract; empty when it passes."""
    n = x.size
    problems = []
    if mat.n_rows != n or mat.n_cols != n:
        return [f"D{order}: shape {mat.n_rows}x{mat.n_cols}, mesh has {n} points"]
    if not np.array_equal(mat.col_start, expected_starts(n, mat.width)):
        problems.append(f"D{order}: window starts break the sliding map")
    if not np.all(np.isfinite(mat.data)):
        return problems + [f"D{order}: non-finite entry"]
    for i in range(n):
        row = mat.data[i].copy()
        k = i - int(mat.col_start[i])
        if not 0 <= k < row.size:
            problems.append(f"D{order}: row {i} window misses its diagonal")
            break
        diag = row[k]
        row[k] = 0.0
        if diag != -row.sum():
            problems.append(f"D{order}: row {i} diagonal is not the negated row sum")
            break
    resid = max_moment_residual(mat, x, order)
    if not resid <= tol:
        problems.append(f"D{order}: moment residual {resid:.3g} above {tol:.3g}")
    return problems


def corrupted_copies(mat):
    """Copies of an operator each breaking one contract the gate checks."""
    cls = type(mat)
    i = int(np.argmax(np.abs(mat.data).max(axis=1)))
    k = i - int(mat.col_start[i])
    flipped = mat.data.copy()
    flipped[i, k] = -flipped[i, k]
    nan = mat.data.copy()
    nan[i, (k + 1) % mat.width] = np.nan
    nudged = mat.data.copy()
    nudged[i, (k + 1) % mat.width] *= 1.0 + 1e-6
    copies = {
        "flipped diagonal sign": flipped,
        "NaN entry": nan,
        "off-diagonal nudged by 1e-6": nudged,
    }
    out = {
        label: cls(mat.n_rows, mat.n_cols, mat.col_start, data, mat.order, mat.stencil_width)
        for label, data in copies.items()
    }
    if mat.width < mat.n_cols:
        starts = mat.col_start.copy()
        j = int(np.argmax(starts > 0))
        starts[j] -= 1
        out["window shifted left"] = cls(
            mat.n_rows, mat.n_cols, starts, mat.data, mat.order, mat.stencil_width
        )
    return out


def self_test(mat, x: np.ndarray, order: int, tol: float) -> list[str]:
    """Corruptions the gate failed to reject; empty when it rejects all."""
    if check_band(mat, x, order, tol):
        return ["the uncorrupted operator already fails the gate"]
    return [
        label
        for label, bad in corrupted_copies(mat).items()
        if not check_band(bad, x, order, tol)
    ]


def row_ulp_error(oracle_rows, mats, x: np.ndarray, i: int) -> float:
    """Worst entry error of row i over all orders, in ulps of the row's scale.

    The scale of a row is eps times its largest exact entry; the exact
    rows come from the package's rational-arithmetic oracle.
    """
    start = int(mats[0].col_start[i])
    width = mats[0].width
    exact = oracle_rows(x[start:start + width], i - start, len(mats), max_points=None)
    worst = 0.0
    for mat, ref in zip(mats, exact):
        big = max(abs(v) for v in ref)
        err = max(abs(Fraction(float(c)) - e) for c, e in zip(mat.data[i], ref))
        worst = max(worst, float(err / big) / EPS)
    return worst


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    """Max-norm error relative to the max-norm of the exact values."""
    return float(np.max(np.abs(approx - exact)) / np.max(np.abs(exact)))


def deriv_errors(pairs) -> tuple[float, float]:
    """(typical, worst) error of derivative samples, largest over the pairs.

    Each pair is (computed, exact).  The typical error is the median
    absolute error over the samples, the worst the max-norm error; both
    are relative to the max-norm of the exact derivative.
    """
    typical = worst = 0.0
    for approx, exact in pairs:
        scale = np.max(np.abs(exact))
        diff = np.abs(np.asarray(approx) - exact)
        typical = max(typical, float(np.median(diff) / scale))
        worst = max(worst, float(np.max(diff) / scale))
    return typical, worst


def geomean(values, floor: float = 0.0) -> float:
    vals = np.maximum(np.asarray(values, dtype=float), floor)
    return float(np.exp(np.log(vals).mean()))
