"""Derivative weight rows for one stencil of arbitrarily spaced points.

The weights are the derivatives of the Lagrange cardinal functions at one
stencil point, generated order by order with the classical recursion:

    w_s[m] = s * ((a_i/a_m) * w_{s-1}[i] - w_{s-1}[m]) / (x_i - x_m),  m != i
    w_s[i] = -sum of the other entries

seeded with the order-zero Kronecker row.  Here a_j is the product of
(x_j - x_k) over k != j, the node-polynomial derivative at x_j.  The
ratios a_i/a_m are never formed as two big products: each is a product of
factor quotients paired by sorted magnitude, which keeps intermediates
near unity and stays accurate when spacings span many scales.

One private kernel, _weights, runs this for a batch of windows at once;
stencil_rows, stable_quotients and assembly.assemble wrap it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStencil, OrderTooHigh

# gap below this multiple of eps * max|x| means two points coincide
_DUPLICATE_GAP = 4.0

# element budget of each kernel temporary; windows, then rows, are chunked
# so that no (rows, M, M) tensor exceeds it unless one row alone does
_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class Stencil:
    """Strictly increasing points plus the index the row is evaluated at."""

    points: np.ndarray
    eval_index: int

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        if pts.ndim != 1:
            raise InvalidStencil("stencil points must form a one-dimensional array")
        if pts.size < 2:
            raise InvalidStencil(f"a stencil needs at least 2 points, got {pts.size}")
        if not np.all(np.isfinite(pts)):
            raise InvalidStencil("stencil points must be finite")
        gaps = np.diff(pts)
        if np.any(gaps <= 0):
            raise InvalidStencil("stencil points must be strictly increasing")
        _check_gaps(pts[None, :])
        i = int(self.eval_index)
        if not 0 <= i < pts.size:
            raise InvalidStencil(
                f"eval_index {i} out of range for {pts.size} points"
            )
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "eval_index", i)

    @property
    def size(self) -> int:
        return self.points.size


@dataclass(frozen=True, eq=False)
class StencilRows:
    """Weight rows for derivative orders 1..max_order, shape (max_order, M)."""

    rows: np.ndarray
    eval_index: int

    @property
    def max_order(self) -> int:
        return self.rows.shape[0]

    def row(self, order: int) -> np.ndarray:
        """Weights of the given derivative order (1-based order)."""
        if not 1 <= order <= self.max_order:
            raise ValueError(f"order must be in 1..{self.max_order}, got {order}")
        return self.rows[order - 1]


def _check_gaps(windows: np.ndarray) -> None:
    """Reject windows (one per row of the array) with effectively equal points."""
    gaps = np.diff(windows, axis=1)
    scale = np.abs(windows).max(axis=1, keepdims=True)
    if np.any(gaps <= _DUPLICATE_GAP * np.finfo(float).eps * scale):
        raise InvalidStencil("stencil points too close together to separate")


def _sorted_factors(windows: np.ndarray):
    """Per window, |x_j - x_k| sorted over k (1 at k = j), and negative counts.

    The count of negative x_j - x_k, an integer per (window, j), signs a_j.
    """
    f = windows[:, :, None] - windows[:, None, :]
    diag = np.arange(windows.shape[1])
    f[:, diag, diag] = 1.0
    negative = np.count_nonzero(f < 0.0, axis=2)
    np.abs(f, out=f)
    f.sort(axis=2)
    return f, negative


@np.errstate(all="ignore")
def _quotients(srt, negative, k, i) -> np.ndarray:
    """Checked ratios a_i/a_m, shape (rows, M), for rows in window k at index i."""
    # one window broadcasts over all rows instead of being copied per row
    den = srt if srt.shape[0] == 1 else srt[k]
    q = np.prod(srt[k, i][:, None, :] / den, axis=2)
    q[(negative[k, i][:, None] - negative[k]) % 2 == 1] *= -1.0
    q[np.arange(q.shape[0]), i] = 1.0
    if not np.all(np.isfinite(q)) or np.any(q == 0.0):
        raise InvalidStencil("stencil spacings overflow the quotient evaluation")
    return q


@np.errstate(all="ignore")
def _weights(x, start, at, m: int, max_order: int) -> np.ndarray:
    """Weight rows of orders 1..max_order for many windows, shape (S, rows, M).

    Row r uses the M points x[start[r]:start[r] + M] and is evaluated at
    window index at[r]; start must be non-decreasing.  Each distinct
    window is sorted once, and temporaries stay within _CHUNK elements, or
    one row's M x M, by taking windows, then each window's rows, a chunk at
    a time.
    """
    s_max = int(max_order)
    if s_max < 1:
        raise ValueError(f"max_order must be at least 1, got {s_max}")
    if s_max > m - 1:
        raise OrderTooHigh(
            f"order {s_max} needs at least {s_max + 1} points, stencil width is {m}"
        )
    out = np.empty((s_max, start.size, m))
    offsets = np.arange(m)
    # start is non-decreasing, so each distinct window begins a run
    first_of_run = np.ones(start.size, dtype=bool)
    np.not_equal(start[1:], start[:-1], out=first_of_run[1:])
    windows = start[first_of_run]
    step = max(1, _CHUNK // (m * m))
    for w0 in range(0, windows.size, step):
        w = windows[w0:w0 + step]
        pts = x[w[:, None] + offsets]
        _check_gaps(pts)
        srt, negative = _sorted_factors(pts)
        first = np.searchsorted(start, w[0])
        stop = np.searchsorted(start, w[-1], side="right")
        for r0 in range(first, stop, step):
            r = slice(r0, min(r0 + step, stop))
            k = np.searchsorted(w, start[r])
            i = at[r]
            quot = _quotients(srt, negative, k, i)
            rows = np.arange(quot.shape[0])
            dx = pts[k, i][:, None] - pts[k]
            prev = np.zeros_like(quot)
            prev[rows, i] = 1.0
            for s in range(1, s_max + 1):
                cur = s * (quot * prev[rows, i][:, None] - prev) / dx
                cur[rows, i] = 0.0
                cur[rows, i] = -cur.sum(axis=1)
                out[s - 1, r] = prev = cur
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        raise InvalidStencil(
            f"order-{int(np.argmin(finite)) + 1} weights overflow: "
            "stencil spacings are too small or too uneven"
        )
    return out


def stable_quotients(stencil: Stencil) -> np.ndarray:
    """Ratios a_i/a_m of node-polynomial derivatives, round-off stabilized.

    For each m the entry is the product of |F_i| and |F_m| factor pairs
    matched by ascending magnitude, signed by the parity of the negative
    factor counts.  The parity is taken on integers, never through a
    floating-point power.  Entry i itself is set to exactly 1.
    """
    srt, negative = _sorted_factors(stencil.points[None, :])
    i = np.array([stencil.eval_index])
    return _quotients(srt, negative, np.zeros(1, dtype=int), i)[0]


def stencil_rows(stencil: Stencil, max_order: int) -> StencilRows:
    """Derivative weight rows of orders 1..max_order at the eval point.

    Parameters
    ----------
    stencil : Stencil
        M points and the index i of the point the derivatives refer to.
    max_order : int
        Highest derivative order S; needs S <= M - 1, else OrderTooHigh.

    Returns
    -------
    StencilRows
        rows[s-1] holds the order-s weights.  Each diagonal entry is the
        negated sum of the rest of its row, so row sums vanish exactly.
    """
    i = stencil.eval_index
    rows = _weights(
        stencil.points, np.zeros(1, dtype=int), np.array([i]), stencil.size, max_order
    )
    return StencilRows(rows=rows[:, 0], eval_index=i)
