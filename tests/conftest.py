"""Shared helpers: seeded stencil generators, ulp measurement, acceptance log."""

import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

# CLI tests run `python -m meshdiff` in subprocesses: let those import the
# package from this checkout's src/, as pytest's pythonpath setting does here
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)

_ACCEPTANCE_LINES = []


def record_criterion(index: int, passed: bool, detail: str) -> None:
    """Collect one pass/fail line per acceptance criterion for the summary."""
    line = f"acceptance criterion {index}: {'PASS' if passed else 'FAIL'} ({detail})"
    _ACCEPTANCE_LINES.append((index, line))
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def ulp_distance(computed: float, reference: Fraction) -> float:
    """Distance from `computed` to the exact `reference` in ulps of the reference.

    Returns inf when the reference is zero but the computed value is not.
    """
    if reference == 0:
        return 0.0 if computed == 0.0 else math.inf
    ref = float(reference)
    spacing = math.ulp(abs(ref))
    return float(abs(Fraction(computed) - reference) / Fraction(spacing))


def gamma(n: int) -> Fraction:
    """Exact gamma_n = n*u/(1 - n*u), u = 2**-53: error bound of n roundings (Higham, Lemma 3.1)."""
    nu = Fraction(n, 2**53)
    return nu / (1 - nu)


def rational_stencil(rng: np.random.Generator, m: int):
    """Strictly increasing stencil of dyadic rationals, exactly representable.

    Denominator is 2**j with j in [0, 6]; consecutive gaps are drawn from
    [den, 2*den] / den so the gap ratio stays at most 2 and no coordinate
    exceeds a few hundred.  Returns (float64 array, list of Fraction) holding
    the identical values.
    """
    den = 2 ** int(rng.integers(0, 7))
    gaps = rng.integers(den, 2 * den + 1, size=m - 1)
    start = int(rng.integers(-2 * den, 2 * den + 1))
    nums = np.concatenate(([start], start + np.cumsum(gaps)))
    fracs = [Fraction(int(v), den) for v in nums]
    pts = np.array([float(f) for f in fracs])
    return pts, fracs


def smooth_stencil(rng: np.random.Generator, m: int, lo: float = 0.2, hi: float = 1.0):
    """Strictly increasing float stencil with gaps uniform in [lo, hi)."""
    gaps = rng.uniform(lo, hi, size=m - 1)
    start = rng.uniform(-1.0, 1.0)
    return np.concatenate(([start], start + np.cumsum(gaps)))


def reference_rows(points, eval_index: int, max_order: int) -> np.ndarray:
    """Weight rows, shape (max_order, M), from the original one-row-at-a-time code.

    The bodies of the per-row build_factor_vector, stable_quotients and
    stencil_rows that the batched kernel replaced, kept as a reference
    the kernel must match bitwise.
    """
    pts = np.asarray(points, dtype=float)
    m_total = pts.size
    i = int(eval_index)

    def factors(k):
        f = pts[k] - pts
        f[k] = 1.0
        return f, int(np.count_nonzero(f < 0.0))

    fi, neg_i = factors(i)
    sorted_i = np.sort(np.abs(fi))
    quot = np.ones(m_total)
    for m in range(m_total):
        if m == i:
            continue
        fm, neg_m = factors(m)
        sorted_m = np.sort(np.abs(fm))
        q = float(np.prod(sorted_i / sorted_m))
        if (neg_i - neg_m) % 2:
            q = -q
        quot[m] = q

    s_max = int(max_order)
    dx = pts[i] - pts
    off = np.arange(m_total) != i
    rows = np.empty((s_max, m_total))
    prev = np.zeros(m_total)
    prev[i] = 1.0
    for s in range(1, s_max + 1):
        cur = np.zeros(m_total)
        cur[off] = s * (quot[off] * prev[i] - prev[off]) / dx[off]
        cur[i] = -cur.sum()
        rows[s - 1] = cur
        prev = cur
    return rows
