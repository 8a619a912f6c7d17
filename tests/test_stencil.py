"""Unit and property tests for the stencil weight kernel."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from meshdiff import (
    InvalidStencil,
    OrderTooHigh,
    Stencil,
    oracle_rows,
    stable_quotients,
    stencil_rows,
)
from meshdiff.stencil import _sorted_factors
from conftest import rational_stencil, smooth_stencil, ulp_distance


# --- construction and validation ---------------------------------------------


def test_stencil_basic_properties():
    st = Stencil(np.array([0.0, 1.0, 3.0]), 1)
    assert st.size == 3
    assert st.eval_index == 1
    assert not st.points.flags.writeable


def test_stencil_rejects_too_few_points():
    with pytest.raises(InvalidStencil):
        Stencil(np.array([1.0]), 0)


def test_stencil_rejects_unsorted_points():
    with pytest.raises(InvalidStencil):
        Stencil(np.array([0.0, 2.0, 1.0]), 0)


def test_stencil_rejects_near_duplicates():
    x = 1.0
    with pytest.raises(InvalidStencil):
        Stencil(np.array([0.0, x, x + math.ulp(x)]), 0)


def test_stencil_rejects_non_finite():
    with pytest.raises(InvalidStencil):
        Stencil(np.array([0.0, np.nan, 1.0]), 0)
    with pytest.raises(InvalidStencil):
        Stencil(np.array([0.0, 1.0, np.inf]), 0)


def test_stencil_rejects_eval_index_out_of_range():
    pts = np.array([0.0, 1.0, 2.0])
    with pytest.raises(InvalidStencil):
        Stencil(pts, -1)
    with pytest.raises(InvalidStencil):
        Stencil(pts, 3)


# --- sorted factor rows -------------------------------------------------------


def test_sorted_factors_values_and_negative_count():
    srt, negative = _sorted_factors(np.array([[0.0, 1.0, 3.0]]))
    # signed factor rows are [1, -1, -3], [1, 1, -2] and [3, 2, 1]
    assert srt[0].tolist() == [[1.0, 1.0, 3.0], [1.0, 1.0, 2.0], [1.0, 2.0, 3.0]]
    assert negative[0].tolist() == [2, 1, 0]


# --- stabilized quotients -----------------------------------------------------


def test_quotients_three_point_uniform():
    st = Stencil(np.array([0.0, 1.0, 2.0]), 0)
    assert stable_quotients(st).tolist() == [1.0, -2.0, 1.0]


def test_quotients_reject_bad_index():
    with pytest.raises(InvalidStencil):
        stable_quotients(Stencil(np.array([0.0, 1.0]), 2))


def test_quotients_centered():
    st = Stencil(np.array([-1.0, 0.0, 1.0]), 1)
    assert stable_quotients(st).tolist() == [-0.5, 1.0, -0.5]


def test_quotients_eval_entry_is_one():
    rng = np.random.default_rng(11)
    for m in (3, 4, 7, 10):
        pts = smooth_stencil(rng, m)
        i = int(rng.integers(0, m))
        assert stable_quotients(Stencil(pts, i))[i] == 1.0


def test_quotients_sign_matches_parity():
    """Sign must come from the factor-count parity, not from the product."""
    rng = np.random.default_rng(12)
    for m in (3, 5, 8):
        pts = smooth_stencil(rng, m)
        i = int(rng.integers(0, m))
        qv = stable_quotients(Stencil(pts, i))
        n_i = np.count_nonzero(pts[i] - pts < 0)
        for k in range(m):
            n_k = np.count_nonzero(pts[k] - pts < 0)
            expected_sign = -1.0 if (n_i - n_k) % 2 else 1.0
            assert math.copysign(1.0, qv[k]) == expected_sign


def test_quotients_near_exact_on_rational_stencils():
    """Sorted-product quotients stay within a few ulp of the exact ratios.

    The magnitude-sorted product chain performs O(M) roundings, so exact
    agreement with the correctly rounded ratio is not achievable; measured
    worst case on this family is 4 ulp.
    """
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(3, 13))
        pts, fracs = rational_stencil(rng, m)
        i = int(rng.integers(0, m))
        qv = stable_quotients(Stencil(pts, i))
        a = [
            math.prod(fracs[k] - fracs[j] for j in range(m) if j != k)
            for k in range(m)
        ]
        for k in range(m):
            worst = max(worst, ulp_distance(qv[k], a[i] / a[k]))
    assert worst <= 6.0, f"quotient error {worst} ulp"


# --- derivative rows ----------------------------------------------------------


def test_rows_three_point_centered():
    st = Stencil(np.array([0.0, 1.0, 2.0]), 1)
    rows = stencil_rows(st, 2)
    assert rows.row(1).tolist() == [-0.5, 0.0, 0.5]
    assert rows.row(2).tolist() == [1.0, -2.0, 1.0]
    assert rows.max_order == 2


def test_rows_three_point_one_sided():
    st = Stencil(np.array([0.0, 1.0, 2.0]), 0)
    rows = stencil_rows(st, 2)
    assert rows.row(1).tolist() == [-1.5, 2.0, -0.5]
    assert rows.row(2).tolist() == [1.0, -2.0, 1.0]


def test_rows_nonuniform_matches_exact_values():
    st = Stencil(np.array([0.0, 1.0, 3.0]), 0)
    row = stencil_rows(st, 1).row(1)
    assert row.tolist() == [
        float(Fraction(-4, 3)),
        float(Fraction(3, 2)),
        float(Fraction(-1, 6)),
    ]


def test_rows_two_point_stencil():
    st = Stencil(np.array([0.0, 0.5]), 0)
    assert stencil_rows(st, 1).row(1).tolist() == [-2.0, 2.0]


def test_rows_order_bounds():
    st = Stencil(np.array([0.0, 1.0, 2.0]), 1)
    with pytest.raises(OrderTooHigh):
        stencil_rows(st, 3)
    with pytest.raises(ValueError):
        stencil_rows(st, 0)
    with pytest.raises(ValueError):
        stencil_rows(st, 1).row(2)


def test_rows_max_order_is_read_from_rows():
    rows = stencil_rows(Stencil(np.array([0.0, 1.0, 3.0, 4.0]), 2), 2)
    assert [f.name for f in dataclasses.fields(rows)] == ["rows", "eval_index"]
    assert rows.max_order == rows.rows.shape[0] == 2
    with pytest.raises(ValueError):
        rows.row(3)


def test_rows_diagonal_is_bitwise_negated_sum():
    """The eval entry of every row equals -(float sum of the other entries)."""
    rng = np.random.default_rng(13)
    for trial in range(50):
        m = int(rng.integers(2, 11))
        pts = smooth_stencil(rng, m)
        i = int(rng.integers(0, m))
        rows = stencil_rows(Stencil(pts, i), m - 1)
        for s in range(1, m):
            row = rows.row(s).copy()
            diag = row[i]
            row[i] = 0.0
            assert diag == -row.sum()


def test_rows_differentiate_polynomials_exactly():
    """Degree <= M-1 polynomials are differentiated to rounding error."""
    rng = np.random.default_rng(14)
    for trial in range(30):
        m = int(rng.integers(3, 10))
        pts = smooth_stencil(rng, m)
        i = int(rng.integers(0, m))
        rows = stencil_rows(Stencil(pts, i), min(3, m - 1))
        coeffs = rng.uniform(-1.0, 1.0, size=m)
        poly = np.polynomial.Polynomial(coeffs)
        values = poly(pts)
        for s in range(1, rows.max_order + 1):
            approx = rows.row(s) @ values
            exact = poly.deriv(s)(pts[i])
            scale = np.abs(rows.row(s)).sum() * np.abs(values).max()
            assert abs(approx - exact) <= 1e-10 * max(scale, 1.0)


def test_rows_translation_invariance():
    """Weights depend on the node geometry only, not on absolute position."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(40):
        m = int(rng.integers(3, 10))
        pts = smooth_stencil(rng, m)
        i = int(rng.integers(0, m))
        base = stencil_rows(Stencil(pts, i), min(3, m - 1))
        for shift in (0.5, -1.25, 1.0):
            moved = stencil_rows(Stencil(pts + shift, i), base.max_order)
            for s in range(1, base.max_order + 1):
                ref = base.row(s)
                diff = np.abs(moved.row(s) - ref).max()
                worst = max(worst, diff / np.abs(ref).max())
    assert worst <= 1e-13, f"translation error {worst}"


def test_rows_scaling_covariance():
    """Scaling nodes by lam scales the order-s row by lam**-s."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(40):
        m = int(rng.integers(3, 10))
        pts = smooth_stencil(rng, m)
        i = int(rng.integers(0, m))
        base = stencil_rows(Stencil(pts, i), min(3, m - 1))
        for lam in (0.5, 2.0, 3.0):
            scaled = stencil_rows(Stencil(pts * lam, i), base.max_order)
            for s in range(1, base.max_order + 1):
                ref = base.row(s) * lam**-s
                diff = np.abs(scaled.row(s) - ref).max()
                worst = max(worst, diff / np.abs(ref).max())
    assert worst <= 1e-12, f"scaling error {worst}"


def test_rows_match_oracle_closely_on_rational_stencils():
    """Float rows track the exact-rational recursion on dyadic stencils.

    Off-diagonal first-derivative entries land within a few ulp; diagonals
    are cancelled sums, so they are compared at row scale.  Higher orders
    are compared at row scale throughout.
    """
    rng = np.random.default_rng(5)
    worst_offdiag = 0.0
    worst_rowscale = 0.0
    for trial in range(60):
        m = int(rng.integers(3, 10))
        pts, fracs = rational_stencil(rng, m)
        i = int(rng.integers(0, m))
        rows = stencil_rows(Stencil(pts, i), 3 if m > 3 else 2)
        exact = oracle_rows(pts, i, rows.max_order)
        for s in range(1, rows.max_order + 1):
            row = rows.row(s)
            ref = exact[s - 1]
            row_scale = max(abs(float(v)) for v in ref)
            for k in range(m):
                err = abs(row[k] - float(ref[k]))
                worst_rowscale = max(worst_rowscale, err / row_scale)
                if s == 1 and k != i:
                    worst_offdiag = max(worst_offdiag, ulp_distance(row[k], ref[k]))
    assert worst_offdiag <= 6.0, f"off-diagonal error {worst_offdiag} ulp"
    assert worst_rowscale <= 1e-13, f"row-scaled error {worst_rowscale}"
