"""Tests for the exact-rational oracle and the measurement helpers."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from meshdiff import (
    ConvergenceReport,
    InvalidStencil,
    OrderTooHigh,
    TooLarge,
    chebyshev_gauss_lobatto,
    convergence_order,
    oracle_rows,
    uniform,
)
from conftest import rational_stencil


# --- oracle: frozen values ------------------------------------------------------


def test_oracle_first_derivative_row():
    rows = oracle_rows([0.0, 1.0, 3.0], 0, 1)
    assert rows == [[Fraction(-4, 3), Fraction(3, 2), Fraction(-1, 6)]]


def test_oracle_second_derivative_row():
    rows = oracle_rows([0.0, 1.0, 3.0], 0, 2)
    assert rows[1] == [Fraction(2, 3), Fraction(-1), Fraction(1, 3)]


def test_oracle_central_difference_weights():
    rows = oracle_rows([-1.0, 0.0, 1.0], 1, 2)
    assert rows[0] == [Fraction(-1, 2), Fraction(0), Fraction(1, 2)]
    assert rows[1] == [Fraction(1), Fraction(-2), Fraction(1)]


def test_oracle_accepts_fractions_directly():
    rows = oracle_rows([Fraction(0), Fraction(1, 3), Fraction(1)], 0, 1)
    assert sum(rows[0]) == 0


def test_oracle_rows_sum_to_zero_exactly():
    rng = np.random.default_rng(21)
    for trial in range(20):
        m = int(rng.integers(3, 9))
        pts, _ = rational_stencil(rng, m)
        i = int(rng.integers(0, m))
        for row in oracle_rows(pts, i, min(3, m - 1)):
            assert sum(row) == 0


# --- oracle: guards -------------------------------------------------------------


def test_oracle_size_guard():
    pts = np.arange(13.0)
    with pytest.raises(TooLarge):
        oracle_rows(pts, 0, 1)
    assert len(oracle_rows(pts, 0, 1, max_points=None)[0]) == 13
    assert len(oracle_rows(pts, 0, 1, max_points=13)[0]) == 13


def test_oracle_rejects_duplicates_and_bad_index():
    with pytest.raises(InvalidStencil):
        oracle_rows([0.0, 1.0, 1.0], 0, 1)
    with pytest.raises(InvalidStencil):
        oracle_rows([0.0, 1.0], 2, 1)
    with pytest.raises(InvalidStencil):
        oracle_rows([0.0], 0, 1)


def test_oracle_order_bounds():
    with pytest.raises(OrderTooHigh):
        oracle_rows([0.0, 1.0, 2.0], 0, 3)
    with pytest.raises(ValueError):
        oracle_rows([0.0, 1.0, 2.0], 0, 0)


# --- oracle: exactness properties ------------------------------------------------


def test_oracle_differentiates_monomials_exactly():
    """Rows applied to x**r reproduce falling factorials as exact Fractions."""
    rng = np.random.default_rng(22)
    for trial in range(15):
        m = int(rng.integers(3, 9))
        _, fracs = rational_stencil(rng, m)
        i = int(rng.integers(0, m))
        smax = min(3, m - 1)
        rows = oracle_rows(fracs, i, smax)
        for s in range(1, smax + 1):
            for r in range(m):
                approx = sum(w * x**r for w, x in zip(rows[s - 1], fracs))
                exact = (
                    Fraction(math.perm(r, s)) * fracs[i] ** (r - s) if r >= s else Fraction(0)
                )
                assert approx == exact


def test_oracle_matches_symbolic_differentiation():
    """Independent cross-check: differentiate the Lagrange basis with sympy."""
    rng = np.random.default_rng(23)
    x = sympy.Symbol("x")
    for m in (3, 4, 5):
        _, fracs = rational_stencil(rng, m)
        nodes = [sympy.Rational(f.numerator, f.denominator) for f in fracs]
        i = int(rng.integers(0, m))
        rows = oracle_rows(fracs, i, m - 1)
        for k in range(m):
            basis = sympy.prod(
                (x - nodes[j]) / (nodes[k] - nodes[j]) for j in range(m) if j != k
            )
            for s in range(1, m):
                ref = sympy.diff(basis, x, s).subs(x, nodes[i])
                assert Fraction(int(ref.p), int(ref.q)) == rows[s - 1][k]


# --- convergence reports -----------------------------------------------------------


def test_convergence_second_order_central():
    report = convergence_order(
        np.sin,
        np.cos,
        lambda n: uniform(n, -1.0, 1.0),
        3,
        1,
        (17, 33, 65, 129),
    )
    assert not report.degenerate
    assert 1.7 <= report.fitted_order <= 2.3
    assert "fitted order" in report.table()


def test_convergence_whole_mesh_width():
    report = convergence_order(
        np.exp,
        np.exp,
        lambda n: uniform(n, 0.0, 1.0),
        None,
        1,
        (4, 6, 8),
    )
    assert report.errors[-1] < report.errors[0]


def test_convergence_flags_saturation():
    """Errors at rounding floor yield a degenerate report, not a bogus order."""
    report = convergence_order(
        lambda x: x**3,
        lambda x: 3.0 * x * x,
        lambda n: uniform(n, 0.0, 1.0),
        5,
        1,
        (9, 17),
    )
    assert report.degenerate
    assert report.fitted_order is None
    assert "DegenerateFit" in report.table()


def test_convergence_requires_two_resolutions():
    with pytest.raises(ValueError):
        convergence_order(
            np.sin, np.cos, lambda n: uniform(n, 0.0, 1.0), 3, 1, (17,)
        )


def test_convergence_checks_resolutions_before_building_meshes():
    def family(n):
        raise AssertionError(f"mesh_family({n}) called")

    with pytest.raises(ValueError):
        convergence_order(np.sin, np.cos, family, 3, 1, (33, 17))


def test_convergence_fits_only_the_leading_run_above_the_floor():
    """exp on whole Chebyshev meshes hits rounding noise from N = 17 on."""
    report = convergence_order(
        np.exp,
        np.exp,
        lambda n: chebyshev_gauss_lobatto(n, -1.0, 1.0),
        None,
        1,
        (5, 9, 17, 33, 65),
    )
    assert report.fitted_points == 2
    slope = np.polyfit(np.log(report.spacings[:2]), np.log(report.errors[:2]), 1)[0]
    assert report.fitted_order == slope
    assert report.table().splitlines()[-2] == "fit over N = 5..9"


def test_convergence_keeps_every_resolution_still_converging():
    """The smallest error here is 4.9e3 u ||D||_inf max|f|, far above the floor."""
    report = convergence_order(
        np.exp, np.exp, lambda n: uniform(n, 0.0, 1.0), 5, 1, (17, 33, 65, 129)
    )
    assert report.fitted_points == 4
    assert report.table().splitlines()[-2] == "fit over N = 17..129"


def test_report_validates_alignment():
    with pytest.raises(ValueError):
        ConvergenceReport((8, 16), (0.1,), (1e-3, 1e-4), 2.0)
    with pytest.raises(ValueError):
        ConvergenceReport((16, 8), (0.1, 0.2), (1e-3, 1e-4), 2.0)
