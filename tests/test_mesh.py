"""Tests for mesh validation and the three node-family generators."""

import math

import mpmath
import numpy as np
import pytest

import meshdiff.mesh
from meshdiff import (
    EmptyInterval,
    Mesh,
    NonFinite,
    NotIncreasing,
    TooFew,
    chebyshev_gauss_lobatto,
    legendre_gauss_lobatto,
    uniform,
    validate,
)


# --- validation ---------------------------------------------------------------


def test_validate_accepts_lists_and_preserves_order():
    msh = validate([0.0, 0.25, 1.0])
    assert msh.n == 3
    assert msh.points.tolist() == [0.0, 0.25, 1.0]
    assert not msh.points.flags.writeable


def test_validate_too_few():
    with pytest.raises(TooFew):
        validate([1.0])


def test_validate_non_finite():
    with pytest.raises(NonFinite):
        validate([0.0, np.nan, 1.0])
    with pytest.raises(NonFinite):
        validate([0.0, 1.0, np.inf])


def test_validate_not_increasing_reports_offending_index():
    with pytest.raises(NotIncreasing, match="index 2"):
        validate([0.0, 1.0, 1.0])
    with pytest.raises(NotIncreasing, match="index 1"):
        validate([3.0, 2.0, 4.0])


def test_validate_rejects_2d_input():
    with pytest.raises(ValueError):
        validate(np.zeros((2, 2)))


def test_mesh_interval_properties():
    msh = validate([-2.0, 0.0, 5.0])
    assert msh.a == -2.0 and msh.b == 5.0


# --- interval checks shared by the generators ---------------------------------


@pytest.mark.parametrize("gen", [uniform, chebyshev_gauss_lobatto, legendre_gauss_lobatto])
def test_generators_reject_bad_intervals(gen):
    with pytest.raises(TooFew):
        gen(1, 0.0, 1.0)
    with pytest.raises(EmptyInterval):
        gen(5, 1.0, 1.0)
    with pytest.raises(EmptyInterval):
        gen(5, 2.0, 1.0)


@pytest.mark.parametrize("gen", [uniform, chebyshev_gauss_lobatto, legendre_gauss_lobatto])
@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_generators_pin_endpoints_bitwise(gen, n):
    a, b = 0.1, 0.3
    pts = gen(n, a, b).points
    assert pts[0] == a and pts[-1] == b
    assert np.all(np.diff(pts) > 0)


@pytest.mark.parametrize("gen", [chebyshev_gauss_lobatto, legendre_gauss_lobatto])
@pytest.mark.parametrize("n", [4, 5, 16, 33, 2000, 2001])
def test_gauss_lobatto_families_symmetric_bitwise(gen, n):
    pts = gen(n, -1.0, 1.0).points
    assert np.array_equal(pts, -pts[::-1])


def test_uniform_symmetric_to_rounding():
    pts = uniform(17, -1.0, 1.0).points
    assert np.abs(pts + pts[::-1]).max() <= 1e-15


# --- uniform ------------------------------------------------------------------


def test_uniform_five_points():
    assert uniform(5, 0.0, 2.0).points.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_uniform_two_points():
    assert uniform(2, -3.0, 7.0).points.tolist() == [-3.0, 7.0]


# --- Chebyshev-Gauss-Lobatto ---------------------------------------------------


def test_chebyshev_three_points_exact():
    assert chebyshev_gauss_lobatto(3, -1.0, 1.0).points.tolist() == [-1.0, 0.0, 1.0]


def test_chebyshev_five_points():
    pts = chebyshev_gauss_lobatto(5, -1.0, 1.0).points
    ref = np.array([-1.0, -math.sqrt(2.0) / 2.0, 0.0, math.sqrt(2.0) / 2.0, 1.0])
    assert pts[2] == 0.0
    assert np.abs(pts - ref).max() <= 1e-15


def test_chebyshev_matches_cosine_definition():
    n = 12
    pts = chebyshev_gauss_lobatto(n, -1.0, 1.0).points
    ref = np.cos(np.pi * (n - 1 - np.arange(n)) / (n - 1))
    assert np.abs(pts - ref).max() <= 1e-15


def test_chebyshev_odd_count_center_exact_on_affine_interval():
    pts = chebyshev_gauss_lobatto(9, 1.0, 3.0).points
    assert pts[4] == 2.0


# --- Legendre-Gauss-Lobatto ----------------------------------------------------


def test_legendre_two_and_three_points():
    assert legendre_gauss_lobatto(2, -1.0, 1.0).points.tolist() == [-1.0, 1.0]
    pts = legendre_gauss_lobatto(3, -1.0, 1.0).points
    assert pts.tolist() == [-1.0, 0.0, 1.0]


def test_legendre_four_points_known_roots():
    pts = legendre_gauss_lobatto(4, -1.0, 1.0).points
    r = 1.0 / math.sqrt(5.0)
    assert abs(pts[1] + r) <= 1e-15 and abs(pts[2] - r) <= 1e-15


def test_legendre_five_points_known_roots():
    pts = legendre_gauss_lobatto(5, -1.0, 1.0).points
    r = math.sqrt(3.0 / 7.0)
    assert abs(pts[1] + r) <= 1e-15 and abs(pts[3] - r) <= 1e-15
    assert pts[2] == 0.0


@pytest.mark.parametrize("n", [6, 10, 33])
def test_legendre_interior_matches_numpy_roots(n):
    """Interior nodes are the roots of P'_{n-1}, cross-checked via numpy."""
    pts = legendre_gauss_lobatto(n, -1.0, 1.0).points
    ref = np.polynomial.legendre.Legendre.basis(n - 1).deriv().roots()
    assert np.abs(pts[1:-1] - np.sort(ref.real)).max() <= 1e-13


def test_legendre_residuals_small_relative_to_derivative_scale():
    """|P'_{n-1}| at the interior nodes, scaled by P'_{n-1}(1) = n(n-1)/2.

    An absolute residual bound is not meaningful at larger n because P''
    grows like n**4 at the extreme interior roots, so even perfectly
    rounded nodes leave residuals near 1e-11.
    """
    worst = 0.0
    for n in range(3, 65):
        pts = legendre_gauss_lobatto(n, -1.0, 1.0).points
        dp = np.polynomial.legendre.Legendre.basis(n - 1).deriv()
        scale = n * (n - 1) / 2.0
        worst = max(worst, np.abs(dp(pts[1:-1])).max() / scale)
    assert worst <= 1e-12, f"scaled residual {worst}"


def _lgl_roots_40_digits(k, starts):
    """Roots of P'_k near float starts, by Newton iteration in 40-digit mpmath."""
    roots = []
    with mpmath.workdps(40):
        # P_j = c_j x P_{j-1} - d_j P_{j-2}, with c_j = (2j-1)/j and d_j = (j-1)/j
        coeffs = [(mpmath.mpf(2 * j - 1) / j, mpmath.mpf(j - 1) / j) for j in range(2, k + 1)]
        for start in starts:
            x = mpmath.mpf(start)
            for _ in range(10):
                p_prev, p = mpmath.mpf(1), x
                for c, d in coeffs:
                    p_prev, p = p, c * x * p - d * p_prev
                w = 1 - x * x
                dp = k * (p_prev - x * p) / w
                ddp = (2 * x * dp - k * (k + 1) * p) / w
                step = dp / ddp
                x -= step
                # quadratic convergence: the error left is far below 40 digits
                if abs(step) < mpmath.mpf(10) ** -30:
                    break
            else:
                raise AssertionError(f"reference iteration stalled (k={k}, start={start!r})")
            roots.append(x)
    return roots


def test_legendre_nodes_within_two_ulp_of_40_digit_roots():
    """Every interior node for n = 3..65, and 16 at n = 2000, within 2u of the root.

    u = 2**-53.  The nodes are mirror images bitwise (tested above) and so
    are the true roots, so one reference root checks both members of a pair;
    at n = 2000 the pairs cover both ends and the middle.
    """
    u = 2.0**-53
    cases = [(n, range(1, (n + 1) // 2)) for n in range(3, 66)]
    cases.append((2000, [1, 2, 3, 4, 996, 997, 998, 999]))
    worst = 0.0
    for n, indices in cases:
        pts = legendre_gauss_lobatto(n, -1.0, 1.0).points
        roots = _lgl_roots_40_digits(n - 1, pts[list(indices)])
        for i, root in zip(indices, roots):
            for node, exact in ((pts[i], root), (pts[n - 1 - i], -root)):
                worst = max(worst, float(abs(mpmath.mpf(node) - exact)) / u)
    assert worst <= 2.0, f"worst node error {worst:.3g} u"


def test_legendre_takes_at_most_three_recurrence_passes(monkeypatch):
    """Asymptotic starts and Halley steps: one recurrence per sweep, at most 3 sweeps."""
    recurrence = meshdiff.mesh._legendre_pair
    passes = 0

    def counted(*args):
        nonlocal passes
        passes += 1
        return recurrence(*args)

    monkeypatch.setattr(meshdiff.mesh, "_legendre_pair", counted)
    over = {}
    for n in [*range(3, 301), 2000]:
        passes = 0
        legendre_gauss_lobatto(n, -1.0, 1.0)
        if passes > 3:
            over[n] = passes
    assert not over, f"recurrence passes above 3: {over}"


def test_legendre_affine_interval():
    pts = legendre_gauss_lobatto(4, 0.0, 10.0).points
    ref = 5.0 * (1.0 + legendre_gauss_lobatto(4, -1.0, 1.0).points)
    assert pts[0] == 0.0 and pts[-1] == 10.0
    assert np.abs(pts - ref).max() <= 1e-14 * 10.0


# --- Mesh direct construction --------------------------------------------------


def test_mesh_constructor_validates():
    with pytest.raises(NotIncreasing):
        Mesh(np.array([0.0, 0.0, 1.0]))
    msh = Mesh(np.array([0.0, 1.0]))
    assert msh.n == 2
