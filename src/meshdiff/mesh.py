"""Mesh model and the standard collocation point families.

Points are always kept in ascending order.  Results from references that
use descending Chebyshev points differ by a row/column reversal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInterval, NoConvergence, NonFinite, NotIncreasing, TooFew

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True, eq=False)
class Mesh:
    """Strictly increasing finite coordinates of at least two points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        if pts.ndim != 1:
            raise ValueError("mesh points must form a one-dimensional array")
        if pts.size < 2:
            raise TooFew(f"a mesh needs at least 2 points, got {pts.size}")
        if not np.all(np.isfinite(pts)):
            raise NonFinite("mesh coordinates must be finite")
        rising = np.diff(pts) > 0
        if not rising.all():
            k = int(np.argmin(rising)) + 1
            raise NotIncreasing(
                f"mesh points must be strictly increasing; offending index {k}"
            )
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])


def validate(points) -> Mesh:
    """Check raw coordinates and wrap them in a Mesh.

    No repair is attempted: out-of-order input raises NotIncreasing (the
    message cites the first offending position), NaN or inf raises
    NonFinite, and fewer than two points raises TooFew.
    """
    return Mesh(points)


def _check_interval(n, a, b):
    if int(n) < 2:
        raise TooFew(f"need at least 2 points, got n={int(n)}")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NonFinite(f"interval bounds must be finite, got [{a}, {b}]")
    if not a < b:
        raise EmptyInterval(f"need a < b, got a={a}, b={b}")


def _to_interval(t, a, b):
    # affine map from [-1, 1]; endpoints pinned bit-exactly, and a
    # symmetric t stays symmetric because the midpoint is added last
    x = 0.5 * (a + b) + 0.5 * (b - a) * t
    x[0] = a
    x[-1] = b
    return x


def uniform(n, a, b) -> Mesh:
    """Evenly spaced points on [a, b] with bit-exact endpoints."""
    _check_interval(n, a, b)
    return Mesh(np.linspace(float(a), float(b), int(n)))


def chebyshev_gauss_lobatto(n, a, b) -> Mesh:
    """Chebyshev-Gauss-Lobatto points mapped to [a, b], ascending.

    The canonical nodes are cos(pi*(n-j)/(n-1)); they are evaluated here
    in the equivalent sine form sin(pi*(2j-n+1)/(2n-2)) so the set is
    exactly symmetric about the interval midpoint and an odd-n center
    point lands exactly on it.
    """
    _check_interval(n, a, b)
    n = int(n)
    j = np.arange(n)
    t = np.sin(np.pi * (2.0 * j - (n - 1)) / (2.0 * (n - 1)))
    return Mesh(_to_interval(t, float(a), float(b)))


def _legendre_pair(k: int, x: np.ndarray, out: tuple[np.ndarray, ...]):
    """P_k(x) and P_{k-1}(x) by the three-term recurrence, k >= 1.

    The three buffers of x's shape hold the recurrence; the two returned
    arrays are among them.
    """
    p_prev, p, tmp = out
    p_prev.fill(1.0)
    np.copyto(p, x)
    for j in range(2, k + 1):
        # ((2j - 1) x p - (j - 1) p_prev) / j, rounded as written
        np.multiply(x, 2 * j - 1, out=tmp)
        tmp *= p
        np.multiply(p_prev, j - 1, out=p_prev)
        tmp -= p_prev
        tmp /= j
        p_prev, p, tmp = p, tmp, p_prev
    return p, p_prev


def legendre_gauss_lobatto(n, a, b) -> Mesh:
    """Legendre-Gauss-Lobatto points mapped to [a, b], ascending.

    Interior nodes are the roots of P'_{n-1}.  Only the ceil((n-2)/2) of
    them left of the centre are computed; the right half is their mirror
    image and an odd-n centre is exactly 0, so x_i = -x_{n-1-i} holds
    bit-exactly on [-1, 1].

    The roots are the zeros of the Jacobi polynomial P^{(1,1)}_{n-2}.  Each
    starts from its Gatteschi-Pittaluga asymptotic value
    cos(phi - 3 cot(phi) / (8 rho^2)), with rho = n - 1/2 and
    phi = (j + 1/4) pi / rho for the j-th zero from the right, and takes
    Halley steps 2 f f' / (2 f'^2 - f f'') on f = P'_{n-1} until a sweep
    moves no node by more than 1e-15 (one to three sweeps; NoConvergence
    after 100).  Each sweep runs one three-term recurrence for P_{n-1} and
    P_{n-2}; f comes from (1-x^2) P'_k = k (P_{k-1} - x P_k), f' from the
    Legendre differential equation and f'' from its derivative.
    """
    _check_interval(n, a, b)
    n = int(n)
    if n == 2:
        return Mesh(_to_interval(np.array([-1.0, 1.0]), float(a), float(b)))
    k = n - 1
    half = (n - 1) // 2
    rho = n - 0.5
    # zeros j = n-2 down to n-1-half, the left half in ascending order
    phi = (np.arange(n - 2, n - 2 - half, -1) + 0.25) * (np.pi / rho)
    t = np.cos(phi - 3.0 / (8.0 * rho * rho * np.tan(phi)))
    buffers = (np.empty(half), np.empty(half), np.empty(half))
    for _ in range(_NEWTON_MAX_ITER):
        pk, pk_prev = _legendre_pair(k, t, buffers)
        w = 1.0 - t * t
        dp = k * (pk_prev - t * pk) / w
        ddp = (2.0 * t * dp - k * (k + 1) * pk) / w
        dddp = (4.0 * t * ddp - (k * (k + 1) - 2) * dp) / w
        step = 2.0 * dp * ddp / (2.0 * ddp * ddp - dp * dddp)
        t -= step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    else:
        raise NoConvergence(
            f"Legendre-Gauss-Lobatto iteration missed tolerance {_NEWTON_TOL} "
            f"after {_NEWTON_MAX_ITER} sweeps (n={n})"
        )
    if n % 2:
        t[-1] = 0.0
    nodes = np.concatenate(([-1.0], t, -t[::-1][n % 2:], [1.0]))
    if np.any(np.diff(nodes) <= 0):
        raise NoConvergence(f"Halley iteration collapsed two nodes (n={n})")
    return Mesh(_to_interval(nodes, float(a), float(b)))
