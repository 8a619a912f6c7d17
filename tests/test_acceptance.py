"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Every criterion measures the production float path against an independent
reference (the exact-rational oracle, classical finite-difference weights,
known convergence orders, or byte-level file comparisons) at tolerances
pinned in this file.
"""

import subprocess
import sys
from fractions import Fraction

import numpy as np

from meshdiff import (
    Stencil,
    apply,
    assemble,
    chebyshev_gauss_lobatto,
    convergence_order,
    legendre_gauss_lobatto,
    oracle_rows,
    stencil_rows,
    uniform,
)
from meshdiff.fileio import read_matrix, read_mesh, write_mesh
from conftest import (
    gamma,
    quotient_errors,
    rational_stencil,
    record_criterion,
    ulp_distance,
)

EPS = np.finfo(float).eps

# configurations shared by criteria 2-4; criterion 5 re-checks all of them
_CONFIGS_2_TO_4 = (
    [("uniform", 33, 3), ("uniform", 33, 5)]
    + [("chebyshev", n, n) for n in (8, 16, 24)]
    + [(kind, 21, m) for kind in ("uniform", "chebyshev", "legendre") for m in (3, 5, 21)]
)

_KINDS = {
    "uniform": uniform,
    "chebyshev": chebyshev_gauss_lobatto,
    "legendre": legendre_gauss_lobatto,
}


def test_criterion_1_rows_match_oracle_on_random_rational_stencils():
    """200 seeded dyadic-rational stencils, widths cycling 3/5/7/9.

    First-derivative entries are held to the a-priori rounding bounds of the
    algorithm (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., sections 3.1 and 4.2), with u = 2**-53 and gamma_n = n*u/(1 - n*u):

    - Off-diagonal: w_m = (a_i/a_m) / (x_i - x_m) passes through 2M
      roundings, namely M sorted factor quotients, the M-1 products that
      combine them, and one division by x_i - x_m.  The order-1 step
      multiplies by s = 1 and prev[i] = 1 and subtracts prev[m] = 0, all
      exactly.  So |w_hat - w| <= gamma_{2M} |w| for every entry.
    - Diagonal: d_hat = -fl(sum of the M row entries), the zero at i
      included.  A float sum of M terms, in any order, is off by at most
      gamma_{M-1} times the sum of their magnitudes, and the entries
      themselves carry the error above, so
      |d_hat - d| <= (gamma_{2M} + gamma_{M-1} (1 + gamma_{2M})) sum_{j != i} |w_j|.
      The bound scales with the row, not with d, which is exactly 0 on
      symmetric stencils.

    Both bounds assume that the coordinate differences x_i - x_k are exact
    and that nothing underflows or overflows.  rational_stencil guarantees
    both: its points are multiples of 2**-6 below a few hundred in magnitude.

    Second and third derivative rows are held to 1e-13 relative to the
    largest row entry.
    """
    rng = np.random.default_rng(0)
    widths = (3, 5, 7, 9)
    worst_off = worst_off_ulp = worst_diag = 0.0
    worst_rel = {2: 0.0, 3: 0.0}
    for trial in range(200):
        m = widths[trial % 4]
        pts, _ = rational_stencil(rng, m)
        i = int(rng.integers(0, m))
        smax = min(3, m - 1)
        rows = stencil_rows(Stencil(pts, i), smax)
        exact = oracle_rows(pts, i, smax)
        computed, reference = rows.row(1), exact[0]
        entry_bound = gamma(2 * m)
        row_bound = (entry_bound + gamma(m - 1) * (1 + entry_bound)) * sum(
            abs(w) for k, w in enumerate(reference) if k != i
        )
        for k in range(m):
            err = abs(Fraction(computed[k]) - reference[k])
            if k == i:
                worst_diag = max(worst_diag, float(err / row_bound))
            else:
                worst_off = max(worst_off, float(err / (entry_bound * abs(reference[k]))))
                worst_off_ulp = max(worst_off_ulp, ulp_distance(computed[k], reference[k]))
        for s in range(2, smax + 1):
            ref = np.array([float(v) for v in exact[s - 1]])
            rel = np.abs(rows.row(s) - ref).max() / np.abs(ref).max()
            worst_rel[s] = max(worst_rel[s], rel)
    ok = max(worst_off, worst_diag) <= 1.0 and max(worst_rel.values()) <= 1e-13
    record_criterion(
        1,
        ok,
        f"s=1 off-diagonal worst {worst_off:.2f} of gamma_2M bound ({worst_off_ulp:.3g} ulp), "
        f"diagonal worst {worst_diag:.2f} of row-sum bound; "
        f"s=2 worst {worst_rel[2]:.2e}, s=3 worst {worst_rel[3]:.2e} vs bound 1e-13",
    )
    assert worst_rel[2] <= 1e-13
    assert worst_rel[3] <= 1e-13
    # Each figure is the exact error over its bound from the docstring, which
    # holds for any correct evaluation given exact coordinate differences and
    # no underflow or overflow.  The bounds are tight enough that quotients
    # off by a few eps more per entry, or a diagonal shifted by a few eps of
    # the row's 1-norm, exceed them.
    assert worst_off <= 1.0, f"off-diagonal s=1 entries reach {worst_off:.3g} of gamma_2M |w|"
    assert worst_diag <= 1.0, f"s=1 diagonals reach {worst_diag:.3g} of the row-sum bound"


def test_criterion_2_uniform_mesh_reproduces_central_differences():
    """Uniform 33-point mesh: width-3 and width-5 rows equal the classical
    central-difference weights, with references produced by the oracle."""
    msh = uniform(33, -1.0, 1.0)
    h = Fraction(msh.points[1]) - Fraction(msh.points[0])
    worst = 0.0
    ok = True

    dset3 = assemble(msh, 3, 2)
    d1_pattern = [-1 / (2 * h), Fraction(0), 1 / (2 * h)]
    d2_pattern = [1 / h**2, -2 / h**2, 1 / h**2]
    for i in range(1, 32):
        window = msh.points[i - 1 : i + 2]
        ref = oracle_rows(window, 1, 2)
        ok = ok and ref[0] == d1_pattern and ref[1] == d2_pattern
        for s, mat in ((1, dset3.matrix(1)), (2, dset3.matrix(2))):
            row = np.array([float(v) for v in ref[s - 1]])
            rel = np.abs(mat.data[i] - row).max() / np.abs(row).max()
            worst = max(worst, rel)

    dset5 = assemble(msh, 5, 1)
    d1_wide = [c / (12 * h) for c in (1, -8, 0, 8, -1)]
    for i in range(2, 31):
        window = msh.points[i - 2 : i + 3]
        ref = oracle_rows(window, 2, 1)[0]
        ok = ok and ref == d1_wide
        row = np.array([float(v) for v in ref])
        rel = np.abs(dset5.matrix(1).data[i] - row).max() / np.abs(row).max()
        worst = max(worst, rel)

    ok = ok and worst <= 1e-12
    record_criterion(2, ok, f"worst relative deviation {worst:.2e} vs bound 1e-12")
    assert ok


def test_criterion_3_full_width_chebyshev_matches_oracle():
    """Whole-mesh stencils on Chebyshev nodes: entries match the oracle and
    the derivative of exp converges to rounding level."""
    worst = 0.0
    for n in (8, 16, 24):
        msh = chebyshev_gauss_lobatto(n, -1.0, 1.0)
        d1 = assemble(msh, n, 1).matrix(1)
        ref = np.array(
            [
                [float(v) for v in oracle_rows(msh.points, i, 1, max_points=None)[0]]
                for i in range(n)
            ]
        )
        worst = max(worst, np.abs(d1.toarray() - ref).max() / np.abs(ref).max())
        err = np.abs(apply(d1, np.exp(msh.points)) - np.exp(msh.points)).max()
    ok = worst <= 1e-12 and err <= 1e-10
    record_criterion(
        3,
        ok,
        f"worst entry deviation {worst:.2e} vs 1e-12; exp error {err:.2e} vs 1e-10 at N=24",
    )
    assert worst <= 1e-12
    assert err <= 1e-10


def test_criterion_4_polynomials_differentiate_exactly():
    """Monomials of degree <= M-1-s differentiate exactly, to row-norm scale
    1e-9, on every mesh family with N = 21 and widths 3, 5, whole mesh."""
    worst = 0.0
    for kind in ("uniform", "chebyshev", "legendre"):
        msh = _KINDS[kind](21, -1.0, 1.0)
        for m in (3, 5, 21):
            smax = min(3, m - 1)
            dset = assemble(msh, m, smax)
            for s in range(1, smax + 1):
                mat = dset.matrix(s)
                scale = np.abs(mat.data).sum(axis=1)
                for r in range(0, m - s):
                    f = msh.points**r
                    exact = (
                        np.zeros(21)
                        if r < s
                        else np.prod(np.arange(r, r - s, -1)) * msh.points ** (r - s)
                    )
                    err = np.abs(apply(mat, f) - exact) / (scale * max(1.0, np.abs(f).max()))
                    worst = max(worst, err.max())
    ok = worst <= 1e-9
    record_criterion(4, ok, f"worst row-norm-scaled error {worst:.2e} vs bound 1e-9")
    assert ok


def test_criterion_5_diagonals_are_bitwise_negated_row_sums():
    """Every assembled configuration from criteria 2-4: the diagonal entry
    equals the negated float sum of the rest of its row, bit for bit."""
    checked = 0
    clean = True
    for kind, n, m in _CONFIGS_2_TO_4:
        msh = _KINDS[kind](n, -1.0, 1.0)
        smax = min(3, m - 1)
        dset = assemble(msh, m, smax)
        for s in range(1, smax + 1):
            mat = dset.matrix(s)
            for i in range(n):
                row = mat.data[i].copy()
                k = i - int(mat.col_start[i])
                diag = row[k]
                row[k] = 0.0
                clean = clean and diag == -row.sum()
                checked += 1
    record_criterion(5, clean, f"{checked} rows checked, all bit-exact" if clean else f"{checked} rows checked, mismatch found")
    assert clean


def test_criterion_6_convergence_orders_on_uniform_meshes():
    """Fitted slopes for the first derivative of exp: width 3 near 2nd
    order, width 5 near 4th order."""
    family = lambda n: uniform(n, -1.0, 1.0)
    res = (17, 33, 65, 129)
    r3 = convergence_order(np.exp, np.exp, family, 3, 1, res)
    r5 = convergence_order(np.exp, np.exp, family, 5, 1, res)
    ok = (
        not r3.degenerate
        and not r5.degenerate
        and 1.7 <= r3.fitted_order <= 2.3
        and 3.6 <= r5.fitted_order <= 4.4
    )
    record_criterion(
        6,
        ok,
        f"width 3 order {r3.fitted_order:.3f} in [1.7, 2.3]; "
        f"width 5 order {r5.fitted_order:.3f} in [3.6, 4.4]",
    )
    assert ok


def test_criterion_7_sorted_products_not_inferior_on_geometric_stencil():
    """Geometric nodes 0, 1, 3, 7, ..., 255, every evaluation index:
    sorted-product quotients are at least as accurate as naive products,
    entry by entry, finite and within 1e-15 of the exact ratios, and both
    schemes give the eval entry with no error at all."""
    pts = np.array([2.0**k - 1.0 for k in range(9)])
    worst_margin = -np.inf
    worst_sorted = 0.0
    ok = True
    for i in range(9):
        sorted_err, naive_err = quotient_errors(pts, i)
        margin = (sorted_err - naive_err - 4.0 * EPS).max()
        worst_margin = max(worst_margin, margin)
        worst_sorted = max(worst_sorted, sorted_err.max())
        ok = (
            ok
            and np.all(sorted_err <= naive_err + 4.0 * EPS)
            and np.all(np.isfinite(sorted_err))
            and sorted_err.max() <= 1e-15
            and sorted_err[i] == 0.0
            and naive_err[i] == 0.0
        )
    record_criterion(
        7,
        ok,
        f"worst (sorted - naive - 4 eps) margin {worst_margin:.2e}, <= 0 required; "
        f"worst sorted error {worst_sorted:.2e}, <= 1e-15 required",
    )
    assert ok


def test_criterion_8_window_bookkeeping_and_crossover_row():
    """N=10, M=5: two clamped rows per edge, centered rows in between, and
    the last interior row identical to the right-edge mapping."""
    n, m = 10, 5
    c = (m - 1) // 2
    msh = uniform(n, 0.0, 1.0)
    d1 = assemble(msh, m, 1).matrix(1)
    expected_starts = [0, 0, 0, 1, 2, 3, 4, 5, 5, 5]
    starts_ok = d1.col_start.tolist() == expected_starts

    i = n - 1 - c
    interior = (i - c, c)
    right = (n - m, i - (n - m))
    maps_agree = interior == right
    row_interior = stencil_rows(
        Stencil(msh.points[interior[0] : interior[0] + m], interior[1]), 1
    ).row(1)
    row_right = stencil_rows(
        Stencil(msh.points[right[0] : right[0] + m], right[1]), 1
    ).row(1)
    rows_equal = np.array_equal(row_interior, row_right) and np.array_equal(
        d1.data[i], row_interior
    )
    ok = starts_ok and maps_agree and rows_equal
    record_criterion(
        8,
        ok,
        f"window starts {d1.col_start.tolist()}, crossover row {i} maps coincide: {maps_agree and rows_equal}",
    )
    assert ok


def test_criterion_9_cli_round_trips_and_exit_codes(tmp_path):
    """Mesh and matrix files survive the CLI bit-exactly; the documented
    failure examples exit 2/3 with one-line diagnostics."""

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "meshdiff", *map(str, args)],
            capture_output=True,
            text=True,
        )

    mesh_file = tmp_path / "mesh.txt"
    res = run("mesh", "--kind", "chebyshev", "--n", 10, "--a", -1, "--b", 1,
              "--out", mesh_file)
    mesh_ok = res.returncode == 0 and np.array_equal(
        read_mesh(mesh_file).points, chebyshev_gauss_lobatto(10, -1.0, 1.0).points
    )

    prefix = tmp_path / "op"
    res = run("assemble", "--mesh", mesh_file, "--stencil", 5, "--orders", 2,
              "--out-prefix", prefix)
    ref = assemble(chebyshev_gauss_lobatto(10, -1.0, 1.0), 5, 2)
    matrix_ok = res.returncode == 0
    for s in (1, 2):
        back = read_matrix(f"{prefix}_D{s}.mtx")
        matrix_ok = (
            matrix_ok
            and np.array_equal(back.data, ref.matrix(s).data)
            and np.array_equal(back.col_start, ref.matrix(s).col_start)
        )

    uniform_file = tmp_path / "u.txt"
    write_mesh(uniform_file, uniform(10, 0.0, 1.0))
    cases = [
        (("mesh", "--kind", "uniform", "--n", 1, "--a", 0, "--b", 1,
          "--out", tmp_path / "junk.txt"), 2, "TooFew"),
        (("assemble", "--mesh", uniform_file, "--stencil", 4, "--orders", 1,
          "--out-prefix", tmp_path / "junk"), 3, "EvenStencil"),
        (("assemble", "--mesh", uniform_file, "--stencil", 12, "--orders", 1,
          "--out-prefix", tmp_path / "junk"), 3, "StencilTooWide"),
    ]
    codes_ok = True
    for argv, code, token in cases:
        res = run(*argv)
        codes_ok = (
            codes_ok
            and res.returncode == code
            and token in res.stderr
            and len(res.stderr.strip().splitlines()) == 1
        )

    ok = mesh_ok and matrix_ok and codes_ok
    record_criterion(
        9,
        ok,
        f"mesh round trip {'ok' if mesh_ok else 'BAD'}, "
        f"matrix round trip {'ok' if matrix_ok else 'BAD'}, "
        f"exit codes {'ok' if codes_ok else 'BAD'}",
    )
    assert ok
