"""Command-line front end.

Subcommands: mesh, assemble, apply, converge.  Exit codes: 0 on success,
2 for input or parse errors, 3 for numerical or domain errors and for
running out of memory; every failure prints exactly one diagnostic line
to stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio
from .assembly import apply, assemble
from .errors import InputError, MeshdiffError
from .mesh import chebyshev_gauss_lobatto, legendre_gauss_lobatto, uniform
from .verify import convergence_order

_PROG = "meshdiff"

_GENERATORS = {
    "uniform": uniform,
    "chebyshev": chebyshev_gauss_lobatto,
    "legendre": legendre_gauss_lobatto,
}

# named test functions with derivatives up to order 3
_FUNCTIONS = {
    "exp": (np.exp, np.exp, np.exp, np.exp),
    "sin": (np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
    "runge": (
        lambda x: 1.0 / (1.0 + 25.0 * x * x),
        lambda x: -50.0 * x / (1.0 + 25.0 * x * x) ** 2,
        lambda x: (3750.0 * x * x - 50.0) / (1.0 + 25.0 * x * x) ** 3,
        lambda x: (15000.0 * x - 375000.0 * x ** 3) / (1.0 + 25.0 * x * x) ** 4,
    ),
    "cubic": (
        lambda x: x ** 3,
        lambda x: 3.0 * x * x,
        lambda x: 6.0 * x,
        lambda x: np.full_like(x, 6.0),
    ),
}


class _Parser(argparse.ArgumentParser):
    # keep stderr to a single diagnostic line on flag errors
    def error(self, message):
        self.exit(2, f"{self.prog}: {message}\n")


def _resolutions(text: str):
    try:
        vals = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if len(vals) < 2:
        raise argparse.ArgumentTypeError("need at least two resolutions")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise argparse.ArgumentTypeError(f"resolutions must increase, got {text!r}")
    return vals


def _positive_int(text: str):
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _stencil_width(text: str):
    if text.strip().upper() == "N":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'N', got {text!r}"
        ) from None


_STENCIL = dict(
    type=_stencil_width, required=True, help="stencil width M, or 'N' for the whole mesh"
)


def _cmd_mesh(args) -> int:
    msh = _GENERATORS[args.kind](args.n, args.a, args.b)
    fileio.write_mesh(args.out, msh)
    gaps = np.diff(msh.points)
    print(
        f"wrote {args.out}: N={msh.n} on [{msh.a:g}, {msh.b:g}], "
        f"spacing min={gaps.min():.6g} max={gaps.max():.6g}"
    )
    return 0


def _cmd_assemble(args) -> int:
    msh = fileio.read_mesh(args.mesh)
    dset = assemble(msh, msh.n if args.stencil is None else args.stencil, args.orders)
    for s in range(1, dset.max_order + 1):
        mat = dset.matrix(s)
        path = f"{args.out_prefix}_D{s}.mtx"
        fileio.write_matrix(path, mat)
        print(
            f"wrote {path}: N={mat.n_rows} M={dset.stencil_width} "
            f"order={s} nnz={mat.nnz}"
        )
    return 0


def _cmd_apply(args) -> int:
    mat = fileio.read_matrix(args.matrix)
    samples = fileio.read_values(args.samples)
    out = apply(mat, samples)
    fileio.write_values(args.out, out)
    print(f"wrote {args.out}: {out.size} values")
    return 0


def _cmd_converge(args) -> int:
    family = _GENERATORS[args.kind]
    funcs = _FUNCTIONS[args.function]
    report = convergence_order(
        funcs[0],
        funcs[args.order],
        lambda n: family(n, args.a, args.b),
        args.stencil,
        args.order,
        args.resolutions,
    )
    text = report.table()
    with open(args.out, "w") as fh:
        fh.write(text + "\n")
    csv_path = f"{args.out}.csv"
    with open(csv_path, "w") as fh:
        fh.write("n,h,max_error,fitted_order\n")
        fitted = "" if report.degenerate else f"{report.fitted_order:.17g}"
        for n, h, e in zip(report.resolutions, report.spacings, report.errors):
            fh.write(f"{n},{h:.17g},{e:.17g},{fitted}\n")
    print(text)
    print(f"wrote {args.out} and {csv_path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog=_PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_mesh = sub.add_parser("mesh", help="generate a mesh file")
    p_mesh.add_argument("--kind", choices=sorted(_GENERATORS), required=True)
    p_mesh.add_argument("--n", type=int, required=True, help="number of points")
    p_mesh.add_argument("--a", type=float, required=True, help="left endpoint")
    p_mesh.add_argument("--b", type=float, required=True, help="right endpoint")
    p_mesh.add_argument("--out", required=True, help="mesh file to write")
    p_mesh.set_defaults(handler=_cmd_mesh)

    p_asm = sub.add_parser("assemble", help="build differentiation matrices")
    p_asm.add_argument("--mesh", required=True, help="mesh file to read")
    p_asm.add_argument("--stencil", **_STENCIL)
    p_asm.add_argument(
        "--orders", type=_positive_int, required=True, help="highest order S"
    )
    p_asm.add_argument(
        "--out-prefix", required=True, help="writes <prefix>_D1.mtx .. <prefix>_DS.mtx"
    )
    p_asm.set_defaults(handler=_cmd_assemble)

    p_apply = sub.add_parser("apply", help="apply a matrix to sample values")
    p_apply.add_argument("--matrix", required=True, help="Matrix Market file")
    p_apply.add_argument("--samples", required=True, help="sample values, one per line")
    p_apply.add_argument("--out", required=True, help="derivative values to write")
    p_apply.set_defaults(handler=_cmd_apply)

    p_conv = sub.add_parser("converge", help="run a convergence study")
    p_conv.add_argument("--function", choices=sorted(_FUNCTIONS), required=True)
    p_conv.add_argument("--kind", choices=sorted(_GENERATORS), required=True)
    p_conv.add_argument("--stencil", **_STENCIL)
    p_conv.add_argument(
        "--order", type=int, choices=(1, 2, 3), default=1, help="derivative order"
    )
    p_conv.add_argument(
        "--resolutions",
        type=_resolutions,
        required=True,
        help="comma-separated point counts, e.g. 17,33,65",
    )
    p_conv.add_argument("--a", type=float, default=-1.0, help="left endpoint")
    p_conv.add_argument("--b", type=float, default=1.0, help="right endpoint")
    p_conv.add_argument("--out", required=True, help="report file; CSV lands at <out>.csv")
    p_conv.set_defaults(handler=_cmd_converge)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, OSError) as exc:
        print(f"{_PROG}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MeshdiffError as exc:
        print(f"{_PROG}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy raises a subclass; name the builtin, keep the one-line contract
        detail = " ".join(str(exc).split()) or "out of memory"
        print(f"{_PROG}: MemoryError: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
