"""Plain-text mesh/vector files and Matrix Market matrices.

Floats are written with 17 significant digits, enough to reproduce any
double bit-exactly on read-back.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

import numpy as np

from .assembly import SparseBandMatrix
from .errors import FileFormatError
from .mesh import Mesh, validate

_MM_HEADER = "%%MatrixMarket matrix coordinate real general"
_META_RE = re.compile(r"^%\s*order=(\d+)\s+stencil_width=(\d+)\s*$")
_WRITE_ROWS = 1024


@contextmanager
def _numbered_lines(path):
    """(line number, line) pairs; a file that is not UTF-8 is a FileFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield enumerate(fh, 1)
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: not a UTF-8 text file") from None


def read_values(path) -> np.ndarray:
    """Floats from a one-value-per-line file; '#' starts a comment."""
    vals = []
    with _numbered_lines(path) as lines:
        for lineno, raw in lines:
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                vals.append(float(text))
            except ValueError:
                raise FileFormatError(
                    f"{path}:{lineno}: expected one number, got {text!r}"
                ) from None
    return np.asarray(vals, dtype=float)


def write_values(path, values) -> None:
    with open(path, "w") as fh:
        fh.writelines(map("{:.17g}\n".format, np.asarray(values, dtype=float).tolist()))


def read_mesh(path) -> Mesh:
    return validate(read_values(path))


def write_mesh(path, mesh: Mesh) -> None:
    write_values(path, mesh.points)


def write_matrix(path, matrix: SparseBandMatrix) -> None:
    """Matrix Market coordinate form, 1-based indices, windows intact.

    Stored zeros are written out, so nnz is rows times window width and a
    read-back reproduces the matrix bit-exactly.  Order and stencil width
    ride along in a comment line.  Entries are formatted _WRITE_ROWS rows
    at a time, so memory stays flat in the matrix size.
    """
    width = matrix.width
    offsets = np.arange(1, width + 1)
    with open(path, "w") as fh:
        fh.write(_MM_HEADER + "\n")
        if matrix.order is not None and matrix.stencil_width is not None:
            fh.write(f"% order={matrix.order} stencil_width={matrix.stencil_width}\n")
        fh.write(f"{matrix.n_rows} {matrix.n_cols} {matrix.nnz}\n")
        for r0 in range(0, matrix.n_rows, _WRITE_ROWS):
            r1 = min(r0 + _WRITE_ROWS, matrix.n_rows)
            # one "row col value" triple per entry, interleaved for one % pass
            fields = [None] * (3 * (r1 - r0) * width)
            fields[0::3] = np.repeat(np.arange(r0 + 1, r1 + 1), width).tolist()
            fields[1::3] = (matrix.col_start[r0:r1, None] + offsets).ravel().tolist()
            fields[2::3] = matrix.data[r0:r1].ravel().tolist()
            fh.write("%d %d %.17g\n" * ((r1 - r0) * width) % tuple(fields))


def read_matrix(path) -> SparseBandMatrix:
    """Read a Matrix Market file whose rows form contiguous uniform windows.

    Entry lines are parsed into flat arrays, which are checked whole.
    """
    with _numbered_lines(path) as lines:
        end = (0, "")
        lineno, line = next(lines, end)
        if not lineno:
            raise FileFormatError(f"{path}: empty file")
        header = line.split()
        # the banner is case-sensitive, the four type words are not
        if header[:1] + [t.lower() for t in header[1:]] != _MM_HEADER.split():
            raise FileFormatError(f"{path}: expected header '{_MM_HEADER}'")
        order = width_meta = None
        lineno, line = next(lines, end)
        while line.lstrip().startswith("%"):
            meta = _META_RE.match(line.strip())
            if meta:
                order, width_meta = int(meta.group(1)), int(meta.group(2))
            lineno, line = next(lines, end)
        while lineno and not line.strip():
            lineno, line = next(lines, end)
        if not lineno:
            raise FileFormatError(f"{path}: missing size line")
        try:
            n_rows, n_cols, nnz = (int(t) for t in line.split())
        except ValueError:
            raise FileFormatError(f"{path}: bad size line {line!r}") from None
        rows, cols, vals, where = [], [], [], []
        for lineno, line in lines:
            parts = line.split()
            if not parts:
                continue
            try:
                r, c, v = parts
                rows.append(int(r))
                cols.append(int(c))
                vals.append(float(v))
            except ValueError:
                raise FileFormatError(
                    f"{path}:{lineno}: expected 'row col value', got {line.strip()!r}"
                ) from None
            where.append(lineno)
    try:
        r, c = np.array([rows, cols], dtype=np.int64)
    except OverflowError:  # an index past int64 becomes 0, which is out of range
        r, c = np.array([[v if abs(v) < 2**63 else 0 for v in vs] for vs in (rows, cols)])
    bad = (r < 1) | (r > n_rows) | (c < 1) | (c > n_cols)
    if bad.any():
        raise FileFormatError(f"{path}:{where[bad.argmax()]}: index out of range")
    # row-major order; a stable sort leaves each repeat after its first
    perm = np.lexsort((c, r))
    r, c = r[perm] - 1, c[perm] - 1
    repeat = (r[1:] == r[:-1]) & (c[1:] == c[:-1])
    if repeat.any():
        raise FileFormatError(f"{path}:{where[perm[1:][repeat].min()]}: duplicate entry")
    if len(vals) != nnz:
        raise FileFormatError(f"{path}: size line promises {nnz} entries, found {len(vals)}")
    # n_rows <= nnz bounds the bincount before it is allocated
    if not 0 < n_rows <= nnz or np.ptp(np.bincount(r, minlength=n_rows)):
        raise FileFormatError(f"{path}: rows do not share one window width")
    c = c.reshape(n_rows, -1)
    gappy = (np.diff(c, axis=1) != 1).any(axis=1)
    if gappy.any():
        raise FileFormatError(f"{path}: row {gappy.argmax() + 1} window is not contiguous")
    if width_meta not in (None, c.shape[1]):
        raise FileFormatError(
            f"{path}: metadata stencil_width={width_meta} but rows hold {c.shape[1]} entries"
        )
    data = np.array(vals)[perm].reshape(c.shape)
    return SparseBandMatrix(
        n_rows, n_cols, c[:, 0], data, order=order, stencil_width=width_meta
    )
