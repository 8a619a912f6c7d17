"""Round-trip and format-error tests for the text file formats."""

import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meshdiff import (
    FileFormatError,
    SparseBandMatrix,
    assemble,
    chebyshev_gauss_lobatto,
    uniform,
    validate,
)
from meshdiff.fileio import (
    read_matrix,
    read_mesh,
    read_values,
    write_matrix,
    write_mesh,
    write_values,
)


# --- value and mesh files ---------------------------------------------------


def test_values_round_trip_bit_exact(tmp_path):
    path = tmp_path / "v.txt"
    vals = np.array([1.0 / 3.0, math.pi, -1e-300, 0.1 + 0.2, 7.0])
    write_values(path, vals)
    assert np.array_equal(read_values(path), vals)


def test_values_file_allows_comments_and_blanks(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("# header\n1.5\n\n2.5 # trailing note\n")
    assert read_values(path).tolist() == [1.5, 2.5]


def test_values_file_reports_bad_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1.0\nnot-a-number\n")
    with pytest.raises(FileFormatError, match=r"v\.txt:2"):
        read_values(path)


def test_non_utf8_files_raise_file_format_error(tmp_path):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe1\x00.\x005\x00\n")
    for reader in (read_values, read_matrix):
        with pytest.raises(FileFormatError, match=r"bin\.txt: not a UTF-8 text file"):
            reader(path)


def test_mesh_round_trip_bit_exact(tmp_path):
    path = tmp_path / "m.txt"
    msh = chebyshev_gauss_lobatto(9, -1.0, 1.0)
    write_mesh(path, msh)
    back = read_mesh(path)
    assert np.array_equal(back.points, msh.points)


def test_mesh_read_validates(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("0.0\n1.0\n1.0\n")
    with pytest.raises(Exception) as exc:
        read_mesh(path)
    assert "increasing" in str(exc.value)


# --- matrix files -------------------------------------------------------------


def test_matrix_round_trip_bit_exact(tmp_path):
    path = tmp_path / "d1.mtx"
    d1 = assemble(chebyshev_gauss_lobatto(7, -1.0, 1.0), 5, 2).matrix(1)
    write_matrix(path, d1)
    back = read_matrix(path)
    assert back.n_rows == d1.n_rows and back.n_cols == d1.n_cols
    assert np.array_equal(back.col_start, d1.col_start)
    assert np.array_equal(back.data, d1.data)
    assert back.order == 1 and back.stencil_width == 5


def test_matrix_file_is_one_based_with_banner(tmp_path):
    path = tmp_path / "d1.mtx"
    d1 = assemble(uniform(3, 0.0, 2.0), 3, 1).matrix(1)
    write_matrix(path, d1)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "% order=1 stencil_width=3"
    assert lines[2] == "3 3 9"
    assert lines[3].split() == ["1", "1", "-1.5"]


def test_matrix_file_matches_per_entry_reference(tmp_path):
    """The array writer emits the bytes of the per-entry loop it replaced."""
    x = np.cumsum(np.random.default_rng(5).uniform(0.1, 1.0, 30))
    path = tmp_path / "d2.mtx"
    for mat in assemble(x, 5, 2).matrices:
        write_matrix(path, mat)
        ref = ["%%MatrixMarket matrix coordinate real general\n",
               f"% order={mat.order} stencil_width=5\n", f"30 30 {mat.nnz}\n"]
        for i in range(mat.n_rows):
            for k in range(mat.width):
                ref.append(f"{i + 1} {mat.col_start[i] + k + 1} {mat.data[i, k]:.17g}\n")
        assert path.read_text() == "".join(ref)


def test_matrix_file_bytes_are_pinned(tmp_path):
    """sha256 of the D1 and D2 files of a 2000-point CGL mesh, M = 9."""
    pinned = {
        1: "3946d4de7d6dfecbdb0d2c09effa90abc9c4826efa34ba5e8d6d056b860898cb",
        2: "7bf49684c8fc65d33e090b81cdedb74da60ffdee757ea456851369e024809193",
    }
    dset = assemble(chebyshev_gauss_lobatto(2000, -1.0, 1.0), 9, 2)
    path = tmp_path / "d.mtx"
    for s, digest in pinned.items():
        write_matrix(path, dset.matrix(s))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, f"D{s}"


def test_matrix_writer_memory_stays_flat():
    """Row blocks bound the writer: below 4 MiB traced for N = 8192 rows, M = 9.

    A writer that holds every entry as Python objects peaks near 8 MiB
    here.  Past one block of rows the peak no longer grows with N, and
    tracing costs about 8 us per entry, so a larger N only slows the test.
    """
    n, m = 8192, 9
    data = np.random.default_rng(3).standard_normal((n, m))
    mat = SparseBandMatrix(n, n, np.clip(np.arange(n) - m // 2, 0, n - m), data)
    tracemalloc.start()
    try:
        write_matrix(os.devnull, mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_matrix_keeps_stored_zeros(tmp_path):
    path = tmp_path / "d1.mtx"
    d1 = assemble(uniform(6, 0.0, 5.0), 3, 1).matrix(1)
    write_matrix(path, d1)
    back = read_matrix(path)
    assert back.nnz == 18
    assert back.data[2][1] == 0.0


def test_matrix_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 0.0\n")
    with pytest.raises(FileFormatError, match="header"):
        read_matrix(path)


def test_matrix_rejects_entry_count_mismatch(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 1.0\n1 2 2.0\n"
    )
    with pytest.raises(FileFormatError, match="promises 4"):
        read_matrix(path)


def test_matrix_rejects_duplicates(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "1 2 2\n1 1 1.0\n1 1 2.0\n"
    )
    with pytest.raises(FileFormatError, match=r"bad\.mtx:4: duplicate"):
        read_matrix(path)


def test_matrix_rejects_gappy_window(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "1 3 2\n1 1 1.0\n1 3 2.0\n"
    )
    with pytest.raises(FileFormatError, match="contiguous"):
        read_matrix(path)


def test_matrix_rejects_out_of_range_indices(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n2 1 1.0\n"
    )
    with pytest.raises(FileFormatError, match=r"bad\.mtx:3: index out of range"):
        read_matrix(path)


def test_matrix_without_metadata_comment(tmp_path):
    path = tmp_path / "plain.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% some other comment\n"
        "2 2 4\n1 1 1.0\n1 2 0.5\n2 1 -0.25\n2 2 -1.0\n"
    )
    mat = read_matrix(path)
    assert mat.order is None and mat.stencil_width is None
    assert mat.toarray().tolist() == [[1.0, 0.5], [-0.25, -1.0]]


def test_matrix_rejects_metadata_width_contradicting_rows(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% order=7 stencil_width=5\n"
        "1 3 3\n1 1 1.0\n1 2 2.0\n1 3 3.0\n"
    )
    with pytest.raises(FileFormatError, match=r"bad\.mtx: .*stencil_width=5.* 3 entries"):
        read_matrix(path)


def test_matrix_rejects_index_beyond_int64(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "1 1 2\n1 1 1.0\n1 99999999999999999999 2.0\n"
    )
    with pytest.raises(FileFormatError, match=r"bad\.mtx:4: index out of range"):
        read_matrix(path)


def test_matrix_rejects_negative_size_without_entries(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n-1 2 0\n")
    with pytest.raises(FileFormatError, match="window width"):
        read_matrix(path)


def test_matrix_reader_takes_entries_in_any_order(tmp_path):
    path = tmp_path / "shuffled.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 3 4\n2 3 4.0\n1 1 1.0\n\n2 2 3.0\n1 2 2.0\n"
    )
    mat = read_matrix(path)
    assert mat.col_start.tolist() == [0, 1]
    assert mat.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


# --- fuzzed readers: a valid file or FileFormatError, nothing else ------------

# tokens that break a line in every way the parsers distinguish
_GARBLE = st.sampled_from([
    "", "0", "-1", "-0", "1.5", "7", "nan", "inf", "1e400", "x", "%", "#",
    "%%MatrixMarket", "99999999999999999999", "-99999999999999999999",
])
_COUNT = st.integers(-2, 3) | st.just(10**20)
_FUZZ = settings(
    max_examples=70,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def _matrix_lines(draw):
    """Token lists of a valid .mtx file, entries in any order."""
    n_rows = draw(st.integers(1, 4))
    width = draw(st.integers(1, 3))
    n_cols = draw(st.integers(width, 5))
    values = st.floats(allow_nan=False, width=64)
    entries = [
        [str(i + 1), str(c0 + k + 1), repr(draw(values))]
        for i in range(n_rows)
        for c0 in [draw(st.integers(0, n_cols - width))]
        for k in range(width)
    ]
    head = [["%%MatrixMarket", "matrix", "coordinate", "real", "general"]]
    if draw(st.booleans()):
        head.append(["%", "order=1", f"stencil_width={width}"])
    head.append([str(n_rows), str(n_cols), str(len(entries))])
    return head + draw(st.permutations(entries))


def _mutate(lines, data):
    """Apply one random edit to a list of token lists, in place."""
    li = data.draw(st.integers(0, len(lines) - 1))
    line = lines[li]
    op = data.draw(st.sampled_from(
        ["drop", "duplicate", "garble", "drop line", "repeat line", "size", "no body"]
    ))
    ti = data.draw(st.integers(0, max(len(line) - 1, 0)))
    # the size line follows the banner and any comment lines
    at_size = next(
        (k for k in range(1, len(lines)) if not lines[k] or lines[k][0] != "%"),
        len(lines) - 1,
    )
    if op == "drop" and line:
        del line[ti]
    elif op == "duplicate" and line:
        line.insert(ti, line[ti])
    elif op == "garble" and line:
        line[ti] = data.draw(_GARBLE)
    elif op == "drop line":
        del lines[li]
    elif op == "repeat line":
        lines.insert(li, list(line))
    elif op == "size":
        lines[at_size] = [str(data.draw(_COUNT)) for _ in range(3)]
    elif op == "no body":
        del lines[at_size + 1:]
    if not lines:
        lines.append([])


def _read_matrix_or_reject(path, lines):
    """read_matrix of the token lines: a matrix that round-trips, or a rejection."""
    path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines))
    try:
        mat = read_matrix(path)
    except FileFormatError:
        return
    write_matrix(path, mat)
    back = read_matrix(path)
    assert np.array_equal(back.col_start, mat.col_start)
    assert np.array_equal(back.data, mat.data, equal_nan=True)


@_FUZZ
@given(lines=_matrix_lines(), data=st.data())
def test_matrix_reader_fuzz(tmp_path, lines, data):
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(lines, data)
    _read_matrix_or_reject(tmp_path / "fuzz.mtx", lines)


@_FUZZ
@given(
    size=st.lists(_COUNT.map(str), min_size=3, max_size=3),
    body=st.lists(st.tuples(_COUNT, _COUNT, st.just(1.0)).map(lambda e: list(map(str, e))),
                  max_size=4),
)
def test_matrix_reader_fuzz_counts_and_indices(tmp_path, size, body):
    """Sizes and indices that are negative, zero, too large or beyond int64."""
    lines = [["%%MatrixMarket", "matrix", "coordinate", "real", "general"], size, *body]
    _read_matrix_or_reject(tmp_path / "fuzz.mtx", lines)


@_FUZZ
@given(
    values=st.lists(st.floats(width=64).map(repr), max_size=6),
    data=st.data(),
)
def test_values_reader_fuzz(tmp_path, values, data):
    lines = [["# samples"]] + [[v] for v in values]
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(lines, data)
    path = tmp_path / "fuzz.txt"
    path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines))
    try:
        vals = read_values(path)
    except FileFormatError:
        return
    assert vals.dtype == float and vals.ndim == 1
