"""The four benchmark workloads.

A workload turns the seed into blocks of op inputs.  Every block has the
same composition (which meshes, widths, orders and sizes it holds); the
seed varies the mesh jitter, intervals, test-function phases, sizes
within a narrow range and the order within the block.  Runs always time whole blocks, so the distribution of
op costs is the same from seed to seed, and the accuracy figures come
from block 0, which every run executes, so they depend on the seed only.

Each op is timed from the outside through public names looked up at call
time (``meshdiff.assemble``, ``meshdiff.cli.main``, ...), so the tracer
can wrap them.  The workload also supplies the gate for each op and the
accuracy figures for block 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import meshdiff
import meshdiff.cli
import meshdiff.fileio

import gate

# scaled moment residual tolerances, fixed per mesh family: 100x the
# largest residual seen on block-0 inputs of seeds 0..9 (sliding-fd) or
# 0..19 (the other families) when the benchmark was introduced, rounded
# up to a power of ten
MOMENT_TOL = {
    "jittered": 1e-12,
    "tanh": 1e-12,
    "rough": 1e-9,
    "cgl": 1e-11,
    "lgl": 1e-11,
    "chebyshev": 1e-13,
    "legendre": 1e-13,
}


# block index of the warm-up op's inputs, never reached by a timed loop
WARMUP_BLOCK = 10 ** 6


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _sine(x, a, b, cycles, phase, order):
    """order-th derivative of sin(2 pi cycles (x - a)/(b - a) + phase)."""
    w = 2.0 * np.pi * cycles / (b - a)
    return w ** order * np.sin(w * (x - a) + phase + order * np.pi / 2)


def _sine_pairs(ops, x, a, b, cycles, phase):
    """(computed, exact) derivatives of sines at four phases an eighth of a
    period apart; ops[s - 1] maps samples to their order-s derivative.

    The typical error of one phase moves by ~10% from seed to seed, the
    largest over four by less.
    """
    return [
        (op(_sine(x, a, b, cycles, p, 0)), _sine(x, a, b, cycles, p, s))
        for s, op in enumerate(ops, 1)
        for p in phase + np.arange(4) * np.pi / 4
    ]


class Workload:
    """Workload interface; subclasses define inputs, the op and its checks."""

    name = ""
    # traced runs set this: command-line ops then run in this interpreter
    in_process = False
    # op_tail_ms is this percentile: the highest standard one that keeps
    # ten ops beyond it at the op count a 15 s run reaches.  It is fixed per
    # workload so that a run with a few more or fewer ops reports the same
    # percentile, and runs extend to keep ten ops beyond it.
    tail_percentile = 75

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Builds done once before any op."""

    def setup_problems(self) -> list[str]:
        """Gate failures of the operators built in setup()."""
        return []

    def specs(self, block: int) -> list:
        raise NotImplementedError

    def warmup_spec(self):
        """Inputs of the untimed warm-up op, a median-cost op."""
        raise NotImplementedError

    def prepare(self, spec):
        """Untimed per-op input generation; returns what run() consumes."""
        raise NotImplementedError

    def run(self, ctx):
        raise NotImplementedError

    def check(self, ctx, out) -> list[str]:
        raise NotImplementedError

    def accuracy(self, ctx, out, index: int):
        """((typical, worst) derivative error, row ulp errors, operators) of an op."""
        raise NotImplementedError

    def selftest_subject(self, ctx, out):
        """(operator, mesh points, order, tolerance) the gate self-test corrupts."""
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """Peak resident set of the process that ran the ops, in KiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------- sliding-fd

_FD_FAMILIES = ("jittered", "tanh", "rough")
# M = 9 appears twice as often as M = 5: the per-op cost grows with M, and
# an even split would put the median op exactly on the gap between the
# two cost clusters, where it jumps from run to run
_FD_COMBOS = ((5, 2), (5, 3), (9, 2), (9, 3), (9, 2), (9, 3))
_FD_ROWS_PER_OP = 40


def _fd_points(family: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if family == "jittered":
        x = np.linspace(0.0, 1.0, n)
        x[1:-1] += (rng.random(n - 2) - 0.5) * 0.6 / (n - 1)
        return x
    if family == "tanh":
        beta = rng.uniform(2.4, 2.6)
        return np.tanh(beta * np.linspace(-1.0, 1.0, n)) / np.tanh(beta)
    # neighbouring spacings log-uniform over 1e-3 .. 1
    return np.concatenate(([0.0], np.cumsum(10.0 ** (-3.0 * rng.random(n - 1)))))


class SlidingFD(Workload):
    name = "sliding-fd"

    def specs(self, block):
        rng = _rng(self.seed, 1, block)
        specs = [(f, m, s) for f in _FD_FAMILIES for m, s in _FD_COMBOS]
        order = rng.permutation(len(specs))
        return [(block, j) + specs[k] for j, k in enumerate(order)]

    def warmup_spec(self):
        return (WARMUP_BLOCK, 0, "jittered", 9, 2)

    def prepare(self, spec):
        block, j, family, m, s = spec
        rng = _rng(self.seed, 2, block, j)
        n = int(rng.integers(1980, 2021))
        x = _fd_points(family, n, rng)
        return {
            "family": family, "m": m, "s": s, "x": x,
            "mesh": meshdiff.validate(x), "phase": rng.uniform(0, 2 * np.pi),
            "rng": rng,
        }

    def run(self, ctx):
        return meshdiff.assemble(ctx["mesh"], ctx["m"], ctx["s"])

    def check(self, ctx, out):
        if out.max_order != ctx["s"] or out.stencil_width != ctx["m"]:
            return ["operator set has the wrong order or width"]
        tol = MOMENT_TOL[ctx["family"]]
        return [
            p for s in range(1, ctx["s"] + 1)
            for p in gate.check_band(out.matrix(s), ctx["x"], s, tol)
        ]

    def accuracy(self, ctx, out, index):
        x = ctx["x"]
        mats = [out.matrix(s) for s in range(1, ctx["s"] + 1)]
        ops = [lambda f, mat=mat: meshdiff.apply(mat, f) for mat in mats]
        err = gate.deriv_errors(_sine_pairs(ops, x, x[0], x[-1], 3.0, ctx["phase"]))
        rows = ctx["rng"].choice(x.size, _FD_ROWS_PER_OP, replace=False)
        ulps = [gate.row_ulp_error(meshdiff.oracle_rows, mats, x, int(i)) for i in rows]
        return err, ulps, mats

    def selftest_subject(self, ctx, out):
        return out.matrix(out.max_order), ctx["x"], out.max_order, MOMENT_TOL[ctx["family"]]


# ------------------------------------------------------------------ spectral

_SPEC_KINDS = ("cgl", "lgl")
# op cost grows ~N^2, so every block holds the same sizes and the seed
# only orders them; the mesh is then canonical on [-1, 1] and the seed
# sets the test function.  Small sizes are denser so that a 15 s run
# completes 40 ops, enough for a p75 with ten ops beyond it.
_SPEC_SIZES = (64, 80, 96, 112, 128, 192, 256)
_SPEC_ORACLE_ROWS = 8


class Spectral(Workload):
    name = "spectral"

    def specs(self, block):
        rng = _rng(self.seed, 1, block)
        specs = [(kind, n) for kind in _SPEC_KINDS for n in _SPEC_SIZES]
        order = rng.permutation(len(specs))
        return [(block, j) + specs[k] for j, k in enumerate(order)]

    def warmup_spec(self):
        return (WARMUP_BLOCK, 0, "cgl", 112)

    def prepare(self, spec):
        block, j, kind, n = spec
        rng = _rng(self.seed, 2, block, j)
        return {"kind": kind, "n": n, "phase": rng.uniform(0, 2 * np.pi)}

    def run(self, ctx):
        gen = (
            meshdiff.chebyshev_gauss_lobatto
            if ctx["kind"] == "cgl"
            else meshdiff.legendre_gauss_lobatto
        )
        mesh = gen(ctx["n"], -1.0, 1.0)
        dset = meshdiff.assemble(mesh, ctx["n"], 2)
        return mesh, dset, [dset.matrix(s).toarray() for s in (1, 2)]

    def check(self, ctx, out):
        mesh, dset, dense = out
        x = mesh.points
        if x.size != ctx["n"] or x[0] != -1.0 or x[-1] != 1.0:
            return ["mesh has the wrong size or endpoints"]
        problems = []
        for s in (1, 2):
            mat = dset.matrix(s)
            problems += gate.check_band(mat, x, s, MOMENT_TOL[ctx["kind"]])
            if not np.array_equal(dense[s - 1], mat.data):
                problems.append(f"D{s}: toarray differs from the stored window")
        return problems

    def accuracy(self, ctx, out, index):
        mesh, dset, dense = out
        x = mesh.points
        ops = [d.__matmul__ for d in dense]
        err = gate.deriv_errors(_sine_pairs(ops, x, -1.0, 1.0, 2.0, ctx["phase"]))
        mats = [dset.matrix(s) for s in (1, 2)]
        ulps = []
        if ctx["n"] == _SPEC_SIZES[0]:
            # the rational oracle costs ~N^3 per row, so only the smallest
            # size is compared, on evenly spread rows: row errors depend
            # on the position in the mesh, and a random pick of eight would
            # change the mix from seed to seed
            rows = np.linspace(0, x.size - 1, _SPEC_ORACLE_ROWS).round().astype(int)
            ulps = [gate.row_ulp_error(meshdiff.oracle_rows, mats, x, int(i)) for i in rows]
        return err, ulps, mats

    def selftest_subject(self, ctx, out):
        mesh, dset, _ = out
        return dset.matrix(2), mesh.points, 2, MOMENT_TOL[ctx["kind"]]


# ------------------------------------------------------------------ apply-2d

_GRID = 256
_APPLY_BLOCK = 64
_NU, _AX, _AY = 0.01, 1.0, 0.5
_WX, _WY = 2.0 * np.pi * 2.0, np.pi * 2.0
_APPLY_ROWS = 64


class Apply2D(Workload):
    """One explicit advection-diffusion step, applied line by line."""

    name = "apply-2d"
    tail_percentile = 95

    def setup(self):
        t = np.linspace(-1.0, 1.0, _GRID)
        self.x = 0.5 + 0.5 * np.tanh(2.0 * t) / np.tanh(2.0)
        self.y = meshdiff.chebyshev_gauss_lobatto(_GRID, -1.0, 1.0).points
        dx = meshdiff.assemble(meshdiff.validate(self.x), 9, 2)
        dy = meshdiff.assemble(meshdiff.validate(self.y), 9, 2)
        self.ops_x = [dx.matrix(1), dx.matrix(2)]
        self.ops_y = [dy.matrix(1), dy.matrix(2)]
        # samples are ordered x-outer, y-inner
        self.lifted = [meshdiff.kron_lift(d, _GRID) for d in self.ops_x] + [
            meshdiff.kron_lift(_GRID, d) for d in self.ops_y
        ]
        self._abs_lifted = None

    def specs(self, block):
        return [(block, j) for j in range(_APPLY_BLOCK)]

    def warmup_spec(self):
        return (WARMUP_BLOCK, 0)

    def prepare(self, spec):
        rng = _rng(self.seed, 2, *spec)
        px, py = rng.uniform(0, 2 * np.pi, 2)
        sx, cx = np.sin(_WX * self.x + px), np.cos(_WX * self.x + px)
        sy, cy = np.sin(_WY * self.y + py), np.cos(_WY * self.y + py)
        u = np.outer(sx, cy)
        exact = (
            -_NU * (_WX ** 2 + _WY ** 2) * u
            - _AX * _WX * np.outer(cx, cy)
            + _AY * _WY * np.outer(sx, sy)
        )
        return {"u": u, "exact": exact}

    def run(self, ctx):
        u = ctx["u"]
        d1x, d2x = self.ops_x
        d1y, d2y = self.ops_y
        out = np.empty_like(u)
        for j in range(_GRID):
            line = u[:, j]
            out[:, j] = _NU * meshdiff.apply(d2x, line) - _AX * meshdiff.apply(d1x, line)
        for i in range(_GRID):
            line = u[i, :]
            out[i, :] += _NU * meshdiff.apply(d2y, line) - _AY * meshdiff.apply(d1y, line)
        return out

    def check(self, ctx, out):
        if not np.all(np.isfinite(out)):
            return ["non-finite result"]
        if self._abs_lifted is None:
            self._abs_lifted = [abs(k) for k in self.lifted]
        u = ctx["u"].ravel()
        k1x, k2x, k1y, k2y = self.lifted
        ref = (_NU * (k2x @ u) - _AX * (k1x @ u)) + (_NU * (k2y @ u) - _AY * (k1y @ u))
        # bound on the rounding of either evaluation order
        a1x, a2x, a1y, a2y = (k @ np.abs(u) for k in self._abs_lifted)
        scale = _NU * (a2x + a2y) + _AX * a1x + _AY * a1y
        if np.any(np.abs(out.ravel() - ref) > 32 * gate.EPS * scale):
            return ["per-line result disagrees with the kron_lift CSR product"]
        return []

    def setup_problems(self):
        return [
            p
            for pts, ops, family in ((self.x, self.ops_x, "tanh"), (self.y, self.ops_y, "chebyshev"))
            for s, mat in enumerate(ops, 1)
            for p in gate.check_band(mat, pts, s, MOMENT_TOL[family])
        ]

    def accuracy(self, ctx, out, index):
        err = gate.deriv_errors([(out, ctx["exact"])])
        ulps = []
        mats = []
        if index == 0:
            rng = _rng(self.seed, 3)
            for pts, ops in ((self.x, self.ops_x), (self.y, self.ops_y)):
                rows = rng.choice(_GRID, _APPLY_ROWS, replace=False)
                ulps += [gate.row_ulp_error(meshdiff.oracle_rows, ops, pts, int(i)) for i in rows]
            mats = self.ops_x + self.ops_y
        return err, ulps, mats

    def selftest_subject(self, ctx, out):
        return self.ops_x[1], self.x, 2, MOMENT_TOL["tanh"]


# -------------------------------------------------------------- cli-pipeline

# Each kind twice per block, so the accuracy figures average four ops.
# No uniform mesh: its typical D2 rounding error moves by 2x with how the
# seeded interval's spacing rounds.  The test function's phase is fixed
# for the same reason: a seeded phase alone gave deriv_rel_err a quartile
# spread of 0.35 of its median over ten seeds.
_CLI_KINDS = ("chebyshev", "legendre", "chebyshev", "legendre")
_CLI_PHASE = 0.3
_CLI_ROWS = 100
_CONVERGE = ["--function", "sin", "--kind", "uniform", "--stencil", "5",
             "--order", "1", "--resolutions", "17,33,65"]


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CLIPipeline(Workload):
    """mesh, assemble, apply (D1 and D2) and converge as five processes.

    With in_process set, the same argument lists go through
    meshdiff.cli.main in this interpreter instead, which is how the traced
    run sees inside each command.
    """

    name = "cli-pipeline"
    # about eight ops fit in a run, too few for any percentile above the
    # median to keep ten ops beyond it
    tail_percentile = 50

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.env = cli_env(Path(meshdiff.__file__).resolve().parent.parent)
        self.child_peak_kb = 0

    def specs(self, block):
        rng = _rng(self.seed, 1, block)
        kinds = [_CLI_KINDS[k] for k in rng.permutation(len(_CLI_KINDS))]
        return [(block, j, kind) for j, kind in enumerate(kinds)]

    def warmup_spec(self):
        return (WARMUP_BLOCK, 0, "chebyshev")

    def prepare(self, spec):
        block, j, kind = spec
        rng = _rng(self.seed, 2, block, j)
        n = int(rng.integers(1990, 2011))
        a = rng.uniform(-1.5, -0.5)
        b = a + rng.uniform(1.5, 2.5)
        d = self.workdir / f"op{j}"
        d.mkdir(parents=True, exist_ok=True)
        for old in d.iterdir():
            old.unlink()
        gen = (
            meshdiff.chebyshev_gauss_lobatto if kind == "chebyshev" else meshdiff.legendre_gauss_lobatto
        )
        x = gen(n, a, b).points
        np.savetxt(d / "f.txt", _sine(x, a, b, 2.0, _CLI_PHASE, 0), fmt="%.17g")
        p = {k: str(d / v) for k, v in (
            ("mesh", "mesh.txt"), ("prefix", "op"), ("f", "f.txt"), ("d1", "d1.txt"),
            ("d2", "d2.txt"), ("conv", "conv.txt"),
        )}
        argvs = [
            ["mesh", "--kind", kind, "--n", str(n), "--a", repr(a), "--b", repr(b),
             "--out", p["mesh"]],
            ["assemble", "--mesh", p["mesh"], "--stencil", "9", "--orders", "2",
             "--out-prefix", p["prefix"]],
            ["apply", "--matrix", p["prefix"] + "_D1.mtx", "--samples", p["f"], "--out", p["d1"]],
            ["apply", "--matrix", p["prefix"] + "_D2.mtx", "--samples", p["f"], "--out", p["d2"]],
            ["converge", *_CONVERGE, "--a", repr(a), "--b", repr(b), "--out", p["conv"]],
        ]
        return {"kind": kind, "x": x, "a": a, "b": b, "paths": p, "argvs": argvs, "rng": rng}

    def _spawn(self, argv):
        with open(self.workdir / "stderr.txt", "w+") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "meshdiff", *argv],
                stdout=subprocess.DEVNULL, stderr=err, env=self.env,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
            return proc.returncode, err.read()

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = meshdiff.cli.main(argv)
        return code, err.getvalue()

    def run(self, ctx):
        step = self._call if self.in_process else self._spawn
        return [step(argv) for argv in ctx["argvs"]]

    def peak_rss_kb(self):
        """Largest peak resident set of any command process so far."""
        return self.child_peak_kb

    def _read_back(self, ctx):
        return [meshdiff.fileio.read_matrix(ctx["paths"]["prefix"] + f"_D{s}.mtx") for s in (1, 2)]

    def check(self, ctx, out):
        for argv, (code, err) in zip(ctx["argvs"], out):
            if code != 0 or err:
                return [f"{argv[0]} exited {code} with stderr {err.strip()[:200]!r}"]
        p = ctx["paths"]
        if not all(os.path.exists(p[k]) for k in ("mesh", "d1", "d2", "conv")) or not (
            os.path.exists(p["conv"] + ".csv")
        ):
            return ["an output file is missing"]
        x = ctx["x"]
        if not np.array_equal(meshdiff.fileio.read_mesh(p["mesh"]).points, x):
            return ["mesh file differs from the generator's points"]
        mats = self._read_back(ctx)
        tol = MOMENT_TOL[ctx["kind"]]
        problems = [q for s, mat in enumerate(mats, 1) for q in gate.check_band(mat, x, s, tol)]
        f = meshdiff.fileio.read_values(p["f"])
        for s, mat in enumerate(mats, 1):
            got = meshdiff.fileio.read_values(p[f"d{s}"])
            if not np.array_equal(got, meshdiff.apply(mat, f)):
                problems.append(f"apply output for D{s} differs from the operator product")
            elif gate.rel_err(got, _sine(x, ctx["a"], ctx["b"], 2.0, _CLI_PHASE, s)) > 1e-3:
                problems.append(f"apply output for D{s} is far from the exact derivative")
        with open(p["conv"] + ".csv") as fh:
            fitted = float(fh.read().splitlines()[1].split(",")[3])
        if not 3.5 <= fitted <= 4.5:
            problems.append(f"converge fitted order {fitted} is not near 4")
        return problems

    def accuracy(self, ctx, out, index):
        x, a, b, p = ctx["x"], ctx["a"], ctx["b"], ctx["paths"]
        err = gate.deriv_errors(
            (meshdiff.fileio.read_values(p[f"d{s}"]), _sine(x, a, b, 2.0, _CLI_PHASE, s))
            for s in (1, 2)
        )
        mats = self._read_back(ctx)
        rows = ctx["rng"].choice(x.size, _CLI_ROWS, replace=False)
        ulps = [gate.row_ulp_error(meshdiff.oracle_rows, mats, x, int(i)) for i in rows]
        return err, ulps, mats

    def selftest_subject(self, ctx, out):
        return self._read_back(ctx)[1], ctx["x"], 2, MOMENT_TOL[ctx["kind"]]


WORKLOADS = {w.name: w for w in (SlidingFD, Spectral, Apply2D, CLIPipeline)}


def digest(mats) -> str:
    """sha256 over col_start and data of each operator, in order."""
    h = hashlib.sha256()
    for mat in mats:
        h.update(np.ascontiguousarray(mat.col_start, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(mat.data, dtype=np.float64).tobytes())
    return h.hexdigest()
