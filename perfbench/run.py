"""meshdiff benchmark: one closed-loop client, one process, ops back to back.

Usage (from the repository root):

    python3 perfbench/run.py --workload sliding-fd --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics from a traced run.  Lines before it starting with '#'
are informational (machine, versions, seed, commit, tail percentile,
fail counts, worst-case accuracy, operator digest, layer shares).
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import os

# pinned before numpy loads; children inherit them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
PROBE_REPEATS = 3


def _info(label: str, value) -> None:
    print(f"# {label}: {json.dumps(value, sort_keys=True)}")


def _median_child_seconds(cmd: list[str], env: dict, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _environment(seed: int) -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": commit,
    }


def _loop(wl, seconds: float, tracer=None, accuracy=None, min_ops: int = 0):
    """Time whole blocks of ops until `seconds` of op time have passed and
    at least `min_ops` ops ran.

    Returns (op seconds, failed op count, first failure reasons).  The
    gate and the accuracy figures run between ops, outside the timing.
    """
    times, failed, reasons = [], 0, []
    block = 0
    while True:
        for j, spec in enumerate(wl.specs(block)):
            ctx = wl.prepare(spec)
            if tracer is not None:
                tracer.op = len(times)
                tracer.active = True
            t0 = time.perf_counter()
            out = wl.run(ctx)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            times.append(dt)
            problems = wl.check(ctx, out)
            if problems:
                failed += 1
                reasons = reasons or problems[:3]
            if accuracy is not None and block == 0:
                accuracy.append(wl.accuracy(ctx, out, j))
        block += 1
        if sum(times) >= seconds and len(times) >= min_ops:
            return times, failed, reasons


def _setup_only(args, workdir):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()
    wl.run(wl.prepare(wl.warmup_spec()))
    return 0


def _end_to_end(args, wl):
    import gate
    from workloads import digest

    accuracy = []
    pct = wl.tail_percentile
    # at least ten ops beyond the tail percentile
    min_ops = int(np.ceil(10 * 100 / (100 - pct))) if pct > 50 else 0
    times, failed, reasons = _loop(wl, args.seconds, accuracy=accuracy, min_ops=min_ops)
    tail = float(np.percentile(times, pct))
    typical = [a[0][0] for a in accuracy]
    worst = [a[0][1] for a in accuracy]
    ulps = [u for a in accuracy for u in a[1]]
    _info("op_tail_ms percentile", {"percentile": pct, "ops": len(times)})
    _info("fail_ratio", {"failed": failed, "attempted": len(times), "ratio": failed / len(times)})
    if reasons:
        _info("first failure", reasons)
    _info("row_err_ulp sample", {"rows": len(ulps), "max_ulp": max(ulps)})
    _info("max-norm deriv_rel_err (geometric mean over block 0)", gate.geomean(worst))
    _info("operator sha256 (block 0)", digest([m for a in accuracy for m in a[2]]))
    metrics = {
        "setup_s": (args.setup_s, "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (wl.peak_rss_kb() / 1024.0, "MB"),
        "deriv_rel_err": (gate.geomean(typical), "ratio"),
        "row_err_ulp": (gate.geomean(ulps, 1.0), "ulp"),
    }
    return len(times), failed, metrics


def _traced(args, wl, env, tracer):
    import spans

    probe = [sys.executable, "-c", "import time; t = time.perf_counter(); import meshdiff; "
             "print(time.perf_counter() - t)"]
    imports = [
        float(subprocess.run(probe, env=env, check=True, capture_output=True, text=True).stdout)
        for _ in range(PROBE_REPEATS)
    ]
    startup = _median_child_seconds(
        [sys.executable, "-m", "meshdiff", "--help"], env, PROBE_REPEATS
    )
    wl.in_process = True
    half = args.seconds / 2.0
    plain, failed_a, reasons = _loop(wl, half)
    tracer.install()
    try:
        traced, failed_b, reasons_b = _loop(wl, half, tracer=tracer)
    finally:
        tracer.uninstall()
    if reasons or reasons_b:
        _info("first failure", reasons or reasons_b)
    tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    metrics = spans.layer_metrics(tracer.spans, len(traced))
    metrics["meshdiff.import_ms"] = statistics.median(imports) * 1e3
    metrics["cli.startup_ms"] = startup * 1e3
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    # an op that starts processes pays one interpreter start-up per command,
    # which the in-process traced op does not contain
    starts = spans.cli_commands(tracer.spans, len(traced))
    op_ms = statistics.mean(traced) * 1e3 + starts * metrics["cli.startup_ms"]
    shares = {k: v / op_ms for k, v in spans.self_ms_by_layer(tracer.spans, len(traced)).items()}
    shares["startup"] = starts * metrics["cli.startup_ms"] / op_ms
    _info("op ms the shares refer to", {"ms": op_ms, "process_starts_per_op": starts})
    _info("layer self-time shares", shares)
    return (
        len(plain) + len(traced),
        failed_a + failed_b,
        {k: (v, _unit(k)) for k, v in metrics.items()},
    )


def _unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("us_per_row") or name.endswith("us_per_call"):
        return "us"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("ratio"):
        return "ratio"
    if name.startswith("fileio.bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload briefly and check every metric prints")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        import smoke

        return smoke.main(Path(__file__).resolve(), ROOT)
    if not (SRC / "meshdiff" / "__init__.py").is_file():
        print(f"perfbench: no meshdiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, cli_env

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            return _setup_only(args, workdir)
        return _measure(args, workdir, cli_env(SRC))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir, env) -> int:
    import gate
    import spans
    from workloads import WORKLOADS

    args.setup_s = None
    if not args.trace:
        args.setup_s = _median_child_seconds(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            env, SETUP_REPEATS,
        )
    wl = WORKLOADS[args.workload](args.seed, workdir)
    # the traced run also records the set-up, where operators are built
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
        tracer.active = True
    try:
        wl.setup()
        ctx = wl.prepare(wl.warmup_spec())
        out = wl.run(ctx)
    finally:
        tracer.active = False
        tracer.uninstall()
    problems = wl.setup_problems() + wl.check(ctx, out)
    missed = gate.self_test(*wl.selftest_subject(ctx, out))
    _info("environment", _environment(args.seed))
    _info("gate self-test", {"rejected_all_corruptions": not missed, "accepted": missed})
    if problems:
        _info("set-up problems", problems)
    if args.trace:
        attempted, failed, metrics = _traced(args, wl, env, tracer)
    else:
        attempted, failed, metrics = _end_to_end(args, wl)
    result = {
        "correct": not problems and not missed and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
