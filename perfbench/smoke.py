"""Smoke test of the benchmark itself: ``python3 perfbench/run.py --smoke``.

Runs every workload of BENCHMARK.json for one block of ops (one second
of op time ends the loop at the first block boundary), untraced and
traced, and checks that the result line has the required keys, that
every named metric prints with its declared unit, that no op failed,
and that end-to-end values are positive.  Last, it runs the benchmark
in a directory holding only BENCHMARK.json and the benchmark's files,
where it must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path


def _result(cmd, cwd) -> dict:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(result: dict, declared: list, positive: bool) -> list[str]:
    bad = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        bad.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        bad.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        bad.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            bad.append(f"{m['name']}: {got}")
        elif positive and value <= 0:
            bad.append(f"{m['name']} is {value}, not positive")
    return bad


def main(script: Path, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    failures = []
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(script), "--workload", wl["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace)]
            try:
                bad = _check(_result(cmd, root), declared, positive=trace == 0)
            except (AssertionError, ValueError, IndexError) as exc:
                bad = [str(exc)]
            failures += [f"{wl['name']} trace={trace}: {b}" for b in bad]
            print(f"smoke {wl['name']} trace={trace}: {'ok' if not bad else 'FAIL'}")
    bare = root / ".perfbench_tmp" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for rel in spec["paths"]:
            shutil.copytree(root / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        print(f"smoke bare directory: {'ok' if proc.returncode and not proc.stdout.strip() else 'FAIL'}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0
