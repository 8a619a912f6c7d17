"""In-memory span tracer wrapped around the package's public names.

The traced run replaces each public function, under every module
attribute that refers to it, with a wrapper that records one span: id,
parent id, name, start and end in ns, the op it belongs to and a few
counts.  That covers the benchmark's own calls (``meshdiff.assemble``)
and the names the package's modules look each other up by at call time
(``meshdiff.assembly.stencil_rows``, ``meshdiff.stencil.stable_quotients``,
``meshdiff.cli.assemble``, ``meshdiff.fileio.write_values`` ...).  A name
missing from the package is skipped, so its metrics read 0.

Spans are recorded only while ``active`` is set, which the runner does
around timed ops and the set-up, not around the gate.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
import weakref

LAYERS = ("mesh", "stencil", "assembly", "fileio", "verify", "cli")
MODULES = ("meshdiff", *(f"meshdiff.{m}" for m in LAYERS))
FUNCTIONS = (
    "uniform", "chebyshev_gauss_lobatto", "legendre_gauss_lobatto", "validate",
    "stencil_rows", "stable_quotients",
    "assemble", "apply", "kron_lift",
    "read_values", "write_values", "read_mesh", "write_mesh", "read_matrix", "write_matrix",
    "convergence_order", "main",
)
METHODS = ("toarray", "to_csr")


def _counts(name, args, kwargs, result, reused):
    """Work counts a span carries, read from its arguments and result."""
    if name in ("uniform", "chebyshev_gauss_lobatto", "legendre_gauss_lobatto", "validate"):
        return {"points": int(result.points.size)}
    if name == "stencil_rows":
        return {"rows": int(result.rows.shape[0])}
    if name == "assemble":
        n, m, s = int(result.mesh.n), result.stencil_width, result.max_order
        # quotient factors are computed from the sizes, not counted inside
        return {"rows": n * s, "entries": n * m * s, "quotient_factors": n * m * (m - 1)}
    if name == "apply":
        return {"reused": int(reused)}
    if name in ("write_values", "write_matrix"):
        return {"bytes_written": os.path.getsize(args[0])}
    if name in ("read_values", "read_matrix"):
        return {"bytes_read": os.path.getsize(args[0])}
    if name == "main":
        argv = args[0] if args else kwargs.get("argv")
        return {"command": argv[0] if argv else ""}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, layer, name, t0_ns, t1_ns, op, counts)
        self.active = False
        self.op = -1
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._applied = weakref.WeakSet()

    def _wrap(self, fn, layer, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            reused = False
            if name == "apply":
                mat = args[0]
                reused = mat in tracer._applied
                tracer._applied.add(mat)
            tracer._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer._stack.pop()
            counts = _counts(name, args, kwargs, result, reused)
            tracer.spans.append((sid, parent, layer, name, t0, t1, tracer.op, counts))
            return result

        return wrapper

    def install(self):
        """Wrap every listed public name in the loaded meshdiff modules."""
        modules = [sys.modules[m] for m in MODULES if m in sys.modules]
        wrappers = {}
        for mod in modules:
            for attr in FUNCTIONS:
                fn = getattr(mod, attr, None)
                if not callable(fn) or not getattr(fn, "__module__", "").startswith("meshdiff"):
                    continue
                if id(fn) not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[id(fn)] = self._wrap(fn, layer, attr)
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
        band = getattr(sys.modules.get("meshdiff.assembly"), "SparseBandMatrix", None)
        for attr in METHODS:
            fn = getattr(band, attr, None)
            if callable(fn):
                self._patches.append((band, attr, fn))
                setattr(band, attr, self._wrap(fn, "assembly", attr))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def write(self, path):
        """Spans as gzipped CSV, one per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,layer,name,start_ns,end_ns,op,counts\n")
            for sid, parent, layer, name, t0, t1, op, counts in self.spans:
                extra = ";".join(f"{k}={v}" for k, v in counts.items())
                fh.write(f"{sid},{parent},{layer},{name},{t0},{t1},{op},{extra}\n")


def _self_ns(spans) -> dict:
    """Self time of each span id: its duration minus its direct children's."""
    out = {s[0]: s[5] - s[4] for s in spans}
    for sid, parent, _layer, _name, t0, t1, *_rest in spans:
        if parent in out:
            out[parent] -= t1 - t0
    return out


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer figures from spans: per timed op, except where noted.

    Self time of a span is its duration minus that of its direct
    children, so each instant counts once, for the innermost span.
    kron_lift_ms and to_csr_ms are totals over set-up and timed loop,
    because a lifted operator or CSR copy is built once and reused.
    """
    by_id = {s[0]: s for s in spans}
    own = _self_ns(spans)

    def ancestors(span):
        while span[1] in by_id:
            span = by_id[span[1]]
            yield span

    timed = [s for s in spans if s[6] >= 0]
    per_op = 1.0 / max(n_ops, 1)
    ms = lambda ns: ns / 1e6
    dur = lambda s: s[5] - s[4]
    self_ns = lambda s: own[s[0]]
    named = lambda *names: [s for s in timed if s[3] in names]
    total = lambda group, fn=dur: sum(fn(s) for s in group)
    count = lambda group, key: sum(s[7].get(key, 0) for s in group)

    mesh = [s for s in timed if s[2] == "mesh"]
    stencil_rows = named("stencil_rows")
    stencil_layer = [s for s in timed if s[2] == "stencil"]
    assemble = named("assemble")
    apply = named("apply")
    writes = named("write_values", "write_matrix")
    reads = named("read_values", "read_matrix")
    values_top = [
        s for s in named("read_values", "write_values", "read_mesh", "write_mesh")
        if not any(a[3] in ("read_mesh", "write_mesh") for a in ancestors(s))
    ]
    converge = named("convergence_order")
    cli = [s for s in timed if s[2] == "cli"]
    out = {
        "mesh.calls": len(mesh) * per_op,
        "mesh.points": count(mesh, "points") * per_op,
        "mesh.ms": ms(total(mesh, self_ns)) * per_op,
        "stencil.calls": len(stencil_rows) * per_op,
        "stencil.rows": count(stencil_rows, "rows") * per_op,
        "stencil.ms": ms(total(stencil_layer, self_ns)) * per_op,
        "stencil.quotient_ms": ms(total(named("stable_quotients"))) * per_op,
        "stencil.quotient_factors": count(assemble, "quotient_factors") * per_op,
        "assembly.assemble_calls": len(assemble) * per_op,
        "assembly.assemble_ms": ms(total(assemble)) * per_op,
        "assembly.self_ms": ms(total(assemble, self_ns)) * per_op,
        "assembly.rows": count(assemble, "rows") * per_op,
        "assembly.entries": count(assemble, "entries") * per_op,
        "assembly.apply_calls": len(apply) * per_op,
        "assembly.apply_ms": ms(total(apply)) * per_op,
        "assembly.apply_us_per_call": total(apply) / 1e3 / max(len(apply), 1),
        "assembly.apply_reuse_ratio": count(apply, "reused") / max(len(apply), 1),
        "assembly.kron_lift_ms": ms(sum(dur(s) for s in spans if s[3] == "kron_lift")),
        "assembly.to_csr_ms": ms(sum(dur(s) for s in spans if s[3] == "to_csr")),
        "assembly.toarray_ms": ms(total(named("toarray"))) * per_op,
        "fileio.write_matrix_ms": ms(total(named("write_matrix"))) * per_op,
        "fileio.read_matrix_ms": ms(total(named("read_matrix"))) * per_op,
        "fileio.values_ms": ms(total(values_top)) * per_op,
        "fileio.bytes_written": count(writes, "bytes_written") * per_op,
        "fileio.bytes_read": count(reads, "bytes_read") * per_op,
        "fileio.write_mb_per_s": count(writes, "bytes_written") / 1e3 / max(ms(total(writes)), 1e-9),
        "fileio.read_mb_per_s": count(reads, "bytes_read") / 1e3 / max(ms(total(reads)), 1e-9),
        "verify.convergence_ms": ms(total(converge)) * per_op,
        "verify.assemble_calls": sum(
            1 for s in assemble if any(a[3] == "convergence_order" for a in ancestors(s))
        ) * per_op,
        "cli.self_ms": ms(total(cli, self_ns)) * per_op,
    }
    for command in ("mesh", "assemble", "apply", "converge"):
        group = [s for s in cli if s[7].get("command") == command]
        out[f"cli.{command}_ms"] = ms(total(group)) * per_op
    out["stencil.us_per_row"] = out["stencil.ms"] * 1e3 / max(out["stencil.rows"], 1e-9)
    return out


def self_ms_by_layer(spans, n_ops: int) -> dict:
    """Self time per layer in the timed ops, ms per op."""
    own = _self_ns(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        if span[6] >= 0:
            out[span[2]] += own[span[0]] / 1e6 / max(n_ops, 1)
    return out


def cli_commands(spans, n_ops: int) -> float:
    """Command-line invocations per timed op."""
    return sum(1 for s in spans if s[6] >= 0 and s[3] == "main") / max(n_ops, 1)
