"""Outside-in layer timing for the sweep benchmark.

Each layer of the program is timed by wrapping its public entry points
from here, without touching program code.  A wrapper opens a span on
the program's own tracer (:mod:`repro.telemetry.spans`), so spans from
process-pool workers travel home inside each unit's telemetry payload
exactly like the engine's own spans, and the trace is written with the
existing chrome-trace writer (:mod:`repro.telemetry.export`), which
``python -m repro.obs critpath`` reads.

The span category is the layer's package (``kir``, ``exec``,
``compiler``, ``runtime``, ``sim``, ``benchsuite``, ``experiments``),
so critpath's per-category view is a per-layer view.

Wrappers are installed only around traced passes and removed after
them; untraced passes run the unmodified functions.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading

#: span name -> [(module, attribute path)] of the functions it wraps
TARGETS = {
    "kir.build": [("repro.benchsuite.base", "Benchmark.build_kernels")],
    "exec.digest": [("repro.exec.unit", "unit_digest")],
    "exec.preflight": [("repro.exec.lifecycle", "preflight_unit")],
    "compiler.compile": [
        ("repro.compiler.nvopencc", "compile_cuda"),
        ("repro.compiler.clc", "compile_opencl"),
    ],
    "compiler.ptxas": [("repro.compiler.ptxas", "assemble")],
    "runtime.build": [
        ("repro.runtime.cuda.api", "CudaContext.compile"),
        ("repro.runtime.opencl.api", "Program.build"),
    ],
    "sim.launch": [("repro.sim.device", "SimDevice.launch")],
    "sim.run_grid": [("repro.sim.interp", "run_grid")],
    "benchsuite.host": [("repro.exec.unit", "execute")],
    "exec.cache.get": [("repro.exec.cache", "ResultCache.get")],
    "exec.cache.put": [("repro.exec.cache", "ResultCache.put")],
    # the engine polls its pool with concurrent.futures.wait: the time
    # the parent spends there is the time it waits for workers
    "exec.pool.wait": [("concurrent.futures", "wait")],
    # run.py opens this span around each run_experiment call it makes
    "experiments.render": [],
}

#: the span that encloses one timed pass (recorded by run.py)
PASS = "pass"


def _ccache_counts(args):
    from repro.compiler import ccache

    st = ccache.cache_stats()
    return st["hits"], st["misses"]


def _ccache_after(args, before):
    hits, misses = _ccache_counts(args)
    return {"ccache_hits": hits - before[0], "ccache_misses": misses - before[1]}


def _memo_counts(args):
    memo = args[0].memo
    return (memo.hits, memo.hits + memo.misses) if memo is not None else (0, 0)


def _memo_after(args, before):
    hits, lookups = _memo_counts(args)
    return {"memo_hits": hits - before[0], "memo_lookups": lookups - before[1]}


def _put_after(args, before):
    cache, digest = args[0], args[1]
    return {"bytes": cache.path_for(digest).stat().st_size}


#: span name -> (before(args) -> state, after(args, state) -> span attrs)
PROBES = {
    "compiler.compile": (_ccache_counts, _ccache_after),
    "sim.launch": (_memo_counts, _memo_after),
    "exec.cache.put": (lambda args: None, _put_after),
}


_local = threading.local()


def _frames() -> list:
    """Per-thread stack: child seconds accumulated by each open span."""
    frames = getattr(_local, "frames", None)
    if frames is None:
        frames = _local.frames = []
    return frames


@contextlib.contextmanager
def span(name: str, cat: str, before=None, after=None, args=()):
    """A span on the active tracer whose self time is stored with it.

    Self time (duration minus the spans opened inside it) is computed
    here, in the process that ran the span, and kept as its
    ``self_s`` attribute: spans from pool workers arrive in the parent
    with span ids that may repeat across units, so the tree cannot be
    rebuilt there reliably.
    """
    from repro.telemetry import spans as tspans

    tr = tspans.tracer()
    if tr is None:
        yield
        return
    state = before(args) if before is not None else None
    frames = _frames()
    frames.append(0.0)
    s = tr.start_span(name, cat)
    try:
        yield
    finally:
        tr.end_span(s, **(after(args, state) if after is not None else {}))
        s.attrs["self_s"] = s.duration_s - frames.pop()
        if frames:
            frames[-1] += s.duration_s


def _wrap(fn, name: str):
    cat = name.split(".", 1)[0]
    before, after = PROBES.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name, cat, before, after, args):
            return fn(*args, **kwargs)

    return wrapper


class Instrumentation:
    """Installs the layer wrappers; ``remove()`` restores the originals.

    A module-level function is rebound in every ``repro`` module that
    imported it by name (``from .unit import execute``), so each call
    site sees the wrapper; a method is replaced on its class.
    """

    def __init__(self) -> None:
        self._undo: list = []
        for name, targets in TARGETS.items():
            for mod_name, attr in targets:
                owner = importlib.import_module(mod_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapped = _wrap(original, name)
                sites = [owner]
                if not path:
                    sites += [
                        m for n, m in list(sys.modules.items())
                        if m is not None and m is not owner
                        and (n == "repro" or n.startswith("repro."))
                        and getattr(m, leaf, None) is original
                    ]
                for site in sites:
                    setattr(site, leaf, wrapped)
                    self._undo.append((site, leaf, original))

    def remove(self) -> None:
        for site, leaf, original in reversed(self._undo):
            setattr(site, leaf, original)
        self._undo.clear()

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def self_times(spans) -> dict:
    """Per-layer self time, call count and summed attrs over one pass.

    ``spans`` are the tracer's finished spans, the program's own and
    pool workers' among them; only layer spans and the pass span count.
    The pass span's self time is the wall time no layer covers
    (``other_s``).  ``parent_self_s`` sums the layer self times of this
    process alone (span ids ``s<n>``; a worker's are ``w<pid>-<n>``),
    which with ``other_s`` must add up to ``pass_s``.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in TARGETS}
    other_s = pass_s = parent_self = 0.0
    for s in spans:
        if s.name == PASS:
            other_s += s.attrs["self_s"]
            pass_s += s.duration_s
        elif s.name in TARGETS:
            row = layers[s.name]
            row["calls"] += 1
            for k, v in s.attrs.items():
                if isinstance(v, (int, float)):
                    row[k] = row.get(k, 0) + v
            if s.span_id.startswith("s"):
                parent_self += s.attrs["self_s"]
    return {
        "layers": layers,
        "other_s": other_s,
        "pass_s": pass_s,
        "parent_self_s": parent_self,
    }
