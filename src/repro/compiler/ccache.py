"""In-process compilation cache shared by the two front ends.

Sweeps compile the same few source kernels hundreds of times (every
device x experiment unit rebuilds its programs from scratch), and the
pipeline is pure.  As in the paper's Fig. 9, only ptxas (step 6) sees
the register budget, so the cache has two stages: the front end's
unassembled PTX keyed on (dialect, source), and the assembled PTX keyed
on (dialect, budget, source).  A kernel built for several budgets runs
its front end once.  Both stages hand out *defensive copies* — callers
mutate the result (``Program.build`` rewrites ``defines``, runtimes set
``producer``, ``assemble`` rebinds ``instrs`` and fills ``resources``)
and digests are memoized onto kernel objects, so shared instances would
alias across programs.

The KIR ``Kernel`` tree is plain nested dataclasses, so a structural
serialization of it is a deterministic fingerprint of the source:
``pickle`` gives the same bytes for trees built the same way and runs
at C speed, where the dataclass ``repr`` walk dominated compile-hit
cost.  Instruction lists are copied shallowly: ``Instr`` objects are
never mutated after lowering.

Lookups bump the ``compiler.ccache.hits``/``.misses`` registry
counters, and full-compile misses ``compiler.frontend.hits``/``.misses``;
pool workers ship them home with the rest of their metrics.
"""
from __future__ import annotations

import dataclasses
import pickle

from ..kir.stmt import Kernel
from ..ptx.module import PTXKernel
from ..telemetry import metrics

__all__ = ["cached_compile", "cache_stats", "clear"]

_cache: dict = {}
_frontend: dict = {}
_CAP = 512  # per table; source kernels are small, this is plenty for any sweep
_stats = dict.fromkeys(("hits", "misses", "frontend_hits", "frontend_misses"), 0)


def _source(kernel: Kernel) -> bytes:
    # ``defines`` is attached as a plain attribute, not a field, so the
    # structural dump of the kernel tree does not cover it
    return pickle.dumps((kernel, getattr(kernel, "defines", None)), protocol=4)


def _clone(ptx: PTXKernel) -> PTXKernel:
    k = PTXKernel(
        name=ptx.name,
        params=list(ptx.params),
        instrs=list(ptx.instrs),
        resources=dataclasses.replace(ptx.resources),
        shared_decls=dict(ptx.shared_decls),
        producer=ptx.producer,
        dialect=ptx.dialect,
        virtual_regs=ptx.virtual_regs,
        defines=dict(ptx.defines),
    )
    # the content digest covers exactly the fields cloned above, so it
    # transfers — sweeps then pay one digest per unique compile
    d = ptx.__dict__.get("_content_digest")
    if d is not None:
        k.__dict__["_content_digest"] = d
    return k


def _count(stat: str, counter: str) -> None:
    _stats[stat] += 1
    metrics.counter(counter).inc()


def cached_compile(dialect: str, kernel: Kernel, max_regs: int, front, back):
    """Return a compiled copy of ``kernel``, compiling on first sight.

    ``front(kernel)`` runs the budget-free front end and returns
    unassembled PTX; ``back(ptx, kernel, max_regs)`` assembles a copy of
    it for the budget and returns the finished kernel.
    """
    source = _source(kernel)
    key = (dialect, max_regs, source)
    entry = _cache.get(key)
    if entry is not None:
        _count("hits", "compiler.ccache.hits")
        return _clone(entry)
    _count("misses", "compiler.ccache.misses")
    fkey = (dialect, source)
    lowered = _frontend.get(fkey)
    if lowered is not None:
        _count("frontend_hits", "compiler.frontend.hits")
    else:
        _count("frontend_misses", "compiler.frontend.misses")
        lowered = front(kernel)
        if len(_frontend) < _CAP:
            _frontend[fkey] = lowered
    ptx = back(_clone(lowered), kernel, max_regs)
    ptx.content_digest()  # memoize pre-clone so every copy inherits it
    if len(_cache) < _CAP:
        _cache[key] = _clone(ptx)
    return ptx


def cache_stats() -> dict:
    return dict(_stats, entries=len(_cache), frontend_entries=len(_frontend))


def clear() -> None:
    """Drop both stages' entries (tests use this to force cold compiles)."""
    _cache.clear()
    _frontend.clear()
    for k in _stats:
        _stats[k] = 0
