"""The compile cache runs each front end once and ptxas once per budget.

Only ptxas sees the device's register budget (paper Fig. 9, step 6), so
one front-end product feeds every budget a kernel is built for.  These
tests pin down that sharing it changes no compiled output, that a
caller mutating its copy cannot leak into another budget's compile,
and that a cold sweep runs each front end exactly once.
"""
import collections
import dataclasses
import pickle

import pytest

from repro import exec as rexec
from repro.arch.specs import device_by_name
from repro.compiler import ccache, clc, nvopencc
from repro.compiler.clc import compile_opencl
from repro.compiler.nvopencc import compile_cuda
from repro.experiments.runner import EXPERIMENTS, collect_units
from repro.ptx.instructions import Instr
from repro.ptx.isa import Op

COMPILE = {"cuda": compile_cuda, "opencl": compile_opencl}
FRONT_ENDS = {"cuda": nvopencc, "opencl": clc}


def _source(kernel) -> bytes:
    return pickle.dumps((kernel, getattr(kernel, "defines", None)), protocol=4)


@pytest.fixture(scope="module")
def small_units():
    return collect_units(list(EXPERIMENTS), "small")


@pytest.fixture(scope="module")
def kernel_budgets(small_units):
    """Every distinct small-size source kernel, with every budget its
    dialect's runtime passes on any DeviceSpec."""
    specs = collections.defaultdict(set)
    kernels = {}
    for unit in small_units:
        specs[unit.api].add(unit.device)
        for k in rexec.UnitBuild(unit).kernels:
            kernels.setdefault((unit.api, _source(k)), k)
    out = []
    for (api, _), k in kernels.items():
        budgets = sorted(
            {device_by_name(d).launch_reg_budget(k.wg_hint) for d in specs[api]}
        )
        out.append((api, k, budgets))
    return out


def _view(ptx) -> tuple:
    return (
        ptx.content_digest(),
        dataclasses.asdict(ptx.resources),
        ptx.producer,
        dict(ptx.defines),
    )


def _alone(api, kernel, budget) -> tuple:
    ccache.clear()
    return _view(COMPILE[api](kernel, max_regs=budget))


def test_order_independent(kernel_budgets):
    assert {api for api, _, _ in kernel_budgets} == {"cuda", "opencl"}
    for api, kernel, budgets in kernel_budgets:
        alone = {b: _alone(api, kernel, b) for b in budgets}
        ccache.clear()
        # each budget after every other one, both directions
        for order in (budgets, budgets[::-1]):
            for b in order:
                got = _view(COMPILE[api](kernel, max_regs=b))
                assert got == alone[b], (api, kernel.name, b)


def _mutate(ptx) -> None:
    ptx.instrs.append(Instr(Op.EXIT))
    ptx.resources.registers = 999
    ptx.defines["MUTATED"] = 1


@pytest.mark.parametrize("api", ["cuda", "opencl"])
def test_mutating_a_result_leaks_into_no_other_budget(api, kernel_budgets):
    api_kernels = [(k, b) for a, k, b in kernel_budgets if a == api]
    kernel, budgets = max(api_kernels, key=lambda kb: len(kb[1]))
    assert len(budgets) >= 2
    alone = {b: _alone(api, kernel, b) for b in budgets}
    ccache.clear()
    for b in budgets:
        ptx = COMPILE[api](kernel, max_regs=b)
        assert _view(ptx) == alone[b], (api, kernel.name, b)
        _mutate(ptx)
    # hits after the mutations still return the pristine compiles
    for b in budgets:
        assert _view(COMPILE[api](kernel, max_regs=b)) == alone[b]


def test_cold_sweep_runs_each_front_end_once(small_units, monkeypatch, tmp_path):
    """A cold ``--jobs 1`` small sweep lowers each distinct
    (dialect, source kernel) pair exactly once, whatever its budgets."""
    pairs = set()
    lowered = collections.Counter()
    for dialect, mod in FRONT_ENDS.items():
        compile_fn = mod.cached_compile
        lower = mod.lower_kernel

        def seen(d, kernel, *args, _compile=compile_fn):
            pairs.add((d, _source(kernel)))
            return _compile(d, kernel, *args)

        def counted(*args, _lower=lower, _dialect=dialect, **kwargs):
            lowered[_dialect] += 1
            return _lower(*args, **kwargs)

        monkeypatch.setattr(mod, "cached_compile", seen)
        monkeypatch.setattr(mod, "lower_kernel", counted)
    ccache.clear()
    ex = rexec.SweepExecutor(jobs=1, cache=tmp_path, progress=False)
    ex.prewarm(small_units)
    per_dialect = collections.Counter(d for d, _ in pairs)
    assert per_dialect["cuda"] and per_dialect["opencl"]
    assert lowered == per_dialect
    st = ccache.cache_stats()
    assert st["frontend_misses"] == len(pairs) < st["misses"]


def test_clear_resets_both_stages():
    unit = rexec.make_unit("TranP", "cuda", "GTX480", "small")
    kernel = rexec.UnitBuild(unit).kernels[0]
    ccache.clear()
    compile_cuda(kernel, max_regs=63)
    compile_cuda(kernel, max_regs=124)
    st = ccache.cache_stats()
    assert (st["frontend_hits"], st["frontend_misses"]) == (1, 1)
    assert st["entries"] == 2 and st["frontend_entries"] == 1
    ccache.clear()
    assert set(ccache.cache_stats().values()) == {0}
    # the front end runs again: nothing of the first stage survived
    compile_cuda(kernel, max_regs=124)
    st = ccache.cache_stats()
    assert (st["misses"], st["frontend_misses"], st["frontend_hits"]) == (1, 1, 0)
