"""The compile cache exports its hits and misses as registry counters."""
from repro import exec as rexec
from repro.arch.specs import GTX280, GTX480
from repro.compiler import ccache
from repro.compiler.nvopencc import compile_cuda
from repro.obs import openmetrics as om
from repro.prof.report import render_sweep
from repro.telemetry import metrics

UNITS = [
    rexec.make_unit("TranP", api, dev, "small")
    for api in ("cuda", "opencl")
    for dev in (GTX280, GTX480)
]


def _counts(reg) -> tuple:
    return tuple(
        reg.counter(f"compiler.ccache.{k}").value for k in ("hits", "misses")
    )


def test_counters_track_cache_stats():
    kernel = rexec.UnitBuild(UNITS[0]).kernels[0]
    ccache.clear()
    with metrics.use_registry() as reg:
        compile_cuda(kernel, max_regs=63)
        compile_cuda(kernel, max_regs=63)
        compile_cuda(kernel, max_regs=124)
    assert _counts(reg) == (1, 2)
    st = ccache.cache_stats()
    assert (st["hits"], st["misses"]) == (1, 2)


def test_counters_merge_home_from_pool_workers(tmp_path):
    ccache.clear()
    with metrics.use_registry() as reg:
        ex = rexec.SweepExecutor(jobs=2, cache=tmp_path, progress="off")
        ex.prewarm(UNITS)
        text = render_sweep(ex.stats)
    hits, misses = _counts(reg)
    # the parent compiles nothing: every count came home from a worker
    assert ccache.cache_stats()["misses"] == 0
    assert misses >= len(UNITS)
    assert f"compile cache: {int(hits)} hit(s), {int(misses)} miss(es)" in text
    exported = om.render(reg.snapshot(), run_id="r")
    assert f'repro_compiler_ccache_misses_total{{run_id="r"}} {int(misses)}' in exported
