"""Property-based tests (hypothesis) on core invariants.

The flagship property: *any* kernel expressible in the IR must produce
identical results through ``compile -> SIMT-simulate`` (both front ends)
and through the independent reference evaluator.  Random expression
kernels exercise the whole lowering/interpreter surface.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.arch import GTX280, GTX480, LRUCache, coalesce, segments_gt200
from repro.compiler import compile_cuda, compile_opencl
from repro.compiler.passes.constfold import fold_constants
from repro.compiler.passes.unroll import unroll_loops
from repro.kir import CUDA, KernelBuilder, OPENCL, Scalar, eval_kernel
from repro.kir.expr import BinOp, Const, Expr, UnOp, Var
from repro.sim import FlatMemory, SimDevice

# ---------------------------------------------------------------------------
# random integer expression trees over one variable + one loaded value
# ---------------------------------------------------------------------------

_INT_BINOPS = ["add", "sub", "mul", "and", "or", "xor", "min", "max"]


def _int_exprs(depth: int):
    leaf = st.one_of(
        st.integers(-100, 100).map(lambda v: Const(v, Scalar.S32)),
        st.just(Var("t", Scalar.S32)),
        st.just(Var("v", Scalar.S32)),
    )
    if depth == 0:
        return leaf
    sub = _int_exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(_INT_BINOPS), sub, sub).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["neg", "abs"]), sub).map(
            lambda t: UnOp(t[0], t[1])
        ),
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(expr=_int_exprs(3), data=st.lists(st.integers(-1000, 1000), min_size=32, max_size=32))
def test_compile_simulate_matches_reference_evaluator(expr, data):
    """compile+simulate == reference evaluation, for both front ends."""
    outs = {}
    for dialect, comp, spec in (
        (CUDA, compile_cuda, GTX480),
        (OPENCL, compile_opencl, GTX480),
    ):
        k = KernelBuilder("prop", dialect)
        a = k.buffer("a", Scalar.S32)
        o = k.buffer("o", Scalar.S32)
        t = k.let("t", k.tid.x, Scalar.S32)
        v = k.let("v", a[t])
        k.store(o, t, expr)
        kern = k.finish()

        A = np.array(data, dtype=np.int32)
        ref = np.zeros(32, dtype=np.int32)
        eval_kernel(kern, 1, 32, {"a": A.copy(), "o": ref})

        dev = SimDevice(spec)
        pa, po = dev.alloc(128), dev.alloc(128)
        dev.upload(pa, A)
        dev.launch(comp(kern, max_regs=63), 1, 32, {"a": pa, "o": po})
        got, _ = dev.download(po, 32, Scalar.S32)
        np.testing.assert_array_equal(got, ref, err_msg=dialect.name)
        outs[dialect.name] = got
    # and the two toolchains agree with each other
    np.testing.assert_array_equal(outs["cuda"], outs["opencl"])


@settings(max_examples=25, deadline=None)
@given(
    start=st.integers(0, 5),
    stop=st.integers(0, 20),
    step=st.integers(1, 4),
    factor=st.integers(2, 8),
)
def test_unroll_preserves_loop_semantics(start, stop, step, factor):
    def build(unroll):
        k = KernelBuilder("u", CUDA)
        o = k.buffer("o", Scalar.S32)
        acc = k.let("acc", 0)
        with k.for_("i", start, stop, step, unroll=unroll) as i:
            k.assign(acc, acc * 3 + i)
        k.store(o, k.tid.x, acc)
        return k.finish()

    k = KernelBuilder("u", CUDA)
    base = build(None)
    unrolled, _ = unroll_loops(build(k.unroll(factor)), auto_limit=0)
    o1 = np.zeros(1, dtype=np.int32)
    o2 = np.zeros(1, dtype=np.int32)
    eval_kernel(base, 1, 1, {"o": o1})
    eval_kernel(unrolled, 1, 1, {"o": o2})
    assert o1[0] == o2[0]


@settings(max_examples=30, deadline=None)
@given(expr=_int_exprs(3))
def test_constfold_preserves_semantics(expr):
    def build():
        k = KernelBuilder("cf", CUDA)
        a = k.buffer("a", Scalar.S32)
        o = k.buffer("o", Scalar.S32)
        t = k.let("t", k.tid.x, Scalar.S32)
        v = k.let("v", a[t])
        k.store(o, t, expr)
        return k.finish()

    kern = build()
    folded = fold_constants(kern, prune_branches=True, algebraic=True)
    A = np.arange(-4, 4, dtype=np.int32)
    o1 = np.zeros(8, dtype=np.int32)
    o2 = np.zeros(8, dtype=np.int32)
    eval_kernel(kern, 1, 8, {"a": A.copy(), "o": o1})
    eval_kernel(folded, 1, 8, {"a": A.copy(), "o": o2})
    np.testing.assert_array_equal(o1, o2)


# ---------------------------------------------------------------------------
# architectural invariants
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32),
)
def test_coalescer_covers_all_accesses(raw):
    addrs = np.array(sorted(a * 4 for a in raw), dtype=np.int64)
    sizes = np.full(addrs.size, 4, dtype=np.int64)
    for spec in (GTX280, GTX480):
        bases, traffic = coalesce(spec, addrs, sizes)
        assert traffic >= addrs.size * 0  # non-negative
        if spec is GTX480:
            # every access falls inside some returned line
            lines = set(bases.tolist())
            for a in addrs.tolist():
                assert (a // 128) * 128 in lines


@settings(max_examples=60, deadline=None)
@given(
    addrs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32),
    sizes=st.lists(st.integers(1, 16), min_size=32, max_size=32),
)
def test_coalescer_coverage_and_conservation(addrs, sizes):
    """Every byte a lane touches lies inside some returned segment, and
    the summed segment widths cover at least the touched bytes — for
    arbitrary (unaligned, straddling) addr/size vectors on both
    architectures.  This is the property the two coalescer bugs broke.
    """
    a = np.array(addrs, dtype=np.int64)
    s = np.array(sizes[: a.size], dtype=np.int64)
    touched = set()
    for ai, si in zip(a.tolist(), s.tolist()):
        touched.update(range(ai, ai + si))
    for spec in (GTX280, GTX480):
        if spec is GTX280:
            bases, widths = segments_gt200(a, s)
        else:
            from repro.arch import segments_lines

            bases, widths = segments_lines(a, s, spec.line_bytes)
        covered = set()
        for b, w in zip(bases.tolist(), widths.tolist()):
            covered.update(range(int(b), int(b) + int(w)))
        missing = touched - covered
        assert not missing, (
            f"{spec.name}: {len(missing)} touched bytes outside every "
            f"segment (e.g. {sorted(missing)[:4]})"
        )
        assert int(widths.sum()) >= len(touched)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=16))
def test_gt200_segments_aligned_and_bounded(raw):
    addrs = np.array([a * 4 for a in raw], dtype=np.int64)
    sizes = np.full(addrs.size, 4, dtype=np.int64)
    bases, widths = segments_gt200(addrs, sizes)
    assert bases.size <= 2 * 16  # at most one segment per access
    for b, w in zip(bases.tolist(), widths.tolist()):
        assert w in (32, 64, 128)
        assert b % w == 0  # aligned to its own width


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=64))
def test_lru_cache_hit_rate_bounds(lines):
    c = LRUCache(16 * 64, 64, ways=4)
    for l in lines:
        c.access(l * 64)
    assert 0 <= c.stats.hit_rate() <= 1
    assert c.stats.accesses == len(lines)
    # a second identical pass over a working set within capacity must hit
    c2 = LRUCache(1 << 20, 64, ways=16)
    for l in lines:
        c2.access(l * 64)
    before = c2.stats.hits
    for l in lines:
        c2.access(l * 64)
    assert c2.stats.hits - before == len(lines)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-(1 << 31), (1 << 31) - 1), min_size=1, max_size=64),
)
def test_flatmemory_roundtrip(values):
    m = FlatMemory(1 << 16)
    base = m.alloc(len(values) * 4)
    arr = np.array(values, dtype=np.int32)
    addrs = base + np.arange(arr.size, dtype=np.int64) * 4
    m.store(addrs, arr, Scalar.S32)
    assert np.array_equal(m.load(addrs, Scalar.S32), arr)


# ---------------------------------------------------------------------------
# benchmark-level invariants
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**31 - 1))
def test_scan_matches_cumsum_for_any_seed(seed):
    """Scan output is an exclusive prefix sum for arbitrary inputs."""
    from repro.benchsuite.apps.scan import SEG, WG, _add_offsets_kernel, _scan_kernel
    from repro.kir import OPENCL

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 100, SEG).astype(np.int32)
    kern = _scan_kernel(OPENCL)
    sh_out = np.zeros(SEG, dtype=np.int32)
    sums = np.zeros(1, dtype=np.int32)
    eval_kernel(
        kern, 1, WG, {"inp": data.copy(), "out": sh_out, "sums": sums}
    )
    ref = np.concatenate([[0], np.cumsum(data[:-1])])
    assert np.array_equal(sh_out, ref)
    assert sums[0] == data.sum()


# ---------------------------------------------------------------------------
# cold-path bit-identity: block-batched stepping and launch memoization
# may change only *how fast* a launch simulates, never any number it
# produces (ISSUE 6 tentpole contract)
# ---------------------------------------------------------------------------

import contextlib
import os

from repro.arch import CELLBE, HD5870


@contextlib.contextmanager
def _sim_env(batch=None, memo=False):
    saved = {k: os.environ.get(k) for k in ("REPRO_SIM_BATCH", "REPRO_SIM_MEMO")}
    try:
        if batch is None:
            os.environ.pop("REPRO_SIM_BATCH", None)
        else:
            os.environ["REPRO_SIM_BATCH"] = str(batch)
        os.environ["REPRO_SIM_MEMO"] = "1" if memo else "0"
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _launch_series(spec, ptx, data, repeats):
    """Launch ``repeats`` times; return every observable number."""
    dev = SimDevice(spec)
    pa, po = dev.alloc(data.nbytes), dev.alloc(data.nbytes)
    dev.upload(pa, data)
    series = []
    for _ in range(repeats):
        r = dev.launch(ptx, 5, 48, {"a": pa, "o": po})
        series.append(
            (
                r.timing.total_s,
                r.stats.warp_instructions,
                r.stats.barriers,
                dict(r.stats.dyn_hist),
                dict(r.stats.cyc_hist),
                r.profile.issue_cycles,
                r.profile.instr_counts,
            )
        )
    out = dev.download(po, data.size, Scalar.S32)[0]
    snap = dev.memsys.prof_snapshot()
    return (
        series,
        out.tobytes(),
        snap["dram_bytes"].tobytes(),  # exact float bit patterns
        snap["caches"],
        snap["gmem_requests"],
        snap["gmem_transactions"],
    )


_COLD_PATH_DEVICES = [
    (GTX480, compile_cuda, CUDA),
    (CELLBE, compile_opencl, OPENCL),
    (GTX280, compile_cuda, CUDA),
    (HD5870, compile_opencl, OPENCL),
]


@pytest.mark.parametrize(
    "spec,comp,dialect",
    _COLD_PATH_DEVICES,
    ids=lambda v: getattr(v, "name", None) or "",
)
@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    expr=_int_exprs(3),
    data=st.lists(st.integers(-1000, 1000), min_size=240, max_size=240),
)
def test_batched_and_memoized_execution_bit_identical(
    spec, comp, dialect, expr, data
):
    """Per-block, block-batched, and memoized runs agree bit-for-bit.

    The grid uses 48-thread blocks (not a warp multiple) so the batched
    fast paths must handle masked padding lanes, and 5 blocks so the
    batch actually spans several blocks.
    """
    k = KernelBuilder("bb", dialect)
    a = k.buffer("a", Scalar.S32)
    o = k.buffer("o", Scalar.S32)
    t = k.let("t", k.global_id(0), Scalar.S32)
    v = k.let("v", a[t])
    k.store(o, t, expr)
    ptx = comp(k.finish(), max_regs=63)
    A = np.array(data, dtype=np.int32)

    with _sim_env(batch=1, memo=False):
        per_block = _launch_series(spec, ptx, A, repeats=4)
    with _sim_env(batch=None, memo=False):
        batched = _launch_series(spec, ptx, A, repeats=4)
    with _sim_env(batch=None, memo=True):
        memoized = _launch_series(spec, ptx, A, repeats=4)

    assert batched == per_block
    assert memoized == per_block


@pytest.mark.parametrize(
    "spec,comp,dialect",
    _COLD_PATH_DEVICES,
    ids=lambda v: getattr(v, "name", None) or "",
)
@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    stride=st.sampled_from([1, 2, 3, 16, 17, 32]),
    cut=st.integers(1, 48),
    data=st.lists(st.integers(-1000, 1000), min_size=240, max_size=240),
)
def test_batched_shared_memory_bit_identical(
    spec, comp, dialect, stride, cut, data
):
    """Batched == per-block through shared memory, a barrier and a
    lane-dependent predicate.

    The strided shared read makes bank conflicts; ``t < cut`` leaves
    warp rows partially active, so the row compaction and the GT200
    half-warp split of a partial row are exercised.
    """
    k = KernelBuilder("bs", dialect)
    a = k.buffer("a", Scalar.S32)
    o = k.buffer("o", Scalar.S32)
    s = k.shared("s", Scalar.S32, 48)
    t = k.let("t", k.tid.x, Scalar.S32)
    g = k.let("g", k.global_id(0), Scalar.S32)
    k.store(s, t, a[g])
    k.barrier()
    with k.if_(t < cut):
        k.store(o, g, s[(t * stride) % 48] + a[(g * stride) % 240])
    ptx = comp(k.finish(), max_regs=63)
    A = np.array(data, dtype=np.int32)

    with _sim_env(batch=1, memo=False):
        per_block = _launch_series(spec, ptx, A, repeats=2)
    with _sim_env(batch=None, memo=False):
        batched = _launch_series(spec, ptx, A, repeats=2)
    assert batched == per_block
