"""One build artifact per unit, and the ABT preflight derived in-unit.

A cold sweep builds each distinct unit's kernels exactly once: the
digest, the preflight verdict and the run all read the same
:class:`repro.exec.UnitBuild`.  The verdict comes home from the unit's
own execution — sequential or pool worker — and lands in
``stats.preflight`` in an order that depends on neither the worker
count nor the unit order.
"""
import pickle
import random

from repro import exec as rexec
from repro.arch.specs import CELLBE, GTX280, GTX480
from repro.benchsuite.base import Benchmark
from repro.kir import pretty

SOBEL = rexec.make_unit("Sobel", "cuda", GTX280, "small")
#: Sobel's CUDA default is use_constant=False, so this is SOBEL's twin:
#: a distinct unit with the same build inputs and digest
SOBEL_TWIN = rexec.make_unit(
    "Sobel", "cuda", GTX280, "small", {"use_constant": False}
)
UNITS = [
    # two Table VI ABT rows
    rexec.make_unit("FFT", "opencl", CELLBE, "small"),
    rexec.make_unit("DXTC", "opencl", CELLBE, "small"),
    rexec.make_unit("TranP", "cuda", GTX480, "small"),
    rexec.make_unit("TranP", "opencl", GTX280, "small"),
    SOBEL,
    SOBEL_TWIN,
]


def _preflight(ex) -> tuple:
    return ex.stats.preflight_checked, ex.stats.preflight


def test_twins_share_a_digest():
    assert SOBEL != SOBEL_TWIN
    assert rexec.unit_digest(SOBEL) == rexec.unit_digest(SOBEL_TWIN)


def test_cold_sweep_builds_each_unit_once(monkeypatch):
    calls = []
    original = Benchmark.build_kernels

    def counting(self, dialect, options, defines, params):
        calls.append((self.name, dialect.name, tuple(sorted(options.items()))))
        return original(self, dialect, options, defines, params)

    monkeypatch.setattr(Benchmark, "build_kernels", counting)
    ex = rexec.SweepExecutor(progress="off")
    ex.prewarm(UNITS)
    for u in UNITS:
        ex.run_unit(u)
    assert len(calls) == len(set(UNITS))
    # every artifact is released once its unit has executed
    assert not ex._builds


def test_preflight_checked_equals_simulated_units():
    ex = rexec.SweepExecutor(progress="off")
    ex.prewarm(UNITS)
    assert ex.stats.preflight_checked == ex.stats.misses == len(UNITS) - 1
    # label order, not plan order
    assert [v["label"] for v in ex.stats.preflight] == [
        UNITS[1].label(), UNITS[0].label()
    ]
    assert all(v["would_abt"] for v in ex.stats.preflight)


def test_preflight_rows_independent_of_jobs_and_unit_order():
    seen = []
    for jobs, seed in ((1, 0), (2, 0), (1, 1), (2, 2)):
        units = list(UNITS)
        random.Random(seed).shuffle(units)
        ex = rexec.SweepExecutor(jobs=jobs, progress="off")
        ex.prewarm(units)
        assert not ex.stats.failures
        seen.append(_preflight(ex))
    assert all(s == seen[0] for s in seen[1:]), seen


def test_verdict_matches_standalone_preflight():
    ex = rexec.SweepExecutor(progress="off")
    ex.prewarm(UNITS[:1])
    standalone = rexec.preflight_unit(UNITS[0]).as_dict()
    assert ex.stats.preflight == [standalone]


def test_no_preflight_only_suppresses_reporting():
    on = rexec.SweepExecutor(progress="off")
    off = rexec.SweepExecutor(progress="off", preflight=False)
    on.prewarm(UNITS)
    off.prewarm(UNITS)
    assert _preflight(off) == (0, [])
    assert on.stats.preflight
    a = rexec.canonical_results_json([on.run_unit(u) for u in UNITS])
    b = rexec.canonical_results_json([off.run_unit(u) for u in UNITS])
    assert a == b


def test_twin_served_under_requested_identity():
    docs = []
    for order in ([SOBEL, SOBEL_TWIN], [SOBEL_TWIN, SOBEL]):
        ex = rexec.SweepExecutor(progress="off")
        results = [ex.run_unit(u) for u in order]
        assert [r.unit for r in results] == order
        # the stored bytes are the first runner's, unchanged
        assert ex._mem[ex.digest_of(order[1])]["unit"]["options"] == [
            list(kv) for kv in order[0].options
        ]
        docs.append(rexec.canonical_results_json(results))
    assert docs[0] == docs[1]


def test_twin_served_from_disk_under_requested_identity(tmp_path):
    rexec.SweepExecutor(cache=tmp_path, progress="off").run_unit(SOBEL)
    warm = rexec.SweepExecutor(cache=tmp_path, progress="off")
    r = warm.run_unit(SOBEL_TWIN)
    assert r.cached and r.unit == SOBEL_TWIN


def test_artifact_pickles_as_unit_and_kernels():
    build = rexec.UnitBuild(UNITS[2])
    build.ptx = [lambda: None]  # unpicklable: must not travel
    clone = pickle.loads(pickle.dumps(build))
    assert clone.unit == build.unit and clone.ptx is None
    assert clone.verdict is None
    render = [pretty.render(k, build.dialect) for k in build.kernels]
    assert [pretty.render(k, clone.dialect) for k in clone.kernels] == render


def test_failed_construction_reraises_and_stays_keyable(monkeypatch):
    def boom(self, dialect, options, defines, params):
        raise ValueError("too big")

    monkeypatch.setattr(Benchmark, "build_kernels", boom)
    build = rexec.UnitBuild(UNITS[2])
    fp = rexec.unit_fingerprint(UNITS[2], build=build)
    assert fp["kernels"] == ["<kernel construction failed: ValueError: too big>"]
    v = rexec.preflight_unit(UNITS[2], build=build)
    assert not v.would_abt and v.note.startswith("inconclusive: ValueError")
