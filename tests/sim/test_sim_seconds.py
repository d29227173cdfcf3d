"""Simulation host time splits into functional simulation and replay."""
from repro import exec as rexec
from repro.arch.specs import GTX280, GTX480
from repro.telemetry import metrics

UNITS = [
    rexec.make_unit("TranP", api, dev, "small")
    for api in ("cuda", "opencl")
    for dev in (GTX280, GTX480)
]
NAMES = ("sim.functional.seconds", "sim.replay.seconds")


def test_seconds_merge_home_from_pool_workers(tmp_path):
    with metrics.use_registry() as reg:
        ex = rexec.SweepExecutor(jobs=2, cache=tmp_path, progress="off")
        ex.prewarm(UNITS)
        results = ex.run_units(UNITS)
    # the parent simulates nothing: both came home from the workers
    assert all(reg.counter(name).value > 0 for name in NAMES)
    # host seconds vary run to run: never part of the results document
    doc = rexec.canonical_results_json(results)
    assert not any(name in doc for name in NAMES)
