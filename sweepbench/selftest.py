#!/usr/bin/env python3
"""Self-tests of the sweep benchmark; exits 1 on the first failure.

    python3 sweepbench/selftest.py

1. The paper-small reference totals equal the committed bench
   baseline (357 launches, 6,400,864 warp instructions, 22,899,840
   DRAM bytes).
2. Traced and untraced passes give byte-identical canonical results.
3. A different seed reorders the units but leaves the results digest
   unchanged.
4. Each mode of ``run.py`` prints exactly the metric names that
   ``BENCHMARK.json`` declares, and a correct result.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def test_metric_names() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"),
             "--workload", "paper-small-cold-j2", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        check(
            list(result["metrics"]) == [m["name"] for m in doc[key]],
            f"--trace {trace} prints the {key} metrics of BENCHMARK.json",
        )
        check(result["correct"] and result["failed"] == 0,
              f"--trace {trace} run is correct")


def test_reference_matches_baseline() -> None:
    base = json.loads(
        (run.ROOT / "benchmarks" / "BENCH_baseline.json").read_text()
    )["metrics"]
    totals = json.loads(run.REFERENCE.read_text())["paper-small"]["totals"]
    for key in ("launches", "warp_instructions", "dram_bytes"):
        check(totals[key] == base[f"sim.{key}"]["value"],
              f"paper-small reference {key} equals BENCH_baseline.json")


def test_trace_and_seed_invariance() -> None:
    import layers
    from repro.experiments.runner import collect_units

    # fig3 and fig8 hold units whose build inputs coincide, so the
    # served-result pairing is exercised too
    names = ["fig3", "fig8"]
    wl = run.WORKLOADS["paper-small-cold"]
    base = collect_units(names, wl.size)
    orders, shas = [], []
    for seed, traced in ((1, False), (2, True)):
        units = list(base)
        random.Random(seed).shuffle(units)
        orders.append([u.label() for u in units])
        with tempfile.TemporaryDirectory(dir=run.OUT) as cache:
            if traced:
                with layers.Instrumentation():
                    p = run.run_pass(wl, names, units, Path(cache), True)
            else:
                p = run.run_pass(wl, names, units, Path(cache), False)
        shas.append(p["results_sha256"])
        check(not p["engine_failures"] and not p["twins"] and not p["lost"],
              f"seed {seed} (traced={traced}) served every unit")
    check(orders[0] != orders[1], "a different seed reorders the units")
    check(shas[0] == shas[1],
          "traced and untraced passes under two seeds give identical "
          "canonical results")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    test_reference_matches_baseline()
    test_trace_and_seed_invariance()
    test_metric_names()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
