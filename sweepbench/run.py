#!/usr/bin/env python3
"""The sweep benchmark: end-to-end host time of the reproduction's sweeps.

    python3 sweepbench/run.py --workload paper-small-cold --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed batch: this process submits the
whole unit list to one ``SweepExecutor`` (``prewarm``), renders the
workload's experiments through ``run_experiment`` and waits for all of
it; there is no arrival schedule.  The seed permutes the unit order.
Every pass starts from empty in-process state, like a fresh CLI
process: a new executor, a new metrics registry, a cleared compile
cache and a new, empty result cache under ``sweepbench/out/`` -- except
on ``paper-small-warm``, whose passes all read one result cache filled
by a cold pass in set-up.  The repository's ``.repro-cache`` is never
used.  ``setup_s`` is the median wall time of fresh interpreters that
import the program and collect the units, plus, on the warm workload,
that cache fill.

Passes repeat until ``--seconds`` of measuring are used up (at least
one).  Every pass is checked against ``reference.json``: each unit's
canonical result digest, the whole sweep's canonical-results sha256,
the virtual-clock totals and every shape-check verdict.  The model is
validated by those shape checks only, so no numeric error figure is
reported.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics (layers timed
from outside by :mod:`layers`, in measured seconds) and writes the
traced passes' spans to ``sweepbench/out/<workload>.trace.json`` for
``python -m repro.obs critpath``.  Each run also writes its host fingerprint, per-pass times
and result to ``sweepbench/out/<workload>.trace<N>.run.json``.  The
last line of stdout is one JSON object; the exit code is 1 when any
check failed.

The script re-executes itself with a fixed ``PYTHONHASHSEED``: in an
interleaved test on a 2-vCPU host, medians of the same warm sweep
spread 22% across interpreters with random hash seeds and 11% with one
fixed seed.

Host-speed normalisation.  On a shared host the speed of a vCPU drifts
with its neighbours' load: on a 2-vCPU cloud host (Intel Xeon, Python
3.11) a fixed pure-Python loop ran 22% apart (IQR/median of 30 s
windows) with CPU time equal to wall time, so the drift is in the
processor, not the scheduler, and no run length averages it out.  Every
untraced pass and the set-up probes are therefore timed together with a
calibration loop that uses nothing of the program (:class:`HostSpeed`):
a ~3 ms slice of it runs every ``CAL_PERIOD_S`` seconds of the pass, in
this process, and the mean CPU time of a slice says how slow the
processor was while the pass ran.  The time metrics (``setup_s``,
``pass_s``, ``cpu_s``, ``sim.winstr_per_s``) are reported in reference
seconds: the measured seconds, less the slices' own time, scaled by
``CAL_REF_S`` over the mean slice time, i.e. what the pass would have
taken on a processor where one slice takes ``CAL_REF_S``.  A program
change moves them as it moves the measured seconds, since the slices do
not run program code.  On that host, over ten seeds of 15 s runs per
workload, this cut the IQR/median of ``pass_s`` from 4.4% to 1.9%
(paper-small-cold), 25% to 5.6% (paper-small-warm), 12% to 3.4%
(fig3-default-cold) and 8.6% to 3.0% (paper-small-cold-j2), and that
of ``setup_s`` from 15-20% to 2-9%.  The processor's speed still leaks
in a little: the program slows somewhat more than the slices do, so a
host a third slower reads a few per cent slower.  The measured seconds
are printed and kept in the run record beside them.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402


@dataclasses.dataclass(frozen=True)
class Workload:
    experiments: tuple  # empty: all of them
    size: str
    jobs: int
    reference: str  # key into reference.json
    # passes read a result cache filled once in set-up
    warm: bool = False


#: why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "paper-small-cold": Workload((), "small", 1, "paper-small"),
    "paper-small-warm": Workload((), "small", 1, "paper-small", warm=True),
    "fig3-default-cold": Workload(("fig3",), "default", 1, "fig3-default"),
    "paper-small-cold-j2": Workload((), "small", 2, "paper-small"),
}

#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 5

#: iterations of the calibration loop in one slice
CAL_ITERS = 12000
#: seconds one slice takes at the reference host speed
CAL_REF_S = 0.0025
#: wall seconds between calibration slices during a pass
CAL_PERIOD_S = 0.1
#: seconds of calibration slices before and after each set-up probe
CAL_SETUP_S = 0.1

#: PYTHONHASHSEED of every interpreter a run uses
HASH_SEED = "0"

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    "import repro.exec, repro.compiler.ccache;"
    "from repro.experiments import EXPERIMENTS;"
    "from repro.experiments.runner import collect_units;"
    "collect_units(sys.argv[3].split(',') if sys.argv[3] "
    "else list(EXPERIMENTS), sys.argv[2])"
)

#: virtual-clock totals over a sweep's unique units, gated exactly
TOTALS = ("launches", "warp_instructions", "dram_bytes", "kernel_seconds")

MEMSYS = ("l1", "l2", "tex", "const", "null")


def host_fingerprint() -> dict:
    import numpy

    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": model,
        "loadavg": list(os.getloadavg()),
    }


def _cal_slice() -> int:
    """Fixed pure-Python work that uses nothing of the program: set
    inserts and a sort of small ints, the simulator's commonest work
    (coalescing and cache models)."""
    seen = set()
    for i in range(CAL_ITERS):
        seen.add((i * 2654435761) & 0xFFFFF)
    return len(sorted(seen))


class HostSpeed:
    """Times calibration slices: inside the ``with`` block, one every
    ``CAL_PERIOD_S`` seconds of wall time, run in this process's main
    thread from a ``SIGALRM`` handler, so the slices sample the host
    evenly over the block without any change to the program.  The block
    must not use ``ITIMER_REAL`` itself: the benchmark gives its
    executors no unit timeout, the engine's only user of it.  Child
    processes do not inherit the timer.
    """

    def __init__(self) -> None:
        #: CPU seconds of each slice, on this thread alone: waiting for
        #: a processor (a busy pool, another tenant) is not slowness
        self.slices: list = []
        #: wall and process CPU seconds the slices took from the block
        self.spent_s = 0.0
        self.cpu_s = 0.0

    def sample(self, *_signal) -> None:
        t0, c0, th0 = time.perf_counter(), time.process_time(), time.thread_time()
        _cal_slice()
        self.slices.append(time.thread_time() - th0)
        self.cpu_s += time.process_time() - c0
        self.spent_s += time.perf_counter() - t0

    def factor(self) -> float:
        """Reference seconds per measured second."""
        return CAL_REF_S / statistics.fmean(self.slices)

    def __enter__(self) -> "HostSpeed":
        self._prev = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._prev)
        if not self.slices:
            self.sample()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cpu() -> tuple:
    """(this process, reaped children) CPU seconds, at full resolution."""
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), c.ru_utime + c.ru_stime


def run_pass(wl: Workload, names: list, units: list, cache_dir, traced: bool) -> dict:
    """One timed pass of the workload; returns its raw measurements."""
    from repro import exec as rexec
    from repro.compiler import ccache
    from repro.errors import ReproError, UnitFailed
    from repro.exec import (
        WorkUnit, canonical_payload, canonical_results_json, result_to_json,
    )
    from repro.experiments.runner import run_experiment
    from repro.telemetry import metrics as tmetrics
    from repro.telemetry import spans as tspans

    ccache.clear()
    gc.collect()
    tracer = (
        tspans.Tracer(run_id=f"sweepbench-{os.getpid()}", root_name="bench",
                      root_cat="bench")
        if traced else None
    )
    reports, aborted = [], []
    with tmetrics.use_registry() as reg, tspans.use_tracer(tracer):
        ex = rexec.SweepExecutor(jobs=wl.jobs, cache=cache_dir, progress="off")
        # traced passes give per-layer self times, which slices would blur
        speed = HostSpeed()
        cpu0 = _cpu()
        t0 = time.perf_counter()
        with contextlib.ExitStack() as region:
            if not traced:
                region.enter_context(speed)
            region.enter_context(layers.span(layers.PASS, "bench"))
            region.enter_context(rexec.use_executor(ex))
            ex.prewarm(units)
            for name in names:
                try:
                    with layers.span("experiments.render", "experiments"):
                        reports.append(run_experiment(name, size=wl.size))
                except ReproError as e:
                    aborted.append(f"{name}: {e}")
        wall = time.perf_counter() - t0 - speed.spent_s
        cpu1 = _cpu()
        snap = reg.snapshot()
    if traced:
        tracer.finish()

    # host seconds of each unit's first serve in this pass
    first: dict = {}
    for r in ex.stats.records:
        first.setdefault(r.digest, r)
    simulated = {d for d, r in first.items() if r.source == "run"}

    # Collected after the timed region, straight from the memo table.
    # Units whose build inputs coincide share one digest, and the engine
    # stores the payload under the identity of whichever of them ran
    # first; each requested unit is paired with the result it was
    # served, after checking the stored identity is one of its twins.
    results, lost, twins = [], [], []
    by_digest: dict = {}
    for u in sorted(set(units), key=WorkUnit.label):
        try:
            r = ex.run_unit(u)
        except UnitFailed:
            lost.append(u.label())
            continue
        d = ex.digest_of(u)
        if ex.digest_of(r.unit) != d:
            twins.append(f"{u.label()} served {r.unit.label()}")
        results.append(dataclasses.replace(r, unit=u))
        by_digest.setdefault(d, results[-1])
    memsys: dict = {}
    totals = dict.fromkeys(TOTALS, 0)
    for d, r in by_digest.items():
        totals["launches"] += r.bench.launches
        p = r.profile
        if p is None:
            continue
        totals["warp_instructions"] += p.warp_instructions
        totals["dram_bytes"] += p.dram_bytes
        totals["kernel_seconds"] += p.total_s
        if d in simulated:
            for cname, st in p.caches.items():
                for kind in ("hits", "misses"):
                    key = f"{cname}.{kind}"
                    memsys[key] = memsys.get(key, 0) + getattr(st, kind)
    unit_sha = {
        r.unit.label(): _sha(json.dumps(
            canonical_payload(result_to_json(r)), sort_keys=True
        ))
        for r in results
    }

    def counter(name):
        return float(snap[name]["value"]) if name in snap else 0.0

    return {
        "traced": traced,
        "wall": wall,
        "speed": speed.factor() if not traced else 1.0,
        "cal_slices": len(speed.slices),
        "parent_cpu": cpu1[0] - cpu0[0] - speed.cpu_s,
        "worker_cpu": cpu1[1] - cpu0[1],
        "unit_seconds": [r.seconds for r in first.values()],
        "engine_failures": [f.label for f in ex.stats.failures],
        "lost": lost,
        "twins": twins,
        "aborted": aborted,
        "bench_failures": {
            r.unit.label(): r.bench.failure or "wrong output"
            for r in results if not r.bench.ok()
        },
        "unit_sha": unit_sha,
        "results_sha256": _sha(canonical_results_json(results)),
        "totals": totals,
        "checks": [
            [rep.experiment, c["what"],
             "SKIP" if c.get("skipped") else ("PASS" if c["holds"] else "MISS")]
            for rep in reports for c in rep.checks
        ],
        "preflight_abt": len(ex.stats.preflight),
        "memsys": memsys,
        "counters": {
            "sim.launches": counter("sim.launches"),
            "sim.warp_instructions": counter("sim.warp_instructions"),
            "sim.dram_bytes": counter("sim.dram_bytes"),
            "sim.kernel_seconds": snap.get("sim.kernel_s", {}).get("sum", 0.0),
            "launch.cuda.count": counter("runtime.cuda.launches"),
            "launch.opencl.count": counter("runtime.opencl.launches"),
            "exec.cache.hits": counter("cache.disk.hits"),
            "exec.cache.misses": counter("cache.disk.misses"),
        },
        "spans": [e for e in tracer.events if hasattr(e, "t1")] if traced else [],
    }


def gate(p: dict, ref: dict, warm: bool) -> list:
    """Every mismatch between one pass and the reference, one line each.

    A unit fails on an engine failure, a wrong output (a Table VI ABT
    the reference also has is not one) or a result-digest mismatch; a
    shape check fails when its verdict differs from the reference.  A
    ``warm`` pass must simulate nothing.
    """
    bad = []
    for label in p["engine_failures"] + p["lost"]:
        bad.append(f"unit {label}: engine failure")
    bad += [f"unit {t}, whose digest differs" for t in p["twins"]]
    for label, why in sorted(p["bench_failures"].items()):
        if ref["expected_failures"].get(label) != why:
            bad.append(f"unit {label}: {why}")
    for label, sha in sorted(ref["units"].items()):
        got = p["unit_sha"].get(label)
        if got is not None and got != sha:
            bad.append(f"unit {label}: result digest {got[:12]} != {sha[:12]}")
    extra = sorted(set(p["unit_sha"]) - set(ref["units"]))
    bad += [f"unit {label}: not in the reference" for label in extra]
    if p["results_sha256"] != ref["results_sha256"] and not bad:
        bad.append("canonical results sha256 differs from the reference")
    for key in TOTALS:
        if p["totals"][key] != ref["totals"][key]:
            bad.append(f"total {key} {p['totals'][key]!r} != {ref['totals'][key]!r}")
    # the simulator's own counters must agree with the results
    for key in ("launches", "warp_instructions", "dram_bytes"):
        got = p["counters"][f"sim.{key}"]
        want = 0.0 if warm else ref["totals"][key]
        if got != want:
            bad.append(f"counter sim.{key} {got!r} != {want!r}")
    bad += [f"experiment {a}" for a in p["aborted"]]
    got = {(e, w): v for e, w, v in p["checks"]}
    for e, w, v in ref["checks"]:
        if got.get((e, w)) != v:
            bad.append(f"shape check {e}: {w}: {got.get((e, w))} != {v}")
    return bad


def setup_probe_seconds(wl: Workload, speed: HostSpeed) -> list:
    """Wall time of fresh interpreters that import the program and
    collect the workload's units (a CLI process's set-up).

    Calibration slices fill ``CAL_SETUP_S`` before and after each
    probe, and this process and its probes keep to one processor
    meanwhile, so the slices time the processor the probes ran on: a
    vCPU's speed need not be its sibling's.
    """

    def calibrate():
        t_end = time.perf_counter() + CAL_SETUP_S
        while time.perf_counter() < t_end:
            speed.sample()

    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    out = []
    try:
        for _ in range(SETUP_PROBES):
            calibrate()
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", _PROBE, str(SRC), wl.size,
                 ",".join(wl.experiments)],
                check=True, cwd=ROOT,
            )
            out.append(time.perf_counter() - t0)
        calibrate()
    finally:
        os.sched_setaffinity(0, allowed)
    return out


def end_to_end(passes, setup_s, rss_mb, speed=lambda p: 1.0) -> dict:
    """The end-to-end metrics; ``speed(pass)`` scales a pass's measured
    seconds to reference seconds (see the module docstring)."""
    walls = [p["wall"] * speed(p) for p in passes]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median([
            (p["parent_cpu"] + p["worker_cpu"]) * speed(p) for p in passes
        ]), "s"),
        "sim.winstr_per_s": (
            statistics.median([
                p["totals"]["warp_instructions"] / w for p, w in zip(passes, walls)
            ]),
            "1/s",
        ),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(plain, traced, ref) -> dict:
    rows = [layers.self_times(p["spans"]) for p in traced]
    # The first unit to need a kernel pays its compile, so the seed's
    # unit order moves these percentiles: they have no bound.
    samples = [s for p in plain for s in p["unit_seconds"]]

    def self_s(name):
        return (statistics.median([r["layers"][name]["self_s"] for r in rows]), "s")

    def attr(name, key):
        return (statistics.median([r["layers"][name].get(key, 0) for r in rows]), "count")

    def counter(name, unit="count"):
        return (statistics.median([p["counters"][name] for p in traced]), unit)

    winstr = statistics.median([p["counters"]["sim.warp_instructions"] for p in traced])
    sim_s = statistics.median([
        r["layers"]["sim.launch"]["self_s"] + r["layers"]["sim.run_grid"]["self_s"]
        for r in rows
    ])
    out = {
        "unit_s.p50": (statistics.median(samples), "s"),
        "unit_s.p90": (statistics.quantiles(samples, n=10)[8], "s"),
        "kir.build.self_s": self_s("kir.build"),
        "kir.build.calls": attr("kir.build", "calls"),
        "exec.digest.self_s": self_s("exec.digest"),
        "exec.digest.calls": attr("exec.digest", "calls"),
        "exec.preflight.self_s": self_s("exec.preflight"),
        "exec.preflight.calls": attr("exec.preflight", "calls"),
        "exec.preflight.abt": (statistics.median([p["preflight_abt"] for p in traced]), "count"),
        "compiler.compile.self_s": self_s("compiler.compile"),
        "compiler.ptxas.self_s": self_s("compiler.ptxas"),
        "compiler.ccache.hits": attr("compiler.compile", "ccache_hits"),
        "compiler.ccache.misses": attr("compiler.compile", "ccache_misses"),
        "runtime.build.self_s": self_s("runtime.build"),
        "launch.cuda.count": counter("launch.cuda.count"),
        "launch.opencl.count": counter("launch.opencl.count"),
        "sim.launch.self_s": self_s("sim.launch"),
        "sim.run_grid.self_s": self_s("sim.run_grid"),
        "sim.ns_per_warp_instr": (sim_s / winstr * 1e9 if winstr else 0.0, "ns"),
        "sim.launches": counter("sim.launches"),
        "sim.warp_instructions": counter("sim.warp_instructions"),
        "sim.dram_bytes": counter("sim.dram_bytes", "B"),
        "sim.kernel_seconds": counter("sim.kernel_seconds", "sim_s"),
        "sim.memo.hits": attr("sim.launch", "memo_hits"),
        "sim.memo.lookups": attr("sim.launch", "memo_lookups"),
    }
    for cache in MEMSYS:
        for kind in ("hits", "misses"):
            out[f"sim.memsys.{cache}.{kind}"] = (
                statistics.median([p["memsys"].get(f"{cache}.{kind}", 0) for p in traced]),
                "count",
            )
    out.update({
        "benchsuite.host.self_s": self_s("benchsuite.host"),
        "exec.cache.get_s": self_s("exec.cache.get"),
        "exec.cache.put_s": self_s("exec.cache.put"),
        "exec.cache.hits": counter("exec.cache.hits"),
        "exec.cache.misses": counter("exec.cache.misses"),
        "exec.cache.put_bytes": (
            statistics.median([r["layers"]["exec.cache.put"].get("bytes", 0) for r in rows]),
            "B",
        ),
        "experiments.render.self_s": self_s("experiments.render"),
        "experiments.checks_passed": (
            statistics.median([
                sum(1 for c in p["checks"] if c in ref["checks"] and c[2] != "MISS")
                for p in traced
            ]),
            "count",
        ),
        "exec.pool.wait_s": self_s("exec.pool.wait"),
        "exec.pool.parent_cpu_s": (statistics.median([p["parent_cpu"] for p in traced]), "s"),
        "exec.pool.worker_cpu_s": (statistics.median([p["worker_cpu"] for p in traced]), "s"),
        "other.self_s": (statistics.median([r["other_s"] for r in rows]), "s"),
        # each traced pass against the untraced pass just before it,
        # so host drift over the run cancels
        "trace.overhead_frac": (
            statistics.median([t["wall"] / u["wall"] for u, t in zip(plain, traced)])
            - 1.0,
            "frac",
        ),
    })
    return out


def reconcile(p: dict) -> None:
    """Layer self times plus other.self_s must add up to the pass wall."""
    r = layers.self_times(p["spans"])
    total = r["parent_self_s"] + r["other_s"]
    if abs(total - r["pass_s"]) > 1e-6 * max(1.0, r["pass_s"]):
        raise SystemExit(
            f"reconciliation failed: layer self times {r['parent_self_s']:.6f}s "
            f"+ other {r['other_s']:.6f}s != pass {r['pass_s']:.6f}s"
        )
    if any(row["self_s"] < -1e-6 for row in r["layers"].values()):
        raise SystemExit(f"negative layer self time: {r['layers']}")


def declared_names(trace: bool) -> list:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-reference", action="store_true",
        help="write the first pass's results as the workload's reference",
    )
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"sweepbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # the string-hash seed sets every dict and set layout, which
        # moves pass times between interpreters (see the docstring)
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        )
    # the program reads these; the benchmark runs it as shipped
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    host = host_fingerprint()
    wl = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    from repro.experiments import EXPERIMENTS
    from repro.experiments.runner import collect_units
    from repro.telemetry import export

    names = list(wl.experiments) or list(EXPERIMENTS)
    units = collect_units(names, wl.size)
    random.Random(args.seed).shuffle(units)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = refs.get(wl.reference)
    if ref is None and not args.record_reference:
        print(f"sweepbench: no reference for {wl.reference}", file=sys.stderr)
        return 2

    # before the passes, while this process is as small as a fresh one
    setup_speed = HostSpeed()
    probes = setup_probe_seconds(wl, setup_speed)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    passes, problems = [], []
    fill_s = fill_raw_s = 0.0
    try:
        if wl.warm:
            # set-up ends with the cache the timed passes read
            filled = work / "filled"
            fill = run_pass(wl, names, units, filled, False)
            problems += gate(fill, ref, warm=False)
            fill_raw_s = fill["wall"]
            fill_s = fill["wall"] * fill["speed"]
        kinds = (False, True) if args.trace else (False,)
        t_start = time.perf_counter()
        rounds = 0
        while True:
            for traced in kinds:
                cache_dir = (
                    filled if wl.warm
                    else Path(tempfile.mkdtemp(prefix="cache-", dir=work))
                )
                if traced:
                    with layers.Instrumentation():
                        p = run_pass(wl, names, units, cache_dir, True)
                    reconcile(p)
                else:
                    p = run_pass(wl, names, units, cache_dir, False)
                if not wl.warm:
                    shutil.rmtree(cache_dir, ignore_errors=True)
                if args.record_reference and ref is None:
                    ref = refs[wl.reference] = {
                        "results_sha256": p["results_sha256"],
                        "units": p["unit_sha"],
                        "expected_failures": p["bench_failures"],
                        "totals": p["totals"],
                        "checks": p["checks"],
                    }
                    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
                problems += gate(p, ref, wl.warm)
                passes.append(p)
                if len(passes) == 1:
                    # peak memory of set-up and one pass, whatever the
                    # pass count; children are the pool workers
                    rss_kib = sum(
                        resource.getrusage(who).ru_maxrss
                        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
                    )
            rounds += 1
            elapsed = time.perf_counter() - t_start
            if elapsed + elapsed / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    raw = {}
    if args.trace:
        metrics = per_layer(plain, traced, ref)
        trace_path = OUT / f"{args.workload}.trace.json"
        export.write_trace(
            [s for p in traced for s in p["spans"]], str(trace_path),
            process_name=f"sweepbench {args.workload}",
        )
    else:
        # ru_maxrss is in KiB on Linux
        metrics = end_to_end(
            plain, statistics.median(probes) * setup_speed.factor() + fill_s,
            rss_kib / 1024.0, lambda p: p["speed"],
        )
        raw = end_to_end(plain, statistics.median(probes) + fill_raw_s,
                         rss_kib / 1024.0)
    if list(metrics) != declared_names(bool(args.trace)):
        print("sweepbench: printed metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1

    # every pass serves each unique unit and evaluates every shape check
    attempted = len(passes) * (len(set(units)) + len(ref["checks"]))
    samples = sum(len(p["unit_seconds"]) for p in plain)
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(
        f"workload {args.workload}: seed {args.seed}, {len(passes)} passes "
        f"({len(traced)} traced), {len(units)} units "
        f"({len(ref['units'])} unique), jobs {wl.jobs}, "
        f"setup probes {[round(s, 3) for s in probes]}s"
    )
    walls = sorted(p["wall"] for p in plain)
    print(
        f"untraced pass walls: min {walls[0]:.4f}s, median {statistics.median(walls):.4f}s, "
        f"max {walls[-1]:.4f}s; unit_s samples: {samples}; "
        f"failed_frac {len(problems) / attempted:.6f}"
    )
    checks = [c for c in passes[-1]["checks"] if c in ref["checks"]]
    print(
        f"shape checks: {len(checks)}/{len(ref['checks'])} match the reference "
        f"({sum(c[2] == 'PASS' for c in checks)} PASS, "
        f"{sum(c[2] == 'SKIP' for c in checks)} SKIP)"
    )
    if raw:
        print(
            f"host speed: {len(setup_speed.slices)} set-up and "
            f"{sum(p['cal_slices'] for p in plain)} pass calibration slices; "
            f"reference seconds per measured second: set-up "
            f"{setup_speed.factor():.4f}, passes "
            f"{[round(p['speed'], 4) for p in plain]}"
        )
    for name, (value, unit) in metrics.items():
        measured = f"  (measured {raw[name][0]:.6g})" if name in raw else ""
        print(f"  {name:<28} {value:>16.6g} {unit}{measured}")
    for line in problems[:20]:
        print(f"FAIL {line}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host, "setup_probes_s": probes,
        "passes": [
            {k: p[k] for k in ("traced", "wall", "speed", "cal_slices",
                               "parent_cpu", "worker_cpu", "unit_seconds")}
            for p in passes
        ],
        "measured": {name: value for name, (value, _) in raw.items()},
        "problems": problems, "result": result,
    }
    (OUT / f"{args.workload}.trace{args.trace}.run.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
