"""Work units — the atoms of a sweep.

The paper's methodology is a sweep: 16 benchmarks x 2 APIs x several
devices and problem sizes (Figs. 1-8, Tables V-VI).  A
:class:`WorkUnit` names one independent cell of that sweep — *one
benchmark run under one API on one device at one size with one option
set* — which is exactly the granularity at which runs can be fanned out
over processes and memoized on disk.

Every unit has a content-addressed :func:`unit_digest` over everything
that determines its result: the rendered kernel sources (per dialect,
after option/define resolution), the full :class:`DeviceSpec` including
calibration constants, the launch configuration (problem-size
parameters, resolved options, build defines), and the ``repro`` package
version.  Any change to any of these invalidates exactly the affected
units; nothing else does.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Mapping, Optional

from .._version import __version__
from ..arch.specs import DeviceSpec, device_by_name
from ..benchsuite.base import BenchResult, host_for
from ..benchsuite.registry import get_benchmark
from ..kir import pretty
from ..kir.dialect import CUDA, OPENCL

__all__ = [
    "WorkUnit",
    "UnitResult",
    "make_unit",
    "UnitBuild",
    "unit_fingerprint",
    "unit_digest",
    "execute",
]


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One (benchmark, api, device, size, options) cell of a sweep."""

    benchmark: str
    api: str  # "cuda" | "opencl"
    device: str  # DeviceSpec.name
    size: str = "default"
    #: canonicalized option overrides: sorted ((key, value), ...) pairs
    options: tuple = ()

    @property
    def spec(self) -> DeviceSpec:
        return device_by_name(self.device)

    def options_dict(self) -> Optional[dict]:
        return dict(self.options) if self.options else None

    def label(self) -> str:
        opts = ",".join(f"{k}={v}" for k, v in self.options)
        base = f"{self.benchmark}/{self.api}@{self.device}[{self.size}]"
        return f"{base}{{{opts}}}" if opts else base


@dataclasses.dataclass
class UnitResult:
    """What one executed (or cache-served) work unit produced."""

    unit: WorkUnit
    bench: BenchResult
    #: aggregated :class:`~repro.prof.profile.LaunchProfile` of the run,
    #: labeled ``"<benchmark>/<api>"``; None when nothing launched
    profile: object
    #: wall seconds the simulation took when it actually ran
    seconds: float
    #: True when served from the result cache instead of simulated
    cached: bool = False


def make_unit(
    benchmark: str,
    api: str,
    device,
    size: str = "default",
    options: Optional[Mapping] = None,
) -> WorkUnit:
    """Build a canonical :class:`WorkUnit` (options sorted by key)."""
    name = device.name if isinstance(device, DeviceSpec) else str(device)
    canon = tuple(sorted((str(k), v) for k, v in (options or {}).items()))
    return WorkUnit(
        benchmark=str(benchmark), api=str(api), device=name, size=str(size),
        options=canon,
    )


def _plain(v):
    """Flatten a value into JSON-stable primitives."""
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in sorted(v.items(), key=lambda i: str(i[0]))}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (str, bool, int, float)) or v is None:
        return v
    if hasattr(v, "item"):  # numpy scalars
        return v.item()
    return repr(v)


class UnitBuild:
    """One unit's build artifact: its KIR kernels, built exactly once.

    Digesting, the ABT preflight and execution all read the kernels
    from here instead of rebuilding them.  Execution fills in the
    compiled PTX (:meth:`compiled`, called by ``Benchmark.run`` between
    the program build and the first launch) and derives the unit's
    preflight verdict from it.  The :class:`~repro.exec.engine
    .SweepExecutor` that digests a unit owns its artifact and drops it
    once the unit has executed; nothing here is process-global.

    Pickles as its unit, spec and kernels only, which is what a pool
    worker needs to execute the unit without building it again.
    """

    def __init__(
        self,
        unit: WorkUnit,
        spec: Optional[DeviceSpec] = None,
        kernels: Optional[list] = None,
        report: bool = True,
    ) -> None:
        self.unit = unit
        self.spec = spec if spec is not None else unit.spec
        #: log and trace a would-ABT verdict as soon as it is derived
        self.report = report
        # the build inputs, resolved exactly as Benchmark.run resolves them
        self.bench = get_benchmark(unit.benchmark)
        self.dialect = CUDA if unit.api == "cuda" else OPENCL
        self.params = self.bench.sizes()[unit.size]
        self.opts = self.bench.options_for(self.dialect, dict(unit.options))
        self.defines = {"WARP_SIZE": self.spec.warp_width}
        self.error: Optional[Exception] = None
        if kernels is None:
            try:
                kernels = self.bench.build_kernels(
                    self.dialect, self.opts, self.defines, self.params
                )
            except Exception as e:  # device limits; the unit stays keyable
                self.error = e
        self._kernels = kernels
        #: PTX the host compiled, one per kernel (set by :meth:`compiled`)
        self.ptx: Optional[list] = None
        #: the :class:`~repro.exec.lifecycle.PreflightVerdict` derived
        #: from ``ptx``
        self.verdict = None

    def __reduce__(self):
        kernels = self._kernels if self.error is None else None
        return (UnitBuild, (self.unit, self.spec, kernels, self.report))

    @property
    def kernels(self) -> list:
        """The built kernels; re-raises the error construction hit."""
        if self.error is not None:
            raise self.error
        return self._kernels

    def compiled(self, ptx) -> None:
        """Record the host's compiled kernels and derive the verdict.

        Runs before the unit's first launch, so a would-ABT verdict is
        reported before the launch that will abort.
        """
        from .lifecycle import preflight_unit, report_verdict

        self.ptx = list(ptx)
        self.verdict = preflight_unit(self.unit, self.spec, build=self)
        if self.report:
            report_verdict(self.verdict)


def unit_fingerprint(
    unit: WorkUnit,
    spec: Optional[DeviceSpec] = None,
    version: Optional[str] = None,
    build: Optional[UnitBuild] = None,
) -> dict:
    """Everything that determines the unit's result, as a JSON payload.

    ``spec``/``version`` overrides exist for tests that probe the
    invalidation rules without editing global state; ``build`` reuses
    an artifact that already holds the unit's kernels.
    """
    if build is None:
        build = UnitBuild(unit, spec)
    if build.error is None:
        sources = [pretty.render(k, build.dialect) for k in build.kernels]
    else:
        e = build.error
        sources = [f"<kernel construction failed: {type(e).__name__}: {e}>"]
    return {
        "benchmark": unit.benchmark,
        "api": unit.api,
        "size": unit.size,
        "device": _plain(dataclasses.asdict(build.spec)),
        "params": _plain(build.params),
        "options": _plain(build.opts),
        "defines": _plain(build.defines),
        "kernels": sources,
        "version": version if version is not None else __version__,
    }


def digest_of_fingerprint(fp: Mapping) -> str:
    blob = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def unit_digest(
    unit: WorkUnit,
    spec: Optional[DeviceSpec] = None,
    version: Optional[str] = None,
    build: Optional[UnitBuild] = None,
) -> str:
    """The unit's content address (sha256 hex)."""
    return digest_of_fingerprint(
        unit_fingerprint(unit, spec=spec, version=version, build=build)
    )


def execute(
    unit: WorkUnit, attempt: int = 1, faults=None,
    build: Optional[UnitBuild] = None,
) -> UnitResult:
    """Actually simulate one work unit (no caching at this layer).

    ``attempt``/``faults`` are the fault-injection boundary: when a
    :class:`repro.faults.FaultInjector` is supplied, it fires any fault
    planned for this unit's label *before* the simulation runs, so
    injected failures behave exactly like real ones to every layer
    above (retry, quarantine, reporting).

    The run reads its kernels from ``build`` (built here when absent)
    and leaves the unit's preflight verdict in ``build.verdict``: the
    one derived from the compiled kernels, or, when the program build
    failed, the standalone :func:`~repro.exec.lifecycle.preflight_unit`
    verdict.
    """
    from ..prof.collect import sim_device_of
    from ..prof.profile import aggregate
    from .lifecycle import preflight_unit

    if faults is not None:
        faults.fire(unit.label(), attempt)
    if build is None:
        build = UnitBuild(unit)
    host = host_for(unit.api, unit.spec)
    t0 = time.perf_counter()
    result = build.bench.run(
        host, size=unit.size, options=unit.options_dict(), build=build
    )
    seconds = time.perf_counter() - t0
    if build.verdict is None:
        build.verdict = preflight_unit(unit, build.spec, build=build)
    profile = aggregate(
        sim_device_of(host).profiles, label=f"{build.bench.name}/{unit.api}"
    )
    return UnitResult(
        unit=unit, bench=result, profile=profile, seconds=seconds, cached=False
    )
