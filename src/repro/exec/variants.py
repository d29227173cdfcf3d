"""Generated kernel variants as sweep work units, plus the differential
preservation harness.

A variant is an ordinary :class:`WorkUnit` whose options carry a
``rewrite`` token (see :mod:`repro.kir.rewrite.plan`); it flows
through the cache, journal, and ABT preflight like any other unit, and
its content digest covers the rewritten kernel sources automatically
because :func:`repro.exec.unit.unit_fingerprint` renders kernels through
``Benchmark.build_kernels``.

The harness's contract is the rewrite engine's whole claim: **every
legal variant computes the byte-identical output of its baseline**.  The
comparison runs over :func:`canonical_payload` — the same wall-clock-free
document ``canonical_results_json`` is built from — keeping exactly the
fields that must match (correctness verdict, failure tag, and the
``out_digest`` sha256 of the output buffer) and ignoring the ones that
legitimately differ between variants (simulated kernel time — variants
exist to *change* those).
"""
from __future__ import annotations

import dataclasses
import json
from typing import Mapping, Optional, Sequence

from ..errors import UnitFailed
from .cache import canonical_payload, result_to_json
from .lifecycle import preflight_unit
from .unit import UnitBuild, WorkUnit, make_unit, unit_digest

__all__ = [
    "variants_for_unit",
    "with_variant",
    "VariantCheck",
    "check_unit_variants",
    "variant_manifest",
    "render_checks",
]


def variants_for_unit(unit: WorkUnit, plan_options: Optional[Mapping] = None) -> list:
    """Enumerate variant tokens for a unit's baseline kernels.

    The plan runs over the kernels exactly as the unit would build them
    (dialect, options, and size-dependent constants resolved), so a
    token returned here is guaranteed to name a resolvable site.
    """
    from ..kir.rewrite import VariantPlan

    plan = VariantPlan(UnitBuild(unit).kernels, **(plan_options or {}))
    return [v.token for v in plan.variants()]


def with_variant(unit: WorkUnit, token: str) -> WorkUnit:
    """The same sweep cell with the variant token in its options."""
    opts = dict(unit.options)
    opts["rewrite"] = token
    return make_unit(unit.benchmark, unit.api, unit.device, unit.size, opts)


@dataclasses.dataclass
class VariantCheck:
    """Outcome of one variant-vs-baseline differential comparison."""

    unit: WorkUnit
    token: str
    #: "preserved" | "different" | "inadmissible" | "failed"
    status: str
    note: str = ""
    digest: str = ""

    @property
    def violation(self) -> bool:
        """True when this check disproves semantics preservation."""
        return self.status == "different"

    def as_dict(self) -> dict:
        return {
            "benchmark": self.unit.benchmark,
            "api": self.unit.api,
            "device": self.unit.device,
            "size": self.unit.size,
            "variant": self.token,
            "status": self.status,
            "note": self.note,
            "digest": self.digest,
        }


def _identity(ur) -> dict:
    """The fields of a canonical result that a variant must reproduce."""
    payload = canonical_payload(result_to_json(ur))
    bench = payload["bench"]
    detail = bench.get("detail") or {}
    return {
        "correct": bench["correct"],
        "failure": bench["failure"],
        "out_digest": detail.get("out_digest"),
    }


def check_unit_variants(
    executor,
    unit: WorkUnit,
    tokens: Optional[Sequence] = None,
    preflight: bool = True,
    plan_options: Optional[Mapping] = None,
) -> list:
    """Run every variant of ``unit`` and compare each to the baseline.

    Variants the ABT guard predicts inadmissible on this device are
    reported as such and not executed (a variant is allowed to exceed a
    device limit — unroll-8 register pressure on Cell/BE, say — it just
    produces no comparable result there); engine-level failures surface
    as ``failed`` rather than aborting the remaining comparisons.
    """
    base_ur = executor.run_unit(unit)
    base_id = _identity(base_ur)
    checks = []
    for token in tokens if tokens is not None else variants_for_unit(unit, plan_options):
        vu = with_variant(unit, token)
        if preflight:
            verdict = preflight_unit(vu)
            if verdict.would_abt:
                checks.append(
                    VariantCheck(vu, token, "inadmissible", note=verdict.code or "")
                )
                continue
        try:
            ur = executor.run_unit(vu)
        except UnitFailed as e:
            checks.append(VariantCheck(vu, token, "failed", note=e.kind.value))
            continue
        vid = _identity(ur)
        if vid == base_id:
            status, note = "preserved", ""
        else:
            status = "different"
            note = json.dumps({"baseline": base_id, "variant": vid}, sort_keys=True)
        checks.append(
            VariantCheck(vu, token, status, note=note, digest=unit_digest(vu))
        )
    return checks


def variant_manifest(checks: Sequence) -> str:
    """Deterministic JSON artifact describing a differential run."""
    rows = sorted(
        (c.as_dict() for c in checks),
        key=lambda r: (r["benchmark"], r["api"], r["device"], r["variant"]),
    )
    doc = {
        "schema": 1,
        "total": len(rows),
        "violations": sum(r["status"] == "different" for r in rows),
        "checks": rows,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_checks(checks: Sequence) -> str:
    """Human-readable one-line-per-variant table."""
    lines = []
    for c in checks:
        lines.append(
            f"  {c.status.upper():12s} {c.unit.benchmark}/{c.unit.api}"
            f"@{c.unit.device} {c.token}"
            + (f"  ({c.note})" if c.note and c.status != "different" else "")
        )
    return "\n".join(lines)
