"""PTXAS — the back-end: register allocation, spilling, resource report.

This is step (6) of the paper's eight-step development flow (Fig. 9).
The allocator computes loop-aware live ranges over the linear stream,
measures peak pressure, and — when pressure exceeds the device's
per-thread register budget — spills the longest live ranges to thread-
local memory (``st.local``/``ld.local``).  Spill traffic is what makes
over-unrolled kernels slow (the paper's OpenCL-FDTD-at-point-a collapse,
Fig. 7) and the register count feeds the occupancy calculator.
"""
from __future__ import annotations

import dataclasses

from ..kir.types import AddrSpace, Scalar, sizeof
from ..ptx.instructions import Imm, Instr, Reg
from ..ptx.isa import Op
from ..ptx.module import PTXKernel

__all__ = ["assemble", "LiveRange", "DEGRADE_BUDGET_FLOOR"]

#: in the degraded-allocator mode the effective register budget shrinks
#: proportionally to how far the loop body exceeds the span threshold,
#: never below this fraction (calibrated against paper Fig. 7)
DEGRADE_BUDGET_FLOOR = 0.35


@dataclasses.dataclass
class LiveRange:
    reg: Reg
    start: int
    end: int

    def length(self) -> int:
        return self.end - self.start


def _live_ranges(kernel: PTXKernel) -> dict:
    """Loop-aware linear live ranges, keyed by register index.

    Precise rule (NVOPENCC-quality, and CLC on ordinary loops): only
    registers that genuinely cross the back edge — read in the body
    before being (re)defined there, or live-through — are extended
    across the body.

    Liveness itself is always precise; the *degraded* behaviour of the
    CLC allocator on huge loop bodies is modeled in :func:`assemble`
    (its effective register budget shrinks as a body outgrows
    ``conservative_span``), because 2010-era linear-scan allocators lose
    packing efficiency as a body's live-range count explodes.  That is
    what a 9x pragma-unroll does to FDTD's z-loop, and the mechanism
    behind the paper's OpenCL collapse in Fig. 7.
    """
    ranges: dict[int, LiveRange] = {}
    for pc, i in enumerate(kernel.instrs):
        for r in i.regs_read():
            lr = ranges.get(r.idx)
            if lr is None:
                ranges[r.idx] = LiveRange(r, pc, pc)
            else:
                lr.end = max(lr.end, pc)
        if i.dst is not None:
            lr = ranges.get(i.dst.idx)
            if lr is None:
                ranges[i.dst.idx] = LiveRange(i.dst, pc, pc)
            else:
                lr.start = min(lr.start, pc)
                lr.end = max(lr.end, pc)

    # extend across backward branches until stable (handles nested loops)
    labels = kernel.label_map()
    back_edges = [
        (labels[i.target], pc)
        for pc, i in enumerate(kernel.instrs)
        if i.op is Op.BRA and labels.get(i.target, pc + 1) <= pc
    ]

    # per-pc read/def index lists, gathered once (regs_read() allocates)
    reads_at = [tuple(r.idx for r in i.regs_read()) for i in kernel.instrs]
    def_at = [None if i.dst is None else i.dst.idx for i in kernel.instrs]
    span_cache: dict = {}

    def _carried_set(t: int, b: int) -> frozenset:
        """Registers whose first event in [t, b] is a read (not a def).

        One pass decides every register of the span at once; within an
        instruction the definition counts before the reads, so a
        self-redefinition (``r = f(r)``) is *not* loop-carried — the
        same order the per-register scan used.
        """
        hit = span_cache.get((t, b))
        if hit is not None:
            return hit
        decided: set = set()
        carried: set = set()
        for pc in range(t, b + 1):
            d = def_at[pc]
            if d is not None and d not in decided:
                decided.add(d)
            for ridx in reads_at[pc]:
                if ridx not in decided:
                    decided.add(ridx)
                    carried.add(ridx)
        out = frozenset(carried)
        span_cache[(t, b)] = out
        return out

    changed = True
    while changed:
        changed = False
        for t, b in back_edges:
            carried = _carried_set(t, b)
            for lr in ranges.values():
                if not (lr.start <= b and lr.end >= t):
                    continue  # does not intersect the loop span
                # extend only values that truly cross the back edge —
                # read in the body before any redefinition there, or
                # live-through (defined before, used after)
                live_through = lr.start < t and lr.end > b
                if not (live_through or lr.reg.idx in carried):
                    continue
                ns, ne = min(lr.start, t), max(lr.end, b)
                if (ns, ne) != (lr.start, lr.end):
                    lr.start, lr.end = ns, ne
                    changed = True
    return ranges


def _pressure(ranges: dict, n_points: int, skip: set) -> tuple:
    """(peak pressure, argmax point) over data registers not in ``skip``."""
    delta = [0] * (n_points + 2)
    for lr in ranges.values():
        if lr.reg.idx in skip or lr.reg.dtype is Scalar.PRED:
            continue
        w = 2 if lr.reg.dtype in (Scalar.F64, Scalar.S64, Scalar.U64) else 1
        delta[lr.start] += w
        delta[lr.end + 1] -= w
    peak = cur = 0
    at = 0
    for pc, d in enumerate(delta):
        cur += d
        if cur > peak:
            peak, at = cur, pc
    return peak, at


def assemble(
    kernel: PTXKernel,
    max_regs: int,
    verify_after: bool = True,
    conservative_span: int = 0,
) -> PTXKernel:
    """Allocate registers for ``kernel`` in place and fill its resources.

    ``max_regs`` is the device's per-thread register budget;
    ``conservative_span`` (CLC-quality allocator) shrinks the effective
    budget on loop bodies longer than that many instructions — see
    :func:`_live_ranges`.  Returns the same kernel object for chaining.
    """
    ranges = _live_ranges(kernel)
    if conservative_span:
        labels = kernel.label_map()
        spans = [
            pc - labels[i.target]
            for pc, i in enumerate(kernel.instrs)
            if i.op is Op.BRA and labels.get(i.target, pc + 1) <= pc
        ]
        worst = max(spans, default=0)
        if worst > conservative_span:
            scale = max(DEGRADE_BUDGET_FLOOR, conservative_span / worst)
            max_regs = max(12, int(max_regs * scale))
    n = len(kernel.instrs)
    spilled: set[int] = set()

    peak, at = _pressure(ranges, n, spilled)
    guard = 0
    while peak > max_regs:
        # spill the longest live range crossing the pressure peak
        candidates = [
            lr
            for lr in ranges.values()
            if lr.reg.idx not in spilled
            and lr.reg.dtype is not Scalar.PRED
            and lr.start <= at <= lr.end
            and lr.length() > 0
        ]
        if not candidates:
            break
        victim = max(candidates, key=LiveRange.length)
        spilled.add(victim.reg.idx)
        peak, at = _pressure(ranges, n, spilled)
        guard += 1
        if guard > 4096:  # pragma: no cover - safety net
            break

    slot_bytes = 0
    slots: dict[int, int] = {}
    if spilled:
        for idx in sorted(spilled):
            width = sizeof(ranges[idx].reg.dtype)
            slot_bytes = (slot_bytes + width - 1) // width * width
            slots[idx] = slot_bytes
            slot_bytes += width

        out: list[Instr] = []
        for i in kernel.instrs:
            # reload spilled sources
            for r in i.regs_read():
                if r.idx in slots:
                    out.append(
                        Instr(
                            Op.LD,
                            r.dtype,
                            dst=r,
                            srcs=(Imm(slots[r.idx], Scalar.U32),),
                            space=AddrSpace.LOCAL,
                            pred=i.pred,
                        )
                    )
            out.append(i)
            if i.dst is not None and i.dst.idx in slots:
                out.append(
                    Instr(
                        Op.ST,
                        i.dst.dtype,
                        srcs=(Imm(slots[i.dst.idx], Scalar.U32), i.dst),
                        space=AddrSpace.LOCAL,
                        pred=i.pred,
                    )
                )
        kernel.instrs = out

    kernel.resources.registers = int(min(peak, max_regs))
    kernel.resources.spill_bytes = slot_bytes
    if verify_after:
        from ..ptx.verify import verify

        verify(kernel)
    return kernel
