"""Instruction and operand objects of the virtual ISA.

Instructions are mutable only through replacement (passes rebuild the
instruction list); operand objects are immutable and hashable so passes
can key tables on them.
"""
from __future__ import annotations

import dataclasses
import itertools
from typing import Optional, Union

from ..kir.types import AddrSpace, Scalar
from .isa import Op

__all__ = ["Reg", "Imm", "Operand", "Instr", "RegAllocator"]

_PREFIX = {
    Scalar.U32: "r",
    Scalar.S32: "r",
    Scalar.U64: "rd",
    Scalar.S64: "rd",
    Scalar.F32: "f",
    Scalar.F64: "fd",
    Scalar.PRED: "p",
}


@dataclasses.dataclass(frozen=True)
class Reg:
    """A virtual (pre-ptxas) or physical (post-ptxas) register."""

    idx: int
    dtype: Scalar
    physical: bool = False

    def __str__(self) -> str:
        tag = "%%" if self.physical else "%"
        return f"{tag}{_PREFIX[self.dtype]}{self.idx}"


@dataclasses.dataclass(frozen=True)
class Imm:
    """An immediate operand."""

    value: Union[int, float, bool]
    dtype: Scalar

    def __str__(self) -> str:
        if self.dtype is Scalar.F32:
            return f"0f({self.value})"
        if self.dtype is Scalar.F64:
            return f"0d({self.value})"
        return str(self.value)


Operand = Union[Reg, Imm]


@dataclasses.dataclass
class Instr:
    """One virtual-ISA instruction.

    Attributes
    ----------
    op:
        Opcode.
    dtype:
        The operating type (result type for ALU ops, element type for
        memory ops, source type for ``setp``).
    dst:
        Destination register, or ``None`` (stores, branches, ``bar``).
    srcs:
        Source operands.  For ``ld``/``st``/``tex``: ``srcs[0]`` is the
        byte-address register (element index register for ``tex``) and,
        for ``st``, ``srcs[1]`` is the stored value.
    pred:
        Optional guard ``(reg, sense)`` rendering as ``@p`` / ``@!p``.
    space:
        State space for ``ld``/``st``.
    cmp:
        Comparison kind for ``setp`` (``lt``/``le``/...).
    target / reconv:
        Branch target label and its reconvergence label (the compiler
        annotates every potentially-divergent branch; the SIMT stack in
        the simulator relies on this, the way real hardware relies on
        ``SSY`` annotations from ptxas).
    label:
        For ``Op.LABEL`` pseudo-instructions only: the label name.
    """

    op: Op
    dtype: Scalar = Scalar.S32
    dst: Optional[Reg] = None
    srcs: tuple = ()
    pred: Optional[tuple] = None  # (Reg, bool sense)
    space: Optional[AddrSpace] = None
    cmp: Optional[str] = None
    target: Optional[str] = None
    reconv: Optional[str] = None
    label: Optional[str] = None
    #: for ``mov`` from a geometry register: the SReg value name ("tid.x")
    sreg: Optional[str] = None
    #: for ``ld.param`` / ``tex``: the parameter (texture ref) name
    param: Optional[str] = None

    def regs_read(self) -> list[Reg]:
        out = [s for s in self.srcs if isinstance(s, Reg)]
        if self.pred is not None:
            out.append(self.pred[0])
        return out

    def copy(self) -> "Instr":
        return dataclasses.replace(self)


class RegAllocator:
    """Hands out fresh virtual registers during lowering and passes."""

    def __init__(self, start: int = 0):
        self._counter = itertools.count(start)

    def new(self, dtype: Scalar) -> Reg:
        return Reg(next(self._counter), dtype)
