"""NVOPENCC — the CUDA front-end compiler (paper Fig. 9, step 5).

Pipeline: branch-pruning constant fold -> pragma + auto unroll ->
re-fold -> style-directed lowering (CSE, integer-mad addressing,
if-predication, mov-rich home registers) -> DCE (``_front``, no
register budget) -> ptxas at the device's budget (``_back``).

The maturity of this pipeline relative to :mod:`repro.compiler.clc` is
the paper's explanation for the FFT gap (§IV-B.4, Table V).
"""
from __future__ import annotations

from ..kir.stmt import Kernel
from ..ptx.module import PTXKernel
from .ccache import cached_compile
from .lower import lower_kernel
from .passes.constfold import fold_constants
from .passes.dce import eliminate_dead_code
from .passes.unroll import unroll_loops
from .ptxas import assemble
from .style import NVOPENCC_STYLE

__all__ = ["compile_cuda"]


def compile_cuda(
    kernel: Kernel, max_regs: int = 124, force: bool = False
) -> PTXKernel:
    """Compile a CUDA-dialect kernel to allocated virtual ISA.

    ``max_regs`` is the target device's per-thread register budget
    (124 on GT200-class, 63 on Fermi).  ``force`` permits compiling an
    OpenCL-dialect kernel (used by cross-front-end experiments only).
    """
    if kernel.dialect != "cuda" and not force:
        raise ValueError(
            f"kernel {kernel.name!r} is {kernel.dialect}-dialect; "
            "use compile_opencl (or force=True)"
        )
    return cached_compile("cuda", kernel, max_regs, _front, _back)


def _front(kernel: Kernel) -> PTXKernel:
    k = fold_constants(kernel, prune_branches=True, algebraic=True)
    k, _ = unroll_loops(
        k, auto_limit=NVOPENCC_STYLE.auto_unroll_limit, honor_pragmas=True
    )
    k = fold_constants(k, prune_branches=True, algebraic=True)
    ptx = lower_kernel(k, NVOPENCC_STYLE)
    eliminate_dead_code(ptx)
    return ptx


def _back(ptx: PTXKernel, kernel: Kernel, max_regs: int) -> PTXKernel:
    assemble(ptx, max_regs=max_regs)
    ptx.producer = "nvopencc"
    ptx.defines = dict(getattr(kernel, "defines", {}) or {})
    return ptx
