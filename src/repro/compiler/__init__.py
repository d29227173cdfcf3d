"""Front-end compilers (NVOPENCC / CLC), shared lowering, and PTXAS."""
from .clc import compile_opencl
from .lower import lower_kernel
from .nvopencc import compile_cuda
from .ptxas import assemble
from .style import CLC_STYLE, CodegenStyle, NVOPENCC_STYLE

__all__ = [
    "compile_cuda",
    "compile_opencl",
    "lower_kernel",
    "assemble",
    "CodegenStyle",
    "NVOPENCC_STYLE",
    "CLC_STYLE",
]
