"""Global-memory coalescing rules.

GT200 (compute 1.x, the paper's GTX280): each *half-warp* independently
coalesces into aligned segments; the hardware shrinks the transaction to
64B or 32B when the touched bytes fit in an aligned sub-segment —
mirroring the compute-1.2/1.3 coalescer.  Fermi (GTX480): the full
warp's accesses resolve into the set of distinct 128-byte cache lines.

The returned segment bases feed the cache models; the byte total feeds
the DRAM bandwidth bound; the segment count is the classic
"transactions per request" metric.  These per-warp rules are the
reference: the interpreter resolves warp rows in bulk with
:func:`~repro.arch.rows.coalesce_rows`, which calls :func:`coalesce`
only for the rows its vectorized rule does not cover.
"""
from __future__ import annotations

import numpy as np

from .specs import DeviceSpec

__all__ = ["coalesce", "segments_gt200", "segments_lines"]


def segments_lines(
    addrs: np.ndarray, sizes: np.ndarray, line: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct cache lines touched by the active lanes (Fermi rule).

    Returns ``(line_bases, widths)`` with every width equal to ``line``.
    """
    if addrs.size == 0:
        return addrs.astype(np.int64), addrs.astype(np.int64)
    first = addrs // line
    last = (addrs + np.maximum(sizes, 1) - 1) // line
    counts = last - first + 1
    if int(counts.max()) == 1:
        lines = np.unique(first)
    else:
        # an access may span three or more lines: enumerate the whole
        # first..last range per lane, not just its end points
        total = int(counts.sum())
        starts = np.repeat(first, counts)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        lines = np.unique(starts + offs)
    bases = lines * line
    return bases, np.full(bases.shape, line, dtype=np.int64)


def segments_gt200(
    addrs: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """GT200 half-warp segment rule with segment-size reduction.

    Returns ``(segment_bases, segment_widths)``; each half-warp issues
    its own transactions even when they overlap another half-warp's.
    Scalar Python on purpose: half-warps are at most 16 elements and
    numpy per-call overhead dominates at that size.
    """
    bases: list[int] = []
    widths: list[int] = []
    al = addrs.tolist()
    sl = sizes.tolist()
    n = len(al)
    for lo in range(0, n, 16):
        a = al[lo : lo + 16]
        ends = [
            x + (s if s > 1 else 1) for x, s in zip(a, sl[lo : lo + 16])
        ]
        # an access that straddles a 128B boundary touches every segment
        # in its first..last range; clip it into per-segment pieces so
        # the trailing bytes are not dropped
        touched: set = set()
        for x, e in zip(a, ends):
            f, l = x >> 7, (e - 1) >> 7
            if l - f > 1:  # huge accesses (> 128B) span interior segments
                touched.update(range(f, l + 1))
            else:
                touched.add(f)
                touched.add(l)
        for seg in sorted(touched):
            base = seg << 7
            top = base + 128
            first = top
            last = base
            for x, e in zip(a, ends):
                if x < top and e > base:
                    if x < first:
                        first = x
                    if e > last:
                        last = e
            if first < base:
                first = base
            if last > top:
                last = top
            width = 128
            start = base
            for smaller in (64, 32):
                fit = (first // smaller) * smaller
                if last > fit + smaller:
                    break
                width, start = smaller, fit
            bases.append(start)
            widths.append(width)
    return (
        np.asarray(bases, dtype=np.int64),
        np.asarray(widths, dtype=np.int64),
    )


def coalesce(
    spec: DeviceSpec, addrs: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, int]:
    """Resolve one warp's global access into ``(segment_bases, bytes)``."""
    if spec.architecture == "gt200":
        bases, widths = segments_gt200(addrs, sizes)
    else:
        bases, widths = segments_lines(addrs, sizes, spec.line_bytes)
    return bases, int(widths.sum()) if bases.size else 0
