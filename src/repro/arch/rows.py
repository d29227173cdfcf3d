"""Memory-access geometry for many warp rows at once.

The interpreter runs a batch of thread blocks in lockstep, so one
executed memory instruction yields one address row per hardware warp
with an active lane.  Its geometry (coalesced segments, texture lines,
constant-cache bases, bank-replay factors) depends on the addresses
alone, never on cache state, so the interpreter collects the rows of
many instructions and resolves them here in a few numpy passes.  Each resolver equals the per-warp scalar rule it
replaces (:func:`~repro.arch.coalesce.coalesce`,
:func:`~repro.arch.banks.bank_conflicts`,
:func:`~repro.arch.caches.texture_lines`,
:func:`~repro.arch.caches.const_bases`); the property suite checks it.

Rows are *compacted* (:func:`compact_rows`): row ``r`` holds its
``cnt[r] >= 1`` active lane addresses in lane order, the way the scalar
rules see them, padded to the warp width with repeats.  Every rule is a
function of a set of addresses, which a repeat does not change, except
the GT200 split of the compacted list into 16-lane half-warps: so a pad
slot repeats the first address of its own 16-lane chunk, or of the row
when its chunk is empty, and the half-warp rule drops empty chunks.
The resolvers take at least one row.
"""
from __future__ import annotations

import numpy as np

from .coalesce import coalesce
from .specs import DeviceSpec

__all__ = [
    "compact_rows",
    "coalesce_rows",
    "bank_conflict_rows",
    "line_rows",
    "const_rows",
]


def compact_rows(
    addrs: np.ndarray, active: np.ndarray | None, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cnt, index)`` of the warp rows with an active lane.

    ``addrs`` is the active lanes' addresses in lane order and
    ``active`` the lane mask (None: every lane active), ``width`` lanes
    per warp.  ``index`` gives each returned row's position among all
    warp rows.
    """
    if active is None:
        n = addrs.size // width
        return addrs.reshape(n, width), np.full(n, width), np.arange(n)
    cnt = np.count_nonzero(active.reshape(-1, width), axis=1)
    index = np.flatnonzero(cnt)
    cnt = cnt[index]
    n = cnt.size
    if n * width == addrs.size:
        return addrs.reshape(n, width), cnt, index
    # gather each row from its slice of ``addrs``; pad slots repeat the
    # first address of their chunk, or of the row for an empty chunk
    pos = np.arange(width)
    start = np.cumsum(cnt) - cnt
    src = start[:, None] + pos
    part = np.flatnonzero(cnt < width)
    c = cnt[part, None]
    chunk = pos & -16
    src[part] = start[part, None] + np.where(
        pos < c, pos, np.where(chunk < c, chunk, 0)
    )
    return addrs[src], cnt, index


def _runs(srt: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values per row."""
    new = np.empty(srt.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(srt[:, 1:], srt[:, :-1], out=new[:, 1:])
    return new


def _split(values: list, counts: list) -> list:
    """Cut a flat list into consecutive per-row lists."""
    out = []
    pos = 0
    for c in counts:
        out.append(values[pos : pos + c])
        pos += c
    return out


def _half_warps(rows: np.ndarray) -> np.ndarray:
    """The rows cut into 16-lane chunks, one chunk per output row."""
    width = rows.shape[1]
    extra = -width % 16
    if extra:
        # the last chunk is partial: pad it with its own first address
        first = rows[:, width - width % 16][:, None]
        rows = np.concatenate([rows, np.repeat(first, extra, axis=1)], axis=1)
    return rows.reshape(-1, 16)


def line_rows(rows: np.ndarray, size: int, line: int) -> list:
    """Sorted distinct line bases under each row's accesses.

    ``line`` is the line size in bytes, a power of two.  A line counts
    when it holds the first or the last byte of an access (every line
    touched, for accesses no wider than a line).
    """
    sh = line.bit_length() - 1
    first = rows >> sh
    last = (rows + (max(size, 1) - 1)) >> sh
    if not np.array_equal(first, last):
        first = np.concatenate([first, last], axis=1)
    srt = np.sort(first, axis=1)
    keep = _runs(srt)
    return _split((srt[keep] << sh).tolist(), keep.sum(axis=1).tolist())


def const_rows(rows: np.ndarray) -> list:
    """Each row's 64-byte line base per distinct address, in address order."""
    srt = np.sort(rows, axis=1)
    keep = _runs(srt)
    return _split((srt[keep] & -64).tolist(), keep.sum(axis=1).tolist())


def _gt200_rows(rows: np.ndarray, cnt: np.ndarray, size: int):
    """GT200 half-warp rule per row: ``([(segments, bytes)], straddle)``.

    A row whose access crosses a 128-byte segment is flagged in
    ``straddle`` and its entry is not valid.
    """
    n = rows.shape[0]
    srt = np.sort(_half_warps(rows), axis=1)
    live = (np.arange(srt.shape[0] // n) * 16 < cnt[:, None]).reshape(-1, 1)
    ends = srt + max(size, 1)
    seg = srt >> 7
    straddle = (seg != (ends - 1) >> 7).reshape(n, -1).any(axis=1)
    new = _runs(seg)
    last = np.empty(new.shape, dtype=bool)
    last[:, -1] = True
    last[:, :-1] = new[:, 1:]
    new &= live
    last &= live
    # the 128 -> 64 -> 32 byte shrink rule on each segment's byte span
    first = srt[new]
    top = ends[last]
    ok64 = top <= (first & -64) + 64
    ok32 = ok64 & (top <= (first & -32) + 32)
    widths = np.where(ok32, 32, np.where(ok64, 64, 128))
    starts = first & -widths
    nseg = new.reshape(n, -1).sum(axis=1)
    csum = np.concatenate([[0], np.cumsum(widths)])
    end = np.cumsum(nseg)
    traffic = (csum[end] - csum[end - nseg]).tolist()
    segs = _split(starts.tolist(), nseg.tolist())
    return list(zip(segs, traffic)), straddle


def coalesce_rows(
    spec: DeviceSpec, rows: np.ndarray, cnt: np.ndarray, size: int
) -> list:
    """``[(segment_bases, bytes)]`` per row, as :func:`coalesce` gives.

    Rows the vectorized rule cannot resolve (a GT200 access straddling
    a 128-byte segment, an access wider than a cache line) go through
    :func:`coalesce` one at a time.
    """
    if spec.architecture == "gt200":
        out, straddle = _gt200_rows(rows, cnt, size)
    else:
        line = spec.line_bytes
        out = [(b, len(b) * line) for b in line_rows(rows, size, line)]
        straddle = np.full(len(out), size > line)
    for r in np.flatnonzero(straddle).tolist():
        c = int(cnt[r])
        segs, traffic = coalesce(
            spec, rows[r, :c], np.full(c, size, dtype=np.int64)
        )
        out[r] = (segs.tolist(), traffic)
    return out


def bank_conflict_rows(spec: DeviceSpec, rows: np.ndarray) -> np.ndarray:
    """Replay factor (>= 1) per row, as :func:`bank_conflicts` gives."""
    if spec.architecture == "gt200":
        words, banks = _half_warps(rows >> 2), 16
    elif spec.architecture in ("fermi", "cypress"):
        words, banks = rows >> 2, 32
    else:
        return np.ones(rows.shape[0], dtype=np.int64)
    srt = np.sort(words, axis=1)
    worst = np.ones(srt.shape[0], dtype=np.int64)
    # distinct words less than ``banks`` apart sit in distinct banks
    hard = np.flatnonzero(srt[:, -1] - srt[:, 0] >= banks)
    if hard.size:
        srt = srt[hard]
        bank = (srt & (banks - 1)) + np.arange(0, hard.size * banks, banks)[:, None]
        per_bank = np.bincount(bank[_runs(srt)], minlength=hard.size * banks)
        worst[hard] = per_bank.reshape(hard.size, banks).max(axis=1)
    return worst.reshape(rows.shape[0], -1).max(axis=1)
