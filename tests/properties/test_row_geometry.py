"""The row-batched geometry resolvers equal the per-warp scalar rules.

The interpreter resolves each memory instruction's geometry for all of
its warp rows at once (:mod:`repro.arch.rows`); the replay charges
exactly what the scalar rules give one warp at a time.  Random
addresses, access sizes and partial lane masks, on every DeviceSpec
(wavefront-64 included).  Derandomized with a fixed example budget, so
the suite stays deterministic.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import ALL_DEVICES, bank_conflicts, coalesce
from repro.arch.caches import const_bases, texture_lines
from repro.arch.rows import (
    bank_conflict_rows,
    coalesce_rows,
    compact_rows,
    const_rows,
    line_rows,
)


@st.composite
def _visit(draw, width: int):
    """``(addrs, active, size)`` of one instruction over a few warp rows."""
    n = draw(st.integers(1, 4)) * width
    size = draw(st.sampled_from([1, 2, 4, 8]))
    # a strided base pattern plus per-lane jitter: covers coalesced,
    # strided, broadcast, unaligned (straddling) and scattered rows
    base = draw(st.integers(0, 1 << 12))
    stride = draw(st.sampled_from([0, 1, 2, 4, 8, 12, 64, 132]))
    scale = draw(st.sampled_from([0, 1, 4, 68]))
    jitter = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    addrs = base + stride * np.arange(n) + scale * np.asarray(jitter)
    mode = draw(st.sampled_from(["full", "prefix", "random"]))
    if mode == "full":
        active = np.ones(n, dtype=bool)
    elif mode == "prefix":
        cut = draw(st.integers(0, width))
        active = np.tile(np.arange(width) < cut, n // width)
    else:
        active = np.asarray(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        )
    return addrs.astype(np.int64), active, size


@pytest.mark.parametrize(
    "spec", sorted(ALL_DEVICES.values(), key=lambda s: s.name),
    ids=lambda s: s.name,
)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_row_resolvers_match_scalar_rules(spec, data):
    width = spec.warp_width
    addrs, active, size = data.draw(_visit(width))
    lanes = addrs.reshape(-1, width)
    act = active.reshape(-1, width)
    if active.all() and data.draw(st.booleans()):
        rows, cnt, index = compact_rows(addrs, None, width)
    else:
        rows, cnt, index = compact_rows(addrs[active], active, width)
    assert index.tolist() == np.flatnonzero(act.any(axis=1)).tolist()
    if not index.size:
        return
    segments = coalesce_rows(spec, rows, cnt, size)
    replays = bank_conflict_rows(spec, rows)
    tex = line_rows(rows, size, 32)
    const = const_rows(rows)
    for r, row in enumerate(index.tolist()):
        a = lanes[row][act[row]]
        sizes = np.full(a.size, size, dtype=np.int64)
        assert cnt[r] == a.size
        segs, traffic = coalesce(spec, a, sizes)
        assert segments[r] == (segs.tolist(), traffic)
        assert replays[r] == bank_conflicts(spec, a)
        assert tex[r] == texture_lines(a, sizes)
        assert const[r] == const_bases(a)
