"""Whole-array host references against the per-element loops they replace.

The loops below are the original per-atom, per-row and per-block
references, kept as oracles.  MD and DXTC do the same arithmetic in the
same order either way, so they must agree exactly; the SPMV row sums
accumulate in another order than a per-row ``np.dot``, so they agree
within the float32 rounding of a row's sum.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.benchsuite import get_benchmark
from repro.benchsuite.apps.dxtc import PIX, _LW, dxtc_reference
from repro.benchsuite.apps.md import LJ_CUTOFF_SQ, md_reference
from repro.benchsuite.apps.spmv import spmv_reference
from repro.benchsuite.data import (
    banded_csr,
    clustered_positions,
    neighbor_lists,
    rgb_image,
)

SIZES = ("small", "default")


def md_oracle(px, py, pz, neigh, maxn):
    n = px.size
    nl = neigh.reshape(n, maxn)
    out = np.zeros((3, n), dtype=np.float32)
    for i in range(n):
        dx = px[nl[i]] - px[i]
        dy = py[nl[i]] - py[i]
        dz = pz[nl[i]] - pz[i]
        r2 = dx * dx + dy * dy + dz * dz
        m = r2 < LJ_CUTOFF_SQ
        inv = np.where(m, 1.0 / np.where(m, r2, 1.0), 0.0).astype(np.float32)
        r6 = inv * inv * inv
        f = r6 * (r6 - np.float32(0.5)) * inv
        out[0, i] = np.sum(dx * f * m, dtype=np.float32)
        out[1, i] = np.sum(dy * f * m, dtype=np.float32)
        out[2, i] = np.sum(dz * f * m, dtype=np.float32)
    return out


def spmv_oracle(rowptr, cols, vals, x):
    ref = np.zeros(len(rowptr) - 1, dtype=np.float32)
    for r in range(len(ref)):
        sl = slice(rowptr[r], rowptr[r + 1])
        ref[r] = np.dot(vals[sl], x[cols[sl]])
    return ref


def dxtc_oracle(r, g, b, w, h):
    bw, bh = w // 4, h // 4
    n = bw * bh
    out_idx = np.zeros(n, dtype=np.uint32)
    out_ep = np.zeros(2 * n, dtype=np.uint32)
    lw = np.array(_LW, dtype=np.float32)
    for blk in range(n):
        bx, by = blk % bw, blk // bw
        pix = np.zeros((PIX, 3), dtype=np.float32)
        for p in range(PIX):
            px, py = bx * 4 + p % 4, by * 4 + p // 4
            pix[p] = (r[py, px], g[py, px], b[py, px])
        lum = pix @ lw
        imin = imax = 0
        lmin, lmax = np.float32(1e30), np.float32(-1e30)
        for p in range(PIX):
            if lum[p] < lmin:
                lmin, imin = lum[p], p
            if lum[p] > lmax:
                lmax, imax = lum[p], p
        c0, c1 = pix[imax], pix[imin]
        third = np.float32(1.0 / 3.0)
        pal = np.stack([c0, c1, (c0 * 2 + c1) * third, (c0 + c1 * 2) * third])
        indices = np.uint32(0)
        for p in range(PIX):
            d = ((pix[p] - pal) ** 2).sum(axis=1)
            best, bidx = np.float32(1e30), 0
            for ci in range(4):
                if d[ci] < best:
                    best, bidx = d[ci], ci
            indices |= np.uint32(bidx) << np.uint32(2 * p)
        out_idx[blk] = indices
        q = lambda c: np.uint32(int(c))
        out_ep[2 * blk] = (q(c0[0]) << 16) | (q(c0[1]) << 8) | q(c0[2])
        out_ep[2 * blk + 1] = (q(c1[0]) << 16) | (q(c1[1]) << 8) | q(c1[2])
    return out_idx, out_ep


@pytest.mark.parametrize("size", SIZES)
def test_md_reference_equals_loop(size):
    p = get_benchmark("MD").sizes()[size]
    px, py, pz = clustered_positions(p["n"], seed=4)
    neigh = neighbor_lists(p["n"], p["maxn"], seed=4)
    got = md_reference(px, py, pz, neigh, p["maxn"])
    want = md_oracle(px, py, pz, neigh, p["maxn"])
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("size", SIZES)
def test_spmv_reference_matches_loop(size):
    p = get_benchmark("SPMV").sizes()[size]
    rowptr, cols, vals = banded_csr(p["nrows"], p["band"], p["nnz"], seed=1)
    x = np.random.default_rng(17).uniform(-1, 1, p["nrows"]).astype(np.float32)
    got = spmv_reference(rowptr, cols, vals, x)
    want = spmv_oracle(rowptr, cols, vals, x)
    assert got.dtype == np.float32
    # two float32 sums of the same k terms in different orders differ by
    # at most k * eps * sum|term|; that also covers rows that cancel to
    # near zero, where a relative tolerance alone means nothing
    terms = np.abs(vals * x[cols])
    bound = (
        np.diff(rowptr)
        * np.finfo(np.float32).eps
        * np.add.reduceat(terms, rowptr[:-1])
    )
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("size", SIZES)
def test_dxtc_reference_equals_loop(size):
    p = get_benchmark("DXTC").sizes()[size]
    r, g, b = rgb_image(p["w"], p["h"], seed=6)
    got = dxtc_reference(r, g, b, p["w"], p["h"])
    want = dxtc_oracle(r, g, b, p["w"], p["h"])
    for a, e in zip(got, want):
        assert a.dtype == e.dtype and np.array_equal(a, e)


def test_dxtc_reference_keeps_first_of_tied_palette_entries():
    """Equidistant palette entries resolve to the first one, as the
    kernel's strict-``<`` scan in palette order does."""
    w, h = 8, 4
    img = np.full((h, w), 60.0, dtype=np.float32)  # block 0: one color
    # block 1, gray: endpoints 3 and 0 give the palette (3, 0, 2, 1), and
    # 0.5, 1.5 and 2.5 each sit midway between two of its entries
    img[:, 4:] = np.resize(np.float32([3, 0, 0.5, 1.5, 2.5]), (4, 4))
    got = dxtc_reference(img, img, img, w, h)
    want = dxtc_oracle(img, img, img, w, h)
    assert got[0][0] == 0  # every distance ties: entry 0 throughout
    for a, e in zip(got, want):
        assert np.array_equal(a, e)
