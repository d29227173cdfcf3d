"""Deterministic workload generators for the benchmark suite.

Every generator takes an explicit seed so benchmark runs are exactly
reproducible (the virtual-clock simulator is deterministic end to end).

The random streams are part of every result, so each generator's
``Generator`` calls are a fixed contract: one draw call per row, node or
atom where it loops, with fixed arguments, in row order.  Only the
bookkeeping around the draws (candidate sets, sorting, CSR assembly) is
vectorized; ``tests/benchsuite/test_data_golden.py`` pins each stream
by digest.  Outputs are not cached across units: a sweep CLI
regenerates them in every unit it runs, and a cache would make a
long-lived process measure less work than a fresh one does.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "rng",
    "gray_image",
    "layered_graph",
    "banded_csr",
    "clustered_positions",
    "neighbor_lists",
    "rgb_image",
]


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE + seed)


def gray_image(width: int, height: int, seed: int = 0) -> np.ndarray:
    """A grayscale f32 image with smooth structure + noise (Sobel/St2D)."""
    g = rng(seed)
    y, x = np.mgrid[0:height, 0:width].astype(np.float32)
    img = (
        np.sin(x * 0.21) * 40
        + np.cos(y * 0.13) * 40
        + g.normal(0, 6, (height, width))
    )
    return (img - img.min()).astype(np.float32)


def rgb_image(width: int, height: int, seed: int = 0) -> tuple:
    """Three f32 channel arrays in [0, 255] (DXTC input)."""
    g = rng(seed)
    chans = []
    for c in range(3):
        base = gray_image(width, height, seed=seed * 3 + c)
        chans.append((base / max(base.max(), 1e-6) * 255.0).astype(np.float32))
    return tuple(chans)


def layered_graph(
    levels: int, width: int, fan_out: int = 3, seed: int = 0
) -> tuple:
    """A layered DAG-ish graph in CSR form (BFS workload).

    ``levels`` layers of ``width`` nodes; each node points to ``fan_out``
    random nodes of the next layer (plus a few intra-layer edges).  BFS
    from node 0 visits one layer per iteration, so the *host-side* loop
    runs ``levels`` times — which is what makes BFS sensitive to kernel
    launch overhead (paper §IV-B.4).

    Returns ``(row_offsets s32[n+1], columns s32[m], n_nodes)``.
    """
    g = rng(seed)
    n = levels * width
    adj: list[list[int]] = [[] for _ in range(n)]
    for lv in range(levels - 1):
        base, nxt = lv * width, (lv + 1) * width
        for i in range(width):
            node = base + i
            outs = g.integers(0, width, fan_out)
            adj[node].extend(int(nxt + o) for o in outs)
            # one intra-layer edge for irregularity
            adj[node].append(int(base + ((i + 1) % width)))
    # make sure layer 0 is reachable from the source
    for i in range(1, width):
        adj[0].append(i)
    row = np.zeros(n + 1, dtype=np.int32)
    cols: list[int] = []
    for i, outs in enumerate(adj):
        uniq = sorted(set(outs) - {i})
        cols.extend(uniq)
        row[i + 1] = len(cols)
    return row, np.asarray(cols, dtype=np.int32), n


def banded_csr(
    nrows: int, band: int, nnz_per_row: int, seed: int = 0
) -> tuple:
    """A banded random sparse matrix in CSR (SPMV workload).

    Column indices stay within ``band`` of the diagonal, giving the
    gathered ``x`` vector the spatial locality a texture cache can catch
    (the paper's MD/SPMV texture result needs reuse to exist).
    Returns ``(rowptr s32[n+1], cols s32[m], vals f32[m])``.
    """
    g = rng(seed)
    rows = np.arange(nrows)
    lo = np.maximum(rows - band, 0)
    span = np.minimum(rows + band, nrows - 1) - lo + 1
    k = np.minimum(nnz_per_row, span)
    picks, draws = [], []
    for s, kr in zip(span.tolist(), k.tolist()):
        # choosing offsets from range(s) draws exactly what choosing
        # from np.arange(lo, lo + s) does
        cs = g.choice(s, size=kr, replace=False)
        cs.sort()
        picks.append(cs)
        draws.append(g.normal(0, 1, kr))
    rowptr = np.zeros(nrows + 1, dtype=np.int32)
    np.cumsum(k, out=rowptr[1:])
    cols = np.concatenate(picks) + np.repeat(lo, k)
    return (
        rowptr,
        cols.astype(np.int32),
        np.concatenate(draws).astype(np.float32),
    )


def clustered_positions(n: int, seed: int = 0) -> tuple:
    """Atom positions laid out cluster-by-cluster (MD workload).

    Spatially-sorted positions give neighbor gathers locality — again,
    what the texture cache exploits.
    Returns ``(px, py, pz)`` f32 arrays.
    """
    g = rng(seed)
    per = 8
    clusters = -(-n // per)
    centers = g.uniform(0, 20, (clusters, 3))
    pts = centers.repeat(per, axis=0)[:n] + g.normal(0, 0.4, (n, 3))
    pts = pts.astype(np.float32)
    return pts[:, 0].copy(), pts[:, 1].copy(), pts[:, 2].copy()


def neighbor_lists(n: int, k: int, seed: int = 0) -> np.ndarray:
    """k nearest-ish neighbors per atom, as an s32[n*k] index array."""
    g = rng(seed)
    idx = np.empty((n, k), dtype=np.int32)
    for i in range(n):
        lo = max(0, i - k)
        hi = min(n, i + k + 1)
        cand = np.arange(lo, hi - 1)  # lo..hi-1 without i, ascending
        cand[i - lo :] += 1
        if cand.size < k:
            cand = np.concatenate([cand, g.integers(0, n, k - cand.size)])
        idx[i] = g.choice(cand, size=k, replace=False)
    return idx.reshape(-1)
