"""Golden random streams of the benchmark input generators.

Every generator output a benchmark's ``host_run`` feeds its kernels is
pinned here by sha256 over each array's bytes, dtype and shape, at the
benchmark's small and default sizes.  The bookkeeping around the seeded
draws may be rewritten freely; a change that moves any draw (another
``Generator`` call, other arguments, another order) changes every
downstream result and fails here, before any sweep runs.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.benchsuite import get_benchmark
from repro.benchsuite.data import (
    banded_csr,
    clustered_positions,
    gray_image,
    layered_graph,
    neighbor_lists,
    rgb_image,
)

#: each benchmark's generator call, exactly as its host_run makes it
SITES = {
    "MD": lambda p: (
        *clustered_positions(p["n"], seed=4),
        neighbor_lists(p["n"], p["maxn"], seed=4),
    ),
    "SPMV": lambda p: banded_csr(p["nrows"], p["band"], p["nnz"], seed=1),
    "DXTC": lambda p: rgb_image(p["w"], p["h"], seed=6),
    "BFS": lambda p: layered_graph(p["levels"], p["width"], seed=9),
    "St2D": lambda p: (gray_image(p["w"], p["h"], seed=2),),
    "Sobel": lambda p: (gray_image(p["w"], p["h"]),),
}

GOLDEN = {
    ("MD", "small"): "46e7cbd5cefcb9c2adf8c5f8004d281e4bbd884adc79a12c8b3cadb2b8025509",
    ("MD", "default"): "0f8acac2dd434642c21e18488bacd0887eae36f2cda4ac268872574cf13d0029",
    ("SPMV", "small"): "b755f165b628612c07d7c2e95417bc769df4180eeee8ef3c6b986a4a9ae57de5",
    ("SPMV", "default"): "34d72a4b3ee2fcf9bca2f916d36d93e51219995293660513704a9f159bc2c06d",
    ("DXTC", "small"): "b3323b581b5c9dba40cf72000036a1b2064d96515f910ca110e88ec68b08ba16",
    ("DXTC", "default"): "6104d1a9aa346e5cd65d061b69aac534816122e638f6e6c83611b1422a9e47c8",
    ("BFS", "small"): "c3acc96ccaf3935299dea7af90c37a48307f4dd181f7039bd36ac4c5798c952d",
    ("BFS", "default"): "2c607ffd299aa561d7684c686eb86d1ae7cd161823be35d6a8236224e52156a7",
    ("St2D", "small"): "60ae8ee3d1cb951522ca23ff408fcc3e1666d080e9d1fd9295367b940f6a17c6",
    ("St2D", "default"): "715222e861c98b77d08938d568b2b81935ef0c0251509d5fa1cde7686bcbd86e",
    ("Sobel", "small"): "0231d0041fca3a08f4b7122e138ce1faa8a526f936dd1c2701e78eda6a3e9130",
    ("Sobel", "default"): "c3eae3b7f4c3ce8b64451083ea739bcb3c449a88658883f0c2c65a9121250d3d",
}


def stream_digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        a = np.ascontiguousarray(out)
        h.update(a.tobytes())
        h.update(str(a.dtype).encode())
        h.update(repr(a.shape).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,size", sorted(GOLDEN))
def test_generator_stream_unchanged(name, size):
    params = get_benchmark(name).sizes()[size]
    assert stream_digest(SITES[name](params)) == GOLDEN[name, size]
