"""MD — Lennard-Jones molecular dynamics force computation (SHOC).

One thread per atom, looping over a precomputed neighbor list.  The
neighbor *position* gathers are irregular, read-only, and reused across
nearby atoms — the access pattern texture memory was made for.  SHOC's
CUDA MD fetches positions through ``tex1Dfetch``; the OpenCL version
cannot (§IV-B.1), giving Fig. 4's ablation via ``options["use_texture"]``.
"""
from __future__ import annotations

import numpy as np

from ...kir import KernelBuilder, Scalar
from ..base import Benchmark, BenchResult, HostAPI, Metric
from ..data import clustered_positions, neighbor_lists

__all__ = ["MD", "LJ_CUTOFF_SQ"]

LJ_CUTOFF_SQ = 16.0
#: analytic flop count per neighbor interaction (as SHOC reports)
FLOPS_PER_PAIR = 16


def _kernel(dialect, use_texture: bool):
    k = KernelBuilder("lj_force", dialect, wg_hint=128)
    px = k.buffer("px", Scalar.F32)
    py = k.buffer("py", Scalar.F32)
    pz = k.buffer("pz", Scalar.F32)
    neigh = k.buffer("neigh", Scalar.S32)
    fx = k.buffer("fx", Scalar.F32)
    fy = k.buffer("fy", Scalar.F32)
    fz = k.buffer("fz", Scalar.F32)
    n = k.scalar("n", Scalar.S32)
    maxn = k.scalar("maxn", Scalar.S32)
    i = k.let("i", k.global_id(0), Scalar.S32)

    def pos(buf, idx):
        return k.texload(buf, idx) if use_texture else buf[idx]

    with k.if_(i < n):
        xi = k.let("xi", pos(px, i))
        yi = k.let("yi", pos(py, i))
        zi = k.let("zi", pos(pz, i))
        ax = k.let("ax", 0.0, Scalar.F32)
        ay = k.let("ay", 0.0, Scalar.F32)
        az = k.let("az", 0.0, Scalar.F32)
        with k.for_("j", 0, maxn) as j:
            jn = k.let("jn", neigh[i * maxn + j])
            dx = k.let("dx", pos(px, jn) - xi)
            dy = k.let("dy", pos(py, jn) - yi)
            dz = k.let("dz", pos(pz, jn) - zi)
            r2 = k.let("r2", dx * dx + dy * dy + dz * dz)
            with k.if_(r2 < LJ_CUTOFF_SQ):
                inv = k.let("inv", 1.0 / r2)
                r6 = k.let("r6", inv * inv * inv)
                force = k.let("force", r6 * (r6 - 0.5) * inv)
                k.assign(ax, ax + dx * force)
                k.assign(ay, ay + dy * force)
                k.assign(az, az + dz * force)
        k.store(fx, i, ax)
        k.store(fy, i, ay)
        k.store(fz, i, az)
    return k.finish()


def md_reference(px, py, pz, neigh, maxn):
    """Forces as f32[3, n]; one (n, maxn) array op per step, all atoms at once."""
    n = px.size
    nl = neigh.reshape(n, maxn)
    dx = px[nl] - px[:, None]
    dy = py[nl] - py[:, None]
    dz = pz[nl] - pz[:, None]
    r2 = dx * dx + dy * dy + dz * dz
    m = r2 < LJ_CUTOFF_SQ
    inv = np.where(m, 1.0 / np.where(m, r2, 1.0), 0.0).astype(np.float32)
    r6 = inv * inv * inv
    f = r6 * (r6 - np.float32(0.5)) * inv
    return np.stack(
        [np.sum(d * f * m, axis=1, dtype=np.float32) for d in (dx, dy, dz)]
    )


class MD(Benchmark):
    name = "MD"
    metric = Metric("GFlops/sec")
    default_options = {
        "use_texture": {"cuda": True, "opencl": False},
        "wg": 128,
    }

    def kernels(self, dialect, options, defines, params):
        use_tex = options["use_texture"] and dialect.allows_texture
        return [_kernel(dialect, use_tex)]

    def sizes(self):
        return {
            "small": {"n": 512, "maxn": 12},
            "default": {"n": 4096, "maxn": 16},
        }

    def host_run(self, api: HostAPI, params, options) -> BenchResult:
        n, maxn = params["n"], params["maxn"]
        px, py, pz = clustered_positions(n, seed=4)
        neigh = neighbor_lists(n, maxn, seed=4)
        bufs = {}
        for name, arr, elem in (
            ("px", px, Scalar.F32),
            ("py", py, Scalar.F32),
            ("pz", pz, Scalar.F32),
            ("neigh", neigh, Scalar.S32),
        ):
            bufs[name] = api.alloc(len(arr), elem)
            api.write(bufs[name], arr)
        d_fx, d_fy, d_fz = (api.alloc(n) for _ in range(3))
        secs = api.launch(
            "lj_force",
            n,
            options["wg"],
            px=bufs["px"],
            py=bufs["py"],
            pz=bufs["pz"],
            neigh=bufs["neigh"],
            fx=d_fx,
            fy=d_fy,
            fz=d_fz,
            n=n,
            maxn=maxn,
        )
        got = np.stack([api.read(d, n) for d in (d_fx, d_fy, d_fz)])
        ref = md_reference(px, py, pz, neigh, maxn)
        ok = np.allclose(got, ref, rtol=1e-3, atol=1e-3)
        gflops = n * maxn * FLOPS_PER_PAIR / secs / 1e9
        return self.result(
            api, gflops, secs, ok, detail={"use_texture": options["use_texture"]}
        )
