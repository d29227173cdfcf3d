"""The memory system: per-CU caches + DRAM cost accounting.

For every executed warp memory instruction the interpreter calls one of
the ``access_*`` methods with the active lanes' byte addresses.  The
method updates cache state, returns the instruction's latency in core
cycles, and accrues DRAM traffic.  Costs follow a simple serialization
model: the slowest miss level sets the base latency and every extra
transaction adds ``tx_cycles``.
"""
from __future__ import annotations

import numpy as np

from ..arch.banks import bank_conflicts
from ..arch.caches import LRUCache, null_cache
from ..arch.coalesce import coalesce
from ..arch.specs import DeviceSpec

__all__ = ["MemorySystem", "AccessCost"]


class MemorySystem:
    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        t = spec.timing
        n = spec.compute_units
        if spec.has_global_cache:
            self.l1 = [LRUCache(spec.l1_bytes, spec.line_bytes) for _ in range(n)]
            self.l2 = LRUCache(spec.l2_bytes, spec.line_bytes, ways=8)
        else:
            self.l1 = [null_cache() for _ in range(n)]
            self.l2 = null_cache()
        self.tex = [
            LRUCache(max(spec.tex_cache_bytes, 32), 32) for _ in range(n)
        ]
        self.const = [
            LRUCache(max(spec.const_cache_bytes, 64), 64) for _ in range(n)
        ]
        # traffic accounting (per CU)
        self.dram_bytes = np.zeros(n, dtype=np.float64)
        # DRAM accesses per 256B region (partition-camping model);
        # only accesses that actually reach DRAM are counted
        from collections import Counter

        self.region_counts: Counter = Counter()
        # profiler counters (cumulative; SimDevice snapshots around each
        # launch to recover per-launch deltas)
        self.gmem_requests = 0
        self.gmem_transactions = 0
        self.shared_accesses = 0
        self.shared_replays = 0
        self.spill_bytes = 0.0
        # address-pattern memos: kernels replay the same few warp access
        # patterns thousands of times, and the pure geometry of a
        # pattern (coalesced segments, touched lines, bank replays) is
        # independent of cache state — memoize it by the address bytes
        self._pat_global: dict = {}
        self._pat_tex: dict = {}
        self._pat_const: dict = {}
        self._pat_shared: dict = {}
        # memo lookups that found / missed their pattern, per table
        self.pat_global_hits = self.pat_global_misses = 0
        self.pat_tex_hits = self.pat_tex_misses = 0
        self.pat_const_hits = self.pat_const_misses = 0
        self.pat_shared_hits = self.pat_shared_misses = 0
        # launch-memo journal of individual dram_bytes adds, or None.
        # dram_bytes is a float fold whose value is summation-order
        # sensitive; memo replay re-applies this exact add sequence.
        self._dram_log: list | None = None

    def begin_dram_log(self) -> None:
        self._dram_log = []

    def end_dram_log(self) -> list:
        log, self._dram_log = self._dram_log, None
        return log

    _PAT_CAP = 1 << 15  # per-table entry cap (memos stop growing past it)

    @staticmethod
    def _pat_put(table: dict, key, value) -> None:
        if len(table) < MemorySystem._PAT_CAP:
            table[key] = value

    def pattern_counts(self) -> dict:
        """Cumulative pattern-memo counters, ``{table.hits|misses: n}``."""
        return {
            f"{table}.{kind}": getattr(self, f"pat_{table}_{kind}")
            for table in ("global", "tex", "const", "shared")
            for kind in ("hits", "misses")
        }

    def cache_groups(self) -> dict:
        """Named cache banks for per-launch profiling.

        ``null`` is the cache-less GT200 global-load path: every
        transaction is recorded as a miss, which is exactly what the
        hardware does to DRAM.
        """
        groups = {"const": list(self.const), "tex": list(self.tex)}
        if self.spec.has_global_cache:
            groups["l1"] = list(self.l1)
            groups["l2"] = [self.l2]
        else:
            groups["null"] = list(self.l1)
        return groups

    def prof_snapshot(self) -> dict:
        """Snapshot every profiler-visible counter (cheap, per launch)."""
        return {
            "gmem_requests": self.gmem_requests,
            "gmem_transactions": self.gmem_transactions,
            "shared_accesses": self.shared_accesses,
            "shared_replays": self.shared_replays,
            "spill_bytes": self.spill_bytes,
            "dram_bytes": self.dram_bytes.copy(),
            "caches": {
                name: [c.stats.snapshot() for c in caches]
                for name, caches in self.cache_groups().items()
            },
        }

    def prof_since(self, snap: dict) -> dict:
        """Per-launch counter deltas since ``snap``.

        Cache counters are aggregated across the per-CU banks into one
        :class:`~repro.arch.caches.CacheStats` per named group.
        """
        from ..arch.caches import CacheStats

        caches: dict = {}
        for name, banks in self.cache_groups().items():
            agg = CacheStats()
            for cache, s in zip(banks, snap["caches"][name]):
                agg.add(cache.stats.since(s))
            caches[name] = agg
        return {
            "gmem_requests": self.gmem_requests - snap["gmem_requests"],
            "gmem_transactions": self.gmem_transactions
            - snap["gmem_transactions"],
            "shared_accesses": self.shared_accesses - snap["shared_accesses"],
            "shared_replays": self.shared_replays - snap["shared_replays"],
            "spill_bytes": self.spill_bytes - snap["spill_bytes"],
            "dram_bytes": self.dram_bytes - snap["dram_bytes"],
            "caches": caches,
        }

    def _count_regions(self, bases) -> None:
        for b in bases:
            self.region_counts[int(b) >> 8] += 1

    # ------------------------------------------------------------------
    def access_global(
        self, cu: int, addrs: np.ndarray, sizes: np.ndarray, is_store: bool
    ) -> float:
        """Plain global-space access (the ld.global/st.global path)."""
        key = (addrs.dtype.char, addrs.tobytes(), sizes.tobytes())
        hit = self._pat_global.get(key)
        if hit is not None:
            self.pat_global_hits += 1
        else:
            self.pat_global_misses += 1
            segs, traffic = coalesce(self.spec, addrs, sizes)
            hit = (segs.tolist(), traffic)
            self._pat_put(self._pat_global, key, hit)
        seg_list, traffic = hit
        return self.access_global_segs(cu, seg_list, traffic, is_store)

    def access_global_segs(
        self, cu: int, seg_list: list, traffic: int, is_store: bool
    ) -> float:
        """Global access with the coalescing already resolved.

        The interpreter pre-computes line segments for whole visits at
        once (vectorized over every warp of a block batch); this entry
        point applies the cache/DRAM state walk to one warp's segments.
        """
        t = self.spec.timing
        nseg = max(len(seg_list), 1)
        self.gmem_requests += 1
        self.gmem_transactions += nseg
        if is_store:
            # write-through, fire-and-forget: traffic but little stall
            self.dram_bytes[cu] += traffic
            if self._dram_log is not None:
                self._dram_log.append((cu, traffic))
            if self.spec.has_global_cache:
                for b in seg_list:
                    self.l2.access(int(b))
            else:
                self._count_regions(seg_list)
            return t.tx_cycles * nseg
        if not self.spec.has_global_cache:
            self.dram_bytes[cu] += traffic
            if self._dram_log is not None:
                self._dram_log.append((cu, traffic))
            self._count_regions(seg_list)
            self.l1[cu].stats.misses += nseg  # null path: all misses
            return t.dram_latency + t.tx_cycles * (nseg - 1)
        # Fermi-style: L1 -> L2 -> DRAM
        worst = t.l1_hit
        per_seg = traffic / nseg if nseg else 0.0
        for b in seg_list:
            b = int(b)
            if self.l1[cu].access(b):
                continue
            if self.l2.access(b):
                worst = max(worst, t.l2_hit)
            else:
                worst = max(worst, t.dram_latency)
                self.dram_bytes[cu] += per_seg
                if self._dram_log is not None:
                    self._dram_log.append((cu, per_seg))
                self.region_counts[b >> 8] += 1
        return worst + t.tx_cycles * (nseg - 1)

    def access_texture(self, cu: int, addrs: np.ndarray, sizes: np.ndarray) -> float:
        """Texture-path read: small per-CU cache over global data.

        This is what makes the irregular gathers of MD/SPMV look regular
        (paper §IV-B.1) — reuse is captured close to the CU even on
        GT200, which has no other global-read cache.
        """
        t = self.spec.timing
        line = 32
        key = (addrs.dtype.char, addrs.tobytes(), sizes.tobytes())
        line_list = self._pat_tex.get(key)
        if line_list is not None:
            self.pat_tex_hits += 1
        else:
            self.pat_tex_misses += 1
            first = addrs // line
            last = (addrs + np.maximum(sizes, 1) - 1) // line
            line_list = (np.union1d(first, last) * line).tolist()
            self._pat_put(self._pat_tex, key, line_list)
        nseg = max(len(line_list), 1)
        worst = t.tex_hit
        for b in line_list:
            if not self.tex[cu].access(int(b)):
                worst = max(worst, t.dram_latency)
                self.dram_bytes[cu] += line
                if self._dram_log is not None:
                    self._dram_log.append((cu, line))
                self.region_counts[int(b) >> 8] += 1
        # the texture pipeline is built for many small scattered
        # fetches: extra segments are much cheaper than on the L1 path
        return worst + t.tx_cycles * 0.2 * (nseg - 1)

    def access_const(self, cu: int, addrs: np.ndarray) -> float:
        """Constant-cache read: broadcast when all lanes agree.

        Distinct addresses serialize — the defining behaviour of the
        constant path on every CUDA-class device.
        """
        t = self.spec.timing
        key = (addrs.dtype.char, addrs.tobytes())
        bases = self._pat_const.get(key)
        if bases is not None:
            self.pat_const_hits += 1
        else:
            self.pat_const_misses += 1
            # one entry per *distinct address* in sorted order (two
            # addresses in the same 64B line still serialize)
            bases = [(int(a) // 64) * 64 for a in np.unique(addrs).tolist()]
            self._pat_put(self._pat_const, key, bases)
        cost = 0.0
        for base in bases:
            if self.const[cu].access(base):
                cost += t.const_hit
            else:
                cost += t.dram_latency
                self.dram_bytes[cu] += 64
                if self._dram_log is not None:
                    self._dram_log.append((cu, 64))
                self.region_counts[base >> 8] += 1
        return cost

    def shared_replay_factor(self, addrs: np.ndarray) -> int:
        """Memoized :func:`~repro.arch.banks.bank_conflicts`."""
        key = (addrs.dtype.char, addrs.tobytes())
        replays = self._pat_shared.get(key)
        if replays is not None:
            self.pat_shared_hits += 1
        else:
            self.pat_shared_misses += 1
            replays = bank_conflicts(self.spec, addrs)
            self._pat_put(self._pat_shared, key, replays)
        return replays

    def access_shared(self, cu: int, addrs: np.ndarray) -> float:
        """Banked shared/local-memory access."""
        t = self.spec.timing
        self.shared_accesses += 1
        if self.spec.local_mem_is_plain_memory:
            # CPU device: "local" memory is ordinary cached memory — the
            # staging copy is pure overhead (paper §V, TranP on Intel920)
            return t.shared_latency
        replays = self.shared_replay_factor(addrs)
        self.shared_replays += replays - 1
        return t.shared_latency + (replays - 1) * 4.0

    def access_local(self, cu: int, nbytes_per_thread: int, width: int) -> float:
        """Register-spill traffic (``ld.local``/``st.local``).

        GT200 spills straight to DRAM (interleaved, hence coalesced);
        Fermi spills are usually caught by L1.
        """
        t = self.spec.timing
        traffic = width * self.spec.warp_width
        self.spill_bytes += traffic
        if self.spec.has_global_cache:
            return t.l1_hit
        self.dram_bytes[cu] += traffic
        if self._dram_log is not None:
            self._dram_log.append((cu, traffic))
        return t.dram_latency * 0.5 + t.tx_cycles
