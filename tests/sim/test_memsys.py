import numpy as np
import pytest

from repro.arch import GTX280, GTX480, INTEL920, bank_conflicts, coalesce
from repro.arch.caches import const_bases, texture_lines
from repro.sim.memsys import MemorySystem


def _addrs(*vals):
    return np.asarray(vals, dtype=np.int64)


def _sizes(n, s=4):
    return np.full(n, s, dtype=np.int64)


def _global(ms, cu, addrs, sizes, is_store):
    """One warp's global access, coalesced by the scalar rule."""
    segs, traffic = coalesce(ms.spec, addrs, sizes)
    return ms.access_global(cu, segs.tolist(), traffic, is_store)


def _shared(ms, addrs):
    """One warp's shared access, bank conflicts by the scalar rule."""
    return ms.shared_costs(np.asarray([bank_conflicts(ms.spec, addrs)]))[0]


class TestGlobalPath:
    def test_gt200_load_costs_full_latency(self):
        ms = MemorySystem(GTX280)
        a = _addrs(*(i * 4 for i in range(32)))
        c = _global(ms, 0, a, _sizes(32), is_store=False)
        assert c >= GTX280.timing.dram_latency

    def test_gt200_never_caches(self):
        ms = MemorySystem(GTX280)
        a = _addrs(*(i * 4 for i in range(32)))
        c1 = _global(ms, 0, a, _sizes(32), is_store=False)
        c2 = _global(ms, 0, a, _sizes(32), is_store=False)
        assert c1 == c2  # repeat access: same cost, no cache

    def test_fermi_second_access_hits_l1(self):
        ms = MemorySystem(GTX480)
        a = _addrs(*(i * 4 for i in range(32)))
        miss = _global(ms, 0, a, _sizes(32), is_store=False)
        hit = _global(ms, 0, a, _sizes(32), is_store=False)
        assert hit < miss
        assert hit == GTX480.timing.l1_hit

    def test_fermi_l2_shared_across_cus(self):
        ms = MemorySystem(GTX480)
        a = _addrs(*(i * 4 for i in range(32)))
        _global(ms, 0, a, _sizes(32), is_store=False)  # CU0 fills L2
        cu1 = _global(ms, 1, a, _sizes(32), is_store=False)
        assert cu1 == GTX480.timing.l2_hit + 0  # L1 miss, L2 hit

    def test_store_cheaper_than_load(self):
        ms = MemorySystem(GTX280)
        a = _addrs(*(i * 4 for i in range(32)))
        st = _global(ms, 0, a, _sizes(32), is_store=True)
        ld = _global(ms, 0, a, _sizes(32), is_store=False)
        assert st < ld

    def test_traffic_accounted_per_cu(self):
        ms = MemorySystem(GTX280)
        a = _addrs(*(i * 4 for i in range(32)))
        _global(ms, 3, a, _sizes(32), is_store=False)
        assert ms.dram_bytes[3] > 0
        assert ms.dram_bytes[0] == 0

    def test_region_counts_track_dram_hits(self):
        ms = MemorySystem(GTX280)
        a = _addrs(0, 4, 8)
        _global(ms, 0, a, _sizes(3), is_store=False)
        assert sum(ms.region_counts.values()) >= 1


class TestConstPath:
    def test_broadcast_single_address_cheap_after_warmup(self):
        ms = MemorySystem(GTX280)
        a = np.zeros(32, dtype=np.int64)
        ms.access_const(0, const_bases(a))  # compulsory miss
        hit = ms.access_const(0, const_bases(a))
        assert hit == GTX280.timing.const_hit

    def test_distinct_addresses_serialize(self):
        ms = MemorySystem(GTX280)
        same = np.zeros(32, dtype=np.int64)
        spread = np.arange(32, dtype=np.int64) * 4
        ms.access_const(0, const_bases(same))
        ms.access_const(0, const_bases(spread))  # warm
        t_same = ms.access_const(0, const_bases(same))
        t_spread = ms.access_const(0, const_bases(spread))
        assert t_spread > t_same  # one broadcast vs. serialized words


class TestTexturePath:
    def test_reuse_hits_cache(self):
        ms = MemorySystem(GTX280)
        a = _addrs(*(i * 4 for i in range(32)))
        miss = ms.access_texture(0, texture_lines(a, _sizes(32)))
        hit = ms.access_texture(0, texture_lines(a, _sizes(32)))
        assert hit < miss

    def test_texture_cache_per_cu(self):
        ms = MemorySystem(GTX280)
        a = _addrs(*(i * 4 for i in range(32)))
        ms.access_texture(0, texture_lines(a, _sizes(32)))
        other = ms.access_texture(1, texture_lines(a, _sizes(32)))  # cold on CU1
        assert other > ms.access_texture(0, texture_lines(a, _sizes(32)))


class TestSharedPath:
    def test_conflict_free_base_cost(self):
        ms = MemorySystem(GTX480)
        a = np.arange(32, dtype=np.int64) * 4
        assert _shared(ms, a) == GTX480.timing.shared_latency

    def test_conflicts_add_replays(self):
        ms = MemorySystem(GTX480)
        conflict = np.arange(32, dtype=np.int64) * 4 * 32  # same bank
        free = np.arange(32, dtype=np.int64) * 4
        assert _shared(ms, conflict) > _shared(ms, free)

    def test_cpu_local_memory_flat_cost(self):
        ms = MemorySystem(INTEL920)
        conflict = np.arange(4, dtype=np.int64) * 4 * 32
        free = np.arange(4, dtype=np.int64) * 4
        # no banked SRAM on a CPU: no conflict concept
        assert _shared(ms, conflict) == _shared(ms, free)


class TestLocalSpillPath:
    def test_gt200_spills_cost_dram_traffic(self):
        ms = MemorySystem(GTX280)
        before = ms.dram_bytes[0]
        c = ms.access_local(0, 4, 4)
        assert ms.dram_bytes[0] > before
        assert c > GTX280.timing.tx_cycles

    def test_fermi_spills_land_in_l1(self):
        ms = MemorySystem(GTX480)
        before = ms.dram_bytes[0]
        c = ms.access_local(0, 4, 4)
        assert ms.dram_bytes[0] == before  # cached
        assert c == GTX480.timing.l1_hit
