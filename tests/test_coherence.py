"""Coherence protocol tests: directed scenarios over the harness."""

import pytest

from repro.cache import load, store
from repro.noc import TileAddr

from coherence_harness import CoherenceHarness


def line_homed_at(harness, tile, index=0):
    """An address whose home LLC slice is the given tile."""
    return (tile + index * harness.n_tiles) * 64


class TestBasicAccess:
    def test_load_of_untouched_memory_returns_zero(self):
        h = CoherenceHarness()
        assert h.read_u64(0, 0x1000) == 0
        h.check_invariants()

    def test_store_then_load_same_tile(self):
        h = CoherenceHarness()
        h.write_u64(0, 0x1000, 42)
        assert h.read_u64(0, 0x1000) == 42
        h.check_invariants()

    def test_store_visible_to_other_tile(self):
        h = CoherenceHarness()
        h.write_u64(0, 0x2000, 0xABCD)
        assert h.read_u64(3, 0x2000) == 0xABCD
        h.check_invariants()

    def test_second_load_is_a_hit_and_faster(self):
        h = CoherenceHarness()
        _, cold = h.do(0, load(0x3000))
        _, warm = h.do(0, load(0x3000))
        assert warm < cold

    def test_sub_word_store(self):
        h = CoherenceHarness()
        h.write_u64(0, 0x100, 0xFFFFFFFFFFFFFFFF)
        h.do(1, store(0x102, b"\x00"))
        assert h.read_u64(2, 0x100) == 0xFFFFFFFFFF00FFFF
        h.check_invariants()


class TestStateTransitions:
    def test_load_installs_shared(self):
        h = CoherenceHarness()
        addr = line_homed_at(h, 2)
        h.read_u64(0, addr)
        assert h.bpcs[0].state_of(addr) == "S"
        assert h.llcs[2].dir_state(addr) == "S"
        assert TileAddr(0, 0) in h.llcs[2].sharers_of(addr)

    def test_store_installs_modified(self):
        h = CoherenceHarness()
        addr = line_homed_at(h, 1)
        h.write_u64(0, addr, 7)
        assert h.bpcs[0].state_of(addr) == "M"
        assert h.llcs[1].dir_state(addr) == "M"
        assert h.llcs[1].owner_of(addr) == TileAddr(0, 0)

    def test_load_downgrades_remote_owner(self):
        h = CoherenceHarness()
        addr = line_homed_at(h, 1)
        h.write_u64(0, addr, 123)
        assert h.read_u64(2, addr) == 123
        assert h.bpcs[0].state_of(addr) == "S"   # downgraded
        assert h.bpcs[2].state_of(addr) == "S"
        assert h.llcs[1].dir_state(addr) == "S"
        assert h.bpcs[0].stats.get("downgrades") == 1
        h.check_invariants()

    def test_store_invalidates_sharers(self):
        h = CoherenceHarness()
        addr = line_homed_at(h, 0)
        for tile in (1, 2, 3):
            h.read_u64(tile, addr)
        h.write_u64(0, addr, 55)
        for tile in (1, 2, 3):
            assert h.bpcs[tile].state_of(addr) == "I"
        assert h.bpcs[0].state_of(addr) == "M"
        h.check_invariants()

    def test_store_invalidates_remote_owner(self):
        h = CoherenceHarness()
        addr = line_homed_at(h, 3)
        h.write_u64(1, addr, 0x11)
        h.write_u64(2, addr, 0x22)
        assert h.bpcs[1].state_of(addr) == "I"
        assert h.bpcs[2].state_of(addr) == "M"
        assert h.read_u64(0, addr) == 0x22
        h.check_invariants()

    def test_upgrade_from_shared(self):
        h = CoherenceHarness()
        addr = line_homed_at(h, 2)
        h.read_u64(0, addr)                      # S
        assert h.bpcs[0].state_of(addr) == "S"
        h.write_u64(0, addr, 9)                  # upgrade S -> M
        assert h.bpcs[0].state_of(addr) == "M"
        assert h.bpcs[0].stats.get("upgrades") == 1
        h.check_invariants()

    def test_ping_pong_ownership(self):
        h = CoherenceHarness()
        addr = line_homed_at(h, 0)
        for i in range(10):
            tile = i % 2
            h.write_u64(tile, addr, i)
        assert h.read_u64(3, addr) == 9
        h.check_invariants()


class TestEvictions:
    """8KB 4-way BPC: 32 sets; lines 32*64=2048 bytes apart collide."""

    SET_STRIDE = 32 * 64

    def test_clean_eviction_is_silent(self):
        h = CoherenceHarness()
        base = 0
        for i in range(5):  # 5 lines into a 4-way set
            h.read_u64(0, base + i * self.SET_STRIDE)
        assert h.bpcs[0].stats.get("silent_evictions") == 1
        assert h.bpcs[0].state_of(base) == "I"
        h.check_invariants()

    def test_dirty_eviction_writes_back(self):
        h = CoherenceHarness()
        for i in range(5):
            h.write_u64(0, i * self.SET_STRIDE, i + 100)
        assert h.bpcs[0].stats.get("writebacks") == 1
        # Evicted value survives and is re-fetchable from LLC.
        assert h.read_u64(1, 0) == 100
        h.check_invariants()

    def test_eviction_of_many_dirty_lines(self):
        h = CoherenceHarness()
        n = 16
        for i in range(n):
            h.write_u64(2, i * self.SET_STRIDE, i)
        for i in range(n):
            assert h.read_u64(3, i * self.SET_STRIDE) == i
        h.check_invariants()

    def test_llc_recall_on_capacity(self):
        # 64KB 4-way LLC slice = 256 sets; with 4 tiles, lines homed at one
        # slice that also collide in one LLC set are 4*256*64 bytes apart.
        h = CoherenceHarness()
        stride = 4 * 256 * 64
        for i in range(6):  # overflow one LLC set (4 ways)
            h.write_u64(0, i * stride, i + 1)
        assert h.llcs[0].stats.get("recalls") > 0
        for i in range(6):
            assert h.read_u64(1, i * stride) == i + 1
        h.check_invariants()

    def test_inv_after_silent_eviction_acked_clean(self):
        h = CoherenceHarness()
        addr = 0
        h.read_u64(0, addr)                       # tile0 S
        for i in range(1, 5):                     # silently evict it
            h.read_u64(0, addr + i * self.SET_STRIDE)
        assert h.bpcs[0].state_of(addr) == "I"
        h.write_u64(1, addr, 5)                   # home Invs stale sharer 0
        assert h.bpcs[0].stats.get("inv_misses") == 1
        h.check_invariants()


class TestConcurrency:
    def test_concurrent_loads_same_line(self):
        h = CoherenceHarness()
        addr = 0x4000
        results = []
        for tile in range(4):
            h.bpcs[tile].access(load(addr), results.append)
        h.sim.run()
        assert len(results) == 4
        h.check_invariants()

    def test_concurrent_stores_same_line_serialize(self):
        h = CoherenceHarness()
        addr = 0x5000
        done = []
        for tile in range(4):
            value = (tile + 1).to_bytes(8, "little")
            h.bpcs[tile].access(store(addr, value), lambda r: done.append(r))
        h.sim.run()
        assert len(done) == 4
        final = h.read_u64(0, addr)
        assert final in (1, 2, 3, 4)
        h.check_invariants()

    def test_mixed_concurrent_traffic(self):
        h = CoherenceHarness()
        done = []
        for i in range(50):
            tile = i % 4
            addr = (i % 7) * 64
            if i % 3 == 0:
                h.bpcs[tile].access(store(addr, bytes([i] * 8)),
                                    lambda r: done.append(r))
            else:
                h.bpcs[tile].access(load(addr), lambda r: done.append(r))
        h.sim.run()
        assert len(done) == 50
        h.check_invariants()

    def test_concurrent_store_load_pairs_distinct_lines(self):
        h = CoherenceHarness()
        done = []
        for i in range(32):
            h.bpcs[i % 4].access(store(0x8000 + i * 64, bytes([i] * 8)),
                                 lambda r: done.append(r))
        h.sim.run()
        for i in range(32):
            assert h.read_u64((i + 1) % 4, 0x8000 + i * 64) \
                == int.from_bytes(bytes([i] * 8), "little")
        h.check_invariants()


class TestThroughL1:
    def test_l1_load_hit_is_fast(self):
        h = CoherenceHarness()
        _, cold = h.do(0, load(0x100), through_l1=True)
        _, warm = h.do(0, load(0x100), through_l1=True)
        assert warm <= 2  # L1 hit latency
        assert warm < cold

    def test_l1_sees_remote_store(self):
        h = CoherenceHarness()
        h.do(0, load(0x200), through_l1=True)          # fill L1 of tile 0
        h.do(1, store(0x200, b"\x99" * 8), through_l1=True)
        data, _ = h.do(0, load(0x200), through_l1=True)
        assert data == b"\x99" * 8                      # shootdown worked
        assert h.l1s[0].stats.get("shootdowns") >= 1

    def test_l1_write_through_keeps_bpc_current(self):
        h = CoherenceHarness()
        h.do(0, store(0x300, b"\x01" * 8), through_l1=True)
        assert h.bpcs[0].peek(0x300, 8) == b"\x01" * 8


class TestMshrPressure:
    def test_backlog_beyond_mshr_limit_completes(self):
        h = CoherenceHarness(bpc_kwargs={"max_mshrs": 2})
        done = []
        for i in range(20):
            h.bpcs[0].access(load(0x9000 + i * 64), lambda r: done.append(r))
        h.sim.run()
        assert len(done) == 20
        assert h.bpcs[0].stats.get("mshr_stalls") > 0
        h.check_invariants()

    def test_deferred_ops_on_same_line_all_complete(self):
        h = CoherenceHarness()
        results = []
        for _ in range(5):
            h.bpcs[0].access(load(0xA000), results.append)
        h.sim.run()
        assert len(results) == 5
