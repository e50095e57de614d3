"""Property-based tests: the memory system behaves like memory.

Hypothesis drives random load/store interleavings through the coherence
harness and checks functional correctness against a flat reference model,
plus the SWMR/directory invariants after quiescing.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import load, store
from repro.cache.array import CacheArray, CacheEntry
from repro.errors import ConfigError

from coherence_harness import CoherenceHarness

# Small pools so caches overflow and lines collide: 12 lines across 3 sets.
ADDRS = [s * 2048 + i * 64 for i in range(4) for s in range(3)]

op_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),            # tile
    st.sampled_from(ADDRS),                           # line address
    st.integers(min_value=0, max_value=7),            # offset word
    st.one_of(st.none(), st.integers(0, 2 ** 64 - 1)),  # None=load, else store
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(op_strategy, min_size=1, max_size=60))
def test_sequential_ops_match_flat_memory(ops):
    harness = CoherenceHarness()
    reference = {}
    for tile, base, word, value in ops:
        addr = base + word * 8
        if value is None:
            got = harness.read_u64(tile, addr)
            assert got == reference.get(addr, 0), (
                f"load {addr:#x} from tile {tile}: got {got}, "
                f"expected {reference.get(addr, 0)}")
        else:
            harness.write_u64(tile, addr, value)
            reference[addr] = value
    harness.check_invariants()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(op_strategy, min_size=1, max_size=40))
def test_concurrent_ops_complete_and_preserve_invariants(ops):
    harness = CoherenceHarness()
    completed = []
    writers = {}
    for tile, base, word, value in ops:
        addr = base + word * 8
        if value is None:
            op = load(addr)
        else:
            op = store(addr, value.to_bytes(8, "little"))
            writers.setdefault(addr, set()).add(value)
        harness.bpcs[tile].access(op, lambda r: completed.append(r))
    harness.sim.run()
    assert len(completed) == len(ops), "an operation never completed"
    harness.check_invariants()
    # Every address ends at 0 or one of the concurrently-written values.
    for addr, values in writers.items():
        final = harness.read_u64(0, addr)
        assert final in values, (
            f"{addr:#x} ended at {final}, not one of {values}")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=200))
def test_cache_array_capacity_and_lru(line_indices):
    """The array never exceeds its ways, and the LRU victim is correct."""
    array = CacheArray(size_bytes=4 * 64 * 2, ways=4, line_bytes=64)  # 2 sets
    resident_order = {}  # line -> last-touch tick
    tick = 0
    for index in line_indices:
        line = index * 64
        tick += 1
        entry = array.lookup(line)
        if entry is None:
            victim = array.victim_for(line)
            if victim is not None:
                # Victim must be the least recently used in its set.
                victim_set = (victim.line_addr // 64) % 2
                same_set = [l for l in resident_order
                            if (l // 64) % 2 == victim_set]
                oldest = min(same_set, key=lambda l: resident_order[l])
                assert victim.line_addr == oldest
                array.remove(victim.line_addr)
                del resident_order[victim.line_addr]
            array.insert(line, None)
        resident_order[line] = tick
        for set_dict in array._sets:
            # A set is allocated on its first insert; None holds no line.
            assert len(set_dict or ()) <= 4
    assert array.resident == len(resident_order)


class _EagerArray:
    """Reference for :class:`CacheArray` with every set's dict made up
    front."""

    def __init__(self, size_bytes, ways, line_bytes):
        self.line_bytes = line_bytes
        self.ways = ways
        self.sets = [{} for _ in range(size_bytes // (ways * line_bytes))]
        self.clock = 0

    def _set_of(self, line):
        return self.sets[(line // self.line_bytes) % len(self.sets)]

    def lookup(self, line, touch=True):
        entry = self._set_of(line).get(line)
        if entry is not None and touch:
            self.clock += 1
            entry._stamp = self.clock
        return entry

    def contains(self, line):
        return line in self._set_of(line)

    def victim_for(self, line, prefer=None):
        target_set = self._set_of(line)
        if line in target_set or len(target_set) < self.ways:
            return None
        candidates = sorted(target_set.values(), key=lambda e: e._stamp)
        preferred = [e for e in candidates if prefer and prefer(e)]
        return (preferred or candidates)[0]

    def insert(self, line, payload):
        target_set = self._set_of(line)
        if line not in target_set and len(target_set) >= self.ways:
            raise ConfigError("set full")
        self.clock += 1
        entry = target_set[line] = CacheEntry(line, payload, self.clock)
        return entry

    def remove(self, line):
        return self._set_of(line).pop(line, None)

    def entries(self):
        for target_set in self.sets:
            yield from target_set.values()

    @property
    def resident(self):
        return sum(len(s) for s in self.sets)


def _apply(array, op, line, payload):
    """Run one operation; returns what it answered."""
    try:
        if op == "lookup":
            entry = array.lookup(line)
        elif op == "peek":
            entry = array.lookup(line, touch=False)
        elif op == "contains":
            return array.contains(line)
        elif op == "victim":
            entry = array.victim_for(line)
        elif op == "victim_prefer":
            entry = array.victim_for(line, prefer=lambda e: e.payload % 3 == 0)
        elif op == "insert":
            entry = array.insert(line, payload)
        else:
            entry = array.remove(line)
    except ConfigError:
        return "full"
    return None if entry is None else (entry.line_addr, entry.payload)


ARRAY_OPS = ("insert", "lookup", "peek", "contains", "victim",
             "victim_prefer", "remove")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ARRAY_OPS),
                          st.integers(min_value=0, max_value=23)),
                min_size=1, max_size=120))
def test_lazy_cache_array_matches_eager_reference(ops):
    """Sets made on first insert answer exactly like sets made up front:
    the same lookups, victims, ``entries()`` order and residency."""
    array = CacheArray(size_bytes=4 * 2 * 64, ways=2, line_bytes=64)
    reference = _EagerArray(size_bytes=4 * 2 * 64, ways=2, line_bytes=64)
    for step, (op, index) in enumerate(ops):
        line = index * 64
        assert _apply(array, op, line, step) \
            == _apply(reference, op, line, step), (step, op, line)
        assert [(e.line_addr, e._stamp) for e in array.entries()] \
            == [(e.line_addr, e._stamp) for e in reference.entries()]
        assert array.resident == reference.resident
