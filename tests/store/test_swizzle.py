"""Swizzle table tests."""

from __future__ import annotations

from typing import Dict, Optional, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.costs import CostModel, SimClock
from repro.store.swizzle import SwizzleStats, SwizzleTable


@pytest.fixture
def table():
    return SwizzleTable()


class TestSwizzleIn:
    def test_assigns_addresses(self, table):
        count = table.swizzle_in(0, [1, 2, 3])
        assert count == 3
        assert table.is_swizzled(2)
        assert table.resident_count == 3

    def test_addresses_are_distinct(self, table):
        table.swizzle_in(0, [1, 2, 3])
        addresses = {table.address_of(oid) for oid in (1, 2, 3)}
        assert len(addresses) == 3

    def test_already_swizzled_not_recounted(self, table):
        table.swizzle_in(0, [1, 2])
        count = table.swizzle_in(1, [2, 3])
        assert count == 1
        assert table.stats.swizzled == 3

    def test_address_stable_across_pages(self, table):
        table.swizzle_in(0, [5])
        first = table.address_of(5)
        table.swizzle_in(1, [5])
        assert table.address_of(5) == first


class TestUnswizzle:
    def test_page_eviction_clears_objects(self, table):
        table.swizzle_in(0, [1, 2])
        removed = table.unswizzle_page(0)
        assert removed == 2
        assert not table.is_swizzled(1)
        assert table.address_of(1) is None

    def test_object_spanning_pages_survives(self, table):
        table.swizzle_in(0, [1])
        table.swizzle_in(1, [1, 2])
        table.unswizzle_page(0)
        assert table.is_swizzled(1)  # Still on resident page 1.
        table.unswizzle_page(1)
        assert not table.is_swizzled(1)

    def test_unknown_page_is_noop(self, table):
        assert table.unswizzle_page(42) == 0


class TestAccounting:
    def test_clock_charged(self):
        clock = SimClock()
        table = SwizzleTable(CostModel(swizzle_time=0.001), clock)
        table.swizzle_in(0, [1, 2, 3])
        assert clock.now == pytest.approx(0.003)
        table.unswizzle_page(0)
        assert clock.now == pytest.approx(0.006)

    def test_stats_subtraction(self, table):
        table.swizzle_in(0, [1])
        snap = table.stats.snapshot()
        table.swizzle_in(1, [2, 3])
        delta = table.stats.snapshot() - snap
        assert delta.swizzled == 2

    def test_clear_and_reset(self, table):
        table.swizzle_in(0, [1])
        table.clear()
        assert table.resident_count == 0
        table.reset_stats()
        assert table.stats.swizzled == 0


class ScanSwizzleTable:
    """Reference model: an evicted page's object stays swizzled while any
    other resident page holds it, found by scanning every page bucket."""

    def __init__(self, cost_model: CostModel, clock: SimClock) -> None:
        self.cost_model = cost_model
        self.clock = clock
        self.stats = SwizzleStats()
        self._addresses: Dict[int, int] = {}
        self._by_page: Dict[int, Set[int]] = {}
        self._next_address = 0x1000_0000

    def swizzle_in(self, page_id, oids):
        bucket = self._by_page.setdefault(page_id, set())
        count = 0
        for oid in oids:
            if oid not in self._addresses:
                self._addresses[oid] = self._next_address
                self._next_address += 0x10
                count += 1
            bucket.add(oid)
        self.stats.swizzled += count
        self.clock.advance(count * self.cost_model.swizzle_time)
        return count

    def unswizzle_page(self, page_id):
        count = 0
        for oid in self._by_page.pop(page_id, ()):
            if any(oid in other for other in self._by_page.values()):
                continue
            del self._addresses[oid]
            count += 1
        self.stats.unswizzled += count
        self.clock.advance(count * self.cost_model.swizzle_time)
        return count

    def address_of(self, oid) -> Optional[int]:
        return self._addresses.get(oid)

    @property
    def resident_count(self):
        return len(self._addresses)

    def clear(self):
        self._addresses.clear()
        self._by_page.clear()

    def reset_stats(self):
        self.stats = SwizzleStats()


# Few pages and oids so that pages overlap, repeat and get evicted often.
swizzle_op = st.one_of(
    st.tuples(st.just("swizzle_in"), st.integers(0, 5),
              st.lists(st.integers(0, 11), max_size=6)),
    st.tuples(st.just("unswizzle_page"), st.integers(0, 7)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("reset_stats")),
)


class TestAgainstScanModel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(swizzle_op, max_size=60))
    def test_matches_reference_after_every_step(self, ops):
        cost = CostModel(swizzle_time=0.25)  # Exact in binary floating point.
        table = SwizzleTable(cost, SimClock())
        model = ScanSwizzleTable(cost, SimClock())
        seen = set()
        for name, *args in ops:
            if name == "swizzle_in":
                seen.update(args[1])
            assert getattr(table, name)(*args) == getattr(model, name)(*args)
            assert table.stats == model.stats
            assert table.resident_count == model.resident_count
            for oid in seen:
                assert table.address_of(oid) == model.address_of(oid)
            assert table.clock.now == model.clock.now
