"""Dirty-interval bookkeeping: IntervalSet algebra and the DirtyMap."""

import pytest

from repro.runtime.intervals import D2H, H2D, DirtyMap, IntervalSet


class TestIntervalSet:
    def test_empty(self):
        s = IntervalSet()
        assert not s
        assert s.covered == 0
        assert s.intervals() == []

    def test_add_normalizes_and_sorts(self):
        s = IntervalSet()
        s.add(10, 20)
        s.add(0, 5)
        assert s.intervals() == [(0, 5), (10, 20)]
        assert s.covered == 15

    def test_add_merges_overlap(self):
        s = IntervalSet([(0, 10)])
        s.add(5, 15)
        assert s.intervals() == [(0, 15)]

    def test_add_merges_adjacent(self):
        s = IntervalSet([(0, 10)])
        s.add(10, 20)
        assert s.intervals() == [(0, 20)]

    def test_add_absorbs_multiple(self):
        s = IntervalSet([(0, 2), (4, 6), (8, 10)])
        s.add(1, 9)
        assert s.intervals() == [(0, 10)]

    def test_empty_interval_ignored(self):
        s = IntervalSet()
        s.add(5, 5)
        assert not s

    def test_subtract_splits(self):
        s = IntervalSet([(0, 10)])
        s.subtract(3, 7)
        assert s.intervals() == [(0, 3), (7, 10)]

    def test_subtract_edges(self):
        s = IntervalSet([(0, 10)])
        s.subtract(0, 4)
        s.subtract(8, 12)
        assert s.intervals() == [(4, 8)]

    def test_subtract_everything(self):
        s = IntervalSet([(2, 4), (6, 8)])
        s.subtract(0, 10)
        assert not s

    def test_intersect(self):
        s = IntervalSet([(0, 4), (6, 10)])
        assert s.intersect(2, 8).intervals() == [(2, 4), (6, 8)]

    def test_covers(self):
        s = IntervalSet([(0, 4), (4, 10)])   # normalizes to (0, 10)
        assert s.covers(0, 10)
        assert s.covers(3, 7)
        assert not s.covers(0, 11)
        assert not IntervalSet([(0, 4), (6, 10)]).covers(0, 10)

    def test_union_and_equality(self):
        a = IntervalSet([(0, 3)])
        b = IntervalSet([(3, 6)])
        assert (a | b) == IntervalSet([(0, 6)])
        assert a == IntervalSet([(0, 3)])

    def test_copy_is_independent(self):
        a = IntervalSet([(0, 3)])
        b = a.copy()
        b.add(5, 7)
        assert a.intervals() == [(0, 3)]


class TestDirtyMap:
    @pytest.fixture
    def dm(self):
        m = DirtyMap()
        m.bind("a", size=100, itemsize=8)
        return m

    def test_unbound_pending_is_none(self):
        assert DirtyMap().pending("zzz", H2D) is None

    def test_alloc_marks_device_copy_entirely_missing(self, dm):
        dm.note_alloc("a")
        assert dm.pending("a", H2D).intervals() == [(0, 100)]
        assert not dm.pending("a", D2H)

    def test_full_write_clears_inward_sets_outward(self, dm):
        dm.note_alloc("a")
        dm.note_write("a", "cpu", full=True)
        assert dm.pending("a", H2D).intervals() == [(0, 100)]
        dm.note_transfer("a", H2D)
        assert not dm.pending("a", H2D)
        dm.note_write("a", "gpu", full=True)
        assert dm.pending("a", D2H).intervals() == [(0, 100)]
        assert not dm.pending("a", H2D)

    def test_footprint_write_accumulates(self, dm):
        dm.note_write("a", "gpu", footprint=[(0, 10)])
        dm.note_write("a", "gpu", footprint=[(20, 30)])
        assert dm.pending("a", D2H).intervals() == [(0, 10), (20, 30)]

    def test_unknown_partial_write_is_conservative_full(self, dm):
        dm.note_transfer("a", D2H)
        dm.note_write("a", "gpu")   # no footprint, not full
        assert dm.pending("a", D2H).intervals() == [(0, 100)]

    def test_transfer_span_drains_both_directions(self, dm):
        dm.note_write("a", "gpu", footprint=[(0, 50)])
        dm.note_transfer("a", D2H, span=(0, 25))
        assert dm.pending("a", D2H).intervals() == [(25, 50)]

    def test_pending_bytes(self, dm):
        dm.note_write("a", "cpu", footprint=[(10, 20)])
        assert dm.pending_bytes("a", H2D) == 10 * 8
        assert dm.pending_bytes("a", H2D, span=(15, 100)) == 5 * 8
        assert DirtyMap().pending_bytes("zzz", H2D) is None

    def test_rebind_on_geometry_change_resets(self, dm):
        dm.note_write("a", "cpu", footprint=[(0, 10)])
        dm.bind("a", size=50, itemsize=4)
        assert not dm.pending("a", H2D)

    def test_free_resets_device_side(self, dm):
        dm.note_write("a", "gpu", footprint=[(0, 10)])
        dm.note_free("a")
        assert dm.pending("a", H2D).intervals() == [(0, 100)]
        assert not dm.pending("a", D2H)

