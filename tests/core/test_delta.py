"""Unit tests for the delta module: LruMemo, SolutionStore, DeltaTracker.

These pin the invariants the incremental path's correctness rests on:
bounded LRU recency order with metered eviction, the solution store's
exact/covered/seam-reject lookup ladder and widest-domain store policy,
change-set classification, and the pickling contracts (memos keep
entries, stores drop them, trackers keep the per-key trailer).
"""

import pickle

from repro.core.delta import (
    SEAM_GUARD,
    DeltaTracker,
    LruMemo,
    SolutionStore,
)
from repro.core.intervals import TimeSet
from repro.core.polynomial import Polynomial
from repro.core.segment import Segment
from repro.engine.metrics import get_counter, reset_counters


import pytest


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_counters()
    yield
    reset_counters()


def seg(lo, hi, coeffs=(1.0, 2.0), key=("k",)):
    return Segment(key, lo, hi, {"x": Polynomial(list(coeffs))})


# ----------------------------------------------------------------------
# LruMemo
# ----------------------------------------------------------------------
class TestLruMemo:
    def test_put_get_round_trip(self):
        memo = LruMemo(4, "memo.test")
        memo.put("a", 1)
        assert memo.get("a") == 1
        assert memo.get("b") is None
        assert "a" in memo and len(memo) == 1

    def test_eviction_is_lru_not_fifo(self):
        memo = LruMemo(2, "memo.test")
        memo.put("a", 1)
        memo.put("b", 2)
        memo.get("a")  # refresh "a": "b" is now the LRU entry
        memo.put("c", 3)
        assert memo.get("a") == 1
        assert memo.get("b") is None
        assert memo.get("c") == 3

    def test_counters_track_hits_misses_evictions(self):
        memo = LruMemo(1, "memo.test")
        memo.put("a", 1)
        memo.get("a")
        memo.get("zzz")
        memo.put("b", 2)  # evicts "a"
        assert get_counter("memo.test.hits").value == 1
        assert get_counter("memo.test.misses").value == 1
        assert get_counter("memo.test.evictions").value == 1

    def test_overwrite_same_key_does_not_evict(self):
        memo = LruMemo(1, "memo.test")
        memo.put("a", 1)
        memo.put("a", 2)
        assert memo.get("a") == 2
        assert get_counter("memo.test.evictions").value == 0

    def test_clear_empties_without_eviction_counts(self):
        memo = LruMemo(8, "memo.test")
        for i in range(5):
            memo.put(i, i)
        memo.clear()
        assert len(memo) == 0
        assert get_counter("memo.test.evictions").value == 0

    def test_pickle_round_trip_drops_entries(self):
        # A derived cache: the snapshot carries its shape, not its
        # entries, which a restored process recomputes on demand.
        memo = LruMemo(3, "memo.test")
        memo.put("a", 1)
        memo.put("b", 2)
        clone = pickle.loads(pickle.dumps(memo))
        assert len(clone) == 0
        assert clone.maxsize == 3
        # The rebound clone still meters into the same counter names.
        assert clone.get("a") is None
        assert get_counter("memo.test.misses").value == 1
        clone.put("c", 3)
        assert clone.get("c") == 3
        assert get_counter("memo.test.hits").value == 1


# ----------------------------------------------------------------------
# SolutionStore
# ----------------------------------------------------------------------
class TestSolutionStore:
    def test_exact_domain_hit_is_verbatim(self):
        store = SolutionStore()
        sol = TimeSet.interval(1.0, 2.0)
        store.store("sig", 0.0, 4.0, sol)
        got = store.lookup("sig", 0.0, 4.0)
        assert got is sol
        assert get_counter("delta.store.hits").value == 1

    def test_covered_probe_returns_clip(self):
        store = SolutionStore()
        store.store("sig", 0.0, 10.0, TimeSet.interval(1.0, 9.0))
        got = store.lookup("sig", 2.0, 8.0)
        assert got == TimeSet.interval(2.0, 8.0)

    def test_uncovered_probe_misses(self):
        store = SolutionStore()
        store.store("sig", 0.0, 4.0, TimeSet.interval(1.0, 2.0))
        assert store.lookup("sig", 2.0, 6.0) is None
        assert store.lookup("other", 0.0, 4.0) is None
        assert get_counter("delta.store.misses").value == 2

    def test_seam_guard_rejects_near_boundary_features(self):
        store = SolutionStore()
        # Stored solution has an endpoint a hair inside the probe seam:
        # clipping it is exactly the case where the clipped set could
        # diverge from a direct solve, so the store must refuse.
        store.store("sig", 0.0, 10.0, TimeSet.interval(1.0, 5.0))
        near = 1.0 + SEAM_GUARD / 2
        assert store.lookup("sig", near, 8.0) is None
        assert get_counter("delta.store.seam_rejects").value == 1
        # Far from every stored feature the clip is safe.
        assert store.lookup("sig", 2.0, 8.0) is not None

    def test_widest_domain_wins(self):
        store = SolutionStore()
        store.store("sig", 2.0, 6.0, TimeSet.interval(3.0, 4.0))
        # Narrower domain for the same sig is ignored...
        store.store("sig", 3.0, 5.0, TimeSet.interval(3.0, 4.0))
        assert store.lookup("sig", 2.0, 6.0) is not None
        # ...a wider one replaces the entry.
        store.store("sig", 0.0, 8.0, TimeSet.interval(3.0, 4.0))
        assert store.lookup("sig", 1.0, 7.0) == TimeSet.interval(3.0, 4.0)

    def test_shifted_domain_replaces_entry(self):
        store = SolutionStore()
        store.store("sig", 0.0, 4.0, TimeSet.interval(1.0, 2.0))
        store.store("sig", 2.0, 6.0, TimeSet.interval(3.0, 4.0))
        # The old domain is gone; the new one serves.
        assert store.lookup("sig", 0.0, 4.0) is None
        assert store.lookup("sig", 2.0, 6.0) == TimeSet.interval(3.0, 4.0)

    def test_covers_is_read_only_and_counts_prime_skips(self):
        store = SolutionStore()
        store.store("sig", 0.0, 10.0, TimeSet.interval(1.0, 9.0))
        assert store.covers("sig", 2.0, 8.0)
        assert not store.covers("sig", 2.0, 12.0)
        assert not store.covers("nope", 2.0, 8.0)
        assert get_counter("delta.store.prime_skips").value == 1
        # covers() never bumps hit/miss accounting.
        assert get_counter("delta.store.hits").value == 0
        assert get_counter("delta.store.misses").value == 0

    def test_lru_eviction_bounded(self):
        store = SolutionStore(maxsize=2)
        store.store("a", 0.0, 1.0, TimeSet.empty())
        store.store("b", 0.0, 1.0, TimeSet.empty())
        store.store("c", 0.0, 1.0, TimeSet.empty())
        assert len(store) == 2
        assert store.lookup("a", 0.0, 1.0) is None
        assert get_counter("delta.store.evictions").value == 1

    def test_pickles_empty(self):
        # TimeSets and solver state are derived caches: a restored
        # runtime rebuilds them from replayed arrivals, so the store
        # ships no entries through a snapshot.
        store = SolutionStore()
        store.store("sig", 0.0, 4.0, TimeSet.interval(1.0, 2.0))
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone) == 0
        assert clone.maxsize == store.maxsize
        clone.store("sig", 0.0, 4.0, TimeSet.interval(1.0, 2.0))
        assert clone.lookup("sig", 0.0, 4.0) is not None


# ----------------------------------------------------------------------
# DeltaTracker
# ----------------------------------------------------------------------
class TestDeltaTracker:
    def test_first_arrival_is_added(self):
        tracker = DeltaTracker()
        change = tracker.observe("s", seg(0.0, 2.0))
        assert change.kind == "added"
        assert change.content_changed
        assert change.retired_seg_id is None

    def test_same_content_reemission_classified(self):
        tracker = DeltaTracker()
        tracker.observe("s", seg(0.0, 2.0, coeffs=(1.0, 2.0)))
        change = tracker.observe("s", seg(2.0, 4.0, coeffs=(1.0, 2.0)))
        assert change.kind == "reemitted"
        assert not change.content_changed

    def test_new_content_is_refit(self):
        tracker = DeltaTracker()
        tracker.observe("s", seg(0.0, 2.0, coeffs=(1.0, 2.0)))
        change = tracker.observe("s", seg(2.0, 4.0, coeffs=(9.0, 9.0)))
        assert change.kind == "refit"
        assert change.content_changed

    def test_overlapping_successor_retires_predecessor(self):
        tracker = DeltaTracker()
        first = seg(0.0, 4.0)
        tracker.observe("s", first)
        change = tracker.observe("s", seg(2.0, 6.0, coeffs=(9.0, 9.0)))
        assert change.retired_seg_id == first.seg_id
        assert get_counter("delta.changes.retired").value == 1

    def test_keys_and_streams_tracked_independently(self):
        tracker = DeltaTracker()
        tracker.observe("s", seg(0.0, 2.0, key=("a",)))
        change = tracker.observe("s", seg(0.0, 2.0, key=("b",)))
        assert change.kind == "added"
        other = tracker.observe("t", seg(2.0, 4.0, key=("a",)))
        assert other.kind == "added"

    def test_classify_is_pure(self):
        tracker = DeltaTracker()
        tracker.observe("s", seg(0.0, 2.0))
        before = get_counter("delta.changes.reemitted").value
        nxt = seg(2.0, 4.0)
        first = tracker.classify("s", nxt)
        second = tracker.classify("s", nxt)
        assert first == second
        assert get_counter("delta.changes.reemitted").value == before

    def test_change_counters(self):
        tracker = DeltaTracker()
        tracker.observe("s", seg(0.0, 2.0))
        tracker.observe("s", seg(2.0, 4.0))
        tracker.observe("s", seg(4.0, 6.0, coeffs=(7.0,)))
        assert get_counter("delta.changes.added").value == 1
        assert get_counter("delta.changes.reemitted").value == 1
        assert get_counter("delta.changes.refit").value == 1

    def test_pickle_keeps_trailer(self):
        tracker = DeltaTracker()
        tracker.observe("s", seg(0.0, 2.0))
        clone = pickle.loads(pickle.dumps(tracker))
        change = clone.observe("s", seg(2.0, 4.0))
        assert change.kind == "reemitted"

    def test_reset_forgets(self):
        tracker = DeltaTracker()
        tracker.observe("s", seg(0.0, 2.0))
        tracker.reset()
        assert tracker.observe("s", seg(2.0, 4.0)).kind == "added"
