"""Tests for the multi-query runtime and round-robin scheduler."""

import pytest

from repro.core.errors import PlanError
from repro.core.polynomial import Polynomial
from repro.core.segment import Segment
from repro.core.transform import to_continuous_plan
from repro.engine.lowering import to_discrete_plan
from repro.engine.scheduler import QueryRuntime
from repro.engine.tuples import StreamTuple
from repro.query import parse_query, plan_query


def planned(threshold):
    return plan_query(parse_query(f"select * from s where x > {threshold}"))


def seg(lo, hi, value):
    return Segment(("k",), lo, hi, {"x": Polynomial([value])})


def tup(time, value):
    return StreamTuple({"time": time, "x": value})


class TestRegistration:
    def test_register_and_names(self):
        rt = QueryRuntime()
        rt.register("q1", to_continuous_plan(planned(0)))
        assert rt.query_names == ["q1"]

    def test_duplicate_name_rejected(self):
        rt = QueryRuntime()
        rt.register("q1", to_continuous_plan(planned(0)))
        with pytest.raises(PlanError):
            rt.register("q1", to_continuous_plan(planned(1)))

    def test_unregister(self):
        rt = QueryRuntime()
        rt.register("q1", to_continuous_plan(planned(0)))
        rt.unregister("q1")
        assert rt.query_names == []
        with pytest.raises(PlanError):
            rt.unregister("q1")

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            QueryRuntime(batch_size=0)


class TestRouting:
    def test_segments_route_to_continuous_only(self):
        rt = QueryRuntime()
        rt.register("cont", to_continuous_plan(planned(0)))
        rt.register("disc", to_discrete_plan(planned(0)))
        assert rt.enqueue("s", seg(0, 1, 5.0))
        assert rt.queue_depths() == {"cont": 1, "disc": 0}

    def test_tuples_route_to_discrete_only(self):
        rt = QueryRuntime()
        rt.register("cont", to_continuous_plan(planned(0)))
        rt.register("disc", to_discrete_plan(planned(0)))
        assert rt.enqueue("s", tup(0.0, 5.0))
        assert rt.queue_depths() == {"cont": 0, "disc": 1}

    def test_unregistered_stream_raises(self):
        rt = QueryRuntime()
        rt.register("cont", to_continuous_plan(planned(0)))
        with pytest.raises(PlanError):
            rt.enqueue("other", seg(0, 1, 5.0))

    def test_known_stream_without_matching_engine_returns_false(self):
        # Stream "s" is registered, but only by a continuous query: a
        # raw tuple has no discrete consumer, which is a routing miss,
        # not a wiring error.
        rt = QueryRuntime()
        rt.register("cont", to_continuous_plan(planned(0)))
        assert not rt.enqueue("s", tup(0.0, 5.0))

    def test_fan_out_to_multiple_queries(self):
        rt = QueryRuntime()
        rt.register("a", to_continuous_plan(planned(0)))
        rt.register("b", to_continuous_plan(planned(100)))
        rt.enqueue("s", seg(0, 1, 50.0))
        assert rt.queue_depths() == {"a": 1, "b": 1}


class TestScheduling:
    def test_run_until_idle_processes_everything(self):
        rt = QueryRuntime(batch_size=4)
        rt.register("a", to_continuous_plan(planned(0)))
        rt.register("b", to_continuous_plan(planned(100)))
        for i in range(10):
            rt.enqueue("s", seg(i, i + 1, 50.0))
        processed = rt.run_until_idle()
        assert processed == 20  # ten segments to each of two queries
        assert rt.total_pending == 0
        assert len(rt.outputs("a")) == 10  # 50 > 0 everywhere
        assert rt.outputs("b") == []       # 50 > 100 never

    def test_round_robin_interleaves(self):
        rt = QueryRuntime(batch_size=1)
        rt.register("a", to_continuous_plan(planned(0)))
        rt.register("b", to_continuous_plan(planned(0)))
        for i in range(3):
            rt.enqueue("s", seg(i, i + 1, 1.0))
        rt.step()
        rt.step()
        stats = rt.stats()
        assert stats["a"] >= 1 and stats["b"] >= 1

    def test_outputs_drained_once(self):
        rt = QueryRuntime()
        rt.register("a", to_continuous_plan(planned(0)))
        rt.enqueue("s", seg(0, 1, 5.0))
        rt.run_until_idle()
        assert len(rt.outputs("a")) == 1
        assert rt.outputs("a") == []

    def test_step_on_empty_runtime(self):
        assert QueryRuntime().step() == 0


class TestBackPressure:
    def test_capacity_drops_arrivals(self):
        rt = QueryRuntime(queue_capacity=5)
        rt.register("a", to_continuous_plan(planned(0)))
        accepted = sum(
            rt.enqueue("s", seg(i, i + 1, 1.0)) for i in range(10)
        )
        assert accepted == 5
        assert rt.items_dropped == 5

    def test_draining_restores_capacity(self):
        rt = QueryRuntime(queue_capacity=2)
        rt.register("a", to_continuous_plan(planned(0)))
        rt.enqueue("s", seg(0, 1, 1.0))
        rt.enqueue("s", seg(1, 2, 1.0))
        assert not rt.enqueue("s", seg(2, 3, 1.0))
        rt.run_until_idle()
        assert rt.enqueue("s", seg(3, 4, 1.0))

    def test_mixed_engines_shared_stream(self):
        """The same logical query on both engines, fed the same data in
        each representation, agrees on what passes."""
        rt = QueryRuntime()
        rt.register("cont", to_continuous_plan(planned(10)))
        rt.register("disc", to_discrete_plan(planned(10)))
        # Segment value 20 covers [0, 4); tuples sampled from it.
        rt.enqueue("s", seg(0, 4, 20.0))
        for i in range(4):
            rt.enqueue("s", tup(float(i), 20.0))
        rt.run_until_idle()
        cont_out = rt.outputs("cont")
        disc_out = rt.outputs("disc")
        assert len(cont_out) == 1
        assert len(disc_out) == 4
        for row in disc_out:
            assert cont_out[0].contains_time(row.time)


class TestPendingCounter:
    """The maintained pending counters (no per-step queue re-summing)."""

    def _depth_sum(self, rt):
        return sum(
            len(q) for reg in rt._queries.values() for q in reg.queues.values()
        )

    def test_counters_track_queue_depths(self):
        rt = QueryRuntime(batch_size=1)
        rt.register("a", to_continuous_plan(planned(0)))
        rt.register("b", to_continuous_plan(planned(5)))
        for i in range(6):
            rt.enqueue("s", seg(i, i + 1, 10.0))
        # Fan-out: each arrival lands on both registrations.
        assert rt.total_pending == 12
        assert rt.queue_depths() == {"a": 6, "b": 6}
        assert rt.total_pending == self._depth_sum(rt)
        while rt.total_pending:
            rt.step()
            assert rt.total_pending == self._depth_sum(rt)
            assert rt.queue_depths() == {
                name: reg.pending for name, reg in rt._queries.items()
            }
        assert rt.total_pending == 0

    def test_unregister_releases_pending(self):
        rt = QueryRuntime(queue_capacity=4)
        rt.register("a", to_continuous_plan(planned(0)))
        for i in range(4):
            rt.enqueue("s", seg(i, i + 1, 1.0))
        assert not rt.enqueue("s", seg(9, 10, 1.0))  # at capacity
        rt.unregister("a")
        assert rt.total_pending == 0
        # Capacity is available again for a fresh registration.
        rt.register("b", to_continuous_plan(planned(0)))
        assert rt.enqueue("s", seg(0, 1, 1.0))

    def test_partial_drain_keeps_counters_consistent(self):
        rt = QueryRuntime(batch_size=2)
        rt.register("a", to_continuous_plan(planned(0)))
        for i in range(5):
            rt.enqueue("s", seg(i, i + 1, 1.0))
        processed = rt.step()
        assert processed == 2
        assert rt.total_pending == 3 == self._depth_sum(rt)
        rt.run_until_idle()
        assert rt.total_pending == 0 == self._depth_sum(rt)


class TestCheckpointSize:
    """Compile memos and solution stores are derived caches, so a
    snapshot does not carry them and does not grow with the number of
    distinct segments a query has processed."""

    @staticmethod
    def _snapshot_bytes(segments: int) -> int:
        import pickle

        rt = QueryRuntime(batch_size=16)
        rt.register("f", to_continuous_plan(planned(0)))
        for i in range(segments):
            # Distinct content per segment: every one compiles anew.
            rt.enqueue("s", Segment(
                ("k",), float(i), float(i + 1),
                {"x": Polynomial([0.5 - 0.01 * i, 0.1 + 0.001 * i])},
            ))
            rt.run_until_idle()
            rt.outputs("f")
        return len(pickle.dumps(rt.checkpoint_state()))

    def test_snapshot_does_not_grow_with_segments_processed(self):
        few = self._snapshot_bytes(20)
        many = self._snapshot_bytes(400)
        # Counters and the segment-id watermark may widen by a few bytes.
        assert many <= few + 64, (few, many)
