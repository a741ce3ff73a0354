"""The benchmark's own tests: its gates fail on a wrong result, and its
span accounting adds up.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _perturb_first_float(results: list[dict]) -> list[dict]:
    """A copy with one float of one result nudged by one part in 1e12."""
    bad = copy.deepcopy(results)
    row = bad[len(bad) // 2]
    stack = [row]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, float):
                node[key] = value * (1 + 1e-12) + 1e-12
                return bad
            if isinstance(value, (dict, list)):
                stack.append(value)
    raise AssertionError("no float to perturb")


class TestStreamGates:
    def _phases(self, spec, seed=3, n=300):
        tuples = wl.moving_tuples(spec, seed, n)
        return [tuples[:200], tuples[200:]]

    def test_reference_passes_its_own_gate(self):
        spec = wl.FLEET_MIXED
        phases = self._phases(spec)
        expected = wl.stream_reference(spec, phases)
        received = {mode: copy.deepcopy(wire)
                    for mode, (wire, _raw) in expected.items()}
        assert wl.exact_gate(received, expected) == []

    def test_one_perturbed_result_fails_the_gate(self):
        spec = wl.FLEET_MIXED
        phases = self._phases(spec)
        expected = wl.stream_reference(spec, phases)
        for mode, (wire, _raw) in expected.items():
            assert wire, f"{mode} reference produced no results"
            received = {m: copy.deepcopy(w)
                        for m, (w, _r) in expected.items()}
            received[mode] = _perturb_first_float(wire)
            errors = wl.exact_gate(received, expected)
            assert len(errors) == 1 and errors[0].startswith(mode)

    def test_missing_or_extra_result_fails_the_gate(self):
        spec = wl.FLEET_MIXED
        expected = wl.stream_reference(spec, self._phases(spec))
        wire = expected["discrete"][0]
        assert wl.exact_gate({"continuous": expected["continuous"][0],
                              "discrete": wire[:-1]}, expected)
        assert wl.exact_gate({"continuous": expected["continuous"][0],
                              "discrete": wire + wire[:1]}, expected)

    def test_accuracy_gate_bounds(self):
        bounds = {"max_false_neg": 0.1, "max_false_pos": 0.05}
        assert wl.accuracy_gate(0.1, 0.05, bounds) == []
        assert len(wl.accuracy_gate(0.11, 0.0, bounds)) == 1
        assert len(wl.accuracy_gate(0.0, 0.06, bounds)) == 1
        assert len(wl.accuracy_gate(float("nan"), 0.0, bounds)) == 1


class TestWhatifGate:
    def _run(self, seed=4, queries=3):
        from repro.core.modes import HistoricalProcessor
        from repro.engine.tuples import StreamTuple
        from repro.server.protocol import serialize_results

        inputs = wl.whatif_inputs(seed, queries)
        hist = HistoricalProcessor(
            [StreamTuple(t) for t in inputs["trades"]],
            tolerance=inputs["tolerance"], **wl.WHATIF["fit"])
        out = {"queries": [
            {"params": p,
             "results": serialize_results(hist.run(wl.planned_macd(p)))}
            for p in inputs["queries"]
        ]}
        return inputs, out

    def test_sweep_passes_and_one_perturbed_result_fails(self):
        inputs, out = self._run()
        errors, accuracy = run.whatif_gate(inputs, out, seed=4)
        assert errors == []
        assert accuracy["checked_queries"] == len(out["queries"])
        target = next(q for q in out["queries"] if q["results"])
        target["results"] = _perturb_first_float(target["results"])
        errors, _ = run.whatif_gate(inputs, out, seed=4)
        assert len(errors) == 1 and "differ" in errors[0]


class TestSpanAccounting:
    @staticmethod
    def _span(name, t0, t1, thread="MainThread", parent=None, attrs=None):
        return [name, t0, t1, thread, parent, attrs]

    def test_nested_spans_close_exactly(self):
        s = self._span
        proc = {"role": "whatif", "windows": [[0.0, 10.0]], "spans": [
            s("operators.push", 1.0, 5.0),
            s("eqsys.build", 2.0, 3.0, parent=0),
            s("solver", 3.0, 4.5, parent=0),
            s("intervals", 6.0, 7.0),
        ]}
        by_name, wall, unattributed, closure = spans.blocking_path(
            (0.0, 10.0), [proc])
        assert by_name == {"operators.push": 1.5, "eqsys.build": 1.0,
                           "solver": 1.5, "intervals": 1.0}
        assert wall == 10.0 and unattributed == 5.0
        assert closure == 0.0

    def test_overlapping_path_threads_are_charged_once(self):
        s = self._span
        proc = {"role": "server", "windows": [[0.0, 10.0]], "spans": [
            s("bridge.ingest", 0.0, 6.0, thread="pulse-engine"),
            s("protocol.encode", 4.0, 8.0, thread="pulse-server"),
        ]}
        by_name, _wall, unattributed, closure = spans.blocking_path(
            (0.0, 10.0), [proc])
        assert by_name == {"bridge.ingest": 6.0, "protocol.encode": 2.0}
        assert unattributed == 2.0 and closure == 0.0

    def test_double_counted_time_breaks_closure(self):
        s = self._span
        proc = {"role": "router", "windows": [[0.0, 10.0]], "spans": [
            s("router.request", 0.0, 6.0, thread="pulse-router-session-1"),
            s("router.request", 4.0, 8.0, thread="pulse-router-session-2"),
        ]}
        _by, _wall, unattributed, closure = spans.blocking_path(
            (0.0, 10.0), [proc])
        assert unattributed == 2.0
        assert abs(closure - 0.2) < 1e-12

    def test_callee_spans_count_only_while_the_caller_waits(self):
        s = self._span
        client = {"role": "client", "windows": [[0.0, 10.0]], "spans": [
            s("loadgen.pass", 0.0, 10.0),
            s("client.wait", 2.0, 8.0, parent=0),
        ]}
        server = {"role": "server", "windows": [[2.0, 8.0]], "spans": [
            s("bridge.ingest", 1.0, 5.0, thread="pulse-engine"),
            s("wal.fsync", 3.0, 9.0, thread="wal-sync"),  # off the path
            s("server.request", 1.5, 7.5, thread="pulse-server",
              attrs={"async": True}),
        ]}
        by_name, _wall, unattributed, closure = spans.blocking_path(
            (0.0, 10.0), [client, server])
        assert by_name == {"loadgen.pass": 4.0, "bridge.ingest": 3.0,
                           "server.request": 2.5}
        assert abs(unattributed - 0.5) < 1e-12
        assert closure == 0.0

    def test_mark_delta(self):
        marks = [
            {"name": "a", "counts": {"x": 1.0, "scheduler.queue_depth_max":
                                     7}, "counters": {"wal.fsyncs": 3},
             "solve_cache_entries": 1},
            {"name": "b", "counts": {"x": 4.0, "scheduler.queue_depth_max":
                                     2}, "counters": {"wal.fsyncs": 10},
             "solve_cache_entries": 5},
        ]
        delta = spans.mark_delta(marks, "a", "b")
        assert delta["x"] == 3.0 and delta["wal.fsyncs"] == 7
        assert delta["scheduler.queue_depth_max"] == 2
        assert delta["solve_cache.entries"] == 5


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([5.0], 90) == 5.0


def test_scaled_times_follow_the_neighbouring_probes():
    ref = run.PROBE_REF_S
    # A probe at the reference speed leaves a time as it is; a host
    # twice as slow halves it.  One outlying probe among its neighbours
    # moves nothing.
    assert run.scaled_times([0.04, 0.02], [ref, ref], 1) == [0.04, 0.02]
    slow = [2 * ref] * 5
    assert run.scaled_times([0.08] * 5, slow, 2) == [0.04] * 5
    assert run.scaled_times([0.04] * 5, [ref, ref, 9 * ref, ref, ref],
                            2) == [0.04] * 5
