"""Round-vs-loop parity: one ``push_round`` equals a ``push`` per item.

``ContinuousPlan.push_round`` runs every node once per round over its
inputs sorted by arrival, and the filter solves all its inputs in one
kernel sweep.  Hypothesis drives randomized recordings — several keys,
re-emitted content, overlapping ranges — through filter, windowed
aggregate and join plans (MACD, FOLLOWING, collision) twice: once as a
single round, once item by item.  The contract under test, with the
``incremental`` knob off and on:

* the outputs are equal in value and order (``serialize_results``);
* every node ends with the same ``segments_in`` / ``segments_out``,
  and the solution store sees the same hits and misses;
* one more ``push`` afterwards gives equal outputs, so the operator
  state the round leaves behind is the state the loop leaves;
* a poisoned solve raises the same typed error from the historical
  processor as from the per-segment loop.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.bench.queries import (
    collision_planned,
    following_planned,
    macd_planned,
)
from repro.core.batch_solver import incremental_mode, set_fault_hook
from repro.core.errors import PredicateError, SolverError, SolverFailure
from repro.core.modes import HistoricalProcessor
from repro.core.polynomial import Polynomial
from repro.core.segment import Segment
from repro.core.solve_cache import reset_global_solve_cache
from repro.core.transform import to_continuous_plan
from repro.engine.metrics import get_counter, reset_counters
from repro.engine.tuples import StreamTuple
from repro.query import parse_query, plan_query
from repro.server.protocol import serialize_results
from repro.testing.faults import inject_solver_faults


def _sql(text):
    return lambda: plan_query(parse_query(text))


#: name -> (planned query factory, stream, key field, modeled attributes)
PLANS = {
    "filter": (
        _sql("select * from ticks where x > 1 and x < 4"), "ticks", "sym",
        ("x",),
    ),
    "aggregate": (
        _sql(
            "select sym, avg(x) as ax from ticks [size 3 advance 1] "
            "group by sym"
        ),
        "ticks", "sym", ("x",),
    ),
    "macd": (
        lambda: macd_planned(short=2.0, long=5.0, slide=1.0),
        "trades", "symbol", ("price",),
    ),
    "following": (
        lambda: following_planned(join_window=2.0, avg_window=2.0, slide=1.0),
        "vessels", "id", ("x", "y"),
    ),
    "collision": (
        lambda: collision_planned(radius=3.0), "objects", "id", ("x", "y"),
    ),
}

KEYS = ("a", "b", "c")


@st.composite
def recordings(draw, attrs, key_field):
    """Segments of a few keys in arrival order; some re-emit earlier
    content over a moved range, some overlap their predecessor, some
    repeat it (a redelivery, which the solution store can serve)."""
    segments = []
    clock: dict = {}
    content: dict = {}
    last: dict = {}
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        key = draw(st.sampled_from(KEYS))
        kind = draw(st.sampled_from(("fit", "reemit", "overlap", "repeat")))
        if kind == "repeat" and key in last:
            prev = last[key]
            segments.append(Segment(
                prev.key, prev.t_start, prev.t_end, dict(prev.models),
                constants=dict(prev.constants),
            ))
            continue
        if kind == "reemit" and key in content:
            models = content[key]
        else:
            models = {
                attr: Polynomial([
                    float(draw(st.integers(-4, 6))),
                    draw(st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0))),
                ])
                for attr in attrs
            }
        start = clock.get(key, float(draw(st.integers(0, 2))))
        if kind == "overlap" and key in clock:
            start -= 0.5
        length = draw(st.sampled_from((1.0, 2.0, 3.0)))
        content[key] = models
        clock[key] = start + length
        last[key] = Segment(
            (key,), start, start + length, dict(models),
            constants={key_field: key},
        )
        segments.append(last[key])
    return segments


def _extra(segments, key_field, attrs):
    """One more arrival, overlapping the recording's latest segments,
    for the state check."""
    start = max(s.t_start for s in segments)
    return Segment(
        ("a",), start, start + 3.0,
        {attr: Polynomial([2.5]) for attr in attrs},
        constants={key_field: "a"},
    )


def _run(name, segments, incremental, as_round):
    factory, stream, key_field, attrs = PLANS[name]
    reset_global_solve_cache()
    reset_counters()
    with incremental_mode(incremental):
        query = to_continuous_plan(factory())
        if as_round:
            outputs = query.push_round([(stream, s) for s in segments])
        else:
            outputs = []
            for s in segments:
                outputs.extend(query.push(stream, s))
        stats = query.plan.stats()
        stats["store"] = tuple(
            get_counter(f"delta.store.{counter}").value
            for counter in ("hits", "misses", "seam_rejects")
        )
        after = query.push(stream, _extra(segments, key_field, attrs))
    return serialize_results(outputs), stats, serialize_results(after)


@pytest.mark.parametrize("incremental", [False, True], ids=["full", "incr"])
@pytest.mark.parametrize("name", sorted(PLANS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_round_matches_per_item_push(name, incremental, data):
    _, _, key_field, attrs = PLANS[name]
    segments = data.draw(recordings(attrs, key_field))
    round_out, round_stats, round_after = _run(
        name, segments, incremental, as_round=True
    )
    loop_out, loop_stats, loop_after = _run(
        name, segments, incremental, as_round=False
    )
    assert round_out == loop_out
    assert round_stats == loop_stats
    assert round_after == loop_after


def test_round_is_not_vacuous():
    """The fixed recording below reaches every plan's output, so the
    property above compares real outputs, not two empty lists."""
    for name, (_, _, key_field, attrs) in PLANS.items():
        segments = [
            Segment(
                (k,), float(i), float(i + 2),
                {a: Polynomial([1.0 + j + i % 3, 0.5 - j]) for j, a in
                 enumerate(attrs)},
                constants={key_field: k},
            )
            for i in range(8) for k in ("a", "b")
        ]
        outputs, _, _ = _run(name, segments, False, as_round=True)
        assert outputs, name


# ----------------------------------------------------------------------
# historical mode: bit-exact outputs and typed failures
# ----------------------------------------------------------------------
def _recording():
    from repro.workloads.nyse import NyseConfig, NyseTradeGenerator

    gen = NyseTradeGenerator(NyseConfig(rate=50.0, seed=7, num_symbols=3))
    trades = [StreamTuple(t) for t in gen.tuples(400)]
    return HistoricalProcessor(
        trades, attrs=("price",), tolerance=0.01,
        key_fields=("symbol",), constant_fields=("symbol",),
    )


def _per_segment(hist, planned):
    query = to_continuous_plan(planned)
    stream = next(iter(planned.stream_sources))
    outputs = []
    for segment in hist.segments:
        outputs.extend(query.push(stream, segment))
    return outputs


def _error(fn):
    try:
        fn()
    except SolverError as exc:
        return type(exc), getattr(exc, "reason", None)
    return None


def test_historical_run_matches_per_segment_loop():
    hist = _recording()
    assert hist.segment_count > 10
    for short, long in ((2.0, 5.0), (1.5, 4.0)):
        planned = macd_planned(short=short, long=long, slide=0.5)
        reset_global_solve_cache()
        got = serialize_results(hist.run(planned))
        reset_global_solve_cache()
        want = serialize_results(_per_segment(hist, planned))
        assert got and got == want


@pytest.mark.parametrize("kind", ["raise", "nan"])
def test_historical_failure_matches_per_segment_loop(kind):
    """A fault on one solve raises the same SolverError type and reason
    from the round as from the per-segment loop.  The hook sees cache
    misses in the same order on both paths, so the same seed poisons
    the same solve."""
    hist = _recording()
    planned = macd_planned(short=2.0, long=5.0, slide=0.5)
    errors = []
    for run in (lambda: hist.run(planned),
                lambda: _per_segment(hist, planned)):
        reset_global_solve_cache()
        with inject_solver_faults(rate=0.1, kind=kind, seed=5) as stats:
            errors.append(_error(run))
        assert stats.injected >= 1
    assert errors[0] is not None
    assert errors[0][0] is SolverFailure
    assert errors[0] == errors[1]


def _poison_slope(task):
    """Fail any solve of a row whose slope is 7: content-addressed, so
    both paths fault on the same input."""
    if len(task[0].coeffs) > 1 and task[0].coeffs[1] == 7.0:
        raise SolverFailure("injected", "poisoned slope")
    return None


@pytest.mark.parametrize("order", ["solve-first", "compile-first"])
def test_earliest_failing_input_raises(order):
    """A round raises the error of its earliest failing input, whether
    that input fails to compile (no model for the filtered attribute)
    or to solve, exactly as pushing the inputs one at a time does."""
    ok = Segment(("a",), 0.0, 2.0, {"x": Polynomial([0.0, 1.0])},
                 constants={"sym": "a"})
    poisoned = Segment(("b",), 0.0, 2.0, {"x": Polynomial([0.0, 7.0])},
                       constants={"sym": "b"})
    unmodeled = Segment(("c",), 0.0, 2.0, {"y": Polynomial([1.0])},
                        constants={"sym": "c"})
    bad = [poisoned, unmodeled]
    if order == "compile-first":
        bad.reverse()
    segments = [ok, *bad, ok]
    factory, stream, _, _ = PLANS["filter"]
    raised = []
    previous = set_fault_hook(_poison_slope)
    try:
        for as_round in (True, False):
            reset_global_solve_cache()
            query = to_continuous_plan(factory())
            try:
                if as_round:
                    query.push_round([(stream, seg) for seg in segments])
                else:
                    for seg in segments:
                        query.push(stream, seg)
            except (SolverError, PredicateError) as exc:
                raised.append((type(exc), str(exc)))
    finally:
        set_fault_hook(previous)
    want = SolverFailure if order == "solve-first" else PredicateError
    assert len(raised) == 2 and raised[0][0] is want
    assert raised[0] == raised[1]
