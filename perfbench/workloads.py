"""Workload definitions, seeded inputs, in-process references and gates.

Each workload is fixed here, not by the benchmark's caller: the query,
the generator settings, batch sizes and the open-loop rate.  Only the
seed varies between runs.  README.md records why each workload exists
and which layers it loads.

The references run the same query in the benchmark process, outside any
timed region, straight through the library (fitting builder, compiled
plan), with no server, wire, WAL or router in between.  The gates compare
what the system delivered against them bit for bit, and compare the
continuous output against the discrete engine on the same tuples (paper
Sec. IV-A) within fixed bounds.
"""

from __future__ import annotations

import math
import random

from repro.bench.accuracy import compare_outputs
from repro.bench.queries import COLLISION_SQL, macd_planned
from repro.core.transform import to_continuous_plan
from repro.engine.lowering import to_discrete_plan
from repro.engine.tuples import StreamTuple
from repro.fitting.model_builder import StreamModelBuilder, build_segments
from repro.query import parse_query, plan_query
from repro.server.protocol import serialize_results
from repro.workloads import (
    MovingObjectConfig,
    MovingObjectGenerator,
    NyseConfig,
    NyseTradeGenerator,
)

#: Collision radius of the intro query: wide enough that collisions, and
#: the results they push, occur on every seed.  The solver's work does
#: not depend on it (every time-overlapping pair is solved).
COLLISION_RADIUS = 1000.0

STREAM_JOIN = {
    "sut": "server",
    "query": COLLISION_SQL.format(radius_sq=COLLISION_RADIUS ** 2),
    "stream": "objects",
    "fit": {"attrs": ["x", "y"], "key_fields": ["id"]},
    "subscribers": (("continuous", 0.5),),
    "generator": {"num_objects": 10, "rate": 100.0,
                  "tuples_per_segment": 50, "noise": 0.5},
    "warmup": 100,
    #: Nominal closed-loop rate (tuples/s, the seed commit on a 2-CPU
    #: host): it sizes the closed-loop pass to its share of --seconds.
    "closed_rate": 400.0,
    "closed_batch": 25,
    "open_rate": 120.0,
    "open_batch": 10,
    #: Accuracy against the discrete engine: output keyed by object
    #: pair, matched within one per-object sampling period (0.1 s).
    "accuracy": {"row_key": ("r.id", "s.id"), "slack": 0.1,
                 "max_false_neg": 0.10, "max_false_pos": 0.10},
}

FLEET_MIXED = {
    "sut": "route",
    "workers": 2,
    "query": "select * from objects where x > 0",
    "stream": "objects",
    "fit": {"attrs": ["x", "y"], "key_fields": ["id"]},
    "subscribers": (("continuous", 0.5), ("discrete", None)),
    #: 100 objects: the share of keys passing ``x > 0`` (and with it the
    #: result volume every layer of this workload carries) then varies
    #: little from seed to seed.
    "generator": {"num_objects": 100, "rate": 1000.0,
                  "tuples_per_segment": 50, "noise": 0.5},
    "warmup": 200,
    "closed_rate": 900.0,
    "closed_batch": 100,
    "open_rate": 160.0,
    "open_batch": 10,
    "accuracy": {"row_key": ("id",), "slack": 0.1,
                 "max_false_neg": 0.05, "max_false_pos": 0.05},
}

WHATIF = {
    "recording": {"num_symbols": 5, "rate": 50.0, "volatility": 1e-4,
                  "drift_period": 5.0},
    "trades": 2000,
    "fit": {"attrs": ("price",), "key_fields": ("symbol",),
            "constant_fields": ("symbol",)},
    #: Model size the fit tolerance is calibrated to per recording: a
    #: query's cost grows with the segments it reads, and at a fixed
    #: tolerance the segment count of a 40 s recording swings by a third
    #: between seeds (drift regimes and price levels are random).
    "segments": 48,
    #: Set-up samples (fits of the recording) per what-if process.
    "fits": 3,
    "warmup": 3,
    #: Nominal queries/s (seed commit, 2-CPU host, which sustains about
    #: 20 in its contended phases and 33 in its quiet ones): the sweep
    #: runs the first --seconds x rate queries of the seeded list, split
    #: over the run's what-if processes.
    "rate": 24.0,
    #: Queries re-run in-process (fresh caches) for the bit-exact and
    #: accuracy gates; a seeded sample, since the discrete engine costs
    #: about twice a query.
    "checked": 8,
    "accuracy": {"max_false_neg": 0.25, "max_false_pos": 0.10},
}

STREAMING = {"stream-join": STREAM_JOIN, "fleet-mixed": FLEET_MIXED}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def moving_tuples(spec: dict, seed: int, count: int) -> list[dict]:
    gen = MovingObjectGenerator(
        MovingObjectConfig(seed=seed, **spec["generator"]))
    return [dict(t) for t in gen.tuples(count)]


def calibrate_tolerance(trades: list[dict]) -> float:
    """The largest fit tolerance (bisection in log space) at which the
    recording still fits into at least ``WHATIF["segments"]`` segments."""
    tuples = [StreamTuple(t) for t in trades]
    lo, hi = math.log(0.002), math.log(0.5)
    for _ in range(16):
        mid = (lo + hi) / 2
        fitted = build_segments(tuples, tolerance=math.exp(mid),
                                constants=WHATIF["fit"]["constant_fields"],
                                attrs=WHATIF["fit"]["attrs"],
                                key_fields=WHATIF["fit"]["key_fields"])
        if len(fitted) >= WHATIF["segments"]:
            lo = mid
        else:
            hi = mid
    return math.exp(lo)


def whatif_inputs(seed: int, queries: int) -> dict:
    """The recording, its fit tolerance and ``queries`` distinct sweep
    parameterizations (after the warm-up ones), all from the seed."""
    gen = NyseTradeGenerator(NyseConfig(seed=seed, **WHATIF["recording"]))
    trades = [dict(t) for t in gen.tuples(WHATIF["trades"])]
    rng = random.Random(seed)
    seen: set = set()
    params: list = []
    while len(params) < WHATIF["warmup"] + queries:
        short = round(rng.uniform(1.0, 4.0), 2)
        long = round(short * rng.uniform(2.0, 4.0), 2)
        slide = rng.choice((0.5, 1.0))
        if (short, long, slide) not in seen:
            seen.add((short, long, slide))
            params.append([short, long, slide])
    return {"trades": trades, "tolerance": calibrate_tolerance(trades),
            "warmup": params[:WHATIF["warmup"]],
            "queries": params[WHATIF["warmup"]:]}


def planned_macd(params):
    short, long, slide = params
    return macd_planned(short=short, long=long, slide=slide)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def push_all(plan, stream: str, items) -> list:
    """Every output of ``plan`` over ``items`` (tuples or segments)."""
    out: list = []
    for item in items:
        out.extend(plan.push(stream, item))
    return out


def discrete_plan(spec: dict):
    return to_discrete_plan(plan_query(parse_query(spec["query"])))


def stream_reference(spec: dict, phases: list[list[dict]]) -> dict:
    """Each subscriber mode's output over ``phases`` (a flush after
    each), executed in-process; ``{mode: (wire_results, raw_outputs)}``.

    Mirrors the server's shared graph: continuous tuples pass through one
    fitting builder at the subscription bound, a flush finishes the open
    segments; the discrete plan sees every tuple.
    """
    fit = spec["fit"]
    stream = spec["stream"]
    out = {}
    for mode, bound in spec["subscribers"]:
        if mode == "continuous":
            plan = to_continuous_plan(plan_query(parse_query(spec["query"])))
            builder = StreamModelBuilder(
                tuple(fit["attrs"]), bound,
                key_fields=tuple(fit["key_fields"]),
                constants=tuple(fit["key_fields"]),
            )
            raw: list = []
            for phase in phases:
                for tup in phase:
                    segments = builder.add(StreamTuple(tup))
                    raw += push_all(plan, stream, segments)
                raw += push_all(plan, stream, builder.finish())
        else:
            raw = push_all(discrete_plan(spec), stream,
                           (StreamTuple(t) for p in phases for t in p))
        out[mode] = (serialize_results(raw), raw)
    return out


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------
def exact_gate(received: dict, expected: dict) -> list[str]:
    """Bit-exact comparison per subscriber; returns the failures."""
    errors = []
    for mode, (want, _raw) in expected.items():
        got = received.get(mode)
        if got == want:
            continue
        if got is None:
            errors.append(f"{mode}: no results received")
            continue
        first = next((i for i, (a, b) in enumerate(zip(got, want))
                      if a != b), min(len(got), len(want)))
        errors.append(
            f"{mode}: {len(got)} results, reference {len(want)}; "
            f"first difference at {first}")
    return errors


def stream_accuracy(spec: dict, rows: list, segments: list):
    acc = spec["accuracy"]
    fields = acc["row_key"]
    return compare_outputs(
        rows, segments,
        row_key=lambda r: tuple(r[f] for f in fields),
        segment_key=lambda s: tuple(s.constants.get(f) for f in fields),
        time_slack=acc["slack"],
        discrete_sample_period=acc["slack"],
    )


def whatif_accuracy(trades: list, params, segments: list):
    """Continuous MACD against the discrete engine for one query.

    Discrete rows before the long window first fills are dropped: the
    discrete engine averages partial windows there, the continuous
    window function needs full coverage (a documented semantic gap, not
    an error).
    """
    _short, long, slide = params
    rows = push_all(to_discrete_plan(planned_macd(params)), "trades",
                    (StreamTuple(t) for t in trades))
    start = trades[0]["time"] + long
    rows = [r for r in rows if r.time >= start]
    return compare_outputs(
        rows, segments,
        row_key=lambda r: (r["symbol"],),
        segment_key=lambda s: (s.constants.get("symbol"),),
        time_slack=slide,
        probe_period=slide / 2.0,
        discrete_sample_period=slide,
    )


def accuracy_gate(false_neg: float, false_pos: float, bounds: dict
                  ) -> list[str]:
    errors = []
    if not false_neg <= bounds["max_false_neg"]:
        errors.append(f"false-negative rate {false_neg:.4f} exceeds "
                      f"{bounds['max_false_neg']}")
    if not false_pos <= bounds["max_false_pos"]:
        errors.append(f"false-positive rate {false_pos:.4f} exceeds "
                      f"{bounds['max_false_pos']}")
    return errors
