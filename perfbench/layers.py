"""Per-layer metrics of a traced run, derived from the dumped spans.

Time metrics (``*.self_s``) are self times on the blocking path of the
closed-loop pass (the whole sweep for ``whatif-sweep``): a span's time
inside the windows its caller waited for it, minus its children.  Counts
and ratios are deltas of the traced counts and of the library's counter
registry between the ``closed_start``/``closed_end`` marks (sweep marks
for ``whatif-sweep``), summed over the system's processes.  A layer the
workload does not use reads 0.  README.md maps each metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import spans

#: span name -> the per-layer self-time metric it is charged to.  Spans
#: not listed (set-up commands; fsyncs, reported as ``wal.fsync_s`` over
#: all threads) still count in the closure check.
SELF_METRICS = {
    "protocol.decode": "protocol.decode.self_s",
    "protocol.encode": "protocol.encode.self_s",
    "protocol.serialize": "protocol.encode.self_s",
    "router.request": "router.self_s",
    "server.request": "server.request.self_s",
    "server.deliver": "server.deliver.self_s",
    "bridge.ingest": "bridge.ingest.self_s",
    "bridge.flush": "bridge.flush.self_s",
    "wal.append": "wal.append.self_s",
    "wal.checkpoint": "wal.checkpoint.self_s",
    "fit.add": "fit.add.self_s",
    "fit.finish": "fit.add.self_s",
    "scheduler.run": "scheduler.run.self_s",
    "operators.push": "operators.push.self_s",
    "discrete.push": "discrete.push.self_s",
    "eqsys.build": "eqsys.build.self_s",
    "eqsys.solve": "eqsys.solve.self_s",
    "solver": "solver.self_s",
    "solver.roots": "solver.self_s",
    "intervals": "intervals.self_s",
    "query.plan": "query.plan.self_s",
    "loadgen.pass": "loadgen.self_s",
}

#: Every per-layer metric the traced run prints, with its unit.
UNITS = {
    "protocol.decode.self_s": "s", "protocol.encode.self_s": "s",
    "protocol.bytes_in": "bytes", "protocol.bytes_out": "bytes",
    "router.worker_requests_per_batch": "count",
    "router.worker_wait_s": "s", "router.self_s": "s",
    "router.results_merged": "count",
    "server.request.self_s": "s", "server.deliver.self_s": "s",
    "bridge.queue_wait_s": "s", "bridge.ingest.self_s": "s",
    "bridge.flush.self_s": "s",
    "server.results_sent": "count", "server.results_dropped": "count",
    "wal.append.self_s": "s", "wal.fsyncs": "count",
    "wal.fsyncs_per_batch": "count", "wal.fsync_s": "s",
    "wal.bytes": "bytes", "wal.checkpoint.self_s": "s",
    "fit.add.self_s": "s", "fit.segments_per_tuple": "ratio",
    "scheduler.run.self_s": "s", "scheduler.items": "count",
    "scheduler.queue_depth_max": "count",
    "delta.refit": "count", "delta.reemitted": "count",
    "delta.store_hit_ratio": "ratio",
    "operators.push.self_s": "s", "discrete.push.self_s": "s",
    "eqsys.build.self_s": "s", "eqsys.solve.self_s": "s",
    "eqsys.systems_built": "count",
    "join.pairs_emitted_ratio": "ratio", "filter.pass_ratio": "ratio",
    "solver.calls": "count", "solver.rows": "count",
    "solver.rows_per_call": "count", "solver.row_solves": "count",
    "solver.self_s": "s",
    "solve_cache.hit_ratio": "ratio", "solve_cache.entries": "count",
    "intervals.self_s": "s",
    "query.plan.self_s": "s",
    "loadgen.lag_p90_ms": "ms", "loadgen.self_s": "s",
    "client.wait_s": "s",
    "trace.unattributed_frac": "ratio", "trace.overhead_frac": "ratio",
    "trace.closure_err": "ratio",
}

#: The closure rule: layer self times plus unattributed time must sum to
#: the blocking path's wall time within this share.
CLOSURE_LIMIT = 0.05


def closure_gate(notes: dict) -> list[str]:
    if notes["closure_err"] <= CLOSURE_LIMIT:
        return []
    return [f"closure check: layer self times plus unattributed time "
            f"miss the wall time by {notes['closure_err']:.1%} "
            f"(limit {CLOSURE_LIMIT:.0%})"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _load(path) -> dict:
    return json.loads(Path(path).read_text())


def _deltas(procs: list[dict], start: str, end: str) -> dict:
    total: dict = defaultdict(float)
    depth = 0.0
    for proc in procs:
        delta = spans.mark_delta(proc["marks"], start, end)
        depth = max(depth, delta.pop("scheduler.queue_depth_max"))
        for key, value in delta.items():
            total[key] += value
    total["scheduler.queue_depth_max"] = depth
    return total


def _common(by_name: dict, d: dict, wall: float, unattributed: float,
            closure: float) -> dict:
    """Metrics every workload derives the same way."""
    m = {name: 0.0 for name in UNITS}
    for span_name, seconds in by_name.items():
        if span_name in SELF_METRICS:
            m[SELF_METRICS[span_name]] += seconds
    m.update({
        "protocol.bytes_in": d["protocol.bytes_in"],
        "protocol.bytes_out": d["protocol.bytes_out"],
        "router.worker_requests_per_batch": _ratio(
            d["router.worker_ingests"], d["router.ingests"]),
        "router.results_merged": d["router.results_merged"],
        "bridge.queue_wait_s": d["bridge.queue_wait_s"],
        "server.results_sent": d["server.results_sent"],
        "server.results_dropped": d["server.results_dropped"],
        "wal.fsyncs": d["wal.fsyncs"],
        "wal.fsyncs_per_batch": _ratio(d["wal.fsyncs"], d["bridge.ingests"]),
        "wal.bytes": d["wal.bytes"],
        "fit.segments_per_tuple": _ratio(d["fit.segments"],
                                         d["fit.tuples"]),
        "scheduler.items": d["scheduler.items"],
        "scheduler.queue_depth_max": d["scheduler.queue_depth_max"],
        "delta.refit": d["delta.changes.refit"],
        "delta.reemitted": d["delta.changes.reemitted"],
        "delta.store_hit_ratio": _ratio(
            d["delta.store.hits"],
            d["delta.store.hits"] + d["delta.store.misses"]),
        "eqsys.systems_built": d["eqsys.systems_built"],
        "join.pairs_emitted_ratio": _ratio(d["join.pairs_emitted"],
                                           d["join.pairs_probed"]),
        "filter.pass_ratio": _ratio(d["filter.segments_passed"],
                                    d["filter.segments_in"]),
        "solver.calls": d["solver.calls"],
        "solver.rows": d["solver.rows"],
        "solver.rows_per_call": _ratio(d["solver.rows"], d["solver.calls"]),
        "solver.row_solves": d["equation_system.row_solves"],
        "solve_cache.hit_ratio": _ratio(
            d["solve_cache.hits"],
            d["solve_cache.hits"] + d["solve_cache.misses"]),
        "solve_cache.entries": d["solve_cache.entries"],
        "trace.unattributed_frac": unattributed / wall,
        "trace.closure_err": closure,
    })
    return m


def stream_layers(client: dict, trace_out: Path, worker_ports: list[int],
                  window: tuple[float, float], setup_end: float,
                  lag_p90_ms: float, traced_tps: float,
                  base_tps: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced streaming run."""
    front = _load(trace_out)
    workers = [_load(f"{trace_out}.worker{i}")
               for i in range(len(worker_ports))]
    t0, t1 = window
    client["windows"] = [[t0, t1]]
    client_waits = spans.intersect(
        spans.wait_windows(client["spans"], "client.wait"), [[t0, t1]])
    front["windows"] = client_waits
    router_waits = spans.intersect(
        spans.wait_windows(front["spans"], "router.worker_wait"),
        client_waits)
    for port, worker in zip(worker_ports, workers):
        worker["windows"] = spans.intersect(
            spans.wait_windows(front["spans"], "router.worker_wait", port),
            client_waits)
    by_name, wall, unattributed, closure = spans.blocking_path(
        window, [client, front] + workers)
    system = [front] + workers
    d = _deltas(system, "closed_start", "closed_end")
    m = _common(by_name, d, wall, unattributed, closure)
    m.update({
        "router.worker_wait_s": float(spans.measure(router_waits)),
        "wal.fsync_s": sum(spans.span_time(p["spans"], "wal.fsync",
                                           [[t0, t1]]) for p in system),
        "query.plan.self_s": sum(
            s[2] - s[1] for p in system for s in p["spans"]
            if s[0] == "query.plan" and s[2] <= setup_end),
        "loadgen.lag_p90_ms": lag_p90_ms,
        "client.wait_s": spans.measure(client_waits),
        "trace.overhead_frac": 1.0 - traced_tps / base_tps,
    })
    notes = {"traced_tps": traced_tps, "untraced_tps": base_tps,
             "wall_s": wall, "unattributed_s": unattributed,
             "closure_err": closure}
    return {k: (v, UNITS[k]) for k, v in m.items()}, notes


def whatif_layers(trace_out: Path, out: dict, base: dict
                  ) -> tuple[dict, dict]:
    """Per-layer metrics of a traced what-if sweep; fitting metrics come
    from the last set-up fit, everything else from the sweep."""
    proc = _load(trace_out)
    marks = {m["name"]: m["t"] for m in proc["marks"]}
    fit_window = (marks["fit_start"], marks["fit_end"])
    proc["windows"] = [list(fit_window)]
    fit_by_name, *_ = spans.blocking_path(fit_window, [proc])
    fit = spans.mark_delta(proc["marks"], "fit_start", "fit_end")

    window = tuple(out["sweep"])
    proc["windows"] = [list(window)]
    by_name, wall, unattributed, closure = spans.blocking_path(
        window, [proc])
    by_name.pop("fit.add", None)
    d = _deltas([proc], "sweep_start", "sweep_end")
    m = _common(by_name, d, wall, unattributed, closure)

    def qps(run: dict) -> float:
        return len(run["queries"]) / (run["sweep"][1] - run["sweep"][0])

    m.update({
        "fit.add.self_s": fit_by_name.get("fit.add", 0.0),
        "fit.segments_per_tuple": _ratio(fit.get("fit.segments", 0),
                                         fit.get("fit.tuples", 0)),
        "trace.overhead_frac": 1.0 - qps(out) / qps(base),
    })
    notes = {"traced_queries_per_s": qps(out),
             "untraced_queries_per_s": qps(base), "wall_s": wall,
             "unattributed_s": unattributed, "closure_err": closure}
    return {k: (v, UNITS[k]) for k, v in m.items()}, notes

