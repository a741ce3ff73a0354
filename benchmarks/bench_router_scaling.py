"""Router fleet scaling: merged throughput across fleet widths.

A :class:`~repro.server.router.PulseRouter` fronts ``W`` durable
subprocess workers (:class:`~repro.testing.chaos_server.WorkerFleet`,
``fsync_every=1`` — the same configuration the fleet recovery guarantee
assumes).  One client streams a keyed moving-object workload through
the router at widths 1, 2, 3(, 4); each width's merged subscriber
stream is compared **in-run, bit-exactly** against an in-process
single-engine reference over the same tuples — the benchmark *fails*
on any parity mismatch, so every recorded number describes a correct
merge.

Headline metrics recorded to ``BENCH_router_scaling.json``:

* ``throughput`` — merged tuples/second at the widest fleet;
* ``throughput_workers_<w>`` / ``speedup_workers_<w>`` — per width;
* ``runs_workers_<w>`` — worker ingest requests the router sent at
  that width (the ack's ``runs``, summed), and
  ``runs_per_batch_workers_<w>`` — the same per client batch: the
  router scatters each batch as one request per worker, so it is at
  most ``w``;
* ``parity`` — always ``"exact"`` if the process exits 0.

Workers are separate OS processes, so scaling is real process
parallelism when cores exist; on a single-core host the harness stamps
``parallel_effective=false`` and any speedup should be read as
pipelining overlap, not parallel compute.

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI (the
``router-parity`` job runs this and uploads the artifact).
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from harness import record_result  # noqa: E402

from repro.engine.lowering import to_discrete_plan
from repro.engine.tuples import StreamTuple
from repro.query import parse_query, plan_query
from repro.server import PulseClient, PulseRouter, RouterConfig
from repro.server.protocol import serialize_results
from repro.testing.chaos_server import WorkerFleet
from repro.workloads import MovingObjectConfig, MovingObjectGenerator

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

QUERY = "select * from objects where x > 0"
STREAM = "objects"
FIT = {"attrs": ["x", "y"], "key_fields": ["id"]}
N_TUPLES = 1_500 if SMOKE else 12_000
BATCH = 100 if SMOKE else 200
WIDTHS = (1, 3) if SMOKE else (1, 2, 3, 4)
SEED = 7


def generate(n: int) -> list[dict]:
    gen = MovingObjectGenerator(
        MovingObjectConfig(rate=float(n), seed=SEED)
    )
    return [dict(t) for t in gen.tuples(n)]


def reference_results(tuples: list[dict]) -> list[dict]:
    """The same query executed in one in-process engine."""
    query = to_discrete_plan(plan_query(parse_query(QUERY)))
    outputs = []
    for tup in tuples:
        outputs.extend(query.push(STREAM, StreamTuple(tup)))
    outputs.extend(query.flush())
    return serialize_results(outputs)


def run_width(
    width: int, tuples: list[dict], expected: list[dict]
) -> dict:
    """One fleet at ``width`` workers: ingest, flush, drain, verify."""
    with tempfile.TemporaryDirectory(prefix="bench_router_") as wal:
        fleet = WorkerFleet(width, wal, checkpoint_every=100_000)
        addrs = fleet.start()
        router = None
        try:
            router = PulseRouter(
                RouterConfig(workers=tuple(addrs))
            ).start()
            with PulseClient(
                "127.0.0.1", router.port, timeout=120.0
            ) as client:
                client.connect()
                client.register("bench", QUERY, fit=FIT)
                sub = client.subscribe("bench", mode="discrete")
                runs = 0
                t0 = time.perf_counter()
                for start in range(0, len(tuples), BATCH):
                    ack = client.ingest(
                        STREAM, tuples[start:start + BATCH]
                    )
                    runs += ack.get("runs", 1)
                client.flush()
                elapsed = time.perf_counter() - t0
                results = client.drain_results(sub["subscription"])
                stats = client.stats()
        finally:
            if router is not None:
                router.stop()
            fleet.stop()
    if results != expected:
        raise SystemExit(
            f"PARITY FAILURE at {width} workers: merged stream has "
            f"{len(results)} results, reference {len(expected)}"
        )
    spread = [w["sent"] for w in stats["workers"]]
    return {
        "elapsed_s": elapsed,
        "throughput": len(tuples) / elapsed,
        "runs": runs,
        "spread": spread,
        "results": len(results),
    }


def main() -> int:
    tuples = generate(N_TUPLES)
    expected = reference_results(tuples)
    print(
        f"{N_TUPLES} tuples, batch {BATCH}, widths {WIDTHS}"
        f"{' (smoke)' if SMOKE else ''}; "
        f"reference: {len(expected)} results"
    )
    metrics: dict = {
        "tuples": N_TUPLES,
        "batch_size": BATCH,
        "widths": list(WIDTHS),
        "smoke": SMOKE,
        "parity": "exact",  # run_width raises on any mismatch
        "max_shards": max(WIDTHS),
        "parallel_used": True,  # workers are separate OS processes
    }
    base = None
    last = None
    for width in WIDTHS:
        out = run_width(width, tuples, expected)
        base = base or out["throughput"]
        speedup = out["throughput"] / base
        print(
            f"workers={width}: {out['throughput']:,.0f} t/s in "
            f"{out['elapsed_s']:.2f}s, {out['runs']} runs, "
            f"spread {out['spread']} (speedup {speedup:.2f}, parity ok)"
        )
        metrics[f"wall_time_s_workers_{width}"] = round(
            out["elapsed_s"], 4
        )
        metrics[f"throughput_workers_{width}"] = round(
            out["throughput"], 1
        )
        metrics[f"speedup_workers_{width}"] = round(speedup, 3)
        metrics[f"runs_workers_{width}"] = out["runs"]
        metrics[f"runs_per_batch_workers_{width}"] = round(
            out["runs"] / -(-N_TUPLES // BATCH), 3
        )
        last = out
    metrics["wall_time_s"] = round(last["elapsed_s"], 4)
    metrics["throughput"] = round(last["throughput"], 1)
    metrics["speedup"] = round(last["throughput"] / base, 3)
    metrics["merged_results"] = last["results"]
    record_result("router_scaling", metrics)
    print("recorded BENCH_router_scaling.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
