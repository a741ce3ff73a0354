"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-join --seed 1 --seconds 25 \
        --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload once untraced and once with layer spans (:mod:`spans`) and
prints every per-layer metric.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are diagnostics (``# stamp``, ``# info``).  The exit code is non-zero
when a correctness gate fails.  README.md documents the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from sut import peak_rss_mb, reset_peak_rss

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh systems per streaming run.  Each gets the same seeded tuples
#: and its own share of ``--seconds``; the metrics pool the systems.
#: The host's speed drifts in phases of seconds and a system's per-tuple
#: cost grows with its state, so several short, fresh passes spread over
#: the run measure steadier than one long pass.
SYSTEMS = 5
#: Share of each system's time given to the closed-loop pass; the
#: open-loop pass gets the rest.
CLOSED_SHARE = 0.5
#: The closed-loop pass is cut into slices this long; its throughput is
#: the median slice rate, so a short stall of the host moves it little.
SLICE_S = 0.5
#: About what ``sut.host_probe`` takes on a quiet 2-CPU virtual machine in
#: a what-if process; ``whatif-sweep`` scales its times to this speed.
PROBE_REF_S = 0.5e-3
#: A query's host speed is the median probe of this many queries on
#: each side of it, and its own.
PROBE_WINDOW = 5


def info(label: str, payload) -> None:
    print(f"# {label} {json.dumps(payload, sort_keys=True)}", flush=True)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ----------------------------------------------------------------------
# the system under test, as child processes
# ----------------------------------------------------------------------
def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        state = Path(f"/proc/{pid}/stat").read_text().split(")")[-1].split()
        return state[0] == "Z"
    except OSError:
        return True


class Sut:
    """A started ``sut.py`` process tree (server, or router + workers)."""

    def __init__(self, mode: str, work: Path, trace_out: Path | None,
                 extra: list[str]):
        self.started = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, str(HERE / "sut.py"), mode] + extra
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=str(work))
        self.worker_pids: list[int] = []
        self.worker_ports: list[int] = []
        self.port = None
        self.stopped = False
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"{mode} exited before reporting a port")
            word, *rest = line.split()
            if word == "PIDS":
                self.worker_pids = [int(p) for p in rest]
            elif word == "WORKER_PORTS":
                self.worker_ports = [int(p) for p in rest]
            elif word == "PORT":
                self.port = int(rest[0])

    @property
    def pids(self) -> list[int]:
        return [self.proc.pid] + self.worker_pids

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "ok":
            raise RuntimeError(f"system did not acknowledge {text!r}")

    def rss_reset(self) -> None:
        for pid in self.pids:
            reset_peak_rss(pid)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def stop(self, timeout: float = 120.0) -> float:
        """Clean shutdown; returns the teardown time in seconds."""
        t0 = time.perf_counter()
        self.proc.stdin.write("stop\n")
        self.proc.stdin.close()
        self.proc.wait(timeout=timeout)
        for pid in self.worker_pids:
            while not _gone(pid):
                time.sleep(0.01)
        self.stopped = True
        return time.perf_counter() - t0

    def kill(self) -> None:
        """Hard stop of every process in the tree (unless it stopped
        cleanly); waits for each."""
        if self.stopped:
            return
        for pid in self.pids:
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
        self.proc.wait()
        deadline = time.monotonic() + 30
        for pid in self.worker_pids:
            while not _gone(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# streaming workloads: load generator
# ----------------------------------------------------------------------
class Session:
    """The load generator's one connection: ingest, subscriptions and
    failure accounting (failed units: request errors, rejected, shed,
    blocked or fit-rejected tuples, dropped results)."""

    def __init__(self, spec: dict, port: int):
        from repro.server import PulseClient

        self.spec = spec
        self.client = PulseClient("127.0.0.1", port, timeout=120.0)
        self.client.connect()
        self.client.register("bench", spec["query"], fit=spec["fit"])
        self.subs = {}
        for mode, bound in spec["subscribers"]:
            ack = self.client.subscribe("bench", mode=mode,
                                        error_bound=bound)
            self.subs.setdefault(mode, ack["subscription"])
        self.attempted = 0
        self.failed = 0

    def ingest(self, batch: list[dict]) -> int:
        from repro.server import ServerError

        self.attempted += len(batch)
        try:
            ack = self.client.ingest(self.spec["stream"], batch)
        except ServerError:
            self.failed += len(batch)
            return 0
        self.failed += sum(ack.get(k, 0) for k in (
            "rejected", "shed", "blocked", "fit_rejected", "no_consumer"))
        return ack.get("accepted", 0)

    def flush(self) -> None:
        self.client.flush()

    def results(self) -> dict:
        notices = self.client.drain_notices("backpressure")
        self.failed += sum(n.get("dropped_results", 0) for n in notices)
        return {mode: self.client.drain_results(sub)
                for mode, sub in self.subs.items()}

    def close(self) -> None:
        self.client.close()


def slice_rates(marks: list[tuple[float, float]], start: float,
                end: float) -> list[float]:
    """Rates over ``SLICE_S`` slices of a pass.

    ``marks`` are ``(time, cumulative units done)`` at each completion;
    slices are cut at the first completion at least ``SLICE_S`` after the
    previous cut, and a tail shorter than half a slice joins the last
    slice.
    """
    cuts = [(start, 0.0)]
    for t, done in marks[:-1]:
        if t - cuts[-1][0] >= SLICE_S:
            cuts.append((t, done))
    if len(cuts) > 1 and end - cuts[-1][0] < SLICE_S / 2:
        cuts.pop()
    cuts.append((end, marks[-1][1]))
    return [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(cuts, cuts[1:])]


def warm_up(session: Session, tuples: list[dict], batch: int) -> None:
    """Untimed ingest; its counts are not part of any metric."""
    for start in range(0, len(tuples), batch):
        session.ingest(tuples[start:start + batch])
    session.attempted = session.failed = 0


def closed_loop(session: Session, tuples: list[dict], batch: int) -> dict:
    """All of ``tuples`` in back-to-back batches, then a flush (timed: the
    pass runs from the first ingest to the flush ack); returns the slice
    rates of accepted tuples, the last slice ending at the flush ack."""
    accepted = 0
    sent = 0
    marks = []
    t0 = time.perf_counter()
    while sent < len(tuples):
        chunk = tuples[sent:sent + batch]
        accepted += session.ingest(chunk)
        sent += len(chunk)
        marks.append((time.perf_counter(), accepted))
    session.flush()
    t1 = time.perf_counter()
    marks.append((t1, accepted))
    rates = slice_rates(marks, t0, t1)
    return {"sent": sent, "accepted": accepted, "window": (t0, t1),
            "rates": rates, "tps": statistics.median(rates)}


def open_loop(session: Session, tuples: list[dict], batch: int,
              rate: float, seconds: float) -> dict:
    """Batches on a fixed schedule; each latency runs from the batch's
    *scheduled* send time to its ack (result pushes precede the ack)."""
    period = batch / rate
    count = min(int(seconds / period), len(tuples) // batch)
    latencies, lags = [], []
    t0 = time.perf_counter() + 0.01
    for k in range(count):
        due = t0 + k * period
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        lags.append(time.perf_counter() - due)
        session.ingest(tuples[k * batch:(k + 1) * batch])
        latencies.append(time.perf_counter() - due)
    session.flush()
    return {"sent": count * batch, "latencies": latencies, "lags": lags}


def start_stream_sut(spec: dict, work: Path, trace_out=None) -> Sut:
    work.mkdir(parents=True, exist_ok=True)
    extra = ["--wal-dir", str(work / "wal")]
    if spec["sut"] == "route":
        extra += ["--workers", str(spec["workers"])]
    return Sut(spec["sut"], work, trace_out, extra)


def setup_session(spec: dict, work: Path, trace_out=None):
    """Start the system; set-up time runs to the first subscription ack."""
    sut = start_stream_sut(spec, work, trace_out)
    try:
        session = Session(spec, sut.port)
    except BaseException:
        sut.kill()
        raise
    return sut, session, time.perf_counter() - sut.started


def stream_gate(spec: dict, received: dict, phases: list,
                accuracy: bool = True) -> tuple:
    """Bit-exact gate, and unless ``accuracy`` is false the accuracy
    gate; returns (errors, accuracy info)."""
    import workloads as wl
    from repro.engine.tuples import StreamTuple

    expected = wl.stream_reference(spec, phases)
    errors = wl.exact_gate(received, expected)
    if not accuracy:
        return errors, {}
    if "discrete" in expected:
        rows = expected["discrete"][1]
    else:
        rows = wl.push_all(wl.discrete_plan(spec), spec["stream"],
                           (StreamTuple(t) for p in phases for t in p))
    report = wl.stream_accuracy(spec, rows, expected["continuous"][1])
    errors += wl.accuracy_gate(report.false_negative_rate,
                               report.false_positive_rate, spec["accuracy"])
    return errors, {
        "false_neg_rate": report.false_negative_rate,
        "false_pos_rate": report.false_positive_rate,
        "discrete_rows": report.discrete_rows,
        "probe_instants": report.probe_instants,
        "results": {m: len(r) for m, r in received.items()},
    }


def run_streaming(name: str, seed: int, seconds: float, trace: bool,
                  work: Path) -> dict:
    import workloads as wl

    spec = wl.STREAMING[name]
    per_system = seconds / SYSTEMS
    closed_s = per_system * CLOSED_SHARE
    open_s = per_system - closed_s
    batch = spec["closed_batch"]
    # Fixed work, not a deadline: the closed pass sends what the nominal
    # rate covers in its share of the time, so every run (and every
    # version of the system) measures the same stretch of the stream.
    closed_n = max(1, round(closed_s * spec["closed_rate"] / batch)) * batch
    open_n = int(open_s * spec["open_rate"]) + spec["open_batch"]
    warm_n = spec["warmup"]
    # Each system gets its own stream (sub-seed), so a run averages over
    # several object layouts: how many objects pass the filter or
    # collide, and with it the result volume, is fixed per stream.
    streams = []
    for i in range(SYSTEMS):
        tuples = wl.moving_tuples(spec, seed * SYSTEMS + i,
                                  warm_n + closed_n + open_n)
        streams.append((tuples[:warm_n], tuples[warm_n:warm_n + closed_n],
                        tuples[warm_n + closed_n:]))
    if trace:
        return run_streaming_traced(spec, *streams[0], open_s, work)

    setups, rates, latencies, lags, peaks = [], [], [], [], []
    errors, results, accuracy = [], [], {}
    attempted = failed = 0
    for i, (warm, closed_part, open_part) in enumerate(streams):
        sut, session, setup_s = setup_session(spec, work / f"system{i}")
        setups.append(setup_s)
        try:
            warm_up(session, warm, batch)
            sut.rss_reset()
            rates += closed_loop(session, closed_part, batch)["rates"]
            opened = open_loop(session, open_part, spec["open_batch"],
                               spec["open_rate"], open_s)
            latencies += opened["latencies"]
            lags += opened["lags"]
            peaks.append(sut.peak_rss_mb())
            received = session.results()
            session.close()
            if i == SYSTEMS - 1:
                teardown = sut.stop()
        finally:
            sut.kill()
        attempted += session.attempted
        failed += session.failed
        phases = [warm + closed_part, open_part[:opened["sent"]]]
        # The accuracy gate (fixed per stream, and costly on the discrete
        # self-join) runs on the first system's stream only.
        gate_errors, report = stream_gate(spec, received, phases,
                                          accuracy=(i == 0))
        errors += [f"system {i}: {e}" for e in gate_errors]
        if i == 0:
            accuracy = report
        results.append({m: len(r) for m, r in received.items()})
    lat = [x * 1e3 for x in latencies]
    p90 = percentile(lat, 90)
    info("diagnostics", {
        "teardown_s": teardown, "setup_samples_s": setups,
        "systems": SYSTEMS, "closed_tuples": closed_n,
        "open_tuples": opened["sent"],
        "throughput_slices": len(rates),
        "latency_samples": len(lat),
        "latency_samples_beyond_p90": sum(1 for x in lat if x > p90),
        "open_rate_tps": spec["open_rate"],
        "lag_p90_ms": percentile(lags, 90) * 1e3,
        "failed_frac": failed / max(attempted, 1),
        **accuracy, "results": results,
    })
    for err in errors:
        info("gate-failure", err)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_tps": (statistics.median(rates), "1/s"),
            "latency_p50_ms": (statistics.median(lat), "ms"),
            "latency_p90_ms": (p90, "ms"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
        },
    }


def run_streaming_traced(spec: dict, warm: list[dict],
                         closed_tuples: list[dict], rest: list[dict],
                         open_s: float, work: Path) -> dict:
    """Untraced closed-loop pass (overhead baseline), then the full
    workload against a traced system; per-layer metrics from the spans."""
    import layers
    import spans

    batch = spec["closed_batch"]
    errors: list[str] = []

    sut, session, _ = setup_session(spec, work / "untraced")
    try:
        warm_up(session, warm, batch)
        base = closed_loop(session, closed_tuples, batch)
        received = session.results()
        session.close()
        sut.stop()
    finally:
        sut.kill()
    errors += stream_gate(spec, received, [warm + closed_tuples])[0]

    rec = spans.install_client()
    trace_out = work / "traced" / "trace.json"
    sut, session, _ = setup_session(spec, work / "traced", trace_out)
    setup_end = time.perf_counter()
    try:
        warm_up(session, warm, batch)
        sut.command("mark closed_start")
        pass_span = rec.begin("loadgen.pass")
        closed = closed_loop(session, closed_tuples, batch)
        rec.end(pass_span)
        sut.command("mark closed_end")
        opened = open_loop(session, rest, spec["open_batch"],
                           spec["open_rate"], open_s)
        received = session.results()
        session.close()
        sut.stop()
    finally:
        sut.kill()
    phases = [warm + closed_tuples, rest[:opened["sent"]]]
    gate_errors, accuracy = stream_gate(spec, received, phases)
    errors += gate_errors
    client = {"role": "client", "spans": rec.rows(), "marks": []}
    metrics, notes = layers.stream_layers(
        client, trace_out, sut.worker_ports, closed["window"], setup_end,
        percentile(opened["lags"], 90) * 1e3, closed["tps"], base["tps"])
    errors += layers.closure_gate(notes)
    info("diagnostics", {**notes, **accuracy})
    for err in errors:
        info("gate-failure", err)
    return {"correct": not errors, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


# ----------------------------------------------------------------------
# what-if sweep (historical mode)
# ----------------------------------------------------------------------
def whatif_sut(inputs: dict, work: Path, trace_out=None) -> dict:
    import workloads as wl

    work.mkdir(parents=True, exist_ok=True)
    spec_path = work / "input.json"
    out_path = work / "output.json"
    spec_path.write_text(json.dumps({**inputs, "fits": wl.WHATIF["fits"]}))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "sut.py"), "whatif",
           "--input", str(spec_path), "--output", str(out_path)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd, env=env, cwd=str(work),
                            stdin=subprocess.DEVNULL)
    try:
        if proc.wait(timeout=150) != 0:
            raise RuntimeError(f"what-if process failed ({proc.returncode})")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return json.loads(out_path.read_text())


def scaled_times(seconds: list[float], probes: list[float],
                 window: int) -> list[float]:
    """Times scaled to the reference host speed: each by the median of
    the probes within ``window`` places of its own."""
    return [t * PROBE_REF_S
            / statistics.median(probes[max(0, i - window):i + window + 1])
            for i, t in enumerate(seconds)]


def whatif_gate(inputs: dict, out: dict, seed: int) -> tuple:
    """Re-run a seeded sample of the swept queries in-process with fresh
    caches: each must match bit for bit and agree with the discrete
    engine within the fixed bounds."""
    import random

    import workloads as wl
    from repro.core.modes import HistoricalProcessor
    from repro.core.solve_cache import reset_global_solve_cache
    from repro.engine.tuples import StreamTuple
    from repro.server.protocol import serialize_results

    done = out["queries"]
    rng = random.Random(seed)
    sample = sorted(rng.sample(range(len(done)),
                               min(wl.WHATIF["checked"], len(done))))
    trades = [StreamTuple(t) for t in inputs["trades"]]
    hist = HistoricalProcessor(trades, tolerance=inputs["tolerance"],
                               **wl.WHATIF["fit"])
    errors, fn, fp = [], [], []
    for i in sample:
        params = done[i]["params"]
        reset_global_solve_cache()
        segments = hist.run(wl.planned_macd(params))
        if serialize_results(segments) != done[i]["results"]:
            errors.append(f"query {i} {params}: results differ from the "
                          f"in-process reference")
        report = wl.whatif_accuracy(inputs["trades"], params, segments)
        fn.append(report.false_negative_rate)
        fp.append(report.false_positive_rate)
    accuracy = {"false_neg_rate": statistics.fmean(fn),
                "false_pos_rate": statistics.fmean(fp),
                "checked_queries": len(sample)}
    errors += wl.accuracy_gate(accuracy["false_neg_rate"],
                               accuracy["false_pos_rate"],
                               wl.WHATIF["accuracy"])
    return errors, accuracy


def run_whatif(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import workloads as wl

    # Fixed work: the queries the nominal rate covers in --seconds.
    inputs = wl.whatif_inputs(seed, max(1, round(seconds * wl.WHATIF["rate"])))
    if trace:
        import layers

        base = whatif_sut(inputs, work / "untraced")
        trace_out = work / "traced" / "trace.json"
        out = whatif_sut(inputs, work / "traced", trace_out)
        errors, accuracy = whatif_gate(inputs, out, seed)
        metrics, notes = layers.whatif_layers(trace_out, out, base)
        errors += layers.closure_gate(notes)
        info("diagnostics", {**notes, **accuracy})
    else:
        # The sweep is split over SYSTEMS fresh processes, run one after
        # the other, each fitting the recording itself.
        queries = inputs["queries"]
        runs = []
        for i in range(SYSTEMS):
            part = queries[i * len(queries) // SYSTEMS:
                           (i + 1) * len(queries) // SYSTEMS]
            runs.append(whatif_sut({**inputs, "queries": part},
                                   work / f"system{i}"))
        out = {"queries": [q for r in runs for q in r["queries"]]}
        errors, accuracy = whatif_gate(inputs, out, seed)
        # Times are scaled to the reference host speed (README.md, "Host
        # speed"); throughput slices are cut on the scaled clock.
        times, rates, fits, wall_rates = [], [], [], []
        for r in runs:
            qs = r["queries"]
            scaled = scaled_times([q["seconds"] for q in qs],
                                  [q["probe_s"] for q in qs], PROBE_WINDOW)
            times += [t * 1e3 for t in scaled]
            clock = list(itertools.accumulate(scaled))
            rates += slice_rates([(c, i + 1) for i, c in enumerate(clock)],
                                 0.0, clock[-1])
            wall_rates += slice_rates([(q["ended"], i + 1)
                                       for i, q in enumerate(qs)],
                                      *r["sweep"])
            fits += scaled_times(r["fit_s"], r["fit_probe_s"],
                                 len(r["fit_s"]))
        p90 = percentile(times, 90)
        qps = statistics.median(rates)
        info("diagnostics", {
            "systems": SYSTEMS, "queries_per_s": qps,
            "latency_samples": len(times),
            "latency_samples_beyond_p90": sum(1 for x in times if x > p90),
            "throughput_slices": len(rates),
            "segments": runs[0]["segments"],
            "wall_queries_per_s": statistics.median(wall_rates),
            "wall_latency_p50_ms": statistics.median(
                q["seconds"] * 1e3 for q in out["queries"]),
            "wall_fit_s": statistics.median(
                f for r in runs for f in r["fit_s"]),
            "probe_median_s": statistics.median(
                q["probe_s"] for q in out["queries"]),
            **accuracy,
        })
        metrics = {
            "setup_s": (statistics.median(fits), "s"),
            "throughput_tps": (qps * len(inputs["trades"]), "1/s"),
            "latency_p50_ms": (statistics.median(times), "ms"),
            "latency_p90_ms": (p90, "ms"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                              for r in runs), "MB"),
        }
    for err in errors:
        info("gate-failure", err)
    return {"correct": not errors, "attempted": len(out["queries"]),
            "failed": 0, "metrics": metrics}


# ----------------------------------------------------------------------
def stamp(args) -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from harness import git_revision

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_rev": git_revision(ROOT)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("stream-join", "fleet-mixed",
                                 "whatif-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the system's sources ({SRC}) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    info("stamp", stamp(args))
    work = ROOT / ".perfbench_work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "whatif-sweep":
            result = run_whatif(args.seed, args.seconds, bool(args.trace),
                                work)
        else:
            result = run_streaming(args.workload, args.seed, args.seconds,
                                   bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
