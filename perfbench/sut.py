"""Entry script for the system under test; one process per invocation.

The benchmark process never runs the system in-process: it starts this
script, so that the traced run can install its layer wrappers
(:mod:`spans`) in every server, router and worker process before any of
them is built.  Modes::

    sut.py server --wal-dir DIR [--trace-out FILE]
        One Pulse server with its WAL on (default group commit).
    sut.py route --wal-dir DIR --workers N [--trace-out FILE]
        A router over N durable workers, configured as ``repro route``
        configures them (its argument defaults), each worker started as
        ``sut.py worker``.
    sut.py worker --wal-dir DIR --checkpoint-every N --retain-results N
        One fleet worker (``fsync_every=1``, as the fleet runs them).
    sut.py whatif --input FILE --output FILE [--trace-out FILE]
        Historical mode: fit a recording, then run a what-if sweep.

Server-like modes print ``PORT <n>`` (the router also ``PIDS <pid>...``
for its workers) and then obey one command per stdin line, answering
``ok`` on stdout: ``mark <name>`` snapshots the traced counters, ``stop``
(or end of input) shuts down cleanly, writes the trace and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def reset_peak_rss(pid: int) -> None:
    """Restart the kernel's peak-RSS mark, so warm-up is excluded."""
    try:
        Path(f"/proc/{pid}/clear_refs").write_text("5")
    except OSError:
        pass  # unsupported: the peak then covers the whole process life


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current
    speed.  It calls nothing of the system under test."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(4000):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    return time.perf_counter() - t0


def _reply(text: str) -> None:
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def _control_loop(rec, on_mark=None) -> None:
    """Serve ``mark``/``stop`` commands until stop or end of input."""
    for line in sys.stdin:
        cmd, _, arg = line.strip().partition(" ")
        if cmd == "mark":
            if rec is not None:
                rec.mark(arg)
            if on_mark is not None:
                on_mark(arg)
            _reply("ok")
        elif cmd == "stop":
            return


def _serve(config, rec, trace_out) -> None:
    from repro.server import ServerThread

    handle = ServerThread(config).start()
    try:
        _reply(f"PORT {handle.port}")
        _control_loop(rec)
    finally:
        handle.stop()
        if rec is not None:
            rec.dump(trace_out)


def run_server(args, rec) -> None:
    from repro.server import ServerConfig

    _serve(ServerConfig(wal_dir=args.wal_dir), rec, args.trace_out)


def run_worker(args, rec) -> None:
    from repro.server import ServerConfig

    config = ServerConfig(
        wal_dir=args.wal_dir,
        checkpoint_every=args.checkpoint_every,
        fsync_every=1,
        retain_results=args.retain_results,
    )
    _serve(config, rec, args.trace_out)


class _Worker:
    """One spawned ``sut.py worker`` process and its control pipe."""

    def __init__(self, index: int, args, route_args):
        wal = Path(args.wal_dir) / f"worker{index}"
        wal.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "sut.py"), "worker",
               "--wal-dir", str(wal),
               "--checkpoint-every", str(route_args.checkpoint_every),
               "--retain-results", str(route_args.retain_results)]
        if args.trace_out:
            cmd += ["--trace-out", f"{args.trace_out}.worker{index}"]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"worker {index} did not start: {line!r}")
        self.port = int(line.split()[1])

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if text != "stop":
            self.proc.stdout.readline()


def run_route(args, rec) -> None:
    from repro.cli import build_parser
    from repro.server import PulseRouter, RouterConfig

    route_args = build_parser().parse_args(
        ["route", "--workers", str(args.workers), "--port", "0"])
    workers: list[_Worker] = []
    router = None
    try:
        for index in range(route_args.workers):
            workers.append(_Worker(index, args, route_args))
        router = PulseRouter(RouterConfig(
            host=route_args.host,
            port=0,
            workers=tuple(("127.0.0.1", w.port) for w in workers),
        )).start()
        _reply("PIDS " + " ".join(str(w.proc.pid) for w in workers))
        _reply("WORKER_PORTS " + " ".join(str(w.port) for w in workers))
        _reply(f"PORT {router.port}")

        def relay(name: str) -> None:
            for w in workers:
                w.command(f"mark {name}")

        _control_loop(rec, relay)
    finally:
        if router is not None:
            router.stop()
        for w in workers:
            try:
                w.command("stop")
                w.proc.stdin.close()
            except OSError:
                pass
        for w in workers:
            try:
                w.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                w.proc.kill()
                w.proc.wait()
        if rec is not None:
            rec.dump(args.trace_out)


def run_whatif(args, rec) -> None:
    """Fit the recording ``fits`` times (set-up samples), run the warm-up
    queries, then the sweep; write the outputs and the per-query times.
    A host probe runs before every fit and every query, outside its
    timing."""
    from repro.core.modes import HistoricalProcessor
    from repro.engine.tuples import StreamTuple
    from repro.server.protocol import serialize_results

    from workloads import WHATIF, planned_macd

    spec = json.loads(Path(args.input).read_text())
    trades = [StreamTuple(t) for t in spec["trades"]]
    fits, fit_probes = [], []
    for i in range(spec["fits"]):
        fit_probes.append(host_probe())
        if rec is not None and i == spec["fits"] - 1:
            rec.mark("fit_start")
        t0 = time.perf_counter()
        hist = HistoricalProcessor(trades, tolerance=spec["tolerance"],
                                   **WHATIF["fit"])
        fits.append(time.perf_counter() - t0)
    if rec is not None:
        rec.mark("fit_end")
    for params in spec["warmup"]:
        hist.run(planned_macd(params))
    done = []
    reset_peak_rss(os.getpid())
    if rec is not None:
        rec.mark("sweep_start")
    start = time.perf_counter()
    for params in spec["queries"]:
        probe = host_probe()
        t0 = time.perf_counter()
        outputs = hist.run(planned_macd(params))
        t1 = time.perf_counter()
        done.append((params, t1 - t0, t1, probe, outputs))
    end = time.perf_counter()
    peak = peak_rss_mb(os.getpid())
    if rec is not None:
        rec.mark("sweep_end")
    Path(args.output).write_text(json.dumps({
        "fit_s": fits,
        "fit_probe_s": fit_probes,
        "peak_rss_mb": peak,
        "segments": hist.segment_count,
        "sweep": [start, end],
        "queries": [
            {"params": p, "seconds": s, "ended": e, "probe_s": h,
             "results": serialize_results(o)}
            for p, s, e, h, o in done
        ],
    }))
    if rec is not None:
        rec.dump(args.trace_out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode",
                        choices=("server", "route", "worker", "whatif"))
    parser.add_argument("--wal-dir")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--checkpoint-every", type=int)
    parser.add_argument("--retain-results", type=int)
    parser.add_argument("--input")
    parser.add_argument("--output")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    role = args.mode if args.mode != "route" else "router"
    rec = spans.install(role) if args.trace_out else None
    {"server": run_server, "worker": run_worker, "route": run_route,
     "whatif": run_whatif}[args.mode](args, rec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
