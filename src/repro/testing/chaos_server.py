"""Child-process server hosting for the crash-recovery chaos harnesses.

The kill-recovery tests need *real* process death — ``SIGKILL``, no
``atexit``, no graceful WAL close — which an in-process
:class:`~repro.server.server.ServerThread` cannot provide.  This module
is the subprocess entry point::

    python -m repro.testing.chaos_server WAL_DIR [PORT] [CHECKPOINT_EVERY]
        [RETAIN_RESULTS]

It hosts a durable server (``fsync_every=1``, so every acked ingest is
on disk and resume arithmetic is exact), prints ``PORT <n>`` on stdout
once listening, then sleeps until killed.  ``RETAIN_RESULTS`` sizes the
per-subscription retained-output window for ``attach`` replay — the
router's fleet recovery depends on it.

:class:`WorkerFleet` spawns N of these as the worker tier behind a
:class:`~repro.server.router.PulseRouter`: each worker gets its own WAL
directory and a pinned port, so ``kill(i)`` + ``restart(i)`` brings the
same shard back at the same address with its recovered state — the
exact outage the router's merge edge must ride through.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

from ..server.server import ServerConfig, ServerThread

#: Default per-subscription retained-output window for fleet workers.
#: Must cover the outputs of one batch's share (the router's window,
#: see its docs); shares are bounded by the client's ingest batch, so
#: this is generous.
DEFAULT_RETAIN = 4096


def main(argv: list[str]) -> int:
    if not argv:
        print(
            "usage: chaos_server WAL_DIR [PORT] [CHECKPOINT_EVERY] "
            "[RETAIN_RESULTS]"
        )
        return 2
    wal_dir = argv[0]
    port = int(argv[1]) if len(argv) > 1 else 0
    checkpoint_every = int(argv[2]) if len(argv) > 2 else 7
    retain_results = int(argv[3]) if len(argv) > 3 else 0
    config = ServerConfig(
        port=port,
        wal_dir=wal_dir,
        checkpoint_every=checkpoint_every,
        fsync_every=1,
        retain_results=retain_results,
    )
    with ServerThread(config) as handle:
        print(f"PORT {handle.port}", flush=True)
        # Park until SIGKILLed (or terminated by the parent at test end).
        while True:
            time.sleep(0.5)


class WorkerFleet:
    """Spawn and manage N chaos-server worker processes.

    Each worker owns ``<base_dir>/worker<i>`` as its WAL directory and
    keeps its first ephemeral port for life: a restart re-binds the
    same address, which is what lets the router's bounded reconnect
    find the recovered shard without any re-addressing protocol.
    """

    def __init__(
        self,
        num_workers: int,
        base_dir: str,
        checkpoint_every: int = 7,
        retain_results: int = DEFAULT_RETAIN,
        startup_timeout_s: float = 30.0,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self.base_dir = base_dir
        self.checkpoint_every = checkpoint_every
        self.retain_results = retain_results
        self.startup_timeout_s = startup_timeout_s
        self._procs: list[subprocess.Popen | None] = [None] * num_workers
        #: ``(host, port)`` per worker, fixed after :meth:`start`.
        self.addrs: list[tuple[str, int]] = []

    # ------------------------------------------------------------------
    def _spawn(self, index: int, port: int) -> subprocess.Popen:
        wal_dir = os.path.join(self.base_dir, f"worker{index}")
        os.makedirs(wal_dir, exist_ok=True)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.testing.chaos_server",
                wal_dir,
                str(port),
                str(self.checkpoint_every),
                str(self.retain_results),
            ],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        assert proc.stdout is not None
        deadline = time.monotonic() + self.startup_timeout_s
        line = ""
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if line.startswith("PORT "):
                break
            if not line and proc.poll() is not None:
                raise RuntimeError(
                    f"worker {index} exited with {proc.returncode} "
                    f"before reporting a port"
                )
        else:
            proc.kill()
            raise RuntimeError(f"worker {index} did not report a port")
        actual = int(line.split()[1])
        if index < len(self.addrs):
            self.addrs[index] = ("127.0.0.1", actual)
        else:
            self.addrs.append(("127.0.0.1", actual))
        return proc

    def start(self) -> list[tuple[str, int]]:
        for index in range(self.num_workers):
            self._procs[index] = self._spawn(index, port=0)
        return list(self.addrs)

    def kill(self, index: int) -> None:
        """SIGKILL one worker — no cleanup, no WAL close."""
        proc = self._procs[index]
        if proc is not None:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            self._procs[index] = None

    def restart(self, index: int) -> None:
        """Bring a killed worker back on its original port/WAL dir."""
        if self._procs[index] is not None:
            raise RuntimeError(f"worker {index} is still running")
        port = self.addrs[index][1]
        self._procs[index] = self._spawn(index, port=port)

    def stop(self) -> None:
        for index, proc in enumerate(self._procs):
            if proc is None:
                continue
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)
            self._procs[index] = None

    def __enter__(self) -> "WorkerFleet":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
