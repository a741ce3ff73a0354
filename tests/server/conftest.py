"""Leak guard for the server suites: every test must stop what it
starts.

A test that leaves a new ``pulse-*`` thread running (an engine, server
or router thread), more open file descriptors than it found, or a new
``/dev/shm`` segment (a shared-memory block nobody unlinked) fails in
teardown.  Module-scoped servers are set up before this fixture, so
they count as already there.  Shutdown gets a short grace period: a
stopped thread may still be unwinding when ``stop()`` returns.
"""

import gc
import os
import threading
import time

import pytest

_GRACE_S = 2.0
_FD_DIR = "/proc/self/fd"
_SHM_DIR = "/dev/shm"


def _pulse_threads() -> set[threading.Thread]:
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("pulse-")
    }


def _open_fds() -> int:
    # No /proc (not Linux): the thread check still runs.
    return len(os.listdir(_FD_DIR)) if os.path.isdir(_FD_DIR) else 0


def _shm_segments() -> set[str]:
    # No /dev/shm (not Linux): the other checks still run.
    return set(os.listdir(_SHM_DIR)) if os.path.isdir(_SHM_DIR) else set()


@pytest.fixture(autouse=True)
def _no_leaks():
    threads_before = _pulse_threads()
    gc.collect()
    fds_before = _open_fds()
    shm_before = _shm_segments()
    yield
    deadline = time.monotonic() + _GRACE_S
    while True:
        gc.collect()  # unreferenced sockets close on collection
        threads = _pulse_threads() - threads_before
        fds = _open_fds()
        shm = _shm_segments() - shm_before
        if (
            (not threads and fds <= fds_before and not shm)
            or time.monotonic() > deadline
        ):
            break
        time.sleep(0.02)
    assert not threads, (
        f"test leaked threads: {sorted(t.name for t in threads)}"
    )
    assert fds <= fds_before, (
        f"test leaked file descriptors: {fds_before} open before, "
        f"{fds} after"
    )
    assert not shm, f"test leaked /dev/shm segments: {sorted(shm)}"
