"""Layer spans for the traced run, recorded from outside the library.

The traced run (``--trace 1``) wraps public entry points of
``repro.server``, ``repro.engine``, ``repro.fitting``, ``repro.core`` and
``repro.query`` inside each system-under-test process (``sut.py`` calls
:func:`install` before it builds anything), keeps the spans in memory and
writes them as JSON when the process exits.  The only in-library hooks
used are the existing solver and equation-system span setters
(``set_solver_instrumentation``, ``set_system_instrumentation``); nothing
under ``src/`` changes, and untraced runs install nothing.

A span is ``[name, t0, t1, thread, parent, attrs]``.  Times come from
``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so is
comparable across the processes of one host.  ``parent`` is the span that
was open on the same thread when this one began; coroutine spans
(``server.request``) sit on no thread stack and are marked ``async``.

:func:`blocking_path` turns the spans of every process into per-layer
self times on the blocking path of a closed-loop pass, plus the time no
layer accounts for, and checks that the two add up to the pass's wall
time (the closure check).
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter

#: Spans during which the caller waits on another process; their time is
#: filled by the callee's spans, never attributed to a layer themselves.
WAIT_SPANS = frozenset({"client.wait", "router.worker_wait", "whatif.run"})

#: Threads whose spans lie on the request path, per process role, by
#: thread-name prefix.  The WAL's background group-commit thread and idle
#: threads are off-path.  Where path threads overlap in time, the time
#: is charged once, to the earlier thread in this order: a reply waits
#: for the engine thread's command before the event loop writes it.
PATH_THREADS = {
    "server": ("pulse-engine", "pulse-server"),
    "worker": ("pulse-engine", "pulse-server"),
    "router": ("pulse-router-session",),
    "whatif": ("MainThread",),
    "client": ("MainThread",),
}


class Recorder:
    """In-memory span and count store for one process."""

    def __init__(self, role: str):
        self.role = role
        self.spans: list[list] = []
        self.marks: list[dict] = []
        self._local = threading.local()
        self._all_counts: list[dict] = []

    # -- spans ----------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.thread = threading.current_thread().name
            local.counts = defaultdict(float)
            self._all_counts.append(local.counts)
        return local

    def begin(self, name: str, attrs: dict | None = None) -> list:
        local = self._state()
        stack = local.stack
        span = [name, 0.0, 0.0, local.thread, stack[-1] if stack else None,
                attrs]
        self.spans.append(span)
        stack.append(span)
        span[1] = _clock()
        return span

    def end(self, span: list) -> None:
        span[2] = _clock()
        self._local.stack.pop()

    def begin_async(self, name: str) -> list:
        local = self._state()
        span = [name, 0.0, 0.0, local.thread, None, {"async": True}]
        self.spans.append(span)
        span[1] = _clock()
        return span

    def count(self, key: str, by: float = 1.0) -> None:
        self._state().counts[key] += by

    def counts(self) -> dict:
        merged: dict = defaultdict(float)
        for counts in list(self._all_counts):
            for key, value in list(counts.items()):
                merged[key] += value
        return dict(merged)

    # -- marks and output ----------------------------------------------
    def mark(self, name: str) -> None:
        """Snapshot counts and the library's counter registry."""
        from repro.core.solve_cache import global_solve_cache
        from repro.engine.metrics import GLOBAL_COUNTERS

        self.marks.append({
            "name": name,
            "t": _clock(),
            "counts": self.counts(),
            "counters": GLOBAL_COUNTERS.snapshot(),
            "solve_cache_entries": len(global_solve_cache()._entries),
        })
        # The queue-depth high-water mark restarts at every mark, so the
        # next mark reports the maximum within its own window.
        for counts in list(self._all_counts):
            counts["scheduler.queue_depth_max"] = 0

    def rows(self) -> list[list]:
        """Finished spans, parents as indices into the returned list."""
        done = [s for s in self.spans if s[2] > 0.0]
        index = {id(span): i for i, span in enumerate(done)}
        return [
            [name, t0, t1, thread,
             index.get(id(parent)) if parent is not None else None, attrs]
            for name, t0, t1, thread, parent, attrs in done
        ]

    def dump(self, path: str) -> None:
        doc = {"pid": os.getpid(), "role": self.role, "spans": self.rows(),
               "marks": self.marks}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def _rebind(orig, wrapped) -> None:
    """Point every ``repro.*`` module global bound to ``orig`` at
    ``wrapped`` (call sites that imported the function by name)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)


def _wrap(owner, attr: str, span: str | None, after=None,
          classmethod_=False) -> None:
    """Replace ``owner.attr`` with a spanning/counting wrapper.

    ``after(rec, result, args)`` runs on return to record counts.
    """
    rec = _RECORDER
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(
        owner, attr)
    fn = raw.__func__ if classmethod_ else raw

    if span is None:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(rec, result, args)
            return result
    else:
        def wrapper(*args, **kwargs):
            s = rec.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(s)
            if after is not None:
                after(rec, result, args)
            return result

    wrapper.__wrapped__ = fn
    setattr(owner, attr, classmethod(wrapper) if classmethod_ else wrapper)
    if not isinstance(owner, type):
        _rebind(fn, wrapper)


def _wrap_async(owner, attr: str, span: str) -> None:
    rec = _RECORDER
    fn = vars(owner)[attr]

    async def wrapper(*args, **kwargs):
        s = rec.begin_async(span)
        try:
            return await fn(*args, **kwargs)
        finally:
            s[2] = _clock()

    setattr(owner, attr, wrapper)


def _hook_span(name: str, count_key: str | None = None):
    """Context-manager factory for the library's solver span hooks,
    which call it with the row (or system) count of the solve."""
    rec = _RECORDER

    @contextlib.contextmanager
    def hook(n: int):
        if count_key is not None:
            rec.count(count_key + ".calls")
            rec.count(count_key + ".rows", n)
        span = rec.begin(name)
        try:
            yield
        finally:
            rec.end(span)

    return hook


def _wrap_read_reply(name: str) -> None:
    """Time blocked in ``PulseClient.read_reply`` as a wait span tagged
    with the peer's port."""
    from repro.server.client import PulseClient

    rec = _RECORDER
    read_reply = vars(PulseClient)["read_reply"]

    def wrapper(self, req_id):
        span = rec.begin(name, {"peer": self._addr[1]})
        try:
            return read_reply(self, req_id)
        finally:
            rec.end(span)

    PulseClient.read_reply = wrapper


_RECORDER: Recorder | None = None


def install(role: str) -> Recorder:
    """Wrap the layer entry points in this process; returns the store."""
    global _RECORDER
    _RECORDER = rec = Recorder(role)

    import repro.bench.queries  # noqa: F401  (binds plan_query by name)
    import repro.core.transform as transform
    import repro.engine.lowering as lowering
    import repro.query as query
    from repro.core import batch_solver, equation_system
    from repro.core.equation_system import EquationSystem
    from repro.core.intervals import TimeSet
    from repro.core.modes import HistoricalProcessor
    from repro.core.operators import base as cbase
    from repro.core.operators.filter_op import ContinuousFilter
    from repro.core.operators.join_op import ContinuousJoin
    from repro.engine.durability import Durability
    from repro.engine.operators import base as dbase
    from repro.engine.scheduler import QueryRuntime
    from repro.engine.wal import WriteAheadLog
    from repro.fitting.model_builder import StreamModelBuilder
    from repro.server import protocol
    from repro.server.bridge import EngineBridge
    from repro.server.client import PulseClient
    from repro.server.router import PulseRouter
    from repro.server.server import PulseServer

    # server.protocol: wire decode/encode and result serialization.
    _wrap(protocol, "decode_line", "protocol.decode",
          lambda r, res, a: r.count("protocol.bytes_in", len(a[0])))
    _wrap(protocol, "encode", "protocol.encode",
          lambda r, res, a: r.count("protocol.bytes_out", len(res)))
    _wrap(protocol, "serialize_results", "protocol.serialize")

    # server.router: request dispatch, worker sends and waits.
    _wrap(PulseRouter, "_dispatch", "router.request")

    def _sent(r, res, args):
        if len(args) > 1 and args[1] == "ingest":
            r.count("router.worker_ingests")

    _wrap(PulseClient, "send_request", None, _sent)
    _wrap_read_reply("router.worker_wait")
    _wrap(PulseRouter, "_op_ingest", None,
          lambda r, res, a: r.count("router.ingests"))

    # server.server / server.bridge.
    _wrap_async(PulseServer, "_dispatch", "server.request")
    _wrap(PulseServer, "_deliver", "server.deliver")
    submit = vars(EngineBridge)["submit"]

    def _submit(self, fn):
        queued = _clock()

        def run():
            rec.count("bridge.queue_wait_s", _clock() - queued)
            return fn()

        return submit(self, run)

    EngineBridge.submit = _submit
    _wrap(EngineBridge, "_do_ingest", "bridge.ingest",
          lambda r, res, a: r.count("bridge.ingests"))
    _wrap(EngineBridge, "_do_flush", "bridge.flush")
    _wrap(EngineBridge, "_do_subscribe", "bridge.subscribe")
    _wrap(EngineBridge, "_do_register", "bridge.register")

    # engine.wal / engine.durability.
    _wrap(WriteAheadLog, "append", "wal.append")
    _wrap(WriteAheadLog, "_fdatasync_timed", "wal.fsync")
    _wrap(Durability, "checkpoint", "wal.checkpoint")

    # fitting.
    def _fitted(r, res, args):
        r.count("fit.tuples")
        r.count("fit.segments", len(res))

    _wrap(StreamModelBuilder, "add", "fit.add", _fitted)
    _wrap(StreamModelBuilder, "finish", "fit.finish",
          lambda r, res, a: r.count("fit.segments", len(res)))

    # engine.scheduler.
    run_until_idle = vars(QueryRuntime)["run_until_idle"]

    def _run_until_idle(self, *args, **kwargs):
        depth = self.total_pending
        counts = rec._state().counts
        if depth > counts["scheduler.queue_depth_max"]:
            counts["scheduler.queue_depth_max"] = depth
        s = rec.begin("scheduler.run")
        try:
            items = run_until_idle(self, *args, **kwargs)
        finally:
            rec.end(s)
        counts["scheduler.items"] += items
        return items

    QueryRuntime.run_until_idle = _run_until_idle

    # core.operators (continuous) and engine.operators (discrete).
    for root, label in ((cbase.ContinuousOperator, "operators.push"),
                        (dbase.DiscreteOperator, "discrete.push")):
        for cls in _subclasses(root):
            if "process" in vars(cls):
                _wrap(cls, "process", label)

    def _pairs(r, res, args):
        r.count("join.pairs_probed", len(args[1]))
        r.count("join.pairs_emitted", len(res))

    _wrap(ContinuousJoin, "_join_pairs", None, _pairs)

    def _filtered(r, res, args):
        r.count("filter.segments_in")
        if res:
            r.count("filter.segments_passed")

    _wrap(ContinuousFilter, "process", None, _filtered)

    # core.equation_system / core.batch_solver (existing span hooks).
    _wrap(EquationSystem, "from_predicate", "eqsys.build",
          lambda r, res, a: r.count("eqsys.systems_built"),
          classmethod_=True)
    equation_system.set_system_instrumentation(
        system_span=_hook_span("eqsys.solve"),
        batch_span=_hook_span("eqsys.solve"),
    )
    batch_solver.set_solver_instrumentation(
        solve_span=_hook_span("solver", "solver"),
        roots_span=_hook_span("solver.roots"),
    )

    # core.intervals: time-set construction (root sets) and algebra.
    for attr in ("__init__", "union", "intersect", "complement", "clip"):
        _wrap(TimeSet, attr, "intervals")

    # query: parsing, planning and plan compilation.
    for owner, attr in ((query, "parse_query"), (query, "plan_query"),
                        (transform, "to_continuous_plan"),
                        (lowering, "to_discrete_plan")):
        _wrap(owner, attr, "query.plan")

    # historical mode: one query of the what-if sweep.
    _wrap(HistoricalProcessor, "run", "whatif.run")
    return rec


def install_client() -> Recorder:
    """The load generator's side: time blocked waiting on replies."""
    global _RECORDER
    _RECORDER = rec = Recorder("client")
    _wrap_read_reply("client.wait")
    return rec


def _subclasses(root: type) -> list[type]:
    out, todo = [], [root]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _union(intervals: list[tuple[float, float]]) -> list[list[float]]:
    out: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1][1] = hi
        else:
            out.append([lo, hi])
    return out


def measure(intervals) -> float:
    return sum(hi - lo for lo, hi in intervals)


def _clip(lo: float, hi: float, windows: list[list[float]],
          starts: list[float] | None = None) -> list:
    """``[lo, hi)`` intersected with sorted disjoint ``windows``
    (``starts``: their precomputed left ends)."""
    if starts is None:
        starts = [w[0] for w in windows]
    out = []
    i = max(bisect.bisect_right(starts, lo) - 1, 0)
    while i < len(windows) and windows[i][0] < hi:
        a, b = max(lo, windows[i][0]), min(hi, windows[i][1])
        if b > a:
            out.append((a, b))
        i += 1
    return out


def _subtract(base: list, holes: list[list[float]],
              starts: list[float] | None = None) -> list:
    """Interval list ``base`` minus the sorted disjoint ``holes``."""
    if starts is None:
        starts = [h[0] for h in holes]
    out = []
    for lo, hi in base:
        cur = lo
        for a, b in _clip(lo, hi, holes, starts):
            if a > cur:
                out.append((cur, a))
            cur = max(cur, b)
        if cur < hi:
            out.append((cur, hi))
    return out


def self_intervals(spans: list, windows: list[list[float]],
                   threads: tuple[str, ...]) -> dict[int, list]:
    """Each path span's own time inside ``windows``: its clipped interval
    minus its children's, minus the top-level spans of the path threads
    ranked before its own; a coroutine span (no thread stack) loses every
    other top-level path span of the process."""
    rank = {}
    for i, s in enumerate(spans):
        for r, prefix in enumerate(threads):
            if s[3].startswith(prefix):
                rank[i] = r
                break
    starts = [w[0] for w in windows]
    clipped = {i: _clip(spans[i][1], spans[i][2], windows, starts)
               for i in rank}
    children: dict[int, list] = defaultdict(list)
    top_by_rank: list[list] = [[] for _ in threads]
    for i, r in rank.items():
        parent = spans[i][4]
        if parent is not None:
            children[parent].extend(clipped[i])
        elif not (spans[i][5] or {}).get("async"):
            top_by_rank[r].extend(clipped[i])
    # ahead[r]: time taken by the threads ranked before r.
    ahead, acc = [], []
    for r in range(len(threads)):
        union = _union(acc)
        ahead.append((union, [w[0] for w in union]))
        acc = acc + top_by_rank[r]
    top_union = _union(acc)
    top_starts = [w[0] for w in top_union]
    out = {}
    for i, r in rank.items():
        if (spans[i][5] or {}).get("async"):
            out[i] = _subtract(clipped[i], top_union, top_starts)
        else:
            own = _subtract(clipped[i], _union(children.get(i, [])))
            out[i] = _subtract(own, *ahead[r])
    return out


def blocking_path(pass_window: tuple[float, float], procs: list[dict]):
    """Per-layer self time on the blocking path of one closed-loop pass.

    ``procs`` is the client's dump first, then the front process (server,
    router or what-if process), then any workers, each a dump dict with
    ``spans``/``role`` plus ``windows``: the caller's wait windows this
    process fills (the client's whole pass for itself).  Returns
    ``(self_by_span_name, wall, unattributed, closure_error)`` where
    ``closure_error = |sum(self) + unattributed - wall| / wall``: any
    double-counted (concurrent) time on the path shows up there.
    """
    t0, t1 = pass_window
    wall = t1 - t0
    by_name: dict[str, float] = defaultdict(float)
    attributed = 0.0
    covered: list = []
    for proc in procs:
        spans = proc["spans"]
        threads = PATH_THREADS[proc["role"]]
        own = self_intervals(spans, proc["windows"], threads)
        for i, ivs in own.items():
            if spans[i][0] in WAIT_SPANS:
                continue
            t = measure(ivs)
            by_name[spans[i][0]] += t
            attributed += t
            covered.extend(ivs)
    unattributed = wall - measure(_union(covered))
    closure = abs(attributed + unattributed - wall) / wall
    return dict(by_name), wall, unattributed, closure


def wait_windows(spans: list, name: str, peer=None) -> list[list[float]]:
    """Sorted disjoint windows of a process's wait spans (``peer``
    selects the router's waits on one worker)."""
    return _union([
        (s[1], s[2]) for s in spans
        if s[0] == name
        and (peer is None or (s[5] or {}).get("peer") == peer)
    ])


def intersect(a: list[list[float]], b: list[list[float]]) -> list:
    """Intersection of two sorted disjoint window lists."""
    starts = [w[0] for w in b]
    return [list(iv) for lo, hi in a for iv in _clip(lo, hi, b, starts)]


def span_time(spans: list, name: str, windows: list[list[float]]) -> float:
    """Total time of every ``name`` span (any thread) inside windows."""
    starts = [w[0] for w in windows]
    return sum(measure(_clip(s[1], s[2], windows, starts))
               for s in spans if s[0] == name)


def mark_delta(marks: list[dict], start: str, end: str) -> dict:
    """Counts and registry counters accumulated between two marks."""
    by = {m["name"]: m for m in marks}
    a, b = by[start], by[end]
    out: dict = {}
    for section in ("counts", "counters"):
        for key, value in b[section].items():
            out[key] = value - a[section].get(key, 0)
    out["scheduler.queue_depth_max"] = b["counts"].get(
        "scheduler.queue_depth_max", 0)
    out["solve_cache.entries"] = b["solve_cache_entries"]
    return out
