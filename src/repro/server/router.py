"""Multi-node fleet front end: key-routed scatter with an ordinal merge.

:class:`PulseRouter` speaks the same NDJSON protocol as
:class:`~.server.PulseServer` but owns no engine; it holds one
:class:`~.client.PulseClient` per worker server.

**Routing.**  Every ingested tuple goes to worker ``shard_of(key, N)``
(:mod:`repro.engine.sharding`: stable BLAKE2b, the same placement in
every process), keyed on the registered fit spec's ``key_fields``.
That is the granularity at which Pulse's equation systems are
independent, so the worker that owns a key owns all of its arrivals.
``register``/``subscribe``/``flush`` fan out to every worker.
``ingest`` *scatters*: each worker gets its whole share of a client
batch as one request (one WAL record, one fsync), and every worker is
in flight before the router reads a reply.

**The contract.**  Queries must be per-key partitionable
(:mod:`repro.query.partition`): joins equi-keyed on the routing key
fields, aggregates grouped by them, every stream routed on the same
fields.  On fleets wider than one worker ``register`` refuses anything
else with error code ``not_partitionable``.

**Origins and the ordinal merge.**  Every worker output carries its
*origin*: the worker-local ingest offset of the arrival that produced
it (see :mod:`.bridge`).  Each worker's sent-but-unmerged share is its
*window* of ``(offset, ordinal, stream, tuple)`` with contiguous
offsets, so an origin maps straight back to the tuple's global arrival
ordinal.  While one client request is served, results are buffered
per subscription as ``(ordinal, result)`` and stable-sorted once every
worker has answered; each subscription gets one push, worker notices
follow, then the ack.  A single engine emits a batch's outputs in
arrival order and equal ordinals come from one worker, so this is
single-server order bit for bit.  Flush tails have no triggering
arrival; they sort by each key's arrival ordinal since the last flush
(:class:`~repro.engine.sharding.KeyOrdinals`, reset per barrier) —
the order a single engine's model builders drain in.

**Dedup.**  Per ``(worker, subscription)`` the router tracks
``collected``, the worker cursor merged through: a re-delivered prefix
is trimmed (``results[collected - cursor:]``), and a cursor *ahead* of
``collected`` is a loud :class:`PulseError`, never a silent gap.

**Fleet recovery.**  Workers run ``fsync_every=1`` and
``retain_results > 0``.  A worker whose socket dies is recovered while
its reply is gathered, so its outputs enter the same merge:

1. merge the pushes read before the crash (advancing ``collected``);
2. reconnect (bounded) and read the recovered durable offset
   (``stats.engine.durability.ingest_tuples``);
3. re-bind every subscription with ``attach(from_cursor=collected)``:
   the worker's retained-output replay closes the gap exactly once;
4. re-ingest the window's tuples at offsets ``>= durable``; older ones
   are in worker state already, their outputs replayed in step 3.

The window is one batch's share, so retention must cover one share's
outputs, and the merged stream is bit-exact through a worker
``SIGKILL``: no duplicate, no gap, no reordering.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field
from itertools import groupby

from ..core.errors import PulseError
from ..engine.metrics import get_counter
from ..engine.sharding import KeyOrdinals, ShardRouter, tuple_key
from ..query import parse_query, plan_query
from ..query.partition import PartitionError, check_partitionable
from . import protocol
from .client import PulseClient, ServerError

#: Counts an ingest ack's admission fields when summing across workers.
_COUNT_FIELDS = (
    "accepted", "blocked", "shed", "no_consumer", "fit_rejected",
)


@dataclass(frozen=True)
class RouterConfig:
    """Everything a router needs besides its workers' addresses."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read back from .port after start()
    #: Worker addresses as ``(host, port)`` pairs, in shard order:
    #: worker ``i`` owns the keys with ``shard_of(key, N) == i``.
    workers: tuple[tuple[str, int], ...] = ()
    #: Routing key fields for streams with no registered fit spec.
    #: Streams learn their real key fields from ``register`` requests
    #: that carry a fit; until then (or without one) this default
    #: applies, and an empty default routes the whole stream to
    #: worker 0 — consistent, just not spread.
    default_key_fields: tuple[str, ...] = ()
    #: Socket timeout for worker connections.
    timeout: float = 30.0
    #: Worker reconnect budget (see :meth:`PulseClient.reconnect`).
    reconnect_attempts: int = 40
    reconnect_base_s: float = 0.05
    reconnect_max_s: float = 0.5


class _WorkerLink:
    """The router's half of one worker connection."""

    __slots__ = (
        "index", "addr", "client", "sent", "unacked", "requests",
        "sub_map", "dead", "recoveries",
    )

    def __init__(self, index: int, addr: tuple[str, int],
                 config: RouterConfig):
        self.index = index
        self.addr = addr
        self.client = PulseClient(
            addr[0],
            addr[1],
            timeout=config.timeout,
            reconnect_attempts=config.reconnect_attempts,
            reconnect_base_s=config.reconnect_base_s,
            reconnect_max_s=config.reconnect_max_s,
        )
        self.client.connect()
        #: Tuples ever routed here; mirrors the worker's durable
        #: ``ingest_tuples`` offset once everything in flight is acked.
        self.sent = 0
        #: The window: ``(offset, ordinal, stream, tuple)`` sent but not
        #: yet merged, with contiguous offsets — the current batch's
        #: share, plus whatever a failed recovery still owes.
        self.unacked: list[tuple[int, int, str, dict]] = []
        #: Ingest requests sent (retransmissions included).
        self.requests = 0
        #: worker-side subscription id -> router subscription id.
        self.sub_map: dict[int, int] = {}
        self.dead = False
        self.recoveries = 0

    def ordinal_of(self, origin) -> int | None:
        """The global arrival ordinal of the window tuple at worker
        offset ``origin``; ``None`` outside the window."""
        window = self.unacked
        if origin is None or not window:
            return None
        index = origin - window[0][0]
        return window[index][1] if 0 <= index < len(window) else None


@dataclass
class _RouterSub:
    """One router-level subscription fanned out across the fleet."""

    sub_id: int
    query: str
    mode: str
    session_id: int
    graph: str | None = None
    #: Key fields used to order this subscription's flush tail.
    key_fields: tuple[str, ...] = ()
    #: Per-worker subscription ids (index = worker index).
    worker_subs: list = field(default_factory=list)
    #: Per-worker cursor merged through (the dedup line).
    collected: list = field(default_factory=list)
    #: Router-level cursor: results emitted to the subscriber.
    emitted: int = 0


@dataclass
class _Session:
    """One accepted client connection (handled on its own thread)."""

    session_id: int
    sock: socket.socket
    peer: str
    subscriptions: set = field(default_factory=set)
    requests: int = 0
    closing: bool = False
    thread: threading.Thread | None = None
    #: Encoded messages written during the current request; sent with
    #: one ``sendall`` when the request finishes.
    outbox: list = field(default_factory=list)


class PulseRouter:
    """A thread-per-session TCP front end over N worker servers.

    All request dispatch and all merge/emit work runs under one
    router-wide lock: client requests serialize exactly like commands
    on a single server's engine thread, which is what makes "global
    arrival order" well defined for the fleet.  Worker I/O is blocking
    and happens while holding the lock — workers only push during
    router-issued requests, so there is nothing to wait on otherwise.
    """

    def __init__(self, config: RouterConfig):
        if not config.workers:
            raise ValueError("router needs at least one worker address")
        self.config = config
        self._lock = threading.RLock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._workers: list[_WorkerLink] = []
        self._shards = ShardRouter(len(config.workers))
        self._sessions: dict[int, _Session] = {}
        self._dirty: list[_Session] = []
        self._subs: dict[int, _RouterSub] = {}
        self._next_session = 1
        self._next_sub = 1
        #: Valid tuples routed so far: the next arrival's ordinal.
        self._arrivals = 0
        #: stream name -> routing key fields (learned from registers).
        self._stream_keys: dict[str, tuple[str, ...]] = {}
        self._key_ordinals = KeyOrdinals()
        #: Flush-tail merge order.  A single engine's model builders
        #: are cleared at every flush and re-inserted on each key's
        #: next arrival, so its tails drain in arrival-since-last-flush
        #: order — hence a second ordinal map, reset at each barrier.
        self._flush_ordinals = KeyOrdinals()
        #: While an ingest or flush gathers its workers' replies: router
        #: sub id -> ``[(ordinal, result), ...]``, and worker notices.
        self._buffer: tuple[dict, list] | None = None
        self._stopping = False
        self.port: int | None = None
        self._routed_counter = get_counter("router.tuples_routed")
        self._merged_counter = get_counter("router.results_merged")
        self._recovery_counter = get_counter("router.worker_recoveries")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PulseRouter":
        for index, addr in enumerate(self.config.workers):
            self._workers.append(
                _WorkerLink(index, tuple(addr), self.config)
            )
        listener = socket.create_server(
            (self.config.host, self.config.port), reuse_port=False
        )
        listener.listen(32)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="pulse-router-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Close the listener and every session, join their threads,
        then close the worker links."""
        self._stopping = True
        listener, self._listener = self._listener, None
        if listener is not None:
            _shutdown(listener)  # wakes the blocked accept()
            listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        with self._lock:
            sessions = list(self._sessions.values())
            for session in sessions:
                session.closing = True
                # The workers go down with the router; nothing to undo.
                session.subscriptions.clear()
                _shutdown(session.sock)  # wakes the session's read
        for session in sessions:
            session.thread.join(timeout=5)
        with self._lock:
            self._sessions.clear()
            for worker in self._workers:
                worker.client.close()

    def __enter__(self) -> "PulseRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None and not self._stopping:
            try:
                sock, peername = listener.accept()
            except OSError:
                return  # listener shut down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                session_id = self._next_session
                self._next_session += 1
                peer = f"{peername[0]}:{peername[1]}" if peername else "?"
                session = _Session(session_id, sock, peer)
                self._sessions[session_id] = session
                session.thread = threading.Thread(
                    target=self._session_loop,
                    args=(session,),
                    name=f"pulse-router-session-{session_id}",
                    daemon=True,
                )
                session.thread.start()

    def _session_loop(self, session: _Session) -> None:
        reader = session.sock.makefile("rb")
        try:
            while not session.closing:
                line = reader.readline()
                if not line:
                    break
                if line.strip() == b"":
                    continue
                self._dispatch(session, line)
        except (OSError, ValueError):
            pass
        finally:
            reader.close()
            self._close_session(session)

    def _close_session(self, session: _Session) -> None:
        with self._lock:
            session.closing = True
            self._sessions.pop(session.session_id, None)
            for sub_id in list(session.subscriptions):
                sub = self._subs.pop(sub_id, None)
                if sub is not None:
                    self._unsubscribe_workers(sub, strict=False)
            session.subscriptions.clear()
            self._flush_writes()
            try:
                session.sock.close()
            except OSError:
                pass

    def _write(self, session: _Session, message: dict) -> None:
        if session.closing:
            return
        if not session.outbox:
            self._dirty.append(session)
        session.outbox.append(protocol.encode(message))

    def _flush_writes(self) -> None:
        """Send every session's pending messages, one ``sendall`` each."""
        for session in self._dirty:
            data = b"".join(session.outbox)
            session.outbox.clear()
            if session.closing:
                continue
            try:
                session.sock.sendall(data)
            except OSError:
                session.closing = True
        self._dirty.clear()

    def _broadcast(self, message: dict) -> None:
        for session in self._sessions.values():
            self._write(session, message)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, session: _Session, line: bytes) -> None:
        req_id = None
        with self._lock:
            session.requests += 1
            try:
                obj = protocol.decode_line(line)
                req_id = obj.get("id")
                op = protocol.validate_request(obj)
                handler = getattr(self, f"_op_{op}")
                response = handler(session, obj)
                if req_id is not None:
                    response["id"] = req_id
                self._write(session, response)
            except Exception as exc:  # one bad request never kills a session
                # Typed errors, a worker's included, keep their code.
                self._write(session, protocol.error_response(req_id, exc))
            finally:
                self._flush_writes()

    # ------------------------------------------------------------------
    # the merge edge
    # ------------------------------------------------------------------
    def _merge_worker_pushes(self, worker: _WorkerLink) -> None:
        """Drain one worker's buffered pushes through dedup into the
        subscriber stream (or the current request's merge buffer)."""
        client = worker.client
        buffer = self._buffer
        while client.pushed:
            msg = client.pushed.popleft()
            if msg.get("type") != "result":
                notice = dict(msg)
                notice["worker"] = worker.index
                if buffer is not None:
                    buffer[1].append(notice)
                else:
                    self._broadcast(notice)
                continue
            sub_id = worker.sub_map.get(msg.get("subscription"))
            sub = self._subs.get(sub_id) if sub_id is not None else None
            if sub is None:
                continue  # unsubscribed since; nothing to deliver to
            results, origins = msg["results"], msg["origins"]
            expected = sub.collected[worker.index]
            cursor = msg.get("cursor", expected)
            if cursor > expected:
                raise PulseError(
                    f"merge gap: worker {worker.index} pushed cursor "
                    f"{cursor} for subscription {sub.sub_id} but only "
                    f"{expected} outputs were merged"
                )
            skip = expected - cursor
            sub.collected[worker.index] = max(
                expected, cursor + len(results)
            )
            if skip >= len(results):
                continue  # fully re-delivered; dedup swallowed it
            pairs = [
                (worker.ordinal_of(origin), res)
                for origin, res in zip(origins[skip:], results[skip:])
            ]
            if buffer is not None:
                buffer[0].setdefault(sub.sub_id, []).extend(pairs)
            else:
                self._emit(sub, msg, pairs, worker.index)

    def _emit(self, sub: _RouterSub, template: dict, pairs: list,
              worker_index: int) -> None:
        """Push ``(ordinal, result)`` pairs to the subscriber."""
        message = {
            "type": "result",
            "subscription": sub.sub_id,
            "query": template.get("query", sub.query),
            "mode": template.get("mode", sub.mode),
            "graph": template.get("graph", sub.graph),
            "seq": sub.emitted,
            "cursor": sub.emitted,
            "worker": worker_index,
            "results": [res for _origin, res in pairs],
            "origins": [origin for origin, _res in pairs],
        }
        sub.emitted += len(pairs)
        self._merged_counter.bump(len(pairs))
        session = self._sessions.get(sub.session_id)
        if session is not None:
            self._write(session, message)

    def _gather(self, pending: list, on_dead, sort_key) -> list[dict]:
        """Read each ``(worker, request id)`` reply in ``pending``,
        merging the worker's pushes into the buffer; a worker found down
        goes to ``on_dead``, whose return stands in for its ack.  Every
        reply is drained even if one fails (no stale reply stays on a
        socket).  Then each subscription's results are stable-sorted by
        ``sort_key(sub, (ordinal, result))`` and emitted, notices
        follow, and the first failure is raised."""
        self._buffer = results, notices = {}, []
        acks: list[dict] = []
        error: Exception | None = None
        try:
            for worker, req_id in pending:
                try:
                    ack = self._read_ack(worker, req_id)
                    if worker.dead:
                        ack = on_dead(worker)
                    self._merge_worker_pushes(worker)
                except (OSError, PulseError) as exc:
                    error = error or exc
                    continue
                worker.unacked.clear()
                acks.append(ack)
        finally:
            self._buffer = None
            for sub_id, pairs in results.items():
                sub = self._subs.get(sub_id)
                if sub is not None:
                    pairs.sort(key=lambda pair: sort_key(sub, pair))
                    self._emit(sub, {}, pairs, -1)
            for notice in notices:
                self._broadcast(notice)
        if error is not None:
            raise error
        return acks

    @staticmethod
    def _send(worker: _WorkerLink, op: str, **fields) -> int | None:
        """Send one request; ``None`` (and the worker marked down) when
        the worker cannot take it."""
        if worker.dead:
            return None
        try:
            return worker.client.send_request(op, **fields)
        except OSError:
            worker.dead = True
            return None

    @staticmethod
    def _read_ack(worker: _WorkerLink, req_id: int | None) -> dict | None:
        """The reply to ``req_id``; ``None`` once the worker is down."""
        if req_id is None or worker.dead:
            return None
        try:
            return worker.client.read_reply(req_id)
        except OSError:
            pass
        except ServerError as exc:
            if exc.code != "eof":
                raise  # a typed refusal, not a dead worker
        worker.dead = True
        return None

    @staticmethod
    def _arrival_key(sub: _RouterSub, pair: tuple) -> int:
        """Ingest merge order: the producing tuple's global ordinal
        (outputs from before the window sort first)."""
        return -1 if pair[0] is None else pair[0]

    def _flush_key(self, sub: _RouterSub, pair: tuple) -> int:
        """Flush merge order: the result key's arrival-since-last-flush
        ordinal (the single-engine tail drain order)."""
        key = pair[1].get("key")
        return self._flush_ordinals.ordinal_of(
            tuple(key) if key is not None
            else tuple_key(pair[1], sub.key_fields)
        )

    # ------------------------------------------------------------------
    # fleet recovery
    # ------------------------------------------------------------------
    def _ensure_alive(self, worker: _WorkerLink) -> None:
        if worker.dead:
            self._recover_worker(worker)

    def _recover_worker(self, worker: _WorkerLink) -> dict:
        """The fleet half of crash recovery (see the module docstring);
        returns synthesized ingest counts for the window."""
        # 1. Pushes read before the crash advance the dedup line first,
        #    so attach's from_cursor never re-requests merged outputs.
        self._merge_worker_pushes(worker)
        worker.client.reconnect()  # bounded; ReconnectExhausted surfaces
        worker.recoveries += 1
        self._recovery_counter.bump()
        # 2. What did the worker's WAL see?
        stats = worker.client.stats()
        self._merge_worker_pushes(worker)
        durability = stats.get("engine", {}).get("durability")
        if not durability:
            raise ServerError(
                f"worker {worker.index} at {worker.addr[0]}:"
                f"{worker.addr[1]} is not durable; fleet recovery "
                f"requires workers with a WAL directory"
            )
        durable = durability["ingest_tuples"]
        # 3. Re-bind subscriptions; retained-output replay closes the
        #    delivery gap [collected, recovered cursor) exactly once.
        for sub in self._subs.values():
            if worker.index >= len(sub.worker_subs):
                continue  # mid-fan-out: this worker never saw the sub
            wsub = sub.worker_subs[worker.index]
            worker.client.attach(
                wsub, from_cursor=sub.collected[worker.index]
            )
            self._merge_worker_pushes(worker)
        # 4. Retransmit what the WAL never saw; older window tuples are
        #    already in worker state (their outputs came via the attach
        #    replay) and must NOT be re-ingested.  The window stays put
        #    until the retransmission's outputs are merged through it.
        resend = [entry for entry in worker.unacked if entry[0] >= durable]
        counts = dict.fromkeys(_COUNT_FIELDS, 0)
        # Durable means admitted before the crash.
        counts["accepted"] = len(worker.unacked) - len(resend)
        for stream, entries in groupby(resend, key=lambda entry: entry[2]):
            ack = worker.client.ingest(
                stream, [entry[3] for entry in entries]
            )
            worker.requests += 1
            self._merge_worker_pushes(worker)
            for name in _COUNT_FIELDS:
                counts[name] += ack.get(name, 0)
        worker.unacked.clear()
        worker.dead = False
        return counts

    def _recover_and_flush(self, worker: _WorkerLink) -> dict:
        self._recover_worker(worker)
        return worker.client.flush()

    # ------------------------------------------------------------------
    # ingest: per-batch scatter, ordinal merge
    # ------------------------------------------------------------------
    def _op_ingest(self, session: _Session, obj: dict) -> dict:
        stream, valid, rejected, rejected_nonfinite = (
            protocol.validate_ingest(obj)
        )
        key_fields = self._stream_keys.get(
            stream, self.config.default_key_fields
        )
        shares: list[list[tuple[int, dict]]] = [[] for _ in self._workers]
        for ordinal, tup in enumerate(valid, start=self._arrivals):
            key = tuple_key(tup, key_fields)
            self._key_ordinals.observe(key)
            self._flush_ordinals.observe(key)
            shares[self._shards.shard_of(key)].append((ordinal, dict(tup)))
        self._arrivals += len(valid)
        self._routed_counter.bump(len(valid))
        # Scatter: every share is in flight before any reply is read.
        pending = [
            (worker, self._send_share(worker, stream, share))
            for worker, share in zip(self._workers, shares)
            if share
        ]
        acks = self._gather(pending, self._recover_worker, self._arrival_key)
        return {
            "type": "ack",
            "stream": stream,
            "rejected": rejected,
            "rejected_nonfinite": rejected_nonfinite,
            "runs": len(pending),
            **{
                name: sum(ack.get(name, 0) for ack in acks)
                for name in _COUNT_FIELDS
            },
        }

    def _send_share(self, worker: _WorkerLink, stream: str,
                    share: list[tuple[int, dict]]) -> int | None:
        base = worker.sent
        # Sent-accounting happens whether or not the bytes make it: a
        # send that errors mid-way may still have delivered the full
        # request, so recovery must treat it as in flight.
        worker.unacked.extend(
            (base + i, ordinal, stream, tup)
            for i, (ordinal, tup) in enumerate(share)
        )
        worker.sent += len(share)
        req_id = self._send(
            worker, "ingest", stream=stream,
            tuples=[tup for _ordinal, tup in share],
        )
        if req_id is not None:
            worker.requests += 1
        return req_id

    # ------------------------------------------------------------------
    # fan-out ops
    # ------------------------------------------------------------------
    def _op_hello(self, session: _Session, obj: dict) -> dict:
        if obj.get("backpressure") is not None:
            raise protocol.ProtocolError(
                "router sessions do not carry a per-session backpressure "
                "policy; configure the workers"
            )
        worker = self._workers[0]
        self._ensure_alive(worker)
        hello = worker.client.connect()
        self._merge_worker_pushes(worker)
        return {
            "type": "hello",
            "server": protocol.SERVER_NAME,
            "protocol": protocol.PROTOCOL_VERSION,
            "role": "router",
            "workers": len(self._workers),
            "queries": hello.get("queries", []),
            "streams": hello.get("streams", []),
        }

    def _check_partitionable(self, text: str, fit) -> None:
        """Refuse a query the fleet cannot merge exactly (see the
        module docstring)."""
        if len(self._workers) == 1:
            return  # one worker sees every key
        planned = plan_query(parse_query(text))
        fit_keys = fit.get("key_fields") if isinstance(fit, dict) else None
        routing = {
            stream: self._stream_keys.get(
                stream, tuple(fit_keys or self.config.default_key_fields)
            )
            for stream in planned.stream_sources
        }
        if len(set(routing.values())) > 1:
            raise PartitionError(
                f"streams route on different key fields {routing}; a "
                f"fleet cannot co-partition them"
            )
        key_fields = next(iter(routing.values()), ())
        if key_fields:  # unkeyed streams all route to worker 0
            check_partitionable(planned.root, key_fields)

    def _op_register(self, session: _Session, obj: dict) -> dict:
        name, text, fit = protocol.validate_register(obj)
        self._check_partitionable(text, fit)
        first_ack: dict | None = None
        for worker in self._workers:
            self._ensure_alive(worker)
            try:
                ack = worker.client.register(name, text, fit)
            except ServerError as exc:
                if exc.code == "eof":
                    worker.dead = True
                    self._recover_worker(worker)
                    try:
                        ack = worker.client.register(name, text, fit)
                    except ServerError as retry_exc:
                        if "already registered" not in str(retry_exc):
                            raise
                        # The pre-crash register was durable.
                        ack = {"registered": name, "streams": []}
                elif worker.index > 0 and "already registered" in str(exc):
                    # A previous partially-failed register reached this
                    # worker; converging on registered is the fix.
                    ack = {"registered": name, "streams": []}
                else:
                    raise
            self._merge_worker_pushes(worker)
            if first_ack is None or ack.get("streams"):
                first_ack = ack
        assert first_ack is not None
        # Routing learns its key fields here: the fit's key_fields are
        # the granularity at which this query's streams partition.
        if isinstance(fit, dict) and fit.get("key_fields"):
            fields = tuple(fit["key_fields"])
            for stream in first_ack.get("streams", ()):
                self._stream_keys.setdefault(stream, fields)
        return {
            "type": "ack",
            "workers": len(self._workers),
            **{k: v for k, v in first_ack.items() if k != "id"},
        }

    def _op_subscribe(self, session: _Session, obj: dict) -> dict:
        query, mode, bound = protocol.validate_subscribe(obj)
        sub_id = self._next_sub
        self._next_sub += 1
        sub = _RouterSub(
            sub_id=sub_id, query=query, mode=mode,
            session_id=session.session_id,
        )
        self._subs[sub_id] = sub
        last_ack: dict | None = None
        try:
            for worker in self._workers:
                self._ensure_alive(worker)
                ack = worker.client.subscribe(query, mode, bound)
                worker.sub_map[ack["subscription"]] = sub_id
                sub.worker_subs.append(ack["subscription"])
                sub.collected.append(ack.get("cursor", 0))
                self._merge_worker_pushes(worker)
                last_ack = ack
        except Exception:
            # Roll back the partial fan-out so no orphan mapping can
            # route results to a subscription that never existed.
            self._unsubscribe_workers(sub, strict=False)
            del self._subs[sub_id]
            raise
        assert last_ack is not None
        sub.graph = last_ack.get("graph")
        streams = last_ack.get("streams", [])
        for stream in streams:
            if stream in self._stream_keys:
                sub.key_fields = self._stream_keys[stream]
                break
        else:
            sub.key_fields = self.config.default_key_fields
        session.subscriptions.add(sub_id)
        return {
            "type": "ack",
            "subscription": sub_id,
            "graph": sub.graph,
            "mode": mode,
            "error_bound": last_ack.get("error_bound"),
            "solve_bound": last_ack.get("solve_bound"),
            "cursor": 0,
            "streams": streams,
            "workers": len(self._workers),
        }

    def _op_unsubscribe(self, session: _Session, obj: dict) -> dict:
        sub_id = obj.get("subscription")
        if sub_id not in session.subscriptions:
            raise protocol.ProtocolError(
                f"subscription {sub_id!r} does not belong to this session"
            )
        self._unsubscribe_workers(self._subs[sub_id], strict=True)
        session.subscriptions.discard(sub_id)
        del self._subs[sub_id]
        return {"type": "ack", "subscription": sub_id}

    def _unsubscribe_workers(self, sub: _RouterSub, strict: bool) -> None:
        """Drop ``sub`` on every worker that has it.  A failure raises
        when ``strict``; otherwise it marks that worker down."""
        for worker in self._workers[: len(sub.worker_subs)]:
            wsub = sub.worker_subs[worker.index]
            worker.sub_map.pop(wsub, None)
            try:
                self._ensure_alive(worker)
                worker.client.unsubscribe(wsub)
                self._merge_worker_pushes(worker)
            except (OSError, PulseError):
                if strict:
                    raise
                worker.dead = True

    def _op_attach(self, session: _Session, obj: dict) -> dict:
        """Re-bind a router subscription to a new client session.

        Router-level delivery continuity across a *router* crash is
        out of scope (workers already hold the durable state); what
        attach gives a reconnecting client here is ownership of a
        live subscription another session abandoned.
        """
        sub_id = obj.get("subscription")
        sub = self._subs.get(sub_id)
        if sub is None:
            raise protocol.ProtocolError(
                f"subscription {sub_id!r} is not live on this router"
            )
        if obj.get("from_cursor") is not None:
            raise protocol.ProtocolError(
                "router-level replay is not supported; the router "
                "already maintains cursor continuity across worker "
                "crashes"
            )
        previous = self._sessions.get(sub.session_id)
        if previous is not None and previous is not session:
            previous.subscriptions.discard(sub_id)
        sub.session_id = session.session_id
        session.subscriptions.add(sub_id)
        return {
            "type": "ack",
            "subscription": sub_id,
            "graph": sub.graph,
            "query": sub.query,
            "mode": sub.mode,
            "cursor": sub.emitted,
            "workers": len(self._workers),
        }

    def _op_flush(self, session: _Session, obj: dict) -> dict:
        """Fleet flush: fan out, then key-ordinal-merge the tails.

        A single engine drains its fitted-model tails in key arrival
        order *since the last flush* (its per-key builders are cleared
        at every barrier and re-inserted on the next arrival); the
        fleet drains worker-major.  Sorting the gathered flush results
        by each key's since-last-flush ordinal restores the
        single-engine order bit-exactly (workers emit their own tails
        already in that order, and arrival order within one key lives
        entirely on one worker).
        """
        try:
            pending = [
                (worker, self._send(worker, "flush"))
                for worker in self._workers
            ]
            acks = self._gather(
                pending, self._recover_and_flush, self._flush_key
            )
            return {
                "type": "ack",
                "flushed_segments": sum(
                    ack.get("flushed_segments", 0) for ack in acks
                ),
                "processed": sum(ack.get("processed", 0) for ack in acks),
            }
        finally:
            # The barrier drained every builder; the next epoch's tail
            # order starts from a clean slate.
            self._flush_ordinals = KeyOrdinals()

    def _op_checkpoint(self, session: _Session, obj: dict) -> dict:
        acks = []
        for worker in self._workers:
            self._ensure_alive(worker)
            ack = worker.client._request("checkpoint")
            self._merge_worker_pushes(worker)
            acks.append({k: v for k, v in ack.items()
                         if k not in ("id", "type")})
        return {"type": "ack", "workers": acks}

    def _op_stats(self, session: _Session, obj: dict) -> dict:
        workers = []
        for worker in self._workers:
            entry: dict = {
                "worker": worker.index,
                "addr": f"{worker.addr[0]}:{worker.addr[1]}",
                "sent": worker.sent,
                "unacked": len(worker.unacked),
                "requests": worker.requests,
                "dead": worker.dead,
                "recoveries": worker.recoveries,
            }
            if not worker.dead:
                try:
                    stats = worker.client.stats()
                    self._merge_worker_pushes(worker)
                    entry["durable_tuples"] = (
                        stats.get("engine", {})
                        .get("durability", {})
                        .get("ingest_tuples")
                    )
                except (OSError, ServerError):
                    worker.dead = True
            workers.append(entry)
        return {
            "type": "stats",
            "role": "router",
            "session": {
                "session": session.session_id,
                "requests": session.requests,
            },
            "connections": len(self._sessions),
            "workers": workers,
            "subscriptions": {
                str(sub_id): {
                    "emitted": sub.emitted,
                    "collected": list(sub.collected),
                }
                for sub_id, sub in self._subs.items()
            },
            "streams": {
                stream: list(fields)
                for stream, fields in self._stream_keys.items()
            },
            "keys_seen": len(self._key_ordinals),
        }


def _shutdown(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not connected (any more)
