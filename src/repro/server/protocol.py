"""Wire protocol: newline-delimited JSON over TCP (version 1).

Every message is one JSON object on one ``\\n``-terminated line, UTF-8
encoded.  Requests carry an ``op`` and an optional ``id`` the server
echoes back, so clients can match responses while unsolicited pushes
(results, alerts) interleave freely.

Client -> server requests::

    {"op": "hello", "id": 1, "backpressure": "shed-newest"?}
    {"op": "register", "id": 2, "name": "q1", "query": "select ...",
     "fit": {"attrs": ["x"], "key_fields": ["id"], "constants": []}?}
    {"op": "subscribe", "id": 3, "query": "q1",
     "mode": "continuous"|"discrete", "error_bound": 0.05?}
    {"op": "unsubscribe", "id": 4, "subscription": 7}
    {"op": "attach", "id": 9, "subscription": 7, "from_cursor": 42?}
    {"op": "ingest", "id": 5, "stream": "objects",
     "tuples": [{"time": 0.0, "id": "a", "x": 1.5}, ...]}
    {"op": "flush", "id": 6}
    {"op": "stats", "id": 7}

Server -> client responses (``id`` echoed) and pushes (no ``id``)::

    {"type": "hello", "id": 1, "server": "pulse-repro", "protocol": 1,
     "queries": [...], "streams": [...]}
    {"type": "ack", "id": ..., ...op-specific fields...}
    {"type": "error", "id": ..., "code": "protocol"|"plan"|"server",
     "error": "..."}
    {"type": "result", "subscription": 7, "query": "q1",
     "mode": "continuous", "graph": "q1~c", "seq": 0, "cursor": 0,
     "results": [...], "origins": [...]}
    {"type": "alert", "kind": "slow_solve", ...}
    {"type": "backpressure", "policy": ..., "shed": n, "blocked": n,
     "dropped_results": n}
    {"type": "breaker", "open": [["q1", ["key"]], ...]}

Subscriptions to one query share a single operator graph (the ``ack``
names it in ``graph`` and reports the graph's current ``solve_bound``
next to the subscription's own ``error_bound``); each ``result`` push
carries the subscription id plus that subscription's ``cursor`` — its
durable per-subscription delivery offset — and ``origins``, parallel
to ``results``: the ingest offset of the arrival that produced each
result (``null`` for flush tails).  ``attach`` re-binds a
subscription that survived a server restart (sessions are ephemeral;
subscriptions and their cursors are durable) to the calling session.

**Fleet fields.**  Multi-node deployments put the router
(:mod:`.router`) between clients and N key-partitioned worker
servers; the fields that exist for its sake are usable by any client:

* ``attach`` may carry ``from_cursor``; against a server running with
  result retention (``retain_results``), the ack then carries
  ``replayed`` — the serialized outputs at cursor positions
  ``[from_cursor, cursor)`` — and their ``replayed_origins``,
  re-delivered so a delivery stream torn by a crash resumes with no
  gap.  ``from_cursor`` older than the
  retention window is a typed ``plan`` error, never a silent gap.
* The router's own ``hello`` ack adds ``workers`` (fleet width) and
  ``role: "router"``; its ``result`` pushes carry ``seq`` — the
  router-merged global result sequence for that subscription — and
  ``origins`` counted in the router's own arrival order, so they equal
  the origins a single server would report for the same ingests.

Results are serialized segments in continuous mode (``key``,
``t_start``, ``t_end``, ``models`` mapping attribute -> ascending
coefficient list, ``constants``) and plain tuple objects in discrete
mode.  JSON floats round-trip exactly (``repr`` precision), which is
what makes the loopback parity tests bit-exact.

**The finite boundary.**  Python's ``json`` parses the non-standard
``NaN`` / ``Infinity`` / ``-Infinity`` literals into non-finite floats
by default, so the moment tuples arrive off the wire the replay bug
fixed in :func:`repro.workloads.replay.read_trace` would become
remotely triggerable.  :func:`validate_tuple` applies the same rule:
non-finite numerics are malformed, the tuple is rejected and counted,
and the engine never sees it.  On the way out, :func:`encode` sets
``allow_nan=False`` so a non-finite value can never be *emitted*
silently either — the engine's own guards make that unreachable, and
if they ever regress the server fails loudly instead of shipping
``NaN`` to clients.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

from ..core.errors import PulseError
from ..core.segment import Segment
from ..engine.tuples import StreamTuple

#: Bumped when the wire format changes incompatibly.
PROTOCOL_VERSION = 1

SERVER_NAME = "pulse-repro"

#: Every request op the server understands.
OPS = (
    "hello",
    "register",
    "subscribe",
    "unsubscribe",
    "attach",
    "ingest",
    "flush",
    "checkpoint",
    "stats",
)

#: Subscription modes (the two engine paths).
MODES = ("continuous", "discrete")


class ProtocolError(PulseError):
    """A wire message violates the protocol; carries an error ``code``."""

    def __init__(self, message: str, code: str = "protocol"):
        self.code = code
        super().__init__(message)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode(message: Mapping) -> bytes:
    """One message -> one UTF-8 JSON line (strictly finite floats)."""
    return (
        json.dumps(message, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    """One received line -> message object.

    Non-object payloads and invalid JSON raise :class:`ProtocolError`;
    non-finite float literals *parse* here (stock ``json.loads``
    behaviour) and are rejected per-tuple by :func:`validate_tuple`, so
    one poisoned tuple costs one rejection, not the whole batch.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def validate_request(obj: dict) -> str:
    """Check the request envelope; returns the ``op``."""
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request has no 'op' field")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; known ops: {list(OPS)}")
    req_id = obj.get("id")
    if req_id is not None and not isinstance(req_id, (int, str)):
        raise ProtocolError("'id' must be an integer or string")
    return op


def validate_register(obj: dict) -> tuple[str, str, object]:
    """Check a ``register`` request; returns ``(name, query, fit)``
    (``fit`` unchecked: the engine parses it)."""
    name = obj.get("name")
    text = obj.get("query")
    if not isinstance(name, str) or not name:
        raise ProtocolError("'name' must be a non-empty string")
    if not isinstance(text, str) or not text:
        raise ProtocolError("'query' must be a non-empty string")
    return name, text, obj.get("fit")


def validate_subscribe(obj: dict) -> tuple[str, str, float | None]:
    """Check a ``subscribe`` request; returns ``(query, mode,
    error_bound)``."""
    query = obj.get("query")
    if not isinstance(query, str):
        raise ProtocolError("'query' must be a string")
    mode = obj.get("mode", "continuous")
    if mode not in MODES:
        raise ProtocolError(f"mode must be one of {MODES}")
    bound = obj.get("error_bound")
    if bound is not None:
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            raise ProtocolError("'error_bound' must be a number")
        bound = float(bound)
        if not bound > 0:
            raise ProtocolError("'error_bound' must be positive")
    return query, mode, bound


def validate_ingest(obj: dict) -> tuple[str, list, int, int]:
    """Check an ``ingest`` request; returns ``(stream, valid tuples,
    rejected, rejected_nonfinite)``.  A bad tuple is counted and
    skipped (:func:`validate_tuple`), never fatal to its batch."""
    stream = obj.get("stream")
    if not isinstance(stream, str) or not stream:
        raise ProtocolError("'stream' must be a non-empty string")
    raw_tuples = obj.get("tuples")
    if not isinstance(raw_tuples, list):
        raise ProtocolError("'tuples' must be a list")
    valid = []
    rejected = rejected_nonfinite = 0
    for raw in raw_tuples:
        try:
            valid.append(validate_tuple(raw))
        except ProtocolError as exc:
            rejected += 1
            rejected_nonfinite += exc.code == "nonfinite"
    return stream, valid, rejected, rejected_nonfinite


# ----------------------------------------------------------------------
# tuples: the ingest boundary
# ----------------------------------------------------------------------
#: JSON scalar types admissible as tuple attribute values.
_SCALARS = (bool, int, float, str)


def validate_tuple(obj: object) -> StreamTuple:
    """Validate one ingested tuple; returns it as a :class:`StreamTuple`.

    Enforced here, before anything reaches the engine:

    * the tuple is a flat JSON object (no nested containers);
    * it carries a numeric, finite ``time`` field;
    * every numeric value is finite — ``NaN``/``Infinity`` literals
      that ``json.loads`` admits are rejected exactly like the CSV
      replay path rejects ``nan``/``inf`` text.

    Raises :class:`ProtocolError`; callers count the rejection and move
    on to the next tuple (skip-and-count, mirroring lenient replay).
    """
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"tuple must be a JSON object, got {type(obj).__name__}"
        )
    time_value = obj.get(StreamTuple.TIME_FIELD)
    if isinstance(time_value, bool) or not isinstance(
        time_value, (int, float)
    ):
        raise ProtocolError("tuple has no numeric 'time' field")
    for field, value in obj.items():
        if value is not None and not isinstance(value, _SCALARS):
            raise ProtocolError(
                f"field {field!r} must be a JSON scalar, got "
                f"{type(value).__name__}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ProtocolError(
                f"non-finite value {value!r} in field {field!r}",
                code="nonfinite",
            )
    return StreamTuple(obj)


# ----------------------------------------------------------------------
# results: the emit boundary
# ----------------------------------------------------------------------
def serialize_tuple(tup: Mapping) -> dict:
    """A discrete result tuple as a plain JSON object."""
    return dict(tup)


def serialize_segment(seg: Segment) -> dict:
    """A continuous result segment as a JSON object.

    Model polynomials ship as ascending coefficient lists (the
    :class:`~repro.core.polynomial.Polynomial` constructor's form), so
    a client can reconstruct and evaluate them; ``seg_id``/``lineage``
    are process-local identities and deliberately stay home.
    """
    return {
        "key": list(seg.key),
        "t_start": seg.t_start,
        "t_end": seg.t_end,
        "models": {
            attr: [float(c) for c in poly.coeffs]
            for attr, poly in seg.models.items()
        },
        "constants": dict(seg.constants),
    }


def serialize_results(outputs: list) -> list[dict]:
    """Serialize a drained output batch (segments and/or tuples)."""
    return [
        serialize_segment(out)
        if isinstance(out, Segment)
        else serialize_tuple(out)
        for out in outputs
    ]


def error_response(req_id, exc: Exception) -> dict:
    """Map an exception to an ``error`` response message: a typed
    library error keeps its ``code`` (default ``plan``), anything else
    is a ``server`` fault."""
    if isinstance(exc, PulseError):
        code = getattr(exc, "code", "plan")
    else:
        code = "server"
    msg: dict = {"type": "error", "code": code, "error": str(exc)}
    if req_id is not None:
        msg["id"] = req_id
    return msg
