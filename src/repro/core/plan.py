"""Continuous query plans: DAGs of equation-system operators.

Pulse performs operator-by-operator transformation of a regular stream
query, instantiating "an internal query plan comprised of simultaneous
equation systems" (Section III-C).  :class:`ContinuousPlan` is that plan:
a DAG whose nodes wrap :class:`ContinuousOperator` instances and whose
edges route segments — segments are the plan's first-class datatype.

The executor is push-based: :meth:`push_round` delivers a list of input
segments and drains the resulting cascade, returning the segments that
reached the plan's output; :meth:`push` is a round of one.  Per-node
counters feed the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .errors import PlanError
from .operators.base import ContinuousOperator
from .segment import Segment


@dataclass
class PlanNode:
    """One node of the plan DAG."""

    node_id: int
    operator: ContinuousOperator | None  # None for sources
    label: str
    #: Downstream edges as ``(successor_id, successor_port)``.
    successors: list[tuple[int, int]] = field(default_factory=list)
    #: Execution counters.
    segments_in: int = 0
    segments_out: int = 0

    @property
    def is_source(self) -> bool:
        return self.operator is None


class NodeRef:
    """Opaque handle to a plan node (returned by the builder methods)."""

    __slots__ = ("node_id", "_plan")

    def __init__(self, node_id: int, plan: "ContinuousPlan"):
        self.node_id = node_id
        self._plan = plan

    def __repr__(self) -> str:
        return f"NodeRef({self.node_id})"


#: A pending node input: ``(order key, port, segment)``; see
#: :meth:`ContinuousPlan._fan_out` for the key.
_Item = tuple[tuple, int, Segment]


#: Observer invoked for every (operator, input segment, outputs) step, used
#: by the lineage store during validated execution.
StepObserver = Callable[[PlanNode, Segment, list[Segment]], None]

#: Context-manager factory wrapping each operator ``process`` call,
#: installed by :func:`repro.engine.tracing.enable_observability`; called
#: with ``(label, node_id)``.  Unlike :data:`StepObserver` (which fires
#: *after* a step), this wraps the step, so solve spans opened inside
#: ``process`` nest under the operator span.  ``None`` (the default)
#: keeps the cascade at one global load + ``is None`` test per step.
_OPERATOR_TRACE: Callable | None = None


def set_operator_trace(hook: Callable | None) -> None:
    """Install (or clear) the operator span hook."""
    global _OPERATOR_TRACE
    _OPERATOR_TRACE = hook


def operator_trace() -> Callable | None:
    return _OPERATOR_TRACE


class ContinuousPlan:
    """Builder and push-based executor for a DAG of continuous operators."""

    def __init__(self, name: str = "plan"):
        self.name = name
        self._nodes: dict[int, PlanNode] = {}
        self._sources: dict[str, int] = {}
        self._output_id: int | None = None
        self._next_id = 0
        self._observers: list[StepObserver] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_source(self, name: str) -> NodeRef:
        """Declare a named input stream."""
        if name in self._sources:
            raise PlanError(f"duplicate source {name!r}")
        node = self._new_node(None, f"source:{name}")
        self._sources[name] = node.node_id
        return NodeRef(node.node_id, self)

    def add_operator(
        self,
        operator: ContinuousOperator,
        inputs: Iterable[NodeRef | tuple[NodeRef, int]],
    ) -> NodeRef:
        """Add an operator fed by ``inputs``.

        Each input is a :class:`NodeRef` (port 0) or ``(ref, port)``.
        """
        node = self._new_node(operator, operator.name)
        wired = 0
        for item in inputs:
            ref, port = item if isinstance(item, tuple) else (item, 0)
            if ref._plan is not self:
                raise PlanError("input node belongs to a different plan")
            self._nodes[ref.node_id].successors.append((node.node_id, port))
            wired += 1
        if wired != operator.arity:
            raise PlanError(
                f"operator {operator.name!r} has arity {operator.arity}, "
                f"got {wired} inputs"
            )
        return NodeRef(node.node_id, self)

    def set_output(self, ref: NodeRef) -> None:
        self._output_id = ref.node_id

    def _new_node(self, operator: ContinuousOperator | None, label: str) -> PlanNode:
        node = PlanNode(self._next_id, operator, label)
        self._nodes[self._next_id] = node
        self._next_id += 1
        return node

    def add_observer(self, observer: StepObserver) -> None:
        """Register a per-step observer (e.g. the lineage recorder)."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(self._sources)

    def node(self, ref: NodeRef) -> PlanNode:
        return self._nodes[ref.node_id]

    def nodes(self) -> Mapping[int, PlanNode]:
        return dict(self._nodes)

    def operators(self) -> list[ContinuousOperator]:
        return [n.operator for n in self._nodes.values() if n.operator]

    def prime_tasks(
        self, source: str, segment: Segment
    ) -> list[tuple[tuple[float, ...], float, float]]:
        """Root queries the first operator hop would issue for ``segment``.

        Only the source's *immediate* successors are asked — deeper
        operators consume upstream outputs that priming cannot know
        without actually processing, and a partial prediction is safe
        (see :meth:`ContinuousOperator.prime_tasks`).  Read-only.
        """
        src_id = self._sources.get(source)
        if src_id is None:
            return []
        queries: list[tuple[tuple[float, ...], float, float]] = []
        for succ_id, port in self._nodes[src_id].successors:
            operator = self._nodes[succ_id].operator
            if operator is not None:
                queries.extend(operator.prime_tasks(segment, port))
        return queries

    def prime_round(
        self, arrivals: list[tuple[str, Segment]]
    ) -> list[tuple[object, tuple[tuple[float, ...], float, float]]]:
        """Round-level :meth:`prime_tasks`: ``(source, segment)`` arrivals
        in processing order, answered as ``(key, query)`` pairs.

        Arrivals are grouped per first-hop operator (preserving order)
        so stateful operators can predict round-internal interactions —
        see :meth:`ContinuousOperator.prime_round`.  Read-only.
        """
        per_node: dict[int, list[tuple[int, Segment]]] = {}
        for source, segment in arrivals:
            src_id = self._sources.get(source)
            if src_id is None:
                continue
            for succ_id, port in self._nodes[src_id].successors:
                if self._nodes[succ_id].operator is not None:
                    per_node.setdefault(succ_id, []).append((port, segment))
        queries: list[
            tuple[object, tuple[tuple[float, ...], float, float]]
        ] = []
        for succ_id, node_arrivals in per_node.items():
            queries.extend(
                self._nodes[succ_id].operator.prime_round(node_arrivals)
            )
        return queries

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def push(self, source: str, segment: Segment) -> list[Segment]:
        """Deliver one segment to ``source`` and drain the cascade.

        A round of one arrival (see :meth:`push_round`).  Returns the
        segments that reached the output node.
        """
        return self.push_round([(source, segment)])

    def push_round(self, arrivals: list[tuple[str, Segment]]) -> list[Segment]:
        """Deliver ``(source, segment)`` arrivals as one round.

        Nodes run once each, in construction order (topological, since
        inputs are built before their consumers).  A node runs its
        inputs ordered by ``(arrival index, BFS position)``, the
        position an item would have in the FIFO cascade of its own
        arrival.  So every operator sees exactly the ``process`` calls,
        in the same order, that pushing the arrivals one at a time
        would make, and the result is the concatenation of those
        pushes' results.  In a round of several arrivals, a single-port
        operator with several inputs takes them in one
        :meth:`~ContinuousOperator.process_batch` call, which lets the
        filter solve them in one kernel sweep.  A round of one calls
        ``process`` per input, exactly the per-arrival cascade, so its
        operator spans are unchanged.

        If an operator raises, the error propagates with the round half
        done; later arrivals' effects on earlier nodes may have landed.
        """
        for source, _ in arrivals:
            if source not in self._sources:
                raise PlanError(
                    f"unknown source {source!r}; "
                    f"declared: {list(self._sources)}"
                )
        if self._output_id is None:
            raise PlanError("plan has no output node; call set_output()")
        results: list[Segment] = []
        inbox: dict[int, list[_Item]] = {}
        for index, (source, segment) in enumerate(arrivals):
            src = self._nodes[self._sources[source]]
            src.segments_in += 1
            src.segments_out += 1
            self._fan_out(src, [segment], (index, -1, ()), inbox, results)
        self._drain(inbox, results, batched=len(arrivals) > 1)
        return results

    def _fan_out(
        self,
        node: PlanNode,
        outputs: list[Segment],
        key: tuple,
        inbox: dict[int, list[_Item]],
        results: list[Segment],
    ) -> None:
        """Route ``node``'s outputs for the input ordered at ``key``.

        ``key`` is ``(arrival, depth, path)``.  Output ``j`` reaches
        successor ``s`` at ``(arrival, depth + 1, path + (j, s))``;
        within one arrival, ordering by depth and then path is the
        dequeue order of a FIFO cascade.
        """
        arrival, depth, path = key
        depth += 1
        is_output = node.node_id == self._output_id
        successors = node.successors
        for j, out in enumerate(outputs):
            if is_output:
                results.append(out)
            for s, (succ_id, port) in enumerate(successors):
                inbox.setdefault(succ_id, []).append(
                    ((arrival, depth, path + (j, s)), port, out)
                )

    def _drain(
        self,
        inbox: dict[int, list[_Item]],
        results: list[Segment],
        batched: bool,
    ) -> None:
        """Run every node with pending inputs once, in construction order."""
        for node_id, node in self._nodes.items():
            if not inbox:
                return
            items = inbox.pop(node_id, None)
            if items is None:
                continue
            operator = node.operator
            hook = _OPERATOR_TRACE
            if operator.arity > 1:
                # Several input edges: merge them into key order.  A
                # single-port node has one edge, whose items arrive in
                # key order already.
                items.sort(key=itemgetter(0))
            elif batched and len(items) > 1:
                node.segments_in += len(items)
                segments = [seg for _, _, seg in items]
                if hook is None:
                    batch = operator.process_batch(segments)
                else:
                    with hook(node.label, node_id):
                        batch = operator.process_batch(segments)
                for (key, _, seg), outputs in zip(items, batch):
                    self._emit(node, key, seg, outputs, inbox, results)
                continue
            for key, port, seg in items:
                node.segments_in += 1
                if hook is None:
                    outputs = operator.process(seg, port)
                else:
                    with hook(node.label, node_id):
                        outputs = operator.process(seg, port)
                self._emit(node, key, seg, outputs, inbox, results)

    def _emit(
        self,
        node: PlanNode,
        key: tuple,
        segment: Segment,
        outputs: list[Segment],
        inbox: dict[int, list[_Item]],
        results: list[Segment],
    ) -> None:
        node.segments_out += len(outputs)
        for observer in self._observers:
            observer(node, segment, outputs)
        if outputs:
            self._fan_out(node, outputs, key, inbox, results)

    def flush(self) -> list[Segment]:
        """Flush buffered operator state at end of stream.

        Nodes flush in construction order; each node's flushed segments
        then run downstream as one round, the ``i``-th flushed segment
        ordered as arrival ``i``.
        """
        results: list[Segment] = []
        for node in self._nodes.values():
            if node.operator is None:
                continue
            flushed = node.operator.flush()
            node.segments_out += len(flushed)
            inbox: dict[int, list[_Item]] = {}
            for index, out in enumerate(flushed):
                self._fan_out(node, [out], (index, -1, ()), inbox, results)
            self._drain(inbox, results, batched=len(flushed) > 1)
        return results

    def reset(self) -> None:
        for node in self._nodes.values():
            if node.operator is not None:
                node.operator.reset()
            node.segments_in = 0
            node.segments_out = 0

    def stats(self) -> dict[str, tuple[int, int]]:
        """Per-node ``(segments_in, segments_out)`` counters."""
        return {
            f"{n.node_id}:{n.label}": (n.segments_in, n.segments_out)
            for n in self._nodes.values()
        }

    def __repr__(self) -> str:
        return f"ContinuousPlan({self.name!r}, {len(self._nodes)} nodes)"
