"""Continuous filter: the simplest selective-operator transform.

Fig. 3, row 1: per input segment, instantiate the equation system
``D = [x_i - c_i]`` from the segment's own models, solve ``D t R 0`` over
the segment's valid range, and emit ``{(t, x_i) | D t R 0}`` — the input
models restricted to the solution time ranges (point segments for
equality comparisons).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..batch_solver import incremental_enabled
from ..delta import LruMemo, SolutionStore
from ..equation_system import EquationSystem, solve_systems_batch
from ..errors import SolverError, SolverFailure
from ..intervals import TimeSet
from ..predicate import BoolExpr, Literal
from ..segment import Segment
from .base import (
    AttributeBinding,
    ContinuousOperator,
    SystemMemo,
    partial_evaluate,
)


class ContinuousFilter(ContinuousOperator):
    """Stateless selective operator over single segments.

    Parameters
    ----------
    predicate:
        The filter predicate; may mix modeled-attribute comparisons
        (compiled into the equation system) and discrete-attribute
        comparisons (folded to literals per segment).
    alias:
        Optional stream alias so qualified references (``S.price``)
        resolve against this input.
    """

    arity = 1

    def __init__(self, predicate: BoolExpr, alias: str | None = None, name: str = "filter"):
        self.predicate = predicate
        self.alias = alias
        self.name = name
        #: Count of equation systems instantiated (benchmark hook).
        self.systems_solved = 0
        # Two-level compile memo shared by process / priming / slack:
        # folds key on the segment's discrete signature, systems on full
        # content (see SystemMemo).
        self._fold_memo = SystemMemo()
        self._system_memo = SystemMemo()
        # Identity shortcut over the value memos: a segment is immutable,
        # so its compile result never changes.  The sharded runtime
        # probes each segment twice (prime, then process); the second
        # probe becomes a single memo hit.
        self._segment_results: LruMemo = LruMemo(
            65536, "memo.filter_segment"
        )
        # Incremental (delta) state: solved TimeSets keyed by segment
        # content signature, consulted when the ``incremental`` solver
        # knob is on.  A re-emitted / covered probe is served here with
        # zero row solves; a refit's new content misses by construction.
        self._solution_store = SolutionStore()

    def reset(self) -> None:
        self._fold_memo.clear()
        self._system_memo.clear()
        self._segment_results.clear()
        self._solution_store.clear()

    def _segment_system(
        self, segment: Segment
    ) -> tuple[BoolExpr, EquationSystem | None]:
        """Fold + compile ``predicate`` for one segment, memoized.

        Returns ``(residual, system)``; ``system`` is ``None`` iff the
        residual folded to a literal.
        """
        cached = self._segment_results.get(segment.seg_id)
        if cached is not None:
            return cached
        binding = None
        fold_sig = SystemMemo.fold_signature(segment)
        residual = self._fold_memo.get(fold_sig)
        if residual is None:
            binding = AttributeBinding({self.alias: segment})
            residual = partial_evaluate(self.predicate, binding)
            self._fold_memo.put(fold_sig, residual)
        if isinstance(residual, Literal):
            system = None
        else:
            sys_sig = SystemMemo.signature(segment)
            system = self._system_memo.get(sys_sig)
            if system is None:
                if binding is None:
                    binding = AttributeBinding({self.alias: segment})
                system = EquationSystem.from_predicate(
                    residual, binding.resolver()
                )
                self._system_memo.put(sys_sig, system)
        self._segment_results.put(segment.seg_id, (residual, system))
        return residual, system

    def process(self, segment: Segment, port: int = 0) -> list[Segment]:
        residual, system = self._segment_system(segment)
        if system is None:
            if residual.value:
                return [segment]
            return []
        solution = None
        sig = None
        if incremental_enabled():
            sig = SystemMemo.signature(segment)
            solution = self._solution_store.lookup(
                sig, segment.t_start, segment.t_end
            )
        if solution is None:
            self.systems_solved += 1
            solution = system.solve(segment.t_start, segment.t_end)
            if sig is not None:
                # Successful solves only: a raising system never lands
                # here, so faulted content re-fails on every probe
                # exactly as the full path does.
                self._solution_store.store(
                    sig, segment.t_start, segment.t_end, solution
                )
        return _restrict(segment, solution)

    def process_batch(
        self, segments: Sequence[Segment]
    ) -> list[list[Segment]]:
        """A round's inputs: every system compiled through the memos,
        then all of them solved in one :func:`solve_systems_batch` sweep.

        Equals ``[process(s) for s in segments]`` in outputs, solution
        store traffic and the error raised: the earliest input whose
        compile or solve fails raises, as the loop would.
        """
        outputs: list[list[Segment]] = [[] for _ in segments]
        pending: list[tuple[int, EquationSystem]] = []
        try:
            for i, segment in enumerate(segments):
                residual, system = self._segment_system(segment)
                if system is not None:
                    pending.append((i, system))
                elif residual.value:
                    outputs[i] = [segment]
        except Exception:
            # The loop would solve the inputs before this one first and
            # raise their failure instead.
            failure = self._solve_round(segments, pending)[1]
            if failure is not None:
                raise failure
            raise
        solutions, failure = self._solve_round(segments, pending)
        if failure is not None:
            raise failure
        for i, solution in solutions.items():
            outputs[i] = _restrict(segments[i], solution)
        return outputs

    def _solve_round(
        self,
        segments: Sequence[Segment],
        pending: list[tuple[int, EquationSystem]],
    ) -> tuple[dict[int, TimeSet], SolverError | None]:
        """Solve ``pending`` ``(input index, system)`` pairs in index
        order; returns the solutions and the failure of the earliest
        failing input, if any (later inputs are then left unsolved).

        Under the ``incremental`` knob each input is looked up in the
        solution store first and only the misses are solved.  An input
        whose signature an earlier miss of the same sweep carries waits
        for the next sweep, after that miss is stored: the loop would
        have found it there.
        """
        store = self._solution_store if incremental_enabled() else None
        solutions: dict[int, TimeSet] = {}
        failure: SolverError | None = None
        limit = len(segments)
        while pending:
            jobs: list[tuple[int, EquationSystem, object]] = []
            deferred: list[tuple[int, EquationSystem]] = []
            in_flight: set = set()
            for i, system in pending:
                if i >= limit:
                    break
                segment = segments[i]
                sig = None
                if store is not None:
                    sig = SystemMemo.signature(segment)
                    if sig is not None and sig in in_flight:
                        deferred.append((i, system))
                        continue
                    hit = store.lookup(sig, segment.t_start, segment.t_end)
                    if hit is not None:
                        solutions[i] = hit
                        continue
                    if sig is not None:
                        in_flight.add(sig)
                jobs.append((i, system, sig))
            pending = deferred
            if not jobs:
                continue
            failures: dict[int, SolverError] = {}
            try:
                solved = solve_systems_batch(
                    [
                        (system, segments[i].t_start, segments[i].t_end)
                        for i, system, _ in jobs
                    ],
                    failures,
                )
            except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
                # EquationSystem.solve wraps these the same way.
                raise SolverFailure(
                    "internal", f"{type(exc).__name__}: {exc}"
                ) from exc
            for k, (i, _, sig) in enumerate(jobs):
                self.systems_solved += 1
                if k in failures:
                    limit, failure = i, failures[k]
                    break
                solutions[i] = solved[k]
                if sig is not None:
                    segment = segments[i]
                    store.store(sig, segment.t_start, segment.t_end, solved[k])
        return solutions, failure

    def prime_tasks(self, segment: Segment, port: int = 0):
        """Exact prediction: the filter is stateless, so the system built
        here is the one ``process`` will use (shared via the memo).
        Under the incremental knob, probes the solution store would
        serve are not predicted at all — only delta rows ship."""
        residual, system = self._segment_system(segment)
        if system is None:
            return []
        if incremental_enabled() and self._solution_store.covers(
            SystemMemo.signature(segment), segment.t_start, segment.t_end
        ):
            return []
        return system.row_tasks(segment.t_start, segment.t_end)

    def slack_system(self, segment: Segment) -> EquationSystem | None:
        """The equation system for slack computation on a null result."""
        return self._segment_system(segment)[1]


def _restrict(segment: Segment, solution: TimeSet) -> list[Segment]:
    """``segment`` restricted to each interval and point of ``solution``."""
    outputs = [segment.restrict(iv.lo, iv.hi) for iv in solution.intervals]
    outputs.extend(segment.at_instant(p) for p in solution.points)
    return outputs
