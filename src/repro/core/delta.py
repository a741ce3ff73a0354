"""Delta maintenance: change-sets and content-addressed solution reuse.

Today a segment update re-solves every equation system it touches; the
solve cache only helps on byte-identical ``(coeffs, rel, lo, hi)``
repeats.  This module supplies the three pieces of the incremental
(DBSP-style) re-solve path:

* :class:`SegmentChange` / :class:`DeltaTracker` — the per-arrival
  change-set.  Each arrival is classified against the key's previous
  segment (derived from ``seg_id`` plus the operators' content
  signatures, see ``core/operators/base.py``) as *added* (first segment
  for the key), a *refit* (model content changed) or a *re-emission*
  (content unchanged, validity range moved); an arrival whose range
  overlaps its predecessor also *retires* part of that predecessor
  under update semantics.  The scheduler threads this through the
  arrival path for ``delta.*`` counters and the ``delta_apply`` span.

* :class:`SolutionStore` — per-operator solved-``TimeSet`` state keyed
  by *content signature*.  Because the key is the full content of the
  segments a system was compiled from, a stale entry (pre-refit
  content) is simply unreachable: invalidation is by construction, not
  by scanning.  A probe whose content signature matches a stored entry
  and whose requested domain is covered by the stored domain is served
  without touching the equation-system layer at all — zero row solves.

* :class:`LruMemo` — a bounded LRU mapping with per-memo hit/miss/evict
  counters, replacing the operators' wholesale ``dict.clear()``
  evictions (which flushed 64Ki entries at once, causing periodic
  cold-start stampedes that would also poison incremental state).

Bit-exactness.  The incremental path must emit byte-identical outputs
to the full re-solve path.  An exact-domain store hit is trivially
exact (same deterministic solve, same arguments).  A *covered* hit is
served as ``stored.clip(lo, hi)``, which agrees with a direct solve on
``[lo, hi)`` except when a solution feature (interval endpoint, isolated
point) falls within the solver's ``EPS`` slop of a requested seam —
sliver spans are dropped, near-seam equality roots kept or dropped
depending on which side of the seam they landed.  The store therefore
refuses covered reuse whenever any stored feature lies within
:data:`SEAM_GUARD` of a requested boundary without being exactly on it,
falling back to a full solve.  ``SEAM_GUARD`` is three orders of
magnitude above ``EPS``, so the guard triggers only on genuinely
seam-adjacent geometry; the property suite
(``tests/property/test_incremental_parity.py``) and the in-run parity
asserts of ``benchmarks/bench_incremental_resolve.py`` enforce the
equivalence empirically.

Durability.  Solved ``TimeSet`` state and compile memos are derived
caches: a :class:`SolutionStore` and an :class:`LruMemo` both pickle
*empty* (entries are recomputed on demand after a restore, which only
costs solves and compiles, never correctness), and the memo's metric
handles are rebound lazily in the restored process.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .intervals import TimeSet
from .segment import Segment

#: Covered-reuse refusal band around a requested seam.  Any stored
#: solution feature strictly inside ``(0, SEAM_GUARD]`` of a requested
#: boundary makes the clipped result potentially diverge from a direct
#: solve (EPS-sliver handling), so such probes fall back to a full
#: solve.  Well above ``intervals.EPS`` (1e-9) by design.
SEAM_GUARD = 1e-6


def _metric_counters(prefix: str, *names: str):
    """Registry counter handles for ``{prefix}.{name}``, bound lazily.

    Imported inside the function: ``repro.core`` must stay importable
    without the engine package being initialized first.
    """
    from ..engine.metrics import get_counter

    return tuple(get_counter(f"{prefix}.{name}") for name in names)


# ----------------------------------------------------------------------
# bounded LRU memo with metered eviction
# ----------------------------------------------------------------------
class LruMemo:
    """A bounded mapping with LRU eviction and hit/miss/evict counters.

    Drop-in replacement for the operators' unbounded-until-flushed memo
    dicts: ``get`` refreshes recency, ``put`` evicts the single
    least-recently-used entry once ``maxsize`` is reached (instead of
    flushing everything), and traffic is metered through the
    :mod:`repro.engine.metrics` registry under
    ``{metric_prefix}.hits`` / ``.misses`` / ``.evictions``.
    """

    __slots__ = ("_map", "maxsize", "_metric_prefix", "_handles")

    def __init__(self, maxsize: int, metric_prefix: str | None = None):
        if maxsize < 1:
            raise ValueError("LruMemo maxsize must be at least 1")
        self._map: OrderedDict = OrderedDict()
        self.maxsize = maxsize
        self._metric_prefix = metric_prefix
        self._handles = None

    def _counters(self):
        if self._handles is None and self._metric_prefix is not None:
            self._handles = _metric_counters(
                self._metric_prefix, "hits", "misses", "evictions"
            )
        return self._handles

    def get(self, key, default=None):
        entry = self._map.get(key, _MISSING)
        handles = self._counters()
        if entry is _MISSING:
            if handles is not None:
                handles[1].bump()
            return default
        self._map.move_to_end(key)
        if handles is not None:
            handles[0].bump()
        return entry

    def put(self, key, value) -> None:
        if key in self._map:
            self._map.move_to_end(key)
        self._map[key] = value
        if len(self._map) > self.maxsize:
            self._map.popitem(last=False)
            handles = self._counters()
            if handles is not None:
                handles[2].bump()

    def __contains__(self, key) -> bool:
        return key in self._map

    def __len__(self) -> int:
        return len(self._map)

    def clear(self) -> None:
        self._map.clear()

    # -- pickling: derived cache — neither entries nor metric handles --
    def __getstate__(self):
        return {
            "maxsize": self.maxsize,
            "metric_prefix": self._metric_prefix,
        }

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "_map", OrderedDict())
        object.__setattr__(self, "maxsize", state["maxsize"])
        object.__setattr__(
            self, "_metric_prefix", state["metric_prefix"]
        )
        object.__setattr__(self, "_handles", None)


_MISSING = object()


# ----------------------------------------------------------------------
# per-arrival change-set
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentChange:
    """Classification of one arrival against its key's previous segment.

    ``kind`` is ``"added"`` (first segment for the key on this stream),
    ``"refit"`` (content signature changed) or ``"reemitted"`` (content
    unchanged — the model was re-confirmed over a moved validity
    range).  ``retired_seg_id`` names the predecessor partially retired
    by update semantics when the arrival's range overlaps it.
    """

    kind: str
    key: tuple
    seg_id: int
    t_start: float
    t_end: float
    content_changed: bool
    retired_seg_id: int | None = None


class DeltaTracker:
    """Derives :class:`SegmentChange` objects along the arrival path.

    One tracker per registered query; keyed by ``(stream, key)`` so a
    self-join feeding two ports off one stream still classifies each
    arrival once.  The tracker is *derived* state: it only drives
    ``delta.*`` counters and the ``delta_apply`` span, so it is rebuilt
    empty after a durability restore (the first post-restore arrival
    per key re-classifies as ``"added"``, which is accounting noise,
    not a correctness input).
    """

    def __init__(self):
        # (stream, key) -> (seg_id, content_sig, t_start, t_end)
        self._last: dict = {}
        self._handles = None

    def _counters(self):
        if self._handles is None:
            self._handles = _metric_counters(
                "delta.changes", "added", "refit", "reemitted", "retired"
            )
        return self._handles

    @staticmethod
    def _sig(segment: Segment):
        from .operators.base import SystemMemo

        return SystemMemo.signature(segment)

    def classify(self, stream: str, segment: Segment) -> SegmentChange:
        """Pure classification — no tracker state is touched."""
        prev = self._last.get((stream, segment.key))
        if prev is None:
            return SegmentChange(
                "added", segment.key, segment.seg_id,
                segment.t_start, segment.t_end, True,
            )
        prev_id, prev_sig, _prev_start, prev_end = prev
        sig = self._sig(segment)
        changed = sig is None or sig != prev_sig
        retired = prev_id if segment.t_start < prev_end else None
        return SegmentChange(
            "refit" if changed else "reemitted",
            segment.key, segment.seg_id,
            segment.t_start, segment.t_end, changed,
            retired_seg_id=retired,
        )

    def observe(self, stream: str, segment: Segment) -> SegmentChange:
        """Classify one arrival, record it, bump ``delta.changes.*``."""
        change = self.classify(stream, segment)
        self._last[(stream, segment.key)] = (
            segment.seg_id,
            self._sig(segment),
            segment.t_start,
            segment.t_end,
        )
        added, refit, reemitted, retired = self._counters()
        if change.kind == "added":
            added.bump()
        elif change.kind == "refit":
            refit.bump()
        else:
            reemitted.bump()
        if change.retired_seg_id is not None:
            retired.bump()
        return change

    def reset(self) -> None:
        self._last.clear()

    def __getstate__(self):
        return {"last": dict(self._last)}

    def __setstate__(self, state) -> None:
        self._last = dict(state["last"])
        self._handles = None


# ----------------------------------------------------------------------
# content-addressed solution store
# ----------------------------------------------------------------------
class SolutionStore:
    """Solved ``TimeSet`` state keyed by system content signature.

    One entry per signature: the solution over the widest domain seen,
    ``(lo, hi, TimeSet)``.  :meth:`lookup` serves a probe without any
    equation-system work when the stored entry's signature matches and
    its domain covers the request — exactly (returned verbatim) or
    strictly (returned clipped, subject to the seam guard, see the
    module docstring).  Only *successful* solves are stored, so a
    poisoned system fails inside every probe exactly as the full
    re-solve path would, and fault-injection/breaker behaviour is
    mode-independent.

    Bounded LRU; traffic is metered under ``delta.store.*``
    (``hits`` / ``misses`` / ``evictions`` / ``seam_rejects`` /
    ``prime_skips``).
    """

    __slots__ = ("_map", "maxsize", "_handles")

    def __init__(self, maxsize: int = 4096):
        self._map: OrderedDict = OrderedDict()
        self.maxsize = maxsize
        self._handles = None

    def _counters(self):
        if self._handles is None:
            self._handles = _metric_counters(
                "delta.store",
                "hits", "misses", "evictions", "seam_rejects",
                "prime_skips",
            )
        return self._handles

    @staticmethod
    def _seam_clear(solution: TimeSet, lo: float, hi: float) -> bool:
        """No stored feature is *near* (but not on) a requested seam."""
        for seam in (lo, hi):
            for iv in solution.intervals:
                for f in (iv.lo, iv.hi):
                    d = abs(f - seam)
                    if 0.0 < d <= SEAM_GUARD:
                        return False
            for p in solution.points:
                d = abs(p - seam)
                if 0.0 < d <= SEAM_GUARD:
                    return False
        return True

    def lookup(self, sig, lo: float, hi: float) -> TimeSet | None:
        """The stored solution over ``[lo, hi)``, or ``None``."""
        hits, misses, _, seam_rejects, _ = self._counters()
        if sig is None:
            misses.bump()
            return None
        entry = self._map.get(sig)
        if entry is None:
            misses.bump()
            return None
        elo, ehi, solution = entry
        if elo == lo and ehi == hi:
            self._map.move_to_end(sig)
            hits.bump()
            return solution
        if elo <= lo and hi <= ehi:
            if self._seam_clear(solution, lo, hi):
                self._map.move_to_end(sig)
                hits.bump()
                return solution.clip(lo, hi)
            seam_rejects.bump()
            return None
        misses.bump()
        return None

    def covers(self, sig, lo: float, hi: float) -> bool:
        """Read-only: would :meth:`lookup` hit?  Used by the priming
        pass to ship only genuine delta rows to the shard workers; does
        not reorder the LRU or bump hit/miss counters (a covered probe
        bumps ``delta.store.prime_skips`` instead)."""
        if sig is None:
            return False
        entry = self._map.get(sig)
        if entry is None:
            return False
        elo, ehi, solution = entry
        covered = (elo == lo and ehi == hi) or (
            elo <= lo and hi <= ehi and self._seam_clear(solution, lo, hi)
        )
        if covered:
            self._counters()[4].bump()
        return covered

    def store(self, sig, lo: float, hi: float, solution: TimeSet) -> None:
        """Record a successful solve; widest domain per signature wins.

        A narrower-than-stored domain is ignored (the stored entry
        already serves it); anything else — wider, or shifted — replaces
        the entry, keeping the store aligned with the stream's moving
        validity ranges.
        """
        if sig is None:
            return
        entry = self._map.get(sig)
        if entry is not None:
            elo, ehi, _ = entry
            if elo <= lo and hi <= ehi:
                self._map.move_to_end(sig)
                return
        self._map[sig] = (lo, hi, solution)
        self._map.move_to_end(sig)
        if len(self._map) > self.maxsize:
            self._map.popitem(last=False)
            self._counters()[2].bump()

    def __len__(self) -> int:
        return len(self._map)

    def clear(self) -> None:
        self._map.clear()

    # -- pickling: derived cache — entries are recomputed on demand ----
    def __getstate__(self):
        return {"maxsize": self.maxsize}

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "_map", OrderedDict())
        object.__setattr__(self, "maxsize", state["maxsize"])
        object.__setattr__(self, "_handles", None)
