"""Per-key partitionability of a logical plan.

A plan is *per-key partitionable* on key fields ``K`` when its output
for one key depends only on that key's arrivals.  Then a fleet that
places every key's whole history on one worker answers the query
exactly: filters, maps and model clauses always qualify; a join
qualifies when it is equi-keyed on ``K`` (``L.k = R.k`` for every
``k``); an aggregate qualifies when it groups by every field of ``K``.
Anything else (the paper's cross-key collision join, a global
aggregate) needs every key's arrivals in one place.
"""

from __future__ import annotations

from typing import Sequence

from ..core.errors import PulseError
from ..core.expr import Attr
from ..core.predicate import And, BoolExpr, Comparison
from ..core.relation import Rel
from .logical import LogicalAggregate, LogicalJoin, LogicalNode


class PartitionError(PulseError):
    """A query whose output for one key depends on other keys'
    arrivals, which key-partitioned placement cannot compute."""

    code = "not_partitionable"


def check_partitionable(root: LogicalNode, key_fields: Sequence[str]) -> None:
    """Raise :class:`PartitionError` unless the plan under ``root`` is
    per-key partitionable on ``key_fields`` (see the module docstring)."""
    wanted = {name.lower() for name in key_fields}
    for node in root.walk():
        if isinstance(node, LogicalJoin):
            missing = wanted - equated_fields(node.predicate)
            what = f"join on {node.predicate}"
        elif isinstance(node, LogicalAggregate):
            missing = wanted - {
                name.split(".")[-1] for name in node.group_fields
            }
            what = f"{node.func}() aggregate"
        else:
            continue
        if missing:
            raise PartitionError(
                f"{what} is not keyed on {sorted(missing)}: its output "
                f"for one key would depend on other keys' arrivals"
            )


def equated_fields(predicate: BoolExpr) -> set[str]:
    """Field names a join predicate equates across its two sides: its
    top-level ``L.k = R.k`` conjuncts, by unqualified name."""
    conjuncts = (
        predicate.children if isinstance(predicate, And) else (predicate,)
    )
    fields = set()
    for atom in conjuncts:
        if (
            isinstance(atom, Comparison)
            and atom.rel is Rel.EQ
            and isinstance(atom.left, Attr)
            and isinstance(atom.right, Attr)
            and atom.left.name != atom.right.name
        ):
            left = atom.left.name.split(".")[-1]
            if left == atom.right.name.split(".")[-1]:
                fields.add(left)
    return fields
