"""Query results.

A :class:`Result` carries the rows a statement produced (for retrieves)
or a summary of what an update did, plus the optimizer report so callers
can inspect plan choices. Rendering knows how to display EXTRA values:
nulls, references (as ``@oid``), tuple objects, sets, arrays, and ADT
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.core.values import (
    NULL,
    ArrayInstance,
    Ref,
    SetInstance,
    TupleInstance,
)

__all__ = ["Result", "render_value"]


def render_value(value: Any) -> str:
    """Human-readable rendering of one EXTRA value."""
    if value is NULL or value is None:
        return "null"
    if isinstance(value, Ref):
        return f"@{value.oid}"
    if isinstance(value, TupleInstance):
        ident = f"@{value.oid} " if value.oid is not None else ""
        body = ", ".join(
            f"{name}: {render_value(slot)}"
            for name, slot in value.attributes().items()
        )
        return f"{ident}({body})"
    if isinstance(value, SetInstance):
        return "{" + ", ".join(render_value(m) for m in value) + "}"
    if isinstance(value, ArrayInstance):
        return "[" + ", ".join(render_value(s) for s in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, str):
        return value
    return str(value)


@dataclass
class Result:
    """The outcome of one EXCESS statement."""

    #: statement kind: "retrieve", "append", "delete", "replace", "set",
    #: "define", "create", "destroy", "grant", ... (for dispatching)
    kind: str = ""
    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    #: rows touched by an update statement
    count: int = 0
    #: free-form status message for DDL
    message: str = ""
    #: the optimizer's report, when a query ran
    plan: Optional[Any] = None
    #: backing store for the lazy :attr:`metrics` property
    _metrics: Optional[dict] = field(default=None, repr=False)
    #: the statement's :class:`~repro.excess.evaluator.ExecMetrics`,
    #: turned into the :attr:`metrics` dict on first access
    _exec_metrics: Optional[Any] = field(default=None, repr=False)
    #: rendered physical operator tree (estimated rows for EXPLAIN,
    #: estimated + actual per-operator counts for executed queries) —
    #: backing store for the lazy :attr:`plan_tree` property
    _plan_tree: Optional[str] = field(default=None, repr=False)
    #: zero-argument callable rendering the tree on first access, so the
    #: per-statement hot path pays only a counter snapshot, not string
    #: formatting
    _plan_tree_thunk: Optional[Any] = field(default=None, repr=False)
    #: generated Python source of the plan's fused pipeline regions
    #: (fused exec mode only) — backing store for the lazy
    #: :attr:`pipeline_source` debug hook
    _pipeline_source: Optional[str] = field(default=None, repr=False)
    _pipeline_source_thunk: Optional[Any] = field(default=None, repr=False)

    @property
    def metrics(self) -> Optional[dict]:
        """Execution counters (rows scanned, hash builds/probes,
        plan-cache hit/miss, wall time) when a query statement ran."""
        if self._metrics is None and self._exec_metrics is not None:
            self._metrics = self._exec_metrics.as_dict()
            self._exec_metrics = None
        return self._metrics

    @metrics.setter
    def metrics(self, value: Optional[dict]) -> None:
        self._metrics = value
        self._exec_metrics = None

    @property
    def plan_tree(self) -> Optional[str]:
        if self._plan_tree is None and self._plan_tree_thunk is not None:
            self._plan_tree = self._plan_tree_thunk()
            self._plan_tree_thunk = None
        return self._plan_tree

    @plan_tree.setter
    def plan_tree(self, value: Optional[str]) -> None:
        self._plan_tree = value
        self._plan_tree_thunk = None

    @property
    def pipeline_source(self) -> Optional[str]:
        """The generated source of every fused pipeline region the
        statement's plan contains (None outside fused exec mode, ``""``
        when the plan has no fusable region)."""
        if self._pipeline_source is None and self._pipeline_source_thunk is not None:
            self._pipeline_source = self._pipeline_source_thunk()
            self._pipeline_source_thunk = None
        return self._pipeline_source

    @pipeline_source.setter
    def pipeline_source(self, value: Optional[str]) -> None:
        self._pipeline_source = value
        self._pipeline_source_thunk = None

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, have {len(self.rows)} rows x "
                f"{len(self.columns)} columns"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list[Any]:
        """All values of the named column."""
        try:
            index = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}") from None
        return [row[index] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by column label."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def pretty(self, limit: int = 50) -> str:
        """A fixed-width table rendering (truncated at ``limit`` rows)."""
        if not self.columns:
            text = self.message or f"{self.kind}: {self.count} object(s)"
            return text
        rendered = [
            [render_value(value) for value in row] for row in self.rows[:limit]
        ]
        widths = [
            max(len(column), *(len(r[i]) for r in rendered)) if rendered else len(column)
            for i, column in enumerate(self.columns)
        ]
        lines = [
            " | ".join(c.ljust(w) for c, w in zip(self.columns, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in rendered:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        if self.columns:
            return f"<Result {self.kind}: {len(self.rows)} rows>"
        return f"<Result {self.kind}: {self.message or self.count}>"
