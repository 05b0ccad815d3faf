"""Catalog statistics for cost-based query optimization.

The EXODUS optimizer is rule-generated but *cost-driven*: access-method
and join-order decisions are made from tabular cost information
(paper §4.1.3).  This module supplies that table for named sets:

- per-set: member count at analyze time, the ``data_version`` the
  statistics were built at, and a churn counter;
- per-attribute: distinct-value count, null fraction, min/max (exact
  at analyze time), and a small equi-depth histogram over numeric
  attributes.

Statistics are built by an explicit ``analyze`` scan
(:meth:`StatisticsManager.rebuild`) and kept *approximately* fresh by
O(1) incremental upkeep hooks on insert/remove/update: cardinality (in
the catalog) stays exact, min/max widen on write and never shrink before
the next analyze (a conservative range), while distinct counts and
histograms drift until the churn since the last analyze exceeds
``STALE_CHURN_FRACTION`` of the analyzed cardinality — at which point
the set is marked stale and the ``on_stale`` callback (wired to the
catalog epoch bump) invalidates any plan optimized under the old
numbers.

Selectivity estimation follows System R: equality defaults to
``1/10``, ranges to ``1/3``, refined to ``1/n_distinct`` and histogram
interpolation respectively when statistics exist.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.values import NULL

__all__ = [
    "AttributeStats",
    "SetStats",
    "StatisticsManager",
    "DEFAULT_EQ_SELECTIVITY",
    "DEFAULT_RANGE_SELECTIVITY",
    "DEFAULT_NEQ_SELECTIVITY",
    "HISTOGRAM_BUCKETS",
    "STALE_CHURN_FRACTION",
    "STALE_CHURN_MIN",
    "PARALLEL_MIN_PARTITION_ROWS",
    "PARALLEL_BROADCAST_MAX_ROWS",
]

#: System R magic numbers: the fallbacks when no statistics exist.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_NEQ_SELECTIVITY = 0.9

#: Number of equi-depth histogram buckets built per numeric attribute.
HISTOGRAM_BUCKETS = 8

#: A set's histograms are considered stale once churn since analyze
#: exceeds this fraction of the analyzed cardinality ...
STALE_CHURN_FRACTION = 0.2
#: ... but never before this many mutations (tiny sets churn fast).
STALE_CHURN_MIN = 8

#: Estimates never go below this selectivity (zero estimates would make
#: every downstream cost identical).
_FLOOR = 1e-4

#: Parallel execution: one scan partition per this many estimated input
#: rows (degree-of-parallelism = est // this, capped at the worker
#: count).  Below 2× this a plan stays serial — process dispatch plus
#: result pickling costs more than the scan itself on small inputs.
PARALLEL_MIN_PARTITION_ROWS = 2048

#: A hash join's build side is replicated to every worker (broadcast)
#: up to this many estimated rows; past it the optimizer hash-partitions
#: both sides on the join key so each worker builds only its bucket.
PARALLEL_BROADCAST_MAX_ROWS = 4096


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def reads_value(value: Any) -> bool:
    """True when an estimate for a predicate against literal ``value``
    can depend on the value itself: only numbers are compared with an
    attribute's bounds and histogram. Any other literal's estimate is
    fixed by the set's statistics alone, which move only with the
    catalog epoch (``analyze``, staleness)."""
    return _is_numeric(value)


@dataclass
class AttributeStats:
    """Statistics for one attribute of one named set."""

    n_distinct: int = 0
    null_fraction: float = 0.0
    minimum: Any = None
    maximum: Any = None
    #: equi-depth bucket boundaries over numeric non-null values:
    #: ``boundaries[0]`` is the minimum, ``boundaries[-1]`` the maximum,
    #: and each of the ``len(boundaries) - 1`` buckets holds an equal
    #: share of the rows.  Empty for non-numeric attributes.
    boundaries: list = field(default_factory=list)

    def fraction_below(self, value: float) -> Optional[float]:
        """Estimated fraction of non-null rows strictly below ``value``
        via linear interpolation inside the equi-depth histogram;
        ``None`` when no histogram exists."""
        if len(self.boundaries) < 2:
            return None
        bounds = self.boundaries
        if value <= bounds[0]:
            return 0.0
        if value >= bounds[-1]:
            return 1.0
        buckets = len(bounds) - 1
        index = bisect_left(bounds, value) - 1
        index = max(0, min(index, buckets - 1))
        low, high = bounds[index], bounds[index + 1]
        within = 0.5 if high == low else (value - low) / (high - low)
        return (index + within) / buckets


@dataclass
class SetStats:
    """Statistics for one named set, as of the last ``analyze``."""

    set_name: str
    #: member count at analyze time (live count lives in the catalog)
    analyzed_cardinality: int = 0
    #: ``Database.data_version`` when the analyze scan ran
    analyzed_version: int = 0
    #: mutations observed since the analyze scan
    churn: int = 0
    #: histograms/distinct counts no longer trustworthy (churn exceeded
    #: the threshold); min/max stay a superset of the data's range
    stale: bool = False
    attributes: dict[str, AttributeStats] = field(default_factory=dict)

    def churn_limit(self) -> int:
        return max(
            STALE_CHURN_MIN,
            int(self.analyzed_cardinality * STALE_CHURN_FRACTION),
        )


class StatisticsManager:
    """Holds :class:`SetStats` per analyzed named set.

    Lives on the catalog so transaction snapshots roll statistics back
    together with the data they describe.  ``on_stale`` (wired to
    ``Catalog.bump_epoch``) fires when a set crosses the churn threshold
    so the plan cache drops plans costed under the old histograms.
    """

    #: the executing transaction's undo log, attached and detached by
    #: the :class:`~repro.core.session.TransactionManager` as sessions'
    #: workspaces are parked and resumed; class attribute so snapshots
    #: from before this field existed load
    undo = None

    def __init__(self, on_stale: Optional[Callable[[], None]] = None):
        self._stats: dict[str, SetStats] = {}
        self.on_stale = on_stale

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("undo", None)  # undo logs never survive pickling
        return state

    def _note(self, set_name: str) -> None:
        """Before-image hook: snapshot a set's stats on first touch of an
        open transaction (the same sites that feed incremental upkeep)."""
        if self.undo is not None:
            self.undo.save_stats(self, set_name)

    # -- access ------------------------------------------------------------------

    def get(self, set_name: str) -> Optional[SetStats]:
        """The stats of a set, or ``None`` when never analyzed."""
        return self._stats.get(set_name)

    def analyzed_sets(self) -> list[str]:
        return sorted(self._stats)

    def forget(self, set_name: str) -> None:
        self._note(set_name)
        self._stats.pop(set_name, None)

    def clear(self) -> None:
        for set_name in list(self._stats):
            self._note(set_name)
        self._stats.clear()

    # -- analyze -----------------------------------------------------------------

    def rebuild(
        self, set_name: str, rows: list[dict], data_version: int
    ) -> SetStats:
        """Build fresh statistics from a full scan (``analyze``).

        ``rows`` are attribute-name → value dictionaries (one per
        member); non-scalar values were already filtered out by the
        caller except that nulls arrive as :data:`NULL`.
        """
        self._note(set_name)
        stats = SetStats(
            set_name=set_name,
            analyzed_cardinality=len(rows),
            analyzed_version=data_version,
        )
        columns: dict[str, list] = {}
        nulls: dict[str, int] = {}
        for row in rows:
            for attribute, value in row.items():
                if value is NULL or value is None:
                    nulls[attribute] = nulls.get(attribute, 0) + 1
                    columns.setdefault(attribute, [])
                else:
                    columns.setdefault(attribute, []).append(value)
        total = len(rows)
        for attribute, values in columns.items():
            stats.attributes[attribute] = self._build_attribute(
                values, nulls.get(attribute, 0), total
            )
        self._stats[set_name] = stats
        return stats

    def _build_attribute(
        self, values: list, null_count: int, total: int
    ) -> AttributeStats:
        attr = AttributeStats(
            null_fraction=(null_count / total) if total else 0.0
        )
        try:
            attr.n_distinct = len(set(values))
        except TypeError:  # unhashable member values
            attr.n_distinct = len(values)
        numeric = [v for v in values if _is_numeric(v)]
        comparable = numeric if numeric else values
        if comparable and len(numeric) == len(values):
            attr.minimum = min(comparable)
            attr.maximum = max(comparable)
        elif values and all(isinstance(v, str) for v in values):
            attr.minimum = min(values)
            attr.maximum = max(values)
        if len(numeric) >= 2:
            attr.boundaries = self._equi_depth(sorted(numeric))
        return attr

    @staticmethod
    def _equi_depth(ordered: list, buckets: int = HISTOGRAM_BUCKETS) -> list:
        """Equi-depth bucket boundaries over pre-sorted numeric values."""
        count = len(ordered)
        buckets = min(buckets, count - 1) or 1
        bounds = [ordered[0]]
        for i in range(1, buckets):
            bounds.append(ordered[(i * (count - 1)) // buckets])
        bounds.append(ordered[-1])
        # collapse duplicate boundaries (heavily skewed data)
        out = [bounds[0]]
        for b in bounds[1:]:
            if b != out[-1]:
                out.append(b)
        return out if len(out) >= 2 else []

    # -- incremental upkeep ------------------------------------------------------

    def observe_insert(self, set_name: str, row: Optional[dict]) -> None:
        """Cheap upkeep after one member was inserted: widen min/max and
        count churn."""
        stats = self._stats.get(set_name)
        if stats is None:
            return
        self._note(set_name)
        self._widen(stats, row)
        self._bump_churn(stats)

    def observe_remove(self, set_name: str) -> None:
        """Upkeep after one member was removed: count churn. Min/max do
        not shrink until the next analyze — a range wider than the data
        only makes estimates conservative, and re-deriving an exact
        bound would scan the whole set."""
        stats = self._stats.get(set_name)
        if stats is None:
            return
        self._note(set_name)
        self._bump_churn(stats)

    def observe_update(self, set_name: str, new_row: Optional[dict]) -> None:
        """Upkeep after an in-place member update: widen min/max by the
        new values (the old ones stay inside the range, see
        :meth:`observe_remove`), one churn."""
        stats = self._stats.get(set_name)
        if stats is None:
            return
        self._note(set_name)
        self._widen(stats, new_row)
        self._bump_churn(stats)

    @staticmethod
    def _widen(stats: SetStats, row: Optional[dict]) -> None:
        for attribute, value in (row or {}).items():
            attr = stats.attributes.get(attribute)
            if attr is None or value is NULL or value is None:
                continue
            try:
                if attr.minimum is None or value < attr.minimum:
                    attr.minimum = value
                if attr.maximum is None or value > attr.maximum:
                    attr.maximum = value
            except TypeError:
                pass

    def _bump_churn(self, stats: SetStats) -> None:
        stats.churn += 1
        if not stats.stale and stats.churn > stats.churn_limit():
            stats.stale = True
            if self.on_stale is not None:
                self.on_stale()

    # -- selectivity estimation --------------------------------------------------

    def eq_selectivity(self, set_name: str, attribute: str, value: Any) -> float:
        """Estimated fraction of rows with ``attribute = value``."""
        attr = self._fresh_attribute(set_name, attribute)
        if attr is None:
            return DEFAULT_EQ_SELECTIVITY
        if (
            _is_numeric(value)
            and attr.minimum is not None
            and attr.maximum is not None
            and _is_numeric(attr.minimum)
            and (value < attr.minimum or value > attr.maximum)
        ):
            return _FLOOR
        if attr.n_distinct > 0:
            return max(_FLOOR, (1.0 - attr.null_fraction) / attr.n_distinct)
        return DEFAULT_EQ_SELECTIVITY

    def range_selectivity(
        self, set_name: str, attribute: str, op: str, value: Any
    ) -> float:
        """Estimated fraction of rows satisfying ``attribute <op> value``
        for ``<`` ``<=`` ``>`` ``>=``, via histogram interpolation when a
        fresh histogram exists, min/max interpolation otherwise."""
        if op == "=":
            return self.eq_selectivity(set_name, attribute, value)
        if op == "!=":
            return DEFAULT_NEQ_SELECTIVITY
        attr = self._fresh_attribute(set_name, attribute)
        if attr is None or not _is_numeric(value):
            return DEFAULT_RANGE_SELECTIVITY
        below = attr.fraction_below(value)
        if below is None:
            below = self._linear_below(attr, value)
        if below is None:
            return DEFAULT_RANGE_SELECTIVITY
        not_null = 1.0 - attr.null_fraction
        if op in ("<", "<="):
            fraction = below
        else:
            fraction = 1.0 - below
        return min(1.0, max(_FLOOR, fraction * not_null))

    @staticmethod
    def _linear_below(attr: AttributeStats, value: float) -> Optional[float]:
        low, high = attr.minimum, attr.maximum
        if not (_is_numeric(low) and _is_numeric(high)):
            return None
        if value <= low:
            return 0.0
        if value >= high:
            return 1.0
        if high == low:
            return 0.5
        return (value - low) / (high - low)

    def distinct(self, set_name: str, attribute: str) -> Optional[int]:
        """Distinct-value count of an attribute, or ``None`` when
        unknown (never analyzed, or stale)."""
        attr = self._fresh_attribute(set_name, attribute)
        if attr is None or attr.n_distinct <= 0:
            return None
        return attr.n_distinct

    def _fresh_attribute(
        self, set_name: str, attribute: str
    ) -> Optional[AttributeStats]:
        stats = self._stats.get(set_name)
        if stats is None or stats.stale:
            return None
        return stats.attributes.get(attribute)
