"""Rule-based query optimization.

The EXODUS optimizer was generated from rewrite rules ([Grae87]); EXCESS
feeds it tabular access-method applicability information so ADTs can be
added dynamically (paper §4.1.3). This module reproduces that
architecture at small scale with three rule families:

1. **Conjunct normalization** — the where clause is flattened into
   conjuncts; constant-on-left comparisons are flipped using the
   operator-properties table (``5 < E.age`` → ``E.age > 5``) so index
   selection can fire.
2. **Predicate pushdown** — conjuncts mentioning exactly one (existential)
   range variable become *residual* filters on that variable's binding,
   applied as soon as the binding produces a value instead of after the
   full cross product.
3. **Access-method selection** — for a residual of shape ``V.attr op
   constant`` over a named-set binding, the access-method table is
   consulted for index kinds able to evaluate ``op`` over the attribute's
   type; if a matching physical index exists, the binding's scan becomes
   an index scan (equality preferred over range).

Finally bindings are **reordered**. By default the order comes from a
cost-based search driven by catalog statistics
(:mod:`repro.core.statistics`): per-binding cardinalities are estimated
from predicate selectivities (equality via distinct counts, ranges via
equi-depth histogram interpolation, System R fallbacks when a set was
never analyzed), join selectivities from distinct counts, and the search
costs every dependency-valid order exhaustively up to
:data:`DP_CUTOFF` existential bindings (dynamic programming over order
prefixes), switching to greedy cheapest-next above. ``cost_based=False``
restores the older heuristic (indexed first, filtered next, bare scans
last). The optimizer is switchable (``enabled=False``) so benchmarks can
measure its effect (experiments P1, P8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.catalog import Catalog
from repro.core.statistics import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_NEQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
)
from repro.core.types import TupleType
from repro.excess.binder import (
    AggregateRef,
    AttrStep,
    Binary,
    BoundExpr,
    BoundQuery,
    Const,
    ExcessCall,
    AdtCall,
    IndexStepB,
    Membership,
    NamedSetSource,
    Param,
    PathSource,
    RangeBinding,
    Unary,
    VarRef,
)

__all__ = ["OptimizerReport", "Optimizer", "CostModel", "DP_CUTOFF"]

#: up to this many existential bindings every dependency-valid order is
#: costed exhaustively; above it the search goes greedy cheapest-next
DP_CUTOFF = 4

#: row counts never estimate below this (zero would flatten all costs)
_MIN_ROWS = 1e-3

#: an index probe estimated to keep more than this share of its set
#: barely filters: scanning (and hash-joining) is cheaper
_WEAK_INDEX_SELECTIVITY = 0.5


@dataclass
class OptimizerReport:
    """What the optimizer did to one query (for EXPLAIN-style output)."""

    pushed_down: int = 0
    index_scans: list[str] = field(default_factory=list)
    normalized: int = 0
    binding_order: list[str] = field(default_factory=list)
    enabled: bool = True
    #: equi-join conjuncts rewritten to hash joins ("probe*build:op")
    hash_joins: list[str] = field(default_factory=list)
    #: membership predicates rewritten to cached semi-join probes
    semi_joins: int = 0
    #: how the binding order was found: "dp" (exhaustive cost search),
    #: "greedy-cost" (above the DP cutoff), "heuristic" (rule ranks), or
    #: "" (reorder disabled / optimizer off)
    search: str = ""
    #: orders (dp) or candidate extensions (greedy-cost) the search costed
    considered_orders: int = 0
    #: estimated cost of the chosen order and of the best rejected
    #: alternative (``None`` when fewer than two orders were valid)
    chosen_cost: Optional[float] = None
    runner_up_cost: Optional[float] = None
    #: expression-execution mode the plan will run under ("closure" |
    #: "off"; "" when prepared outside the interpreter)
    compile_mode: str = ""
    #: plan-execution mode ("fused" | "row"; "" when prepared
    #: outside the interpreter)
    exec_mode: str = ""
    #: fusable Scan→Filter…→Project regions the lowered plan contains
    #: (each runs as one generated function in fused mode)
    pipelines: int = 0
    #: parallel lowering outcome: "dop=N, range|hash" when exchange
    #: operators were inserted, "serial" when parallel mode considered
    #: the plan and declined, "" when parallel mode is off
    parallel: str = ""

    def describe(self) -> str:
        """One-line human-readable summary."""
        if not self.enabled:
            message = "optimizer disabled: nested-loop scan in declaration order"
            if self.compile_mode:
                message += f"; exprs={self.compile_mode}"
            if self.exec_mode:
                message += f"; exec={self.exec_mode}"
                if self.exec_mode == "fused":
                    message += f" (pipelines={self.pipelines})"
            if self.parallel:
                message += f"; parallel={self.parallel}"
            return message
        parts = [
            f"pushdown={self.pushed_down}",
            f"normalized={self.normalized}",
            "index=[" + ", ".join(self.index_scans) + "]",
            "hashjoin=[" + ", ".join(self.hash_joins) + "]",
            f"semijoin={self.semi_joins}",
            "order=[" + ", ".join(self.binding_order) + "]",
        ]
        if self.search in ("dp", "greedy-cost"):
            cost = f"{self.chosen_cost:.1f}" if self.chosen_cost is not None else "?"
            runner = (
                f", runner-up={self.runner_up_cost:.1f}"
                if self.runner_up_cost is not None
                else ""
            )
            parts.append(
                f"cost[{self.search}: considered={self.considered_orders}, "
                f"chosen={cost}{runner}]"
            )
        if self.compile_mode:
            parts.append(f"exprs={self.compile_mode}")
        if self.exec_mode:
            note = f"exec={self.exec_mode}"
            if self.exec_mode == "fused":
                note += f" (pipelines={self.pipelines})"
            parts.append(note)
        if self.parallel:
            parts.append(f"parallel={self.parallel}")
        return "; ".join(parts)


class CostModel:
    """Cardinality and selectivity estimation over catalog statistics.

    Falls back to the System R constants when a set was never analyzed
    (or its statistics went stale), so every estimate is always defined.
    """

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.statistics = getattr(catalog, "statistics", None)

    def base_rows(self, binding: RangeBinding) -> float:
        """Rows the binding's source holds (before any predicate)."""
        source = binding.source
        if isinstance(source, NamedSetSource):
            return float(max(1, self.catalog.cardinality(source.set_name)))
        if isinstance(source, PathSource):
            return 4.0  # nested sets are small in this workload family
        return 8.0  # iterator functions

    def access_selectivity(self, binding: RangeBinding) -> float:
        """Selectivity of the index probe predicate (1.0 for scans)."""
        if binding.access != "index" or binding.index_descriptor is None:
            return 1.0
        return self._predicate_selectivity(
            binding,
            binding.index_descriptor.attribute,
            binding.index_op,
            binding.index_key,
        )

    def conjunct_selectivity(
        self, binding: RangeBinding, conjunct: BoundExpr
    ) -> float:
        """Selectivity of one residual conjunct on one binding."""
        if isinstance(conjunct, Binary) and conjunct.kind == "compare":
            probe = self._attr_probe(conjunct, binding.name)
            if probe is not None:
                return self._predicate_selectivity(binding, *probe)
            return self._default_selectivity(conjunct.op)
        return 0.5

    def filtered_rows(self, binding: RangeBinding) -> float:
        """Estimated rows out of the binding's subtree (access method
        plus residual filters)."""
        rows = self.base_rows(binding) * self.access_selectivity(binding)
        for conjunct in binding.residual:
            rows *= self.conjunct_selectivity(binding, conjunct)
        return max(rows, _MIN_ROWS)

    def touch_rows(self, binding: RangeBinding) -> float:
        """Rows one pass of the access method touches (its scan cost)."""
        if binding.access == "index":
            return max(
                1.0, self.base_rows(binding) * self.access_selectivity(binding)
            )
        return self.base_rows(binding)

    def join_selectivity(
        self,
        binding_a: RangeBinding,
        expr_a: BoundExpr,
        binding_b: RangeBinding,
        expr_b: BoundExpr,
    ) -> float:
        """System R join selectivity: ``1 / max(V(A), V(B))`` with
        distinct counts from statistics, cardinalities as fallback."""
        distinct_a = self._side_distinct(binding_a, expr_a)
        distinct_b = self._side_distinct(binding_b, expr_b)
        return 1.0 / max(distinct_a, distinct_b, 1.0)

    # -- internals ----------------------------------------------------------------

    def _side_distinct(self, binding: RangeBinding, expr: BoundExpr) -> float:
        if isinstance(expr, VarRef):
            # joining on the object itself: every member is distinct
            return self.base_rows(binding)
        if (
            self.statistics is not None
            and isinstance(expr, AttrStep)
            and isinstance(expr.base, VarRef)
            and isinstance(binding.source, NamedSetSource)
        ):
            distinct = self.statistics.distinct(
                binding.source.set_name, expr.attribute
            )
            if distinct:
                return float(distinct)
        return self.base_rows(binding)

    def _predicate_selectivity(
        self, binding: RangeBinding, attribute: str, op: str, key: Any
    ) -> float:
        """Selectivity of ``binding.attribute <op> key`` — the one place
        the cost model consults a literal's value.  A :class:`Param`
        key is read without pinning its slot and recorded as
        value-sensitive instead: the plan cache re-estimates the slot's
        new value on every shape hit (:meth:`literal_magnitude`)."""
        if (
            self.statistics is not None
            and isinstance(key, Const)
            and isinstance(binding.source, NamedSetSource)
        ):
            set_name = binding.source.set_name
            if isinstance(key, Param):
                key.slots.sensitive.add((key.slot, set_name, attribute, op))
                value = key.first
            else:
                value = key.value
            return self._literal_selectivity(set_name, attribute, op, value)
        return self._default_selectivity(op)

    def _literal_selectivity(
        self, set_name: str, attribute: str, op: str, value: Any
    ) -> float:
        if op == "=":
            return self.statistics.eq_selectivity(set_name, attribute, value)
        if op in ("<", "<=", ">", ">="):
            return self.statistics.range_selectivity(
                set_name, attribute, op, value
            )
        return self._default_selectivity(op)

    def literal_magnitude(
        self, set_name: str, attribute: str, op: str, value: Any
    ) -> int:
        """Order of magnitude of the estimate a value-sensitive slot
        gets for ``value``: plans are shared only between values whose
        estimates agree to the power of ten and fall on the same side
        of the weak-index threshold (bucket 1, which no logarithm of a
        selectivity reaches)."""
        if self.statistics is None:
            return 0
        selectivity = self._literal_selectivity(set_name, attribute, op, value)
        if selectivity > _WEAK_INDEX_SELECTIVITY:
            return 1
        return math.floor(math.log10(selectivity)) if selectivity > 0 else -99

    @staticmethod
    def _default_selectivity(op: str) -> float:
        if op == "=":
            return DEFAULT_EQ_SELECTIVITY
        if op in ("<", "<=", ">", ">="):
            return DEFAULT_RANGE_SELECTIVITY
        if op == "!=":
            return DEFAULT_NEQ_SELECTIVITY
        return 0.5

    @staticmethod
    def _attr_probe(
        conjunct: Binary, variable: str
    ) -> Optional[tuple[str, str, Const]]:
        """Match ``V.attr op <literal>``; returns the literal's node."""
        left, right = conjunct.left, conjunct.right
        if (
            isinstance(left, AttrStep)
            and isinstance(left.base, VarRef)
            and left.base.name == variable
            and isinstance(right, Const)
        ):
            return left.attribute, conjunct.op, right
        return None


class Optimizer:
    """Optimizes a bound query in place and returns a report.

    The rule families can be toggled individually (``normalize``,
    ``pushdown``, ``index_selection``, ``reorder``) for ablation
    experiments; ``enabled=False`` disables everything.
    """

    def __init__(
        self,
        catalog: Catalog,
        enabled: bool = True,
        normalize: bool = True,
        pushdown: bool = True,
        index_selection: bool = True,
        reorder: bool = True,
        hash_joins: bool = True,
        cost_based: bool = True,
        compile_mode: str = "",
        exec_mode: str = "",
        parallel_mode: str = "",
        workers: int = 0,
    ):
        self.catalog = catalog
        self.enabled = enabled
        self.normalize_rule = normalize
        self.pushdown_rule = pushdown
        self.index_rule = index_selection
        self.reorder_rule = reorder
        self.hash_join_rule = hash_joins
        #: cost-based join-order search (False = the older greedy ranks)
        self.cost_based = cost_based
        #: recorded on the report for EXPLAIN (execution-layer flags; the
        #: optimizer itself is mode-independent)
        self.compile_mode = compile_mode
        self.exec_mode = exec_mode
        #: exchange-operator insertion during lowering ("process" = on;
        #: anything else leaves plans serial and byte-identical)
        self.parallel_mode = parallel_mode
        self.workers = workers

    def optimize(self, query: BoundQuery) -> OptimizerReport:
        """Apply the rule families to ``query`` (mutating it)."""
        report = OptimizerReport(
            enabled=self.enabled,
            compile_mode=self.compile_mode,
            exec_mode=self.exec_mode,
        )
        # annotations are about to change; any previously lowered plan
        # for this bound query is stale
        query.plan = None
        if not self.enabled:
            report.binding_order = [b.name for b in query.bindings]
            return report
        conjuncts = self._flatten_conjuncts(query.where)
        if self.normalize_rule:
            conjuncts = [self._normalize(c, report) for c in conjuncts]
        remaining: list[BoundExpr] = []
        for conjunct in conjuncts:
            variables = self._variables_of(conjunct)
            target = (
                self._pushdown_target(conjunct, variables, query)
                if self.pushdown_rule
                else None
            )
            if target is not None:
                target.residual.append(conjunct)
                report.pushed_down += 1
            else:
                remaining.append(conjunct)
        consumed: dict[str, BoundExpr] = {}
        if self.index_rule:
            for binding in query.bindings:
                taken = self._select_access(binding, report)
                if taken is not None:
                    consumed[binding.name] = taken
        cost = CostModel(self.catalog)
        edges = self._join_edges(query, remaining, cost)
        if self.cost_based and self.hash_join_rule:
            self._demote_weak_indexes(query, edges, consumed, cost, report)
        if self.reorder_rule:
            if self.cost_based:
                self._order_bindings_cost(query, edges, cost, report)
            else:
                self._order_bindings(query)
                report.search = "heuristic"
        self._annotate_binding_estimates(query, cost)
        if self.hash_join_rule:
            remaining = self._select_hash_joins(query, remaining, report)
        self._annotate_cumulative(query, edges, remaining, cost)
        self._mark_semi_joins(query, remaining, report)
        query.where = self._rebuild_conjunction(remaining)
        report.binding_order = [b.name for b in query.bindings]
        # Optimize aggregate inner iterations the same way.
        for aggregate in query.aggregates:
            inner = BoundQuery(
                bindings=aggregate.inner_bindings, where=aggregate.where
            )
            self.optimize(inner)
            aggregate.inner_bindings = inner.bindings
            aggregate.where = inner.where
            aggregate.inner_query = None
        return report

    def lower(self, bound: Any, report: Optional[OptimizerReport] = None) -> Any:
        """Lower an optimized bound statement to its physical plan.

        Retrieves lower to their full pipeline
        (``StoreInto?(Sort?(Project(...)))``); update statements lower
        their query block to the shared binding pipeline, and append,
        replace and set their per-row write (:class:`~repro.excess.plan.
        WritePlan`). The plan is cached on the bound objects, so cached
        statements skip lowering.
        With ``report`` given, the lowered tree's fusable pipeline
        regions are counted onto it (EXPLAIN's ``pipelines=``).
        """
        from repro.excess.binder import BoundRetrieve
        from repro.excess.plan import (
            ensure_query_plan,
            ensure_retrieve_plan,
            ensure_write_plan,
            fused_regions,
            parallelize_pipeline,
        )

        if isinstance(bound, BoundRetrieve):
            root = ensure_retrieve_plan(bound, self.catalog)
            if self.parallel_mode == "process" and self.workers >= 2:
                root, info = parallelize_pipeline(
                    root, self.catalog, self.workers
                )
                bound.pipeline = root
                if report is not None:
                    report.parallel = (
                        f"dop={info['dop']}, {info['mode']}"
                        if info is not None
                        else "serial"
                    )
        else:
            query = getattr(bound, "query", None)
            if isinstance(query, BoundQuery):
                root = ensure_query_plan(query, self.catalog)
            else:
                root = None
            if hasattr(bound, "write"):
                ensure_write_plan(bound, self.catalog)
        if report is not None and root is not None:
            report.pipelines = len(fused_regions(root))
        return root

    # -- conjunct handling -------------------------------------------------------

    def _flatten_conjuncts(self, where: Optional[BoundExpr]) -> list[BoundExpr]:
        if where is None:
            return []
        if isinstance(where, Binary) and where.kind == "bool" and where.op == "and":
            return self._flatten_conjuncts(where.left) + self._flatten_conjuncts(
                where.right
            )
        return [where]

    def _rebuild_conjunction(
        self, conjuncts: list[BoundExpr]
    ) -> Optional[BoundExpr]:
        if not conjuncts:
            return None
        out = conjuncts[0]
        from repro.core.types import BOOLEAN

        for conjunct in conjuncts[1:]:
            out = Binary(
                op="and", left=out, right=conjunct, kind="bool", type=BOOLEAN
            )
        return out

    def _normalize(self, conjunct: BoundExpr, report: OptimizerReport) -> BoundExpr:
        """Flip constant-on-left comparisons using the converse table."""
        if (
            isinstance(conjunct, Binary)
            and conjunct.kind == "compare"
            and isinstance(conjunct.left, Const)
            and not isinstance(conjunct.right, Const)
        ):
            properties = self.catalog.access_table.operator_properties(conjunct.op)
            converse = properties.converse
            if converse:
                report.normalized += 1
                return Binary(
                    op=converse,
                    left=conjunct.right,
                    right=conjunct.left,
                    kind="compare",
                    type=conjunct.type,
                    enum_labels=conjunct.enum_labels,
                )
        return conjunct

    # -- pushdown ------------------------------------------------------------------

    def _variables_of(self, expression: BoundExpr) -> set[str]:
        out: set[str] = set()
        stack = [expression]
        while stack:
            node = stack.pop()
            if isinstance(node, VarRef):
                out.add(node.name)
            elif isinstance(node, AttrStep):
                stack.append(node.base)
            elif isinstance(node, IndexStepB):
                stack.extend([node.base, node.index])
            elif isinstance(node, Binary):
                stack.extend([node.left, node.right])
            elif isinstance(node, Unary):
                stack.append(node.operand)
            elif isinstance(node, (AdtCall, ExcessCall)):
                stack.extend(node.args)
            elif isinstance(node, Membership):
                stack.append(node.element)
                if node.collection.base is not None:
                    stack.append(node.collection.base)
            elif isinstance(node, AggregateRef):
                # aggregate values are only available after their tables are
                # built; treat as multi-variable (never pushed down)
                out.add("$aggregate")
                if node.outer_key is not None:
                    stack.append(node.outer_key)
        return out

    def _pushdown_target(
        self,
        conjunct: BoundExpr,
        variables: set[str],
        query: BoundQuery,
    ) -> Optional[RangeBinding]:
        if "$aggregate" in variables:
            return None
        if len(variables) != 1:
            return None
        name = next(iter(variables))
        for binding in query.bindings:
            if binding.name == name:
                if binding.universal:
                    return None  # ∀-variables keep the full predicate
                # A residual on a nested binding still only fires once the
                # parent produced a value, which the evaluator guarantees.
                return binding
        return None

    # -- access selection ------------------------------------------------------------

    def _select_access(
        self, binding: RangeBinding, report: OptimizerReport
    ) -> Optional[BoundExpr]:
        """Pick an index access method; returns the conjunct the index
        probe absorbed (so cost-based search can undo the choice)."""
        if not isinstance(binding.source, NamedSetSource):
            return None
        set_name = binding.source.set_name
        element = binding.element_type
        if not isinstance(element, TupleType):
            return None
        best: Optional[tuple[int, BoundExpr, str, str, Any, BoundExpr]] = None
        for conjunct in binding.residual:
            probe = self._indexable_probe(conjunct, binding.name, element)
            if probe is None:
                continue
            attribute, op, key_expr = probe
            attr_type = element.attribute(attribute).type
            kinds = self.catalog.access_table.applicable(attr_type.tag, op)
            if not kinds:
                continue
            descriptor = self.catalog.indexes.find(set_name, attribute, kinds)
            if descriptor is None:
                continue
            rank = 0 if op == "=" else 1
            if descriptor.kind == "hash" and op != "=":
                continue
            candidate = (rank, conjunct, attribute, op, descriptor, key_expr)
            if best is None or candidate[0] < best[0]:
                best = candidate
        if best is None:
            return None
        _rank, conjunct, attribute, op, descriptor, key_expr = best
        binding.access = "index"
        binding.index_descriptor = descriptor
        binding.index_op = op
        binding.index_key = key_expr
        binding.residual.remove(conjunct)
        report.index_scans.append(
            f"{binding.name}:{descriptor.set_name}.{attribute}:{descriptor.kind}:{op}"
        )
        return conjunct

    def _indexable_probe(
        self, conjunct: BoundExpr, variable: str, element: TupleType
    ) -> Optional[tuple[str, str, BoundExpr]]:
        """Match ``V.attr op <constant expression>`` patterns.

        The probe key may be any variable-free expression — a literal or
        e.g. an ADT constructor call like ``Date("1/1/1930")`` — since it
        can be evaluated once before the scan.
        """
        if not isinstance(conjunct, Binary) or conjunct.kind != "compare":
            return None
        left, right = conjunct.left, conjunct.right
        if self._variables_of(right):
            return None
        if not isinstance(left, AttrStep):
            return None
        if not isinstance(left.base, VarRef) or left.base.name != variable:
            return None
        if not element.has_attribute(left.attribute):
            return None
        if conjunct.op not in ("=", "<", "<=", ">", ">="):
            return None
        return left.attribute, conjunct.op, right

    # -- ordering ----------------------------------------------------------------------

    def _order_bindings(self, query: BoundQuery) -> None:
        """Greedy order: indexed < filtered < bare scans, dependencies and
        universality respected (∀ bindings stay last)."""

        def score(binding: RangeBinding) -> tuple[int, int]:
            if binding.universal:
                return (3, 0)
            if binding.access == "index":
                return (0, -len(binding.residual))
            if binding.residual:
                return (1, -len(binding.residual))
            return (2, 0)

        ordered: list[RangeBinding] = []
        placed: set[str] = set()
        pending = list(query.bindings)
        while pending:
            candidates = [
                b for b in pending
                if not isinstance(b.source, PathSource)
                or b.source.parent in placed
                or all(p.name != b.source.parent for p in pending)
            ]
            candidates.sort(key=score)
            chosen = candidates[0]
            ordered.append(chosen)
            placed.add(chosen.name)
            pending.remove(chosen)
        query.bindings = ordered

    # -- cost-based ordering ------------------------------------------------------------

    def _join_edges(
        self, query: BoundQuery, remaining: list[BoundExpr], cost: CostModel
    ) -> dict:
        """Pairwise join-predicate info for the cost search:
        ``frozenset({a, b}) → {"sel": float, "equi": bool}`` (selectivities
        of multiple conjuncts over the same pair multiply)."""
        by_name = {b.name: b for b in query.bindings}
        edges: dict = {}
        for conjunct in remaining:
            pair = self._equi_join_pair(conjunct, by_name)
            if pair is not None:
                (name_a, expr_a), (name_b, expr_b) = pair
                sel = cost.join_selectivity(
                    by_name[name_a], expr_a, by_name[name_b], expr_b
                )
                equi = True
            else:
                if not isinstance(conjunct, Binary):
                    continue
                variables = self._variables_of(conjunct)
                if len(variables) != 2 or "$aggregate" in variables:
                    continue
                name_a, name_b = sorted(variables)
                if name_a not in by_name or name_b not in by_name:
                    continue
                sel = (
                    CostModel._default_selectivity(conjunct.op)
                    if conjunct.kind == "compare"
                    else 0.5
                )
                equi = False
            key = frozenset((name_a, name_b))
            info = edges.setdefault(key, {"sel": 1.0, "equi": False})
            info["sel"] *= sel
            info["equi"] = info["equi"] or equi
        return edges

    def _demote_weak_indexes(
        self,
        query: BoundQuery,
        edges: dict,
        consumed: dict[str, BoundExpr],
        cost: CostModel,
        report: OptimizerReport,
    ) -> None:
        """SeqScan vs IndexScan, by cost: an index probe that barely
        filters (estimate above the weak-index threshold) blocks the
        hash-join rewrite (build sides must be plain scans), so when the
        binding has an equi-join edge, scanning and hashing is cheaper —
        revert the index choice and push the conjunct back to the
        residuals."""
        for binding in query.bindings:
            if binding.access != "index" or binding.name not in consumed:
                continue
            if binding.universal or not isinstance(
                binding.source, NamedSetSource
            ):
                continue
            has_equi = any(
                binding.name in pair and info["equi"]
                for pair, info in edges.items()
            )
            if not has_equi:
                continue
            if cost.access_selectivity(binding) <= _WEAK_INDEX_SELECTIVITY:
                continue
            binding.residual.append(consumed.pop(binding.name))
            binding.access = "scan"
            binding.index_descriptor = None
            binding.index_op = ""
            binding.index_key = None
            report.index_scans = [
                entry
                for entry in report.index_scans
                if not entry.startswith(binding.name + ":")
            ]

    def _order_bindings_cost(
        self,
        query: BoundQuery,
        edges: dict,
        cost: CostModel,
        report: OptimizerReport,
    ) -> None:
        """Cost-based binding order: exhaustive up to :data:`DP_CUTOFF`
        existential bindings, greedy cheapest-next above. Universal
        bindings stay last (they lower to :class:`UniversalCheck`)."""
        existential = [b for b in query.bindings if not b.universal]
        universal = [b for b in query.bindings if b.universal]
        if len(existential) <= 1:
            report.search = "dp"
            report.considered_orders = 1
            report.chosen_cost = (
                cost.touch_rows(existential[0]) if existential else 0.0
            )
            query.bindings = existential + universal
            return
        names = {b.name for b in existential}

        def dependency(binding: RangeBinding) -> Optional[str]:
            source = binding.source
            if isinstance(source, PathSource) and source.parent in names:
                return source.parent
            return None

        if len(existential) <= DP_CUTOFF:
            ordered = self._exhaustive_order(
                existential, dependency, edges, cost, report
            )
        else:
            ordered = self._greedy_cost_order(
                existential, dependency, edges, cost, report
            )
        query.bindings = ordered + universal

    def _exhaustive_order(
        self, bindings, dependency, edges: dict, cost: CostModel, report
    ) -> list:
        """Cost every dependency-valid order (dynamic programming over
        order prefixes — at most 4! = 24 full orders below the cutoff)."""
        declaration = {b.name: i for i, b in enumerate(bindings)}
        totals: list[tuple[float, tuple, list]] = []

        def extend(order, placed, so_far, rows):
            if len(order) == len(bindings):
                totals.append(
                    (so_far, tuple(declaration[b.name] for b in order), order)
                )
                return
            for binding in bindings:
                if binding.name in placed:
                    continue
                parent = dependency(binding)
                if parent is not None and parent not in placed:
                    continue
                step, out = self._step_cost(binding, placed, rows, edges, cost)
                extend(
                    order + [binding],
                    placed | {binding.name},
                    so_far + step,
                    out,
                )

        extend([], frozenset(), 0.0, None)
        # the recursive closure refers to itself through its cell; emptying
        # the cell frees it without the cyclic collector
        del extend
        totals.sort(key=lambda entry: (entry[0], entry[1]))
        report.search = "dp"
        report.considered_orders = len(totals)
        report.chosen_cost = totals[0][0]
        if len(totals) > 1:
            report.runner_up_cost = totals[1][0]
        return totals[0][2]

    def _greedy_cost_order(
        self, bindings, dependency, edges: dict, cost: CostModel, report
    ) -> list:
        """Above the cutoff: repeatedly append the cheapest valid next
        binding (ties broken by declaration order)."""
        declaration = {b.name: i for i, b in enumerate(bindings)}
        pending = list(bindings)
        order: list = []
        placed: set = set()
        rows: Optional[float] = None
        total = 0.0
        considered = 0
        while pending:
            best = None
            for binding in pending:
                parent = dependency(binding)
                if parent is not None and parent not in placed:
                    continue
                step, out = self._step_cost(binding, placed, rows, edges, cost)
                considered += 1
                key = (step, declaration[binding.name])
                if best is None or key < best[0]:
                    best = (key, binding, step, out)
            assert best is not None  # dependencies are acyclic
            _key, binding, step, out = best
            order.append(binding)
            placed.add(binding.name)
            pending.remove(binding)
            total += step
            rows = out
        report.search = "greedy-cost"
        report.considered_orders = considered
        report.chosen_cost = total
        return order

    def _step_cost(
        self,
        binding: RangeBinding,
        placed,
        rows: Optional[float],
        edges: dict,
        cost: CostModel,
    ) -> tuple[float, float]:
        """Incremental cost and output rows of appending ``binding`` to a
        partial order producing ``rows`` rows.

        The first binding costs one pass of its access method. A later
        binding with an equi-join edge to the prefix and a hashable scan
        costs one build pass plus one probe per outer row; anything else
        nested-loops: one access pass per outer row. Output rows shrink
        by join selectivity only at hash joins — leftover join predicates
        filter above the joins, exactly as the lowered pipeline does.
        """
        touch = cost.touch_rows(binding)
        out = cost.filtered_rows(binding)
        if rows is None:
            return touch, out
        selectivity = 1.0
        equi = False
        for other in placed:
            info = edges.get(frozenset((binding.name, other)))
            if info is not None:
                selectivity *= info["sel"]
                equi = equi or info["equi"]
        if equi and self._hashable_build(binding):
            return touch + rows, max(rows * out * selectivity, _MIN_ROWS)
        return rows * touch, max(rows * out, _MIN_ROWS)

    # -- estimate annotations -----------------------------------------------------------

    def _annotate_binding_estimates(
        self, query: BoundQuery, cost: CostModel
    ) -> None:
        """Stamp per-binding row estimates for lowering and the
        build-side swap (universal bindings lower to checks, not rows)."""
        for binding in query.bindings:
            if binding.universal:
                continue
            access = cost.base_rows(binding) * cost.access_selectivity(binding)
            binding.est_base_rows = max(1, round(access))
            binding.est_rows = max(1, round(cost.filtered_rows(binding)))

    def _annotate_cumulative(
        self,
        query: BoundQuery,
        edges: dict,
        remaining: list[BoundExpr],
        cost: CostModel,
    ) -> None:
        """Walk the final order stamping cumulative row estimates on each
        join step, then estimate the pipeline's output after the leftover
        where-clause predicates."""
        rows: Optional[float] = None
        placed: list[str] = []
        absorbed: set = set()
        for binding in query.bindings:
            if binding.universal:
                continue
            out = float(binding.est_rows or 1)
            if rows is None:
                rows = out
            elif binding.join_strategy == "hash":
                selectivity = 1.0
                for other in placed:
                    key = frozenset((binding.name, other))
                    info = edges.get(key)
                    if info is not None and info["equi"]:
                        selectivity *= info["sel"]
                        absorbed.add(key)
                rows = rows * out * selectivity
            else:
                rows = rows * out
            rows = max(rows, _MIN_ROWS)
            binding.est_cum_rows = max(1, round(rows))
            placed.append(binding.name)
        if rows is None:
            rows = 1.0
        leftover = 1.0
        for key, info in edges.items():
            if key not in absorbed:
                leftover *= info["sel"]
        for conjunct in remaining:
            variables = self._variables_of(conjunct)
            if len(variables) == 2 and frozenset(variables) in edges:
                continue  # counted as an edge above
            leftover *= 0.5
        query.est_rows = max(1, round(max(rows * leftover, _MIN_ROWS)))

    def _estimated_rows(self, binding: RangeBinding) -> float:
        """The binding's post-filter row estimate (build-side swaps
        compare these, not declared cardinalities)."""
        if binding.est_rows is not None:
            return float(binding.est_rows)
        if isinstance(binding.source, NamedSetSource):
            return float(self.catalog.cardinality(binding.source.set_name))
        return 4.0

    # -- hash joins ---------------------------------------------------------------------

    def _select_hash_joins(
        self,
        query: BoundQuery,
        remaining: list[BoundExpr],
        report: OptimizerReport,
    ) -> list[BoundExpr]:
        """Rewrite equi-join conjuncts spanning two existential bindings.

        The later-ordered binding of the pair becomes the *build* side: its
        named set is loaded once into a hash table keyed by its side of the
        conjunct, and each outer (probe) row looks up matches instead of
        rescanning. When both sides are plain adjacent scans the pair is
        swapped so the smaller side — by *estimated* post-filter rows, not
        declared cardinality — is built.
        """
        kept: list[BoundExpr] = []
        positions = {b.name: i for i, b in enumerate(query.bindings)}
        by_name = {b.name: b for b in query.bindings}
        for conjunct in remaining:
            pair = self._equi_join_pair(conjunct, by_name)
            if pair is None:
                kept.append(conjunct)
                continue
            (name_a, expr_a), (name_b, expr_b) = pair
            if positions[name_a] < positions[name_b]:
                probe_name, probe_key = name_a, expr_a
                build_name, build_key = name_b, expr_b
            else:
                probe_name, probe_key = name_b, expr_b
                build_name, build_key = name_a, expr_a
            build = by_name[build_name]
            probe = by_name[probe_name]
            if not self._hashable_build(build):
                kept.append(conjunct)
                continue
            if (
                self._hashable_build(probe)
                and positions[build_name] - positions[probe_name] == 1
                and self._estimated_rows(probe) < self._estimated_rows(build)
            ):
                i, j = positions[probe_name], positions[build_name]
                query.bindings[i], query.bindings[j] = (
                    query.bindings[j],
                    query.bindings[i],
                )
                positions[probe_name], positions[build_name] = j, i
                probe_name, build_name = build_name, probe_name
                probe_key, build_key = build_key, probe_key
                probe, build = build, probe
            build.join_strategy = "hash"
            build.hash_build_key = build_key
            build.hash_probe_key = probe_key
            build.hash_join_op = conjunct.op
            build.join_detail = (
                f"hash(build={build_name}"
                f"~{int(self._estimated_rows(build))}"
                f", probe={probe_name})"
            )
            report.hash_joins.append(f"{probe_name}*{build_name}:{conjunct.op}")
        return kept

    def _equi_join_pair(
        self, conjunct: BoundExpr, bindings: dict[str, RangeBinding]
    ) -> Optional[tuple[tuple[str, BoundExpr], tuple[str, BoundExpr]]]:
        """Match ``f(A) = g(B)`` / ``f(A) is g(B)`` over two existential
        range variables of this query block."""
        if not isinstance(conjunct, Binary):
            return None
        is_value_join = conjunct.kind == "compare" and conjunct.op == "="
        is_object_join = conjunct.kind == "object" and conjunct.op == "is"
        if not (is_value_join or is_object_join):
            return None
        left_vars = self._variables_of(conjunct.left)
        right_vars = self._variables_of(conjunct.right)
        if len(left_vars) != 1 or len(right_vars) != 1:
            return None
        name_a = next(iter(left_vars))
        name_b = next(iter(right_vars))
        if name_a == name_b or "$aggregate" in (name_a, name_b):
            return None
        binding_a = bindings.get(name_a)
        binding_b = bindings.get(name_b)
        if binding_a is None or binding_b is None:
            return None
        if binding_a.universal or binding_b.universal:
            return None
        return (name_a, conjunct.left), (name_b, conjunct.right)

    def _hashable_build(self, binding: RangeBinding) -> bool:
        """Build sides must be env-independent full scans of a named set
        (so the table can be built once) not already claimed by a join."""
        return (
            not binding.universal
            and binding.join_strategy == "loop"
            and binding.access == "scan"
            and isinstance(binding.source, NamedSetSource)
        )

    # -- semi-joins ---------------------------------------------------------------------

    def _mark_semi_joins(
        self,
        query: BoundQuery,
        remaining: list[BoundExpr],
        report: OptimizerReport,
    ) -> None:
        """Flag membership predicates over named sets so the evaluator
        materializes the member-key set once per execution (semi-join)
        instead of rescanning the collection per candidate row."""

        def walk(root: BoundExpr) -> None:
            stack = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, Membership):
                    if node.collection.kind == "named" and not node.semi_join:
                        node.semi_join = True
                        report.semi_joins += 1
                    stack.append(node.element)
                    if node.collection.base is not None:
                        stack.append(node.collection.base)
                elif isinstance(node, Binary):
                    stack.extend([node.left, node.right])
                elif isinstance(node, Unary):
                    stack.append(node.operand)
                elif isinstance(node, (AdtCall, ExcessCall)):
                    stack.extend(node.args)
                elif isinstance(node, AttrStep):
                    stack.append(node.base)
                elif isinstance(node, IndexStepB):
                    stack.extend([node.base, node.index])

        for conjunct in remaining:
            walk(conjunct)
        for binding in query.bindings:
            for residual in binding.residual:
                walk(residual)
