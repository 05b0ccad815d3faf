"""Drive one statement through the front end stage by stage.

``Interpreter.execute`` runs lexer+parser, binder, optimizer and
lowering back to back on a plan-cache miss and gives no per-stage
times. The traced pass therefore first walks the statement through the
same public functions the interpreter calls, one span per stage, and
only then issues the real ``execute``. Staging binds and plans but never
evaluates, so it leaves the data untouched.
"""

from __future__ import annotations

from typing import Any

from repro.excess import ast_nodes as ast
from repro.excess.binder import Binder
from repro.excess.optimizer import Optimizer
from repro.excess.parser import OperatorTable, parse_script

from trace import Tracer

__all__ = ["stage_statement"]

_BINDERS = {
    ast.Retrieve: Binder.bind_retrieve,
    ast.Append: Binder.bind_append,
    ast.Delete: Binder.bind_delete,
    ast.Replace: Binder.bind_replace,
}


def _operator_table(db: Any) -> OperatorTable:
    """The catalog-aware operator table, rebuilt per statement exactly
    as the interpreter does (so the parser span carries that cost)."""
    table = OperatorTable()
    adts = db.catalog.adts
    for symbol in adts.operator_symbols():
        info = adts.operator_parse_info(symbol)
        if info is not None:
            table.add_operator(
                symbol, info.precedence, info.associativity, info.fixity
            )
    return table


def stage_statement(db: Any, text: str, tracer: Tracer) -> None:
    """Parse, bind, optimize and lower ``text`` under four spans."""
    interp = db.interpreter
    with tracer.span("parser.parse"):
        statement = parse_script(text, _operator_table(db)).statements[0]
    bind = _BINDERS[type(statement)]
    binder = Binder(db.catalog, db.default_session.ranges)
    with tracer.span("binder.bind"):
        bound = bind(binder, statement)
    optimizer = Optimizer(
        db.catalog,
        enabled=interp.optimize,
        hash_joins=interp.hash_joins,
        cost_based=interp.cost_based,
        compile_mode=interp.compile_mode,
        exec_mode=interp.exec_mode,
        parallel_mode=interp.parallel_mode,
        workers=interp.workers,
    )
    with tracer.span("optimizer.optimize"):
        report = optimizer.optimize(bound.query)
    with tracer.span("optimizer.lower"):
        optimizer.lower(bound, report)
