"""Execution flags: what each accepts, and the resolved tuple.

:data:`FLAG_VALUES` is the one table behind the interpreter's attribute
setters, the server's wire ``set`` op and the shell's meta commands.
:class:`Flags` is one session's flags resolved once — its overrides over
the interpreter's attributes. The plan-cache key embeds that tuple, and
the optimizer and evaluator read their settings from it; a session
re-resolves it only after a flag changed (see
:meth:`repro.core.session.SessionContext.resolved_flags`).
"""

from __future__ import annotations

import os
from typing import Any, NamedTuple

from repro.errors import ExcessError

__all__ = ["FLAG_VALUES", "Flags", "validate_flag"]

#: every validated execution flag and what it accepts: a tuple enumerates
#: the allowed values, an integer is the smallest allowed integer
FLAG_VALUES: dict[str, Any] = {
    "optimize": (True, False),
    "compile_mode": ("closure", "off"),
    "exec_mode": ("fused", "row"),
    "parallel_mode": ("process", "off"),
    "batch_size": 1,
    "workers": 1,
    "statement_timeout_ms": 0,
    "memory_budget": 0,
}


def validate_flag(name: str, value: Any) -> Any:
    """``value`` if it is allowed for flag ``name`` (see
    :data:`FLAG_VALUES`), else :class:`ExcessError`."""
    allowed = FLAG_VALUES[name]
    if isinstance(allowed, tuple):
        if value not in allowed:
            raise ExcessError(
                f"{name} must be one of {list(allowed)}, got {value!r}"
            )
    elif not isinstance(value, int) or isinstance(value, bool) or value < allowed:
        kind = "positive" if allowed else "non-negative"
        raise ExcessError(f"{name} must be a {kind} integer, got {value!r}")
    return value


class Flags(NamedTuple):
    """One session's execution flags, resolved (the defaults are the
    interpreter's)."""

    #: whether the optimizer runs at all
    optimize: bool = True
    #: whether the optimizer may rewrite equi-joins to hash joins
    hash_joins: bool = True
    #: whether binding order comes from the cost-based search (False
    #: forces the older heuristic ranks, for ablation)
    cost_based: bool = True
    #: "closure" executes compiled expression closures on plan hot
    #: paths; "off" forces the recursive interpreter (ablation)
    compile_mode: str = "closure"
    #: "fused" runs generated whole-pipeline functions where plan regions
    #: allow (exchanging row batches elsewhere); "row" keeps the
    #: tuple-at-a-time Volcano path (the differential oracle)
    exec_mode: str = "fused"
    #: "process" lowers eligible retrieve pipelines with exchange
    #: operators and runs them on a multi-core worker pool; "off" keeps
    #: every plan serial (ablation)
    parallel_mode: str = "process"
    #: worker-process budget for parallel plans (the chosen degree of
    #: parallelism never exceeds this)
    workers: int = max(1, os.cpu_count() or 1)
    #: target rows per exchanged batch (fused mode)
    batch_size: int = 1024
    #: per-statement wall-clock budget in milliseconds, enforced
    #: cooperatively at batch boundaries (0 = no timeout)
    statement_timeout_ms: int = 0
    #: bytes the pipeline-breaking operators (hash builds, sorts,
    #: aggregates) may hold in memory before spilling (0 = unbounded)
    memory_budget: int = 0
