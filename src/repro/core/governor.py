"""Per-statement resource governance: deadlines and memory budgets.

One :class:`ResourceGovernor` is created per statement execution (by
:class:`~repro.excess.evaluator.Evaluator` when either governance flag
is active) and shared by every operator of that statement's plan via
``PlanContext.governor``. It owns two concerns:

Statement timeouts
    ``statement_timeout_ms`` converts to an absolute monotonic
    deadline at statement start. Operators call :meth:`check_timeout`
    once per **pulled row** (``PlanOp._pull``, and the executor's root
    drain) while the governor is :attr:`~ResourceGovernor.watching`
    and fused pipelines call it in their loop epilogue, so
    cancellation is cooperative: the statement unwinds through ordinary
    exception propagation from a consistent point — MVCC workspaces
    park/rewind exactly as for any failing statement, and the plan
    cache keeps the (still valid) prepared plan. Parallel fragments
    ship the *remaining* time to workers, whose own governors abandon
    the shard past the deadline.

Memory budgets
    ``memory_budget`` (bytes) bounds what the pipeline-breaking
    operators — HashJoin builds, Sort, Aggregate — may hold in memory
    at once. Operators :meth:`reserve` an estimated footprint as they
    accumulate rows; when a reservation is refused they spill to disk
    (:mod:`repro.storage.spill`) and :meth:`release` what they held.
    The accounting is an estimate (``row_footprint``): the budget's job
    is to trigger spilling deterministically, while the spill
    algorithms themselves guarantee byte-identical results at *any*
    trigger point.

Timeout injection points are registered with
:mod:`repro.util.faultinject` (``timeout.pull``, ``timeout.root``,
``timeout.fused``, ``timeout.worker``, ``timeout.aggregate``), so tests
can force a cancellation at each cooperative check site
deterministically instead of racing a real clock. A statement consults
them (and counts their hits) only when one of them was armed when it
started.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Optional

from repro.errors import StatementTimeout
from repro.util import faultinject

__all__ = ["ResourceGovernor", "row_footprint", "TIMEOUT_SITES"]

#: every cooperative cancellation site, one faultinject point each
TIMEOUT_SITES = ("pull", "root", "fused", "worker", "aggregate")

#: the faultinject point of each site, named once
_POINTS = {site: f"timeout.{site}" for site in TIMEOUT_SITES}

for _point in _POINTS.values():
    faultinject.register(_point)

#: charged per row on top of the payload estimate (dict/list overhead)
_ROW_OVERHEAD = 64


def row_footprint(row: Any) -> int:
    """A cheap, deterministic estimate of one row's memory footprint.

    One level deep on purpose: accurate enough to trip the budget at a
    stable point, cheap enough to charge per accumulated row. Container
    rows (env dicts, ``(row, keys)`` pairs) charge their members'
    shallow sizes; everything else charges its own.
    """
    if isinstance(row, dict):
        return _ROW_OVERHEAD + sum(
            sys.getsizeof(k) + sys.getsizeof(v) for k, v in row.items()
        )
    if isinstance(row, (tuple, list)):
        return _ROW_OVERHEAD + sum(sys.getsizeof(v) for v in row)
    return _ROW_OVERHEAD + sys.getsizeof(row)


class ResourceGovernor:
    """Deadline + memory-budget state for one statement execution."""

    __slots__ = ("timeout_ms", "deadline", "memory_budget", "reserved",
                 "spills", "injecting", "watching")

    def __init__(self, statement_timeout_ms: int = 0,
                 memory_budget: int = 0,
                 deadline: Optional[float] = None):
        self.timeout_ms = statement_timeout_ms
        if deadline is not None:
            # worker-side: the parent ships its absolute remaining time
            self.deadline: Optional[float] = deadline
        elif statement_timeout_ms:
            self.deadline = time.monotonic() + statement_timeout_ms / 1000.0
        else:
            self.deadline = None
        #: bytes the pipeline breakers may hold in memory (0 = unbounded)
        self.memory_budget = memory_budget
        #: bytes currently reserved across this statement's operators
        self.reserved = 0
        #: spill events this statement triggered (diagnostics)
        self.spills = 0
        #: True when a timeout injection point was armed at statement
        #: start: :meth:`check_timeout` then consults the points
        self.injecting = any(faultinject.armed(p) for p in _POINTS.values())
        #: True when :meth:`check_timeout` can raise (a deadline, or an
        #: armed injection point). Per-row callers test this one flag
        #: and call only when it is set; a budget-only governor is never
        #: called per row
        self.watching = self.deadline is not None or self.injecting

    # -- timeouts ----------------------------------------------------------

    def remaining_ms(self) -> Optional[int]:
        """Milliseconds until the deadline (None when no timeout).

        Floors at 1ms: a parent that is *past* its deadline still ships
        a positive remainder so the worker's first cooperative check —
        not the flag plumbing — raises the timeout.
        """
        if self.deadline is None:
            return None
        return max(1, int((self.deadline - time.monotonic()) * 1000.0))

    def check_timeout(self, site: str = "pull") -> None:
        """Raise :class:`StatementTimeout` past the deadline (or at an
        armed injection point). Called at every cooperative site."""
        if self.injecting and faultinject.should_fire(_POINTS[site]):
            raise StatementTimeout(
                f"statement timeout injected at {site!r}"
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise StatementTimeout(
                f"statement exceeded statement_timeout_ms="
                f"{self.timeout_ms} (cancelled at {site} boundary)"
            )

    # -- memory budget -----------------------------------------------------

    def reserve(self, nbytes: int) -> bool:
        """Reserve ``nbytes`` against the budget.

        Returns False — without reserving — when the budget is active
        and would be exceeded; the caller spills and releases. With no
        budget configured every reservation succeeds (and is still
        tracked, for diagnostics).
        """
        if self.memory_budget and self.reserved + nbytes > self.memory_budget:
            return False
        self.reserved += nbytes
        return True

    def release(self, nbytes: int) -> None:
        """Return a reservation (operator spilled or finished)."""
        self.reserved = max(0, self.reserved - nbytes)

    def spilled(self) -> None:
        """Record one spill event."""
        self.spills += 1
