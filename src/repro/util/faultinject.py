"""Deterministic fault injection for crash-recovery testing.

The durability code (:mod:`repro.storage.wal`,
:mod:`repro.storage.recovery`, :mod:`repro.storage.persistence`)
registers named **crash points** at import time and calls
:func:`crash_point` (or :func:`torn_cut` for simulated partial writes)
at each one. Production runs pay one dict lookup and an integer
increment per point; tests :func:`arm` a point to raise
:class:`SimulatedCrash` on its Nth hit, drive a workload into the
crash, throw the in-memory database away, and recover from disk.

``SimulatedCrash`` derives from :class:`BaseException` so no
``except Exception`` cleanup handler in the engine can swallow it —
exactly like a real ``kill -9``, the crash propagates to the test
harness with whatever bytes happened to reach the OS.

Torn writes: a point registered with ``torn=True`` is consulted via
:func:`torn_cut`, which (when armed) returns how many bytes of the
record to actually write before crashing — simulating a power loss
mid-``write``, the failure mode the WAL's CRC records exist to detect.

**Process locality.** The registry is module state and therefore
**process-local on purpose**: armed crash points model *this* process
dying, and a fault armed in a test must never fire inside a pool worker
spawned by :mod:`repro.excess.parallel` (the worker would die, the
parent would see an infrastructure failure, and the test would observe
a serial fallback instead of the crash it armed).  Two mechanisms
enforce this: ``os.register_at_fork`` below disarms everything in any
forked child at fork time, and pool workers additionally call
:func:`reset` at startup, which also covers spawn-start children that
re-import this module armed-state-free anyway.
"""

from __future__ import annotations

import os

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "SimulatedCrash",
    "register",
    "registered_points",
    "crash_point",
    "torn_cut",
    "arm",
    "reset",
    "hits",
    "armed",
    "should_fire",
]


class SimulatedCrash(BaseException):
    """Raised at an armed crash point; models a process kill."""

    def __init__(self, point: str, hit: int):
        super().__init__(f"simulated crash at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


@dataclass
class _Point:
    name: str
    torn: bool = False
    hits: int = 0
    #: crash on this hit number (None = disarmed)
    trigger: Optional[int] = None
    #: for torn points: fraction of the record to persist before dying
    cut_fraction: float = 0.5


_points: dict[str, _Point] = {}


def register(name: str, torn: bool = False) -> None:
    """Declare a crash point; idempotent (module import order varies)."""
    point = _points.get(name)
    if point is None:
        _points[name] = _Point(name=name, torn=torn)
    else:
        point.torn = point.torn or torn


def registered_points() -> list[str]:
    """All declared crash point names, sorted (the sweep iterates this)."""
    return sorted(_points)


def crash_point(name: str) -> None:
    """Count a hit; raise :class:`SimulatedCrash` when armed for it."""
    point = _points.get(name)
    if point is None:  # unregistered points never fire
        return
    point.hits += 1
    if point.trigger is not None and point.hits == point.trigger:
        raise SimulatedCrash(name, point.hits)


def should_fire(name: str) -> bool:
    """Count a hit; return True when armed for it.

    Like :func:`crash_point` but the *caller* owns the failure: the
    resource governor uses this to raise
    :class:`~repro.errors.StatementTimeout` (an ordinary engine error
    with clean unwind semantics) at a named injection point, rather
    than the kill-like :class:`SimulatedCrash`.
    """
    point = _points.get(name)
    if point is None:
        return False
    point.hits += 1
    return point.trigger is not None and point.hits == point.trigger


def armed(name: str) -> bool:
    """True while ``name`` is armed (no hit is counted)."""
    point = _points.get(name)
    return point is not None and point.trigger is not None


def torn_cut(name: str, size: int) -> Optional[int]:
    """Like :func:`crash_point`, but for simulated partial writes.

    Returns ``None`` normally; when the point fires it returns the
    number of bytes (``0 <= n < size``) the caller should persist
    before raising :class:`SimulatedCrash` itself (the caller owns the
    file handle, so it performs the cut write and then crashes).
    """
    point = _points.get(name)
    if point is None:
        return None
    point.hits += 1
    if point.trigger is not None and point.hits == point.trigger:
        return min(size - 1, max(0, int(size * point.cut_fraction)))
    return None


def arm(name: str, on_hit: int = 1, cut_fraction: float = 0.5) -> None:
    """Arm ``name`` to crash on its ``on_hit``-th hit from now.

    Resets the point's hit counter so ``on_hit`` counts from the call.
    """
    try:
        point = _points[name]
    except KeyError:
        raise KeyError(
            f"unknown crash point {name!r} (registered: "
            f"{', '.join(registered_points()) or 'none'})"
        ) from None
    point.hits = 0
    point.trigger = on_hit
    point.cut_fraction = cut_fraction


def reset() -> None:
    """Disarm every point and clear hit counters (test teardown)."""
    for point in _points.values():
        point.hits = 0
        point.trigger = None
        point.cut_fraction = 0.5


def hits(name: str) -> int:
    """How many times ``name`` was hit since the last reset/arm."""
    point = _points.get(name)
    return point.hits if point is not None else 0


if hasattr(os, "register_at_fork"):  # not on every platform
    # forked children (worker pools) must start with every crash point
    # disarmed — see the process-locality note in the module docstring
    os.register_at_fork(after_in_child=reset)
