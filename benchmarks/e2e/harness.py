"""Measurement plumbing shared by the four workloads.

A :class:`Workload` owns one dataset and one traffic mix. The runner
calls ``setup`` (timed, several times), ``warmup``, ``measure`` (a
wall-clock window of closed-loop operations), ``finish`` (end-of-run
model checks) and always ``teardown``.

Operations are timed from outside the engine: ``with self.op(kind)``
brackets one user-visible operation, ``self.statement(text)`` issues one
statement inside it. With a tracer attached, ``statement`` first walks
the text through the front end stage by stage (see ``frontend.py``) and
records a span per layer; the staged time is kept out of the operation's
latency sample.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
from typing import Any, Optional

from repro.errors import ExtraError

from frontend import stage_statement
from trace import ATTRS, END, NAME, START, Tracer, self_times

__all__ = [
    "Workload",
    "directory_bytes",
    "median_or_zero",
    "peak_rss_mb",
    "percentile",
    "reset_peak_rss",
    "span_durations_ms",
]

def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 100); 0.0 when
    there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return float(ordered[int(rank) - 1])


def _status_kb(field: str) -> Optional[int]:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return None


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark (``VmHWM``), falling
    back to the current ``VmRSS``."""
    for field in ("VmHWM", "VmRSS"):
        kb = _status_kb(field)
        if kb:
            return kb / 1024.0
    raise RuntimeError("/proc/self/status reports neither VmHWM nor VmRSS")


def reset_peak_rss() -> None:
    """Reset ``VmHWM`` so each workload of a multi-workload run reports
    its own peak (a no-op where the kernel does not allow it)."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


class _Op:
    """Context manager around one user-visible operation."""

    __slots__ = ("workload", "kind", "ok", "start", "span", "io")

    def __init__(self, workload: "Workload", kind: str):
        self.workload = workload
        self.kind = kind
        self.ok = False
        self.span = None

    def __enter__(self) -> "_Op":
        workload = self.workload
        workload.attempted += 1
        workload._staged_ns = 0
        tracer = workload.tracer
        if tracer is not None:
            self.span = tracer.span("op", {"kind": self.kind})
            self.span.__enter__()
            self.io = workload.io_counters()
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: Any, exc: Any, _tb: Any) -> bool:
        elapsed = time.perf_counter_ns() - self.start
        workload = self.workload
        if self.span is not None:
            self.span.__exit__(exc_type, exc, _tb)
            if self.io is not None:
                # storage counters at the op boundary: what this one
                # operation cost the layers below
                self.span.record[ATTRS]["io"] = [
                    after - before
                    for before, after in zip(self.io, workload.io_counters())
                ]
        if exc_type is None:
            self.ok = True
            workload.samples.setdefault(self.kind, []).append(
                elapsed - workload._staged_ns
            )
            return False
        if issubclass(exc_type, workload.op_errors):
            workload.fail(f"{self.kind}: {exc_type.__name__}: {exc}")
            workload.recover_from_failed_op()
            return True
        return False


class Workload:
    """Base class: bookkeeping, the measurement window, shared
    per-layer arithmetic."""

    name = ""
    #: untimed operations issued before the window opens
    warmup_ops = 0
    #: operation kinds counted as reads / writes for the split metrics
    read_kinds: tuple = ()
    write_kinds: tuple = ()
    #: operation kinds that are maintenance, not client requests: they
    #: spend window time but stay out of the client latency percentiles
    maintenance_kinds: tuple = ("checkpoint",)
    #: engine-side failures an operation may raise (counted as failed);
    #: anything else is a harness bug and propagates
    op_errors: tuple = (ExtraError,)

    def __init__(self, seed: int, scale: int, out_dir: str):
        self.seed = seed
        #: dataset and window sizes are divided by this (1 = full size)
        self.scale = scale
        self.out_dir = out_dir
        self.db: Any = None
        self.tracer: Optional[Tracer] = None
        self.samples: dict[str, list[int]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.window_s = 0.0
        self.cpu_s = 0.0
        #: public counters differenced across the window
        self.delta: dict[str, float] = {}
        self._staged_ns = 0
        # traced-pass accumulators (Result.metrics of real executes)
        self.exec_stats = {
            "statements": 0, "wall_ms": 0.0, "rows_scanned": 0,
            "rows_returned": 0, "hash_builds": 0, "hash_probes": 0,
            "misses": 0, "miss_staged_ns": 0, "miss_execute_ns": 0,
            "miss_wall_ms": 0.0,
        }

    # -- lifecycle (overridden per workload) -------------------------------

    def data_rng(self) -> random.Random:
        """The dataset RNG: a fresh one per ``setup`` call, so repeated
        set-ups build identical data."""
        return random.Random(f"{self.seed}:data")

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release everything ``setup`` acquired; safe to call twice."""
        db, self.db = self.db, None
        if db is not None:
            db.interpreter.shutdown_parallel()
            db.close()

    def step(self) -> None:
        """Issue the next operation of the traffic mix."""
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run model checks; report mismatches via :meth:`fail`."""

    def start_tracing(self) -> None:
        self.tracer = Tracer()

    def spans(self) -> list:
        return self.tracer.spans

    def recover_from_failed_op(self) -> None:
        """Hook: restore a usable session after an operation raised."""

    def io_counters(self) -> Optional[tuple]:
        """Hook: storage counters sampled at every traced op boundary
        (``None`` where the workload has no storage layers)."""
        return None

    # -- bookkeeping --------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, condition: bool, message: str) -> None:
        """Count a model mismatch as a failed operation."""
        if not condition:
            self.fail("model mismatch: " + message)

    def reset_counts(self) -> None:
        """Forget warm-up (or the untraced quarter of a traced run)."""
        self.samples = {}
        for key in self.exec_stats:
            self.exec_stats[key] = 0

    # -- issuing work -------------------------------------------------------

    def op(self, kind: str) -> _Op:
        return _Op(self, kind)

    def statement(self, text: str) -> Any:
        """Execute one statement in-process inside the current op."""
        tracer = self.tracer
        if tracer is None:
            return self.db.execute(text)
        mark = time.perf_counter_ns()
        stage_statement(self.db, text, tracer)
        staged = time.perf_counter_ns() - mark
        self._staged_ns += staged
        with tracer.span("interpreter.execute") as record:
            result = self.db.execute(text)
        self.note_result(result, staged, record[END] - record[START])
        return result

    def spanned(self, name: str, call: Any) -> Any:
        """``call()``, under a span called ``name`` when tracing."""
        if self.tracer is None:
            return call()
        with self.tracer.span(name):
            return call()

    def note_result(self, result: Any, staged_ns: int, execute_ns: int) -> None:
        """Fold one real execute's ``Result.metrics`` into the traced
        accumulators."""
        metrics = result.metrics
        if not metrics:
            return
        stats = self.exec_stats
        stats["statements"] += 1
        stats["wall_ms"] += metrics["wall_ms"]
        stats["rows_scanned"] += metrics["rows_scanned"]
        stats["rows_returned"] += len(result.rows)
        stats["hash_builds"] += metrics["hash_builds"]
        stats["hash_probes"] += metrics["hash_probes"]
        if metrics["cache"] == "miss":
            stats["misses"] += 1
            stats["miss_staged_ns"] += staged_ns
            stats["miss_execute_ns"] += execute_ns
            stats["miss_wall_ms"] += metrics["wall_ms"]

    # -- the measurement window ---------------------------------------------

    def warmup(self) -> None:
        for _ in range(max(1, self.warmup_ops // self.scale)):
            self.step()
        self.reset_counts()

    def measure(self, seconds: float) -> None:
        """Closed loop: issue operations back to back for ``seconds``."""
        gc.collect()
        self.before_window()
        cpu = time.process_time()
        start = time.perf_counter()
        self.drive(start + seconds)
        self.window_s = time.perf_counter() - start
        self.cpu_s = time.process_time() - cpu
        self.after_window()

    def drive(self, deadline: float) -> None:
        clock = time.perf_counter
        step = self.step
        while clock() < deadline:
            step()

    def counters(self) -> dict[str, float]:
        """The public engine counters, flattened; differenced across the
        window into ``self.delta``. Subclasses add their layers'."""
        stats = self.db.interpreter.plan_cache.stats()
        return {"plan.hits": stats["hits"], "plan.misses": stats["misses"]}

    def before_window(self) -> None:
        self._counters_before = self.counters()

    def after_window(self) -> None:
        after = self.counters()
        self.delta = {
            key: value - self._counters_before[key]
            for key, value in after.items()
        }

    # -- metrics ---------------------------------------------------------------

    def client_kinds(self) -> tuple:
        """The operation kinds that are client requests."""
        return tuple(
            kind for kind in self.samples if kind not in self.maintenance_kinds
        )

    def client_samples(self, kinds: Optional[tuple] = None) -> list[int]:
        """Whole-window latency samples of ``kinds`` (default: every
        client request kind)."""
        out: list[int] = []
        for kind in self.client_kinds() if kinds is None else kinds:
            out.extend(self.samples.get(kind, ()))
        return out

    def ops_done(self) -> int:
        return sum(len(values) for values in self.samples.values())

    def end_to_end(self) -> dict[str, float]:
        """The user-visible numbers of the untraced window."""
        ops = self.ops_done()
        latencies = self.client_samples()
        return {
            "throughput_ops_s": ops / self.window_s,
            "cpu_s_per_kop": self.cpu_s / ops * 1000.0,
            "latency_p50_ms": percentile(latencies, 50) / 1e6,
            "latency_p95_ms": percentile(latencies, 95) / 1e6,
            "read_p50_ms": percentile(
                self.client_samples(self.read_kinds), 50) / 1e6,
            "peak_rss_mb": peak_rss_mb(),
        }

    def per_layer(self, spans: list) -> dict[str, float]:
        """Per-layer numbers every workload can report from its spans
        and ``Result.metrics``; subclasses extend the dict."""
        out: dict[str, float] = {}
        own = self_times(spans)

        def per_call_us(name: str) -> float:
            total, count = own.get(name, (0, 0))
            return total / count / 1e3 if count else 0.0

        out["parser.parse_us_per_stmt"] = per_call_us("parser.parse")
        out["binder.bind_us_per_stmt"] = per_call_us("binder.bind")
        out["optimizer.optimize_us_per_stmt"] = per_call_us("optimizer.optimize")
        out["optimizer.lower_us_per_stmt"] = per_call_us("optimizer.lower")
        out["interpreter.execute_us_per_stmt"] = per_call_us(
            "interpreter.execute")
        lookups = self.delta["plan.hits"] + self.delta["plan.misses"]
        if lookups:
            out["interpreter.plan_cache_hit_ratio"] = (
                self.delta["plan.hits"] / lookups
            )
        execute_ns = own.get("interpreter.execute", (0, 0))[0]
        stats = self.exec_stats
        statements = stats["statements"]
        if execute_ns:
            out["interpreter.frontend_share"] = (
                stats["miss_staged_ns"] / execute_ns
            )
            out["interpreter.miss_share"] = stats["miss_execute_ns"] / execute_ns
        if statements:
            ops = max(1, self.ops_done())
            out["executor.exec_us_per_stmt"] = (
                stats["wall_ms"] * 1e3 / statements
            )
            hits = statements - stats["misses"]
            if stats["misses"]:
                out["executor.miss_exec_us_per_stmt"] = (
                    stats["miss_wall_ms"] * 1e3 / stats["misses"]
                )
            if hits:
                out["executor.hit_exec_us_per_stmt"] = (
                    (stats["wall_ms"] - stats["miss_wall_ms"]) * 1e3 / hits
                )
            out["executor.rows_scanned_per_op"] = stats["rows_scanned"] / ops
            out["executor.rows_scanned_per_row_returned"] = (
                stats["rows_scanned"] / max(1, stats["rows_returned"])
            )
            out["executor.hash_builds_per_op"] = stats["hash_builds"] / ops
            out["executor.hash_probes_per_op"] = stats["hash_probes"] / ops
        latencies = self.client_samples()
        everything = self.client_samples(tuple(self.samples))
        out["client.max_stall_ms"] = max(everything, default=0) / 1e6
        if len(latencies) >= 1000:
            out["client.latency_p99_ms"] = percentile(latencies, 99) / 1e6
        out["client.write_p50_ms"] = percentile(
            self.client_samples(self.write_kinds), 50) / 1e6
        return out


def span_durations_ms(spans: list, name: str) -> list[float]:
    """Durations (ms) of every span called ``name``."""
    return [
        (record[END] - record[START]) / 1e6
        for record in spans if record[NAME] == name
    ]


def median_or_zero(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def directory_bytes(directory: str) -> int:
    total = 0
    for entry in os.scandir(directory):
        if entry.is_file():
            total += entry.stat().st_size
    return total
