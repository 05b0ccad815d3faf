"""P11 — fused whole-pipeline codegen against row-at-a-time execution.

The exec_mode ablation compares the two executors over identical plans:

* ``fused`` — Scan→Filter…→Project regions run as one generated Python
  function (inline expression lowering, one shared row dict, per-region
  stats folding), with batch-at-a-time handoff at pipeline breakers;
* ``row`` — the original Volcano tuple-at-a-time open/next/close loop.

The workload is the canonical fusion shape: a scan→filter→project
retrieve over the company database. Fusion removes the per-row
generator handoff, env-dict copying, per-expression closure calls, and
per-row stats increments, so its advantage grows with scan width.

Perf claims from this iteration:

* at 100k employees the fused pipeline runs >= 2x faster than row
  mode on scan→filter→project (asserted below);
* both modes return identical row multisets (asserted below).

Acceptance measurements are persisted machine-readably to
``benchmarks/results/BENCH_p11.json`` via the shared conftest helper.
"""

import statistics
import time

import pytest

from conftest import fresh_company, write_bench_json

#: scan→filter→project: two comparisons over attribute reads, two
#: emitted columns — every hot path the fused codegen inlines.
FUSION_QUERY = (
    "retrieve (E.name, E.salary) from E in Employees "
    "where E.age > 30 and E.salary < 90000.0"
)

#: arithmetic-heavy variant: predicates and targets with inline
#: arithmetic lowering on top of the attribute reads.
ARITH_QUERY = (
    "retrieve (E.name, E.salary * 1.1) from E in Employees "
    "where E.age * 2 > 60 and E.salary < 90000.0"
)

SCALES = [1000, 10000, 100000]
MODES = ("fused", "row")

_DB_CACHE: dict = {}


def company_db(employees: int):
    """One shared database per scale (read-only workloads), serial: with
    the worker pool on, a parallel plan's fragments run fused whatever
    the parent's ``exec_mode``, which would hide the executor compared."""
    if employees not in _DB_CACHE:
        db = fresh_company(employees=employees)
        db.interpreter.parallel_mode = "off"
        _DB_CACHE[employees] = db
    return _DB_CACHE[employees]


def median_time(db, query: str, repeats: int = 5) -> float:
    db.execute(query)  # warm the plan cache for this mode
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        db.execute(query)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# -- scan→filter→project across modes and scales ------------------------------


@pytest.mark.parametrize("employees", SCALES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.benchmark(group="p11-scan-filter-project")
def test_pipeline_mode(benchmark, employees, mode):
    db = company_db(employees)
    db.interpreter.exec_mode = mode
    try:
        result = benchmark(db.execute, FUSION_QUERY)
    finally:
        db.interpreter.exec_mode = "fused"
    assert result.rows


# -- acceptance ---------------------------------------------------------------


def test_fused_beats_row_2x_at_100000():
    """Acceptance: at 100k employees the fused executor runs the
    scan→filter→project pipeline >= 2x faster than row mode (median of
    3 runs) on identical row multisets. Records per-scale medians for
    both workload shapes to BENCH_p11.json."""
    payload: dict = {"scan_filter_project": {}, "arith_pipeline": {}}
    for tag, query in (
        ("scan_filter_project", FUSION_QUERY),
        ("arith_pipeline", ARITH_QUERY),
    ):
        for employees in SCALES:
            db = company_db(employees)
            repeats = 3 if employees >= 100000 else 5
            timings = {}
            rowsets = {}
            try:
                for mode in MODES:
                    db.interpreter.exec_mode = mode
                    rowsets[mode] = sorted(db.execute(query).rows)
                    timings[mode] = median_time(db, query, repeats)
            finally:
                db.interpreter.exec_mode = "fused"
            assert rowsets["fused"] == rowsets["row"]
            assert rowsets["fused"]
            payload[tag][str(employees)] = {
                "fused_ms": round(timings["fused"] * 1000, 3),
                "row_ms": round(timings["row"] * 1000, 3),
                "speedup_fused_vs_row": round(
                    timings["row"] / timings["fused"], 2
                ),
            }

    write_bench_json("p11", payload)

    largest = payload["scan_filter_project"][str(SCALES[-1])]
    assert largest["speedup_fused_vs_row"] >= 2.0, payload
