#!/usr/bin/env python3
"""The repo benchmark: one in-process, fork-free command.

Driver contract (one workload, one pass, one JSON line)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Whole suite (every workload untraced, then traced; one JSON document)::

    python3 benchmarks/e2e/run.py --seed 1988 [--workload NAME] [--out FILE]
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --compare A.json B.json

See README.md beside this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no engine to measure: {SRC}/repro is missing")
sys.path.insert(0, SRC)

import check  # noqa: E402
import compare  # noqa: E402
from analytic_scan_mem import AnalyticScanMem  # noqa: E402
from harness import reset_peak_rss  # noqa: E402
from oltp_point_mem import OltpPointMem  # noqa: E402
from paged_cold_mixed import PagedColdMixed  # noqa: E402
from server_warm_mixed import ServerWarmMixed  # noqa: E402
from trace import check_self_times, write_trace  # noqa: E402

WORKLOADS = {
    cls.name: cls
    for cls in (OltpPointMem, AnalyticScanMem, PagedColdMixed, ServerWarmMixed)
}
#: the dataset is built this many times per untraced run; setup_s is the
#: median, so one slow build does not move it
SETUP_REPS = 3


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_pass(
    name: str, seed: int, seconds: float, traced: bool, scale: int,
    setup_reps: int,
) -> dict:
    """Set up, measure and check one workload once.

    Returns ``{attempted, failed, errors, metrics}`` with the end-to-end
    metrics (untraced) or the per-layer metrics (traced). Whatever ends
    the pass — completion, an error, or the ``SystemExit`` a signal
    raises — the ``finally`` releases everything the workload holds.
    """
    workload = WORKLOADS[name](seed, scale, OUT)
    try:
        setup_times = []
        for _ in range(1 if traced else setup_reps):
            workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        workload.warmup()
        if traced:
            # the first quarter runs untraced: its time per op is the
            # base of trace.overhead_ratio
            workload.measure(seconds / 4)
            plain_per_op = workload.window_s / max(1, workload.ops_done())
            workload.reset_counts()
            workload.start_tracing()
            workload.measure(seconds * 3 / 4)
            workload.finish()
            spans = workload.spans()
            metrics = workload.per_layer(spans)
            traced_per_op = workload.window_s / max(1, workload.ops_done())
            metrics["trace.overhead_ratio"] = traced_per_op / plain_per_op
            workload.check(
                check_self_times(spans) == 0,
                "span self times do not sum to their operation",
            )
            write_trace(
                os.path.join(OUT, f"trace_{name}.json"), name, spans
            )
        else:
            workload.measure(seconds)
            workload.finish()
            metrics = workload.end_to_end()
            metrics["setup_s"] = statistics.median(setup_times)
        return {
            "attempted": workload.attempted,
            "failed": workload.failed,
            "errors": workload.errors,
            "metrics": metrics,
        }
    finally:
        workload.teardown()


def with_units(values: dict, declared: list) -> dict:
    """Shape ``{name: value}`` as the declared metric list, with units.

    A per-layer metric a workload has no such layer for reads 0; an
    undeclared name is a harness bug."""
    names = {metric["name"] for metric in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise SystemExit(f"run.py: metrics not in BENCHMARK.json: {unknown}")
    return {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in declared
    }


def leaks() -> list[str]:
    """Names of processes and threads that outlived their teardown."""
    found = [f"process {child.name}" for child in multiprocessing.active_children()]
    found += [
        f"thread {thread.name}" for thread in threading.enumerate()
        if thread is not threading.main_thread()
    ]
    return found


def contract_run(args: argparse.Namespace, spec: dict) -> int:
    """One workload, one pass, one JSON object as the last stdout line."""
    traced = args.trace == 1
    outcome = run_pass(
        args.workload, args.seed, args.seconds, traced, 1, SETUP_REPS
    )
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    leaked = leaks()
    for message in outcome["errors"] + leaked:
        print(f"run.py: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome["failed"] == 0 and not leaked,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": with_units(outcome["metrics"], declared),
    }))
    return 3 if leaked else 0


def suite_run(args: argparse.Namespace, spec: dict) -> int:
    """Every selected workload, untraced then traced, as one document."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    scale, reps = (10, 1) if args.smoke else (1, SETUP_REPS)
    workloads = {}
    for name in names:
        reset_peak_rss()
        plain = run_pass(name, args.seed, args.seconds, False, scale, reps)
        traced = run_pass(name, args.seed, args.seconds, True, scale, reps)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        workloads[name] = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "failed_ops_ratio": failed / attempted,
            "errors": plain["errors"] + traced["errors"],
            "end_to_end": with_units(plain["metrics"], spec["end_to_end"]),
            "per_layer": with_units(traced["metrics"], spec["per_layer"]),
            "trace_file": os.path.relpath(
                os.path.join(OUT, f"trace_{name}.json"), ROOT),
        }
    leaked = leaks()
    document = {
        "benchmark": "benchmarks/e2e",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "leaks": leaked,
        "workloads": workloads,
    }
    print(json.dumps(document, indent=1))
    if args.out:
        append_run(args.out, document)
    ok = not leaked and all(entry["correct"] for entry in workloads.values())
    if args.smoke:
        static = check.check_fork_free() + check.check_spec()
        for problem in static:
            print(f"run.py: {problem}", file=sys.stderr)
        ok = check_names(spec, workloads) and not static and ok
    return 0 if ok else 3


def append_run(path: str, document: dict) -> None:
    """Add this invocation to the result set at ``path`` (created when
    missing): ``--compare`` judges sets of invocations."""
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    runs.append(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1)
        handle.write("\n")


def check_names(spec: dict, workloads: dict) -> bool:
    """Smoke assertion: every workload printed exactly the declared
    metric names (``check.check_spec`` vets the names themselves)."""
    good = True
    for section in ("end_to_end", "per_layer"):
        declared = {metric["name"] for metric in spec[section]}
        for workload, entry in workloads.items():
            if set(entry[section]) != declared:
                print(
                    f"run.py: {workload} {section} names differ from "
                    "BENCHMARK.json", file=sys.stderr,
                )
                good = False
    return good


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1988)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per pass "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: run one pass of --workload "
                             "and print one JSON line")
    parser.add_argument("--out", metavar="FILE",
                        help="suite mode: also append this invocation to the "
                             "result set in FILE (input of --compare)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets and windows; checks the metric "
                             "names against BENCHMARK.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], spec)
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(spec["run_seconds"])

    def on_signal(signum: int, _frame: object) -> None:
        # unwinds through run_pass's finally, which tears the workload down
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    os.makedirs(OUT, exist_ok=True)
    if args.trace is not None:
        return contract_run(args, spec)
    return suite_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
