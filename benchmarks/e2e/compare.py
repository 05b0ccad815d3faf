"""``run.py --compare A.json B.json``: judge B against A by the
benchmark's own bounds.

Each file is a result set: suite invocations appended with
``run.py --out FILE`` (three or more, so a spread exists). For every
workload and end-to-end metric the verdict is one of

* ``unresolved`` — the run-to-run spread of either side (interquartile
  range over its median) is wider than the metric's bound, so the bound
  cannot be applied; never reported as unchanged;
* ``regression`` — B's median is worse than A's by more than the bound;
* ``improved`` — better by more than the bound (a claim still needs the
  paired-run rule of the README);
* ``unchanged`` — within the bound.

Per-layer metrics carry no bound; their medians are listed.
"""

from __future__ import annotations

import json
import statistics

__all__ = ["main", "judge"]


def _values(doc: dict, workload: str, section: str, name: str) -> list[float]:
    return [
        run["workloads"][workload][section][name]["value"]
        for run in doc["runs"] if workload in run["workloads"]
    ]


def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0


def judge(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Verdict for one workload × metric."""
    median_a = statistics.median(a)
    median_b = statistics.median(b)
    spread = max(_spread(a), _spread(b))
    if median_a:
        change = (median_b - median_a) / abs(median_a)
    else:
        change = 0.0 if median_b == median_a else float("inf")
    worse_by = change if better == "lower" else -change
    if spread > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    elif worse_by < -bound:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {
        "a": median_a, "b": median_b, "worse_by": worse_by,
        "spread": spread, "bound": bound, "verdict": verdict,
    }


def main(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a, encoding="utf-8") as handle:
        doc_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        doc_b = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    counts: dict[str, int] = {}
    print(f"{'workload':<20}{'metric':<44}{'A':>14}{'B':>14}"
          f"{'worse by':>10}{'spread':>9}{'bound':>7}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            a = _values(doc_a, workload, "end_to_end", metric["name"])
            b = _values(doc_b, workload, "end_to_end", metric["name"])
            if not a or not b:
                continue
            row = judge(a, b, metric["better"], metric["bound"])
            counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
            print(f"{workload:<20}{metric['name']:<44}{row['a']:>14.5g}"
                  f"{row['b']:>14.5g}{row['worse_by']:>+10.1%}"
                  f"{row['spread']:>9.1%}{row['bound']:>7.0%}  {row['verdict']}")
        for metric in spec["per_layer"]:
            a = _values(doc_a, workload, "per_layer", metric["name"])
            b = _values(doc_b, workload, "per_layer", metric["name"])
            if not a or not b or not (any(a) or any(b)):
                continue  # no such layer on this workload
            print(f"{workload:<20}{metric['name']:<44}"
                  f"{statistics.median(a):>14.5g}{statistics.median(b):>14.5g}")
    print("summary: " + ", ".join(
        f"{count} {verdict}" for verdict, count in sorted(counts.items())))
    return 1 if counts.get("regression") else 0
