"""``analytic_scan_mem`` — eight fixed scan/join/aggregate templates.

The texts never change, so after warm-up every statement hits the plan
cache and the front end does nothing; each statement scans the whole
Employees set (paths through ``dept``, the nested ``kids`` sets, ``over``
aggregates, joins, a sort), so ``excess.plan`` / ``compile`` /
``evaluator`` do all the work. The workload for executor optimisations
and the bypass for every front-end one.

One *round* is the eight templates in order. Throughput and CPU count
statements; the latency metrics are per round, because the per-statement
times are eight separate modes with no meaningful common percentile.
"""

from __future__ import annotations

from collections import defaultdict

from datasets import build_company
from harness import Workload, percentile

EMPLOYEES = 4000
DEPARTMENTS = 40

TEMPLATES = {
    "filter_scan":
        "retrieve (E.name, E.salary) from E in Employees where E.age > 60",
    "ref_path":
        "retrieve (E.name, E.dept.floor) from E in Employees "
        "where E.dept.floor = 3",
    "unnest_kids":
        "retrieve (E.name, K.name) from E in Employees, K in E.kids "
        "where K.age > 16",
    "group_avg":
        "retrieve unique (E.dept.dname, a = avg(E.salary over E.dept)) "
        "from E in Employees",
    "global_agg":
        "retrieve (a = avg(E.salary), m = max(E.salary)) from E in Employees",
    "ref_join":
        "retrieve (E.name, D.dname) from E in Employees, D in Departments "
        "where E.dept is D and D.floor = 2",
    "self_join":
        "retrieve (E.name, F.name) from E in Employees, F in Employees "
        "where E.salary = F.salary and E.age = 64 and F.age = 21",
    "sort_top":
        "retrieve (E.name, E.salary) from E in Employees where E.age = 40 "
        "sort by E.salary desc, E.name",
}


def model_answers(depts: list[dict], emps: list[dict]) -> dict[str, list]:
    """Each template's rows, computed from the generated rows alone."""
    by_dept = defaultdict(list)
    for emp in emps:
        by_dept[emp["dept"]].append(emp["salary"])
    salaries = [emp["salary"] for emp in emps]
    young = defaultdict(list)
    for emp in emps:
        if emp["age"] == 21:
            young[emp["salary"]].append(emp["name"])
    return {
        "filter_scan": [
            (e["name"], e["salary"]) for e in emps if e["age"] > 60
        ],
        "ref_path": [
            (e["name"], 3) for e in emps if depts[e["dept"]]["floor"] == 3
        ],
        "unnest_kids": [
            (e["name"], kid) for e in emps for kid, age in e["kids"] if age > 16
        ],
        "group_avg": [
            (depts[d]["dname"], sum(values) / len(values))
            for d, values in by_dept.items()
        ],
        "global_agg": [(sum(salaries) / len(salaries), max(salaries))],
        "ref_join": [
            (e["name"], depts[e["dept"]]["dname"])
            for e in emps if depts[e["dept"]]["floor"] == 2
        ],
        "self_join": [
            (e["name"], other)
            for e in emps if e["age"] == 64
            for other in young.get(e["salary"], ())
        ],
        "sort_top": sorted(
            ((e["name"], e["salary"]) for e in emps if e["age"] == 40),
            key=lambda row: (-row[1], row[0]),
        ),
    }


def checksum(rows: list) -> tuple[int, int]:
    """Row count and an order-insensitive checksum (``hash`` is stable
    within one process, which is all a model comparison needs)."""
    return len(rows), sum(map(hash, rows))


class AnalyticScanMem(Workload):
    name = "analytic_scan_mem"
    warmup_ops = 2  # rounds
    read_kinds = ("round",)

    def setup(self) -> None:
        count = max(400, EMPLOYEES // self.scale)
        self.db, depts, emps = build_company(
            self.data_rng(), count, DEPARTMENTS, indexes=False
        )
        answers = model_answers(depts, emps)
        self.sorted_answer = answers["sort_top"]
        self.expected = {name: checksum(rows) for name, rows in answers.items()}

    def step(self) -> None:
        """One round: the eight templates in order."""
        round_ns = 0
        for template, text in TEMPLATES.items():
            with self.op(template) as op:
                result = self.statement(text)
            if not op.ok:
                return
            round_ns += self.samples[template][-1]
            rows = [tuple(row) for row in result.rows]
            self.check(
                checksum(rows) == self.expected[template],
                f"{template}: {len(rows)} rows, checksum differs from model",
            )
            if template == "sort_top":
                self.check(rows == self.sorted_answer, "sort_top: row order")
        self.samples.setdefault("round", []).append(round_ns)

    # rounds are the client-visible latency unit; statements the work unit

    def ops_done(self) -> int:
        return sum(
            len(values) for kind, values in self.samples.items()
            if kind != "round"
        )

    def client_kinds(self) -> tuple:
        return ("round",)

    def per_layer(self, spans: list) -> dict[str, float]:
        out = super().per_layer(spans)
        for template in TEMPLATES:
            out[f"executor.{template}_p50_ms"] = (
                percentile(self.samples.get(template, []), 50) / 1e6
            )
        return out
