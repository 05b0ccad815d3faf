"""``oltp_point_mem`` — indexed point traffic against the memory store.

68 % point retrieve by name with a path step, 10 % btree salary range,
10 % ``replace`` by name, 6 % ``append``, 6 % ``delete`` (of the oldest
appended employee, so the set keeps its size; 6 % rather than 5 % because
deletes are the slowest kind, and with exactly 5 % of them
``latency_p95_ms`` would sit on the edge between two modes). Every text
carries its key as a literal and keys are Zipf(0.8) over all employees,
so about 87 % of statements miss the 128-entry plan cache. A miss costs
about 1 ms (0.3 ms of lexer/parser/binder/optimizer, most of the rest the
executor compiling the plan's pipeline on first run) against 0.04 ms to
run a cached plan, so statements that missed are ~99 % of the execute
time; the executor touches one row through an index and storage does
nothing. The workload for front-end and plan-reuse optimisations;
``analytic_scan_mem`` is its bypass.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from datasets import build_company
from harness import Workload

EMPLOYEES = 5000
DEPARTMENTS = 20
ZIPF_S = 0.8
TOP_SALARY = 100000.0


class OltpPointMem(Workload):
    name = "oltp_point_mem"
    warmup_ops = 1000
    read_kinds = ("point", "range")
    write_kinds = ("replace", "append", "delete")

    def setup(self) -> None:
        count = max(200, EMPLOYEES // self.scale)
        self.db, self.depts, rows = build_company(
            self.data_rng(), count, DEPARTMENTS, indexes=True
        )
        self.names = [row["name"] for row in rows]
        #: the model: live employee name -> [salary, department name]
        self.model = {
            row["name"]: [row["salary"], self.depts[row["dept"]]["dname"]]
            for row in rows
        }
        #: salary -> live names, for checking range counts
        self.by_salary: dict[float, set] = {}
        for name, (salary, _dname) in self.model.items():
            self.by_salary.setdefault(salary, set()).add(name)
        self.rng = random.Random(f"{self.seed}:ops")
        # Zipf over a seeded permutation, so hot keys are spread over
        # the set rather than clustered at its front
        order = list(range(count))
        self.rng.shuffle(order)
        self.key_order = order
        self.cum_weights = list(itertools.accumulate(
            (rank + 1) ** -ZIPF_S for rank in range(count)
        ))
        self.appended = 0
        #: appended employees not yet deleted, oldest first
        self.pool: deque = deque()

    # -- model upkeep --------------------------------------------------------

    def _set_salary(self, name: str, salary: float) -> None:
        entry = self.model[name]
        self.by_salary[entry[0]].discard(name)
        entry[0] = salary
        self.by_salary.setdefault(salary, set()).add(name)

    def _zipf_name(self) -> str:
        (slot,) = self.rng.choices(self.key_order, cum_weights=self.cum_weights)
        return self.names[slot]

    # -- the mix -------------------------------------------------------------

    def step(self) -> None:
        rng = self.rng
        draw = rng.random()
        if draw < 0.68:
            name = self._zipf_name()
            with self.op("point") as op:
                result = self.statement(
                    "retrieve (E.name, E.salary, E.dept.dname) "
                    f'from E in Employees where E.name = "{name}"'
                )
            if op.ok:
                entry = self.model.get(name)
                want = [(name, entry[0], entry[1])] if entry else []
                self.check(result.rows == want, f"point read of {name}")
        elif draw < 0.78:
            # the btree serves only the lower bound, so the range sits at
            # the top of the salary domain (one or two 1000-wide buckets,
            # ~1-2 % of the set); the fractional bound keeps texts distinct
            low = TOP_SALARY - 2000.0 + rng.randrange(1, 2000) + 0.5
            with self.op("range") as op:
                result = self.statement(
                    "retrieve (E.name, E.salary) from E in Employees "
                    f"where E.salary >= {low}"
                )
            if op.ok:
                want = set()
                for salary in (TOP_SALARY - 1000.0, TOP_SALARY):
                    if salary >= low:
                        want |= self.by_salary.get(salary, set())
                self.check(
                    {row[0] for row in result.rows} == want,
                    f"salary range from {low}",
                )
        elif draw < 0.88:
            name = self._zipf_name()
            salary = float(rng.randint(20, 100)) * 1000.0
            with self.op("replace") as op:
                self.statement(
                    f"replace E (salary = {salary}) "
                    f'from E in Employees where E.name = "{name}"'
                )
            if op.ok and name in self.model:
                self._set_salary(name, salary)
        elif draw < 0.94 or not self.pool:
            self.appended += 1
            name = f"New{self.appended}"
            salary = float(rng.randint(20, 100)) * 1000.0
            dname = self.depts[rng.randrange(len(self.depts))]["dname"]
            with self.op("append") as op:
                self.statement(
                    f'append to Employees (name = "{name}", age = 30, '
                    f"salary = {salary}, dept = D) "
                    f'from D in Departments where D.dname = "{dname}"'
                )
            if op.ok:
                self.model[name] = [salary, dname]
                self.by_salary.setdefault(salary, set()).add(name)
                self.pool.append(name)
        else:
            # deletes retire the oldest appended employee: the set keeps
            # its size, the Zipf head stays alive for the point reads, and
            # every delete removes exactly one live, childless row (a
            # delete of an original would cascade to its kids and make
            # the slowest operations a mix of two modes); a delete
            # drawn while nothing is appended yet becomes an append
            name = self.pool.popleft()
            with self.op("delete") as op:
                result = self.statement(
                    f'delete E from E in Employees where E.name = "{name}"'
                )
            if op.ok:
                salary, _dname = self.model.pop(name)
                self.by_salary[salary].discard(name)
                self.check(result.count == 1, f"delete of {name}")

    def finish(self) -> None:
        result = self.db.execute(
            "retrieve (n = count(E.name), s = sum(E.salary)) from E in Employees"
        )
        want = (len(self.model), sum(entry[0] for entry in self.model.values()))
        self.check(
            tuple(result.rows[0]) == want,
            f"final cardinality/salary sum {result.rows[0]} != {want}",
        )
