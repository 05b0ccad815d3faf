"""The resource-governance layer: statement timeouts (cooperative
cancellation at every registered site) and memory-budgeted operators
that spill to disk.

The timeout matrix mirrors the crash matrix of
``test_faultinjection.py``: every ``timeout.*`` cancellation point is
driven via fault injection and must produce a clean
:class:`~repro.errors.StatementTimeout` that leaves the engine fully
usable — the same statement re-runs correctly, MVCC workspaces and the
version log hold no residue, and the plan cache serves no stale plan.

The spill tests pin byte-identical equivalence: any query run under a
tight ``memory_budget`` must return exactly the rows (values *and*
order) of the unbudgeted run, across execution modes.
"""

import time

import pytest

from repro.core.governor import (
    TIMEOUT_SITES,
    ResourceGovernor,
    row_footprint,
)
from repro.core.values import NULL
from repro.errors import StatementTimeout
from repro.storage.pages import PAGE_SIZE
from repro.storage.spill import SpillFile
from repro.util import faultinject
from repro.util.workload import CompanyWorkload, build_company_database

# -- unit: the governor ------------------------------------------------------


class TestResourceGovernor:
    def test_idle_governor_checks_pass(self):
        governor = ResourceGovernor()
        governor.check_timeout("root")  # no deadline, no injection
        assert governor.remaining_ms() is None
        assert governor.reserve(1 << 30)  # no budget: everything fits

    def test_deadline_expiry_raises_at_named_site(self):
        governor = ResourceGovernor(statement_timeout_ms=1)
        time.sleep(0.01)
        with pytest.raises(StatementTimeout) as excinfo:
            governor.check_timeout("fused")
        assert "statement_timeout_ms=1" in str(excinfo.value)
        assert "fused" in str(excinfo.value)

    def test_remaining_ms_floors_at_one(self):
        # an expired parent still ships a positive remainder so the
        # worker's own first check (not the shipping code) cancels
        governor = ResourceGovernor(statement_timeout_ms=1)
        time.sleep(0.01)
        assert governor.remaining_ms() == 1

    def test_reserve_release_accounting(self):
        governor = ResourceGovernor(memory_budget=100)
        assert governor.reserve(60)
        assert governor.reserve(40)
        assert not governor.reserve(1)  # over budget: caller must spill
        governor.release(40)
        assert governor.reserve(30)
        governor.spilled()
        assert governor.spills == 1

    def test_row_footprint_scales_with_content(self):
        small = row_footprint({"a": 1})
        large = row_footprint({"a": "x" * 4096, "b": "y" * 4096})
        assert small > 0
        assert large > small + 8000

    def test_every_timeout_site_is_registered(self):
        registered = set(faultinject.registered_points())
        for site in TIMEOUT_SITES:
            assert f"timeout.{site}" in registered


# -- unit: the spill file ----------------------------------------------------


class TestSpillFile:
    def test_round_trip_preserves_order_and_values(self):
        rows = [("a", 1), {"k": 2.5}, ("b", None), [3, "c"]]
        with SpillFile() as spill:
            for row in rows:
                spill.append(row)
            assert spill.records == len(rows)
            assert list(spill) == rows  # iteration flushes the page
            assert spill.bytes_written > 0
            # re-iterable: a second pass sees the same records
            assert list(spill) == rows

    def test_null_singleton_survives_the_disk_trip(self):
        with SpillFile() as spill:
            spill.append(("x", NULL))
            ((_, value),) = list(spill)
            assert value is NULL  # identity, not just equality

    def test_oversized_record_gets_its_own_page(self):
        blob = "z" * (PAGE_SIZE * 2)
        with SpillFile() as spill:
            spill.append(("big", blob))
            spill.append(("small", 1))
            assert list(spill) == [("big", blob), ("small", 1)]

    def test_close_is_idempotent(self):
        spill = SpillFile()
        spill.append((1,))
        spill.close()
        spill.close()
        assert spill.closed


# -- the timeout matrix ------------------------------------------------------

SCAN_SORT = (
    "retrieve (E.name, E.age) from E in Employees "
    "where E.age > 25 sort by E.salary, E.name desc"
)
JOIN = (
    "retrieve (E.name, M.name) from E in Employees, M in Employees "
    "where E.age = M.age"
)
AGGREGATE = (
    "retrieve unique (E.age, t = sum(E.salary over E.age)) "
    "from E in Employees"
)

#: (site, exec_mode, query) — every serial cancellation point paired
#: with an execution mode and statement shape that reaches it; the
#: ``worker`` site is exercised separately through a real fragment
SERIAL_SITES = [
    ("root", "fused", SCAN_SORT),
    ("root", "row", SCAN_SORT),
    ("fused", "fused", SCAN_SORT),
    # a Sort pulls its input: here a fused hash join region...
    ("pull", "fused", JOIN + " sort by E.name, M.name"),
    # ...or, row-at-a-time, the row operators
    ("pull", "row", JOIN + " sort by E.name, M.name"),
    ("aggregate", "fused", AGGREGATE),
    ("aggregate", "row", AGGREGATE),
]


@pytest.fixture(scope="module")
def company():
    db = build_company_database(
        CompanyWorkload(departments=4, employees=60, seed=9)
    )
    db.interpreter.parallel_mode = "off"
    return db


@pytest.fixture(autouse=True)
def _clean_faults():
    faultinject.reset()
    yield
    faultinject.reset()


def assert_quiesced(db):
    """No MVCC residue: nothing open, parked, versioned, or applied."""
    snapshot = db.transactions.introspect()
    assert snapshot["open_transactions"] == 0
    assert snapshot["parked_workspaces"] == 0
    assert snapshot["version_entries"] == 0
    assert snapshot["applied"] is False


class TestTimeoutMatrix:
    @pytest.mark.parametrize(
        "site,mode,query", SERIAL_SITES,
        ids=[f"{s}-{m}" for s, m, _ in SERIAL_SITES],
    )
    def test_injected_timeout_unwinds_cleanly(self, company, site, mode, query):
        db = company
        db.interpreter.exec_mode = mode
        db.interpreter.statement_timeout_ms = 60_000  # arm the governor
        try:
            baseline = db.execute(query)
            faultinject.arm(f"timeout.{site}", on_hit=1)
            with pytest.raises(StatementTimeout):
                db.execute(query)
            assert faultinject.hits(f"timeout.{site}") >= 1
            faultinject.reset()
            # clean unwind: the exact statement re-runs correctly
            assert db.execute(query).rows == baseline.rows
            assert_quiesced(db)
        finally:
            db.interpreter.exec_mode = "fused"
            db.interpreter.statement_timeout_ms = 0

    def test_real_deadline_cancels_a_long_statement(self, company):
        db = company
        db.interpreter.statement_timeout_ms = 1
        try:
            with pytest.raises(StatementTimeout) as excinfo:
                # a quadratic self-join: far beyond a 1 ms deadline
                db.execute(
                    "retrieve (E.name, M.name, K.name) from E in Employees, "
                    "M in Employees, K in Employees "
                    "where E.age >= 21 and M.age >= 21 and K.age >= 21"
                )
            assert "statement_timeout_ms=1" in str(excinfo.value)
        finally:
            db.interpreter.statement_timeout_ms = 0
        assert_quiesced(db)

    @pytest.mark.parametrize("mode", ["fused", "row"])
    def test_real_deadline_cancels_a_nested_loop_that_cannot_fuse(self, mode):
        """600 × 600 employees under a predicate no hash join or fused
        region takes: the cooperative check per pulled row cancels the
        statement whether or not its scans run as regions."""
        db = build_company_database(
            CompanyWorkload(departments=4, employees=600, seed=9)
        )
        db.interpreter.parallel_mode = "off"
        db.interpreter.exec_mode = mode
        db.interpreter.statement_timeout_ms = 20
        with pytest.raises(StatementTimeout):
            db.execute(
                "retrieve (E.name, M.name) from E in Employees, "
                "M in Employees where E.age + M.age < 0"
            )
        assert_quiesced(db)

    def test_zero_timeout_means_no_governor(self, company):
        db = company
        assert db.interpreter.statement_timeout_ms == 0
        faultinject.arm("timeout.root", on_hit=1)
        # without a governor the cancellation point is never consulted
        assert db.execute(SCAN_SORT).rows
        assert faultinject.hits("timeout.root") == 0

    def test_timeout_inside_transaction_leaves_it_usable(self, company):
        db = company
        session = db.connect(user="dba")
        db.interpreter.statement_timeout_ms = 60_000
        try:
            session.begin()
            session.execute(
                'append to Departments (dname = "Chaos", floor = 1, '
                "budget = 1.0)"
            )
            faultinject.arm("timeout.root", on_hit=1)
            with pytest.raises(StatementTimeout):
                session.execute(SCAN_SORT)
            faultinject.reset()
            # the statement failed; the transaction did not
            assert session.in_transaction
            assert session.execute(
                "retrieve (D.dname) from D in Departments "
                'where D.dname = "Chaos"'
            ).rows
            session.abort()
            rows = db.execute(
                "retrieve (D.dname) from D in Departments "
                'where D.dname = "Chaos"'
            ).rows
            assert rows == []
        finally:
            db.interpreter.statement_timeout_ms = 0
            session.close()
        assert_quiesced(db)

    def test_plan_cache_survives_a_timeout(self, company):
        db = company
        db.interpreter.statement_timeout_ms = 60_000
        try:
            db.execute(SCAN_SORT)
            hits_before = db.interpreter.plan_cache.hits
            faultinject.arm("timeout.root", on_hit=1)
            with pytest.raises(StatementTimeout):
                db.execute(SCAN_SORT)
            faultinject.reset()
            db.execute(SCAN_SORT)
            # both the cancelled and the clean re-run hit the cache
            assert db.interpreter.plan_cache.hits >= hits_before + 2
        finally:
            db.interpreter.statement_timeout_ms = 0


# -- the worker site (parallel fragments) ------------------------------------


class TestWorkerTimeout:
    def test_worker_evaluator_carries_deadline_and_budget(self, company):
        from repro.excess.evaluator import Evaluator
        from repro.excess.flags import Flags
        from repro.excess.parallel import ParallelRunner, _worker_evaluator

        parent = Evaluator(
            company, flags=Flags(statement_timeout_ms=1, memory_budget=512)
        )
        time.sleep(0.01)  # the parent's deadline has passed
        evaluator = _worker_evaluator(company, ParallelRunner._flags(parent))
        governor = evaluator.governor
        assert governor is not None
        assert governor.memory_budget == 512
        # an expired parent still ships 1 ms, so the worker's own check
        # is the one that cancels
        time.sleep(0.01)
        with pytest.raises(StatementTimeout):
            governor.check_timeout("worker")


# -- spill equivalence -------------------------------------------------------

SPILL_QUERIES = [SCAN_SORT, JOIN, AGGREGATE]


class TestSpillEquivalence:
    @pytest.mark.parametrize("mode", ["fused", "row"])
    @pytest.mark.parametrize(
        "query", SPILL_QUERIES, ids=["sort", "join", "aggregate"]
    )
    def test_budgeted_rows_are_byte_identical(self, company, query, mode):
        db = company
        db.interpreter.exec_mode = mode
        try:
            db.interpreter.memory_budget = 0
            baseline = db.execute(query)
            db.interpreter.memory_budget = 2048
            spilled = db.execute(query)
            assert spilled.rows == baseline.rows  # values AND order
        finally:
            db.interpreter.exec_mode = "fused"
            db.interpreter.memory_budget = 0

    def test_over_budget_join_completes_and_explains_spill(self, company):
        db = company
        db.interpreter.memory_budget = 1024
        try:
            result = db.execute(JOIN)
            assert result.rows
            assert result.plan_tree is not None
            assert "spill=[partitions=" in result.plan_tree
        finally:
            db.interpreter.exec_mode = "fused"
            db.interpreter.memory_budget = 0

    def test_unbudgeted_run_reports_no_spill(self, company):
        db = company
        try:
            result = db.execute(JOIN)
            assert result.plan_tree is not None
            assert "spill=" not in result.plan_tree
        finally:
            db.interpreter.exec_mode = "fused"

    def test_budget_flag_validation(self, company):
        from repro.errors import ExcessError

        with pytest.raises(ExcessError):
            company.interpreter.memory_budget = -1
        with pytest.raises(ExcessError):
            company.interpreter.statement_timeout_ms = "soon"
