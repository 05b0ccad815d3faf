"""Integration: the full engine over the *file-backed* paged store with a
bounded object cache — queries, transactions, MVCC park/resume, durable
checkpoint/recover cycles, incremental checkpoints, and vacuum."""

import pytest

from repro.core.database import Database
from repro.storage.recovery import open_database
from repro.util.workload import CompanyWorkload, build_company_database


@pytest.fixture
def file_company():
    return build_company_database(
        CompanyWorkload(departments=3, employees=40, seed=7, storage="paged"),
        store_mode="file",
        cache_capacity=16,
    )


class TestEngineOverFileStore:
    def test_queries_with_bounded_cache(self, file_company):
        db = file_company
        assert db.store.store_mode == "file"
        assert db.execute(
            "retrieve (count(E.salary)) from E in Employees"
        ).scalar() == 40
        rows = db.execute(
            "retrieve unique (E.dept.dname, p = avg(E.salary over E.dept)) "
            "from E in Employees"
        ).rows
        assert len(rows) == 3
        # the working set exceeded the 16-object cache: faults happened
        assert db.store.cache_stats.faults > 0

    def test_updates_reach_the_file(self, file_company):
        db = file_company
        db.execute("replace E (salary = 54321.0) from E in Employees "
                   'where E.name = "Sue0"')
        member = db.execute(
            'retrieve (E) from E in Employees where E.name = "Sue0"'
        ).rows[0][0]
        assert db.store.fetch_cold(member.oid).value.get("salary") == 54321.0

    def test_transaction_rollback(self, file_company):
        db = file_company
        before = db.execute(
            "retrieve (count(E.salary)) from E in Employees").scalar()
        db.execute("begin")
        db.execute('append to Employees (name = "Temp", salary = 1.0, '
                   "age = 30, dept = D) from D in Departments "
                   'where D.dname = "Dept0"')
        db.execute("abort")
        assert db.execute(
            "retrieve (count(E.salary)) from E in Employees"
        ).scalar() == before

    def test_mvcc_park_resume_pins_survive_eviction(self, file_company):
        """A parked session's touched objects stay pinned: cache churn
        from another session cannot evict its uncommitted view."""
        db = file_company
        s1 = db.connect(user="dba", name="writer")
        s2 = db.connect(user="dba", name="reader")
        s1.execute("begin")
        s1.execute('replace E (salary = 77.0) from E in Employees '
                   'where E.name = "Bob1"')
        # churn the cache from the other session (parks s1's workspace)
        for _ in range(3):
            s2.execute("retrieve (E.salary) from E in Employees")
        assert s1.execute(
            'retrieve (E.salary) from E in Employees where E.name = "Bob1"'
        ).rows == [(77.0,)]
        s1.execute("commit")
        assert s2.execute(
            'retrieve (E.salary) from E in Employees where E.name = "Bob1"'
        ).rows == [(77.0,)]
        s1.close()
        s2.close()

    def test_append_while_cache_is_pinned_full(self):
        """A parked transaction's pins fill the whole cache; another
        session's append must still land its values, not a blank row."""
        db = Database(storage="paged", store_mode="file", cache_capacity=3)
        db.execute("define type Acct as (id: int4, bal: float8)")
        db.execute("create {own ref Acct} Accts")
        for key in range(1, 7):
            db.execute(f"append to Accts (id = {key}, bal = {float(key)})")
        s1 = db.connect(name="deleter")
        s2 = db.connect(name="appender")
        s1.begin()
        for key in (1, 2, 3):  # pins three objects: the cache's capacity
            s1.execute(f"delete A from A in Accts where A.id = {key}")
        s2.execute("append to Accts (id = 7, bal = 7.0)")
        rows = s2.execute("retrieve (A.id, A.bal) from A in Accts").rows
        assert sorted(rows) == [(k, float(k)) for k in range(1, 8)]
        s1.close()
        s2.close()

    def test_vacuum_frees_pages(self, file_company):
        db = file_company
        pages_before = db.store.page_count
        db.execute("delete E from E in Employees where E.age > 25")
        report = db.compact()
        assert report["pages_freed"] > 0
        assert db.store.page_count < pages_before
        # everything still readable after migration
        total = db.execute(
            "retrieve (count(E.salary)) from E in Employees").scalar()
        assert total == len(db.execute(
            "retrieve (E.name) from E in Employees").rows)

    def test_storage_stats_shape(self, file_company):
        info = file_company.storage_stats()
        assert info["store_mode"] == "file"
        assert info["object_cache"]["capacity"] == 16
        assert info["disk"]["writes"] >= 0
        assert 0.0 <= info["buffer"]["hit_ratio"] <= 1.0

    def test_memory_store_has_no_storage_stats(self):
        assert Database().storage_stats() == {}


class TestDurableFileStore:
    def _seed(self, directory: str, rows: int = 60):
        db = open_database(directory, storage="paged", cache_capacity=8)
        db.execute("define type Item as (name: char(20), qty: int4)")
        db.execute("create {own ref Item} Items")
        for i in range(rows):
            db.execute(f'append to Items (name = "it{i}", qty = {i})')
        return db

    def test_checkpoint_recover_cycle(self, tmp_path):
        directory = str(tmp_path / "db")
        db = self._seed(directory)
        db.checkpoint()
        db.execute('replace I (qty = 999) from I in Items '
                   'where I.name = "it5"')
        db.close()

        recovered = open_database(directory, storage="paged",
                                  cache_capacity=8)
        assert recovered.store.store_mode == "file"
        assert recovered.execute(
            'retrieve (I.qty) from I in Items where I.name = "it5"'
        ).rows == [(999,)]
        assert recovered.execute(
            "retrieve (count(I.qty)) from I in Items").scalar() == 60
        recovered.close()

    def test_incremental_checkpoint_writes_only_dirty_pages(self, tmp_path):
        directory = str(tmp_path / "db")
        # enough rows to span several pages of compact records
        db = self._seed(directory, rows=600)
        assert db.store.page_count > 3
        first = db.checkpoint()
        assert first["pages_written"] > 1  # cold start: everything flushes

        db.execute('replace I (qty = 123) from I in Items '
                   'where I.name = "it0"')
        second = db.checkpoint()
        # one logical update dirties one data page (the snapshot itself
        # carries the catalog, not page payloads)
        assert 1 <= second["pages_written"] < first["pages_written"]

        third = db.checkpoint()
        assert third["pages_written"] == 0  # nothing dirtied in between
        db.close()

    def test_pages_written_measured_by_disk_stats(self, tmp_path):
        directory = str(tmp_path / "db")
        db = self._seed(directory)
        db.checkpoint()
        writes_before = db.store.disk.stats.writes
        db.execute('replace I (qty = 7) from I in Items '
                   'where I.name = "it1"')
        result = db.checkpoint()
        assert db.store.disk.stats.writes - writes_before == (
            result["pages_written"]
        )
        db.close()

    def test_recovery_after_vacuum(self, tmp_path):
        directory = str(tmp_path / "db")
        db = self._seed(directory)
        db.execute("delete I from I in Items where I.qty > 9")
        db.compact()
        db.checkpoint()
        db.execute('append to Items (name = "late", qty = -1)')
        db.close()

        recovered = open_database(directory, storage="paged")
        assert recovered.execute(
            "retrieve (count(I.qty)) from I in Items").scalar() == 11
        assert recovered.execute(
            'retrieve (I.qty) from I in Items where I.name = "late"'
        ).rows == [(-1,)]
        recovered.close()

    def test_sim_mode_still_supported(self, tmp_path):
        directory = str(tmp_path / "db")
        db = open_database(directory, storage="paged", store_mode="sim")
        db.execute("define type T as (x: int4)")
        db.execute("create {own ref T} Ts")
        db.execute("append to Ts (x = 1)")
        db.checkpoint()
        db.close()
        recovered = open_database(directory, storage="paged",
                                  store_mode="sim")
        assert recovered.execute(
            "retrieve (count(T.x)) from T in Ts").scalar() == 1
        recovered.close()
