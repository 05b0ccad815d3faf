"""Integration: the full EXCESS engine over the slotted-page store."""

import pytest

from repro import Database
from repro.util.workload import CompanyWorkload, build_company_database


@pytest.fixture
def paged_company():
    return build_company_database(
        CompanyWorkload(departments=3, employees=30, seed=11, storage="paged")
    )


class TestPagedEngine:
    def test_queries_work_over_pages(self, paged_company):
        db = paged_company
        assert db.execute(
            "retrieve (count(E.salary)) from E in Employees"
        ).scalar() == 30
        rows = db.execute(
            "retrieve unique (E.dept.dname, p = avg(E.salary over E.dept)) "
            "from E in Employees"
        ).rows
        assert len(rows) == 3

    def test_updates_persist_to_pages(self, paged_company):
        db = paged_company
        db.execute("replace E (salary = 12345.0) from E in Employees "
                   'where E.name = "Sue0"')
        # read back cold, through the pages, not the live cache
        member = db.execute(
            'retrieve (E) from E in Employees where E.name = "Sue0"'
        ).rows[0][0]
        record = db.store.fetch_cold(member.oid)
        assert record.value.get("salary") == 12345.0

    def test_page_count_grows_with_data(self, paged_company):
        small = paged_company.stats()["buffer"]["pages"]
        large = build_company_database(
            CompanyWorkload(departments=3, employees=600, seed=11,
                            storage="paged")
        ).stats()["buffer"]["pages"]
        assert large > 1
        assert large > small

    def test_deletes_free_page_space(self, paged_company):
        db = paged_company
        before = db.store.file.record_count
        db.execute("delete E from E in Employees where E.age > 40")
        assert db.store.file.record_count < before

    def test_cold_scan_with_tiny_pool_evicts(self):
        db = build_company_database(
            CompanyWorkload(departments=2, employees=120, seed=3,
                            storage="paged")
        )
        db.store.pool.capacity = 4
        db.store.evict_live_cache()
        db.store.pool.stats.reset()
        oids = list(db.objects.oids())
        for oid in oids:
            db.store.fetch_cold(oid)
        stats = db.store.pool.stats
        assert stats.misses > 0
        assert stats.evictions > 0

    def test_inline_owned_components_survive_a_tiny_cache(self):
        """Building an object's owned components admits them to the
        object cache; the object itself, registered empty a moment
        earlier, must not be evicted before its slots are written."""
        import gc

        db = Database(storage="paged", cache_capacity=2)
        db.interpreter.parallel_mode = "off"
        db.execute(
            "define type Person as (name: char(20), age: int4, "
            "kids: {own ref Person})"
        )
        db.execute("create {own ref Person} People")
        db.insert(
            "People", name="A", age=1,
            kids=[{"name": f"a{k}", "age": k} for k in range(3)],
        )
        gc.collect()
        rows = db.execute(
            "retrieve (P.name, P.age, n = count(P.kids)) from P in People "
            'where P.name = "A"'
        ).rows
        assert rows == [("A", 1, 3)]


class TestWritesOnATinyCache:
    """Each write keeps the instance it mutates while its payload
    dereferences other objects through a 2-object cache (so the target's
    record can be evicted and dropped before it is marked dirty)."""

    @staticmethod
    def db():
        import gc

        db = Database(storage="paged", cache_capacity=2)
        db.interpreter.parallel_mode = "off"
        db.execute(
            "define type Person as (name: char(20), age: int4, "
            "kids: {own ref Person}, pal: ref Person)"
        )
        db.execute("create {own ref Person} People")
        for n in range(6):
            db.insert("People", name=f"p{n}", age=n)
        for n in range(6):
            db.execute(
                f"replace P (pal = Q) from P in People, Q in People "
                f'where P.name = "p{n}" and Q.name = "p{(n + 1) % 6}"'
            )
        gc.collect()
        return db

    @staticmethod
    def ages(db):
        return sorted(
            db.execute("retrieve (P.name, P.age) from P in People").rows
        )

    def test_replace_reading_other_objects(self):
        db = self.db()
        db.execute("replace P (age = P.pal.pal.pal.age + 100) from P in People")
        assert self.ages(db) == [
            (f"p{n}", (n + 3) % 6 + 100) for n in range(6)
        ]

    def test_slot_set_reading_other_objects(self):
        db = self.db()
        db.execute("set P.age = P.pal.pal.age + 50 from P in People")
        assert self.ages(db) == [(f"p{n}", (n + 2) % 6 + 50) for n in range(6)]

    def test_insert_into_own_set_reading_other_objects(self):
        db = self.db()
        db.execute(
            "append to P.kids (name = P.pal.pal.name, age = P.pal.age) "
            "from P in People"
        )
        rows = db.execute(
            "retrieve (P.name, K.name, K.age) from P in People, K in P.kids"
        ).rows
        assert sorted(rows) == [
            (f"p{n}", f"p{(n + 2) % 6}", (n + 1) % 6) for n in range(6)
        ]


class TestSnapshotThroughExcess:
    def test_snapshot_preserves_everything(self, tmp_path, small_company):
        db = small_company
        db.execute(
            "define function Pay (E in Employee) returns float8 as "
            "retrieve (E.salary * 2.0)"
        )
        db.execute(
            "define procedure Raise (E in Employee, amt: float8) as "
            "replace E (salary = E.salary + amt)"
        )
        db.execute("create index on Employees (salary) using btree")
        path = str(tmp_path / "company.snapshot")
        db.save(path)

        restored = Database.load(path)
        # data
        assert restored.execute(
            "retrieve (count(E.age)) from E in Employees"
        ).scalar() == 3
        # functions
        assert restored.execute(
            'retrieve (Pay(E)) from E in Employees where E.name = "Bob"'
        ).rows == [(80000.0,)]
        # procedures
        restored.execute(
            'execute Raise (E, 1.0) from E in Employees where E.name = "Bob"'
        )
        assert restored.execute(
            'retrieve (E.salary) from E in Employees where E.name = "Bob"'
        ).rows == [(40001.0,)]
        # indexes still used and correct
        result = restored.execute(
            "retrieve (E.name) from E in Employees where E.salary = 40001.0"
        )
        assert result.rows == [("Bob",)]
        assert result.plan.index_scans

    def test_snapshot_of_paged_database(self, tmp_path, paged_company):
        path = str(tmp_path / "paged.snapshot")
        paged_company.save(path)
        restored = Database.load(path)
        assert restored.execute(
            "retrieve (count(E.salary)) from E in Employees"
        ).scalar() == 30


class TestDestroyNamed:
    def test_destroy_via_excess(self, small_company):
        db = small_company
        count_before = len(db.objects)
        result = db.execute("destroy Employees")
        assert result.count == 6  # 3 employees + 3 kids
        assert len(db.objects) == count_before - 6
        from repro.errors import BindError

        with pytest.raises(BindError):
            db.execute("retrieve (E.name) from E in Employees")
