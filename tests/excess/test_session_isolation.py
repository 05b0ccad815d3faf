"""Session isolation primitives: ranges, flags, plan-cache identity,
and thread safety of memoized hash-join builds.

These pin the refactor that moved per-session state off the global
interpreter: range declarations and ablation-flag overrides live on
:class:`~repro.core.session.SessionContext`, the plan cache keys on the
session's token, and the hash-join memo tolerates concurrent readers.
"""

import threading

import pytest

from repro.errors import ExcessError, ExtraError


class TestSessionRanges:
    def test_ranges_are_per_session(self, small_company):
        db = small_company
        a = db.connect(user="alice")
        b = db.connect(user="bob")
        a.execute("range of Z is Employees")
        assert a.execute("retrieve (count(Z.age))").scalar() == 3
        with pytest.raises(ExtraError):
            b.execute("retrieve (count(Z.age))")
        assert "Z" in a.ranges and "Z" not in b.ranges

    def test_default_session_ranges_match_seed_behavior(self, small_company):
        db = small_company
        db.execute("range of Z is Employees")
        # the interpreter's session_ranges view is the default session's
        assert "Z" in db.interpreter.session_ranges
        assert db.execute("retrieve (count(Z.age))").scalar() == 3

    def test_redeclaration_bumps_ranges_epoch(self, small_company):
        db = small_company
        session = db.connect(user="alice")
        before = session.ranges_epoch
        session.execute("range of Z is Employees")
        mid = session.ranges_epoch
        session.execute("range of Z is Departments")
        after = session.ranges_epoch
        assert before < mid < after

    def test_redeclared_range_never_serves_stale_plan(self, small_company):
        db = small_company
        db.execute("create {ref Employee} Staff")
        db.execute('append to Staff (E) from E in Employees '
                   'where E.name = "Bob"')
        session = db.connect(user="alice")
        session.execute("range of X is Employees")
        text = "retrieve (X.name)"
        assert sorted(r[0] for r in session.execute(text).rows) == [
            "Ann", "Bob", "Sue",
        ]
        session.execute("range of X is Staff")
        assert [r[0] for r in session.execute(text).rows] == ["Bob"]


class TestPlanCacheIdentity:
    def test_sessions_without_state_share_cache_entries(self, small_company):
        db = small_company
        text = "retrieve (E.name) from E in Employees"
        a = db.connect(user="shared")
        b = db.connect(user="shared")
        a.execute(text)
        assert b.execute(text).metrics["cache"] == "hit"

    def test_cache_keyed_by_user(self, small_company):
        db = small_company
        text = "retrieve (E.name) from E in Employees"
        a = db.connect(user="alice")
        b = db.connect(user="bob")
        a.execute(text)
        assert b.execute(text).metrics["cache"] == "miss"

    def test_transaction_shares_plans_until_it_changes_the_catalog(
        self, small_company
    ):
        """An open transaction that has only read and written data binds
        against the catalog everyone sees: its statements hit the shared
        entries (both halves of a transfer used to miss)."""
        db = small_company
        text = "retrieve (E.name) from E in Employees"
        session = db.connect(user="alice")
        db.execute(text, user="alice")  # warm the shared entry
        session.begin()
        assert session.execute(text).metrics["cache"] == "hit"
        session.execute('replace E (age = 41) from E in Employees where E.name = "Sue"')
        assert session.execute(text).metrics["cache"] == "hit"
        session.commit()

    @pytest.mark.parametrize(
        "ddl",
        ["create index on Employees (age) using btree", "define type Widget as (w: int4)"],
    )
    def test_uncommitted_catalog_plans_stay_private(self, small_company, ddl):
        """Once a transaction changed the catalog its plans key on the
        transaction id: never served to another session, never surviving
        the abort."""
        db = small_company
        text = "retrieve (E.name) from E in Employees where E.age = 40"
        writer = db.connect(user="shared")
        other = db.connect(user="shared")
        other.execute(text)
        writer.begin()
        writer.execute(ddl)
        in_txn = writer.execute(text)
        assert in_txn.metrics["cache"] == "miss"  # bound under the new catalog
        assert writer.execute(text).metrics["cache"] == "hit"  # its own entry
        uses_index = bool(in_txn.plan.index_scans)
        assert uses_index == ddl.startswith("create index")
        # the other session never sees the uncommitted catalog's plan
        seen = other.execute(text)
        assert seen.metrics["cache"] == "miss"
        assert seen.plan.index_scans == []
        assert other.execute(text).metrics["cache"] == "hit"
        writer.abort()
        # the abort forced the epoch forward: the statement re-binds
        # (once — both sessions see the same catalog again)
        after = writer.execute(text)
        assert after.metrics["cache"] == "miss"
        assert after.plan.index_scans == []
        assert other.execute(text).metrics["cache"] == "hit"

    def test_flag_override_splits_cache_key(self, small_company):
        db = small_company
        text = "retrieve (E.name) from E in Employees"
        a = db.connect(user="shared")
        b = db.connect(user="shared")
        a.execute(text)
        b.set_flag("optimize", False)
        assert b.execute(text).metrics["cache"] == "miss"
        assert b.resolved_flags().optimize is False
        assert a.resolved_flags().optimize is True


class TestBatchSizeValidation:
    @pytest.mark.parametrize("bad", [0, -3, True, "many", 2.5, None])
    def test_invalid_batch_size_rejected(self, db, bad):
        with pytest.raises(ExcessError, match="positive integer"):
            db.interpreter.batch_size = bad

    def test_valid_batch_size_accepted(self, db):
        db.interpreter.batch_size = 7
        assert db.interpreter.batch_size == 7


class TestConcurrentMemoizedBuilds:
    def test_hash_join_memo_is_thread_safe(self, small_company):
        """Many threads running the same cached join plan (sharing one
        HashJoin node, hence one memo slot) must all compute the right
        answer — the memo is a single-slot publish, never a lock."""
        db = small_company
        text = ("retrieve (E.name, D.dname) from E in Employees, "
                "D in Departments where E.dept is D")
        expected = sorted(db.execute(text).rows)
        assert expected  # the plan (and its hash build) is now cached
        errors = []

        def probe():
            try:
                for _ in range(25):
                    rows = sorted(db.execute(text).rows)
                    assert rows == expected
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=probe) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors

    def test_memo_invalidates_across_commits(self, small_company):
        db = small_company
        text = ("retrieve (E.name, D.dname) from E in Employees, "
                "D in Departments where E.dept is D")
        before = len(db.execute(text).rows)
        db.execute('append to Departments (dname = "New", floor = 9, '
                   'budget = 1.0)')
        db.execute('append to Employees (name = "New", age = 20, '
                   'salary = 1.0, dept = D) from D in Departments '
                   'where D.dname = "New"')
        assert len(db.execute(text).rows) == before + 1
