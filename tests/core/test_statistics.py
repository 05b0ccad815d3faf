"""Unit tests for catalog statistics (analyze + incremental upkeep)."""

import pytest

from repro import Database
from repro.core.statistics import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_NEQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    STALE_CHURN_MIN,
    AttributeStats,
    StatisticsManager,
)
from repro.core.values import NULL
from repro.errors import TypeSystemError


def rows_of(values, attribute="x"):
    return [{attribute: v} for v in values]


class TestRebuild:
    def test_basic_numeric_column(self):
        manager = StatisticsManager()
        stats = manager.rebuild("S", rows_of([3, 1, 4, 1, 5]), data_version=7)
        assert stats.analyzed_cardinality == 5
        assert stats.analyzed_version == 7
        assert stats.churn == 0 and not stats.stale
        attr = stats.attributes["x"]
        assert attr.n_distinct == 4
        assert (attr.minimum, attr.maximum) == (1, 5)
        assert attr.null_fraction == 0.0
        assert manager.get("S") is stats
        assert manager.analyzed_sets() == ["S"]

    def test_null_fraction_counts_nulls(self):
        manager = StatisticsManager()
        stats = manager.rebuild("S", rows_of([1, NULL, 3, NULL]), 1)
        attr = stats.attributes["x"]
        assert attr.null_fraction == 0.5
        assert attr.n_distinct == 2

    def test_string_minmax_no_histogram(self):
        manager = StatisticsManager()
        attr = manager.rebuild("S", rows_of(["bee", "ant", "cat"]), 1).attributes["x"]
        assert (attr.minimum, attr.maximum) == ("ant", "cat")
        assert attr.boundaries == []

    def test_mixed_types_get_no_minmax(self):
        manager = StatisticsManager()
        attr = manager.rebuild("S", rows_of([1, "two", 3]), 1).attributes["x"]
        assert attr.minimum is None and attr.maximum is None

    def test_unhashable_values_fall_back_to_row_count(self):
        manager = StatisticsManager()
        attr = manager.rebuild("S", rows_of([[1], [1], [2]]), 1).attributes["x"]
        assert attr.n_distinct == 3  # len(values), not len(set(values))

    def test_forget_and_clear(self):
        manager = StatisticsManager()
        manager.rebuild("A", rows_of([1]), 1)
        manager.rebuild("B", rows_of([2]), 1)
        manager.forget("A")
        assert manager.analyzed_sets() == ["B"]
        manager.clear()
        assert manager.analyzed_sets() == []


class TestHistogram:
    def test_equi_depth_boundaries(self):
        manager = StatisticsManager()
        attr = manager.rebuild("S", rows_of(range(1, 101)), 1).attributes["x"]
        assert attr.boundaries[0] == 1
        assert attr.boundaries[-1] == 100
        assert len(attr.boundaries) == 9  # 8 buckets

    def test_fraction_below_interpolates(self):
        attr = AttributeStats(boundaries=[0, 25, 50, 75, 100])
        assert attr.fraction_below(-5) == 0.0
        assert attr.fraction_below(0) == 0.0
        assert attr.fraction_below(100) == 1.0
        assert attr.fraction_below(50) == pytest.approx(0.5)
        # halfway through the first of four buckets
        assert attr.fraction_below(12.5) == pytest.approx(0.125)

    def test_fraction_below_without_histogram(self):
        assert AttributeStats().fraction_below(3) is None

    def test_skewed_duplicates_collapse(self):
        manager = StatisticsManager()
        attr = manager.rebuild("S", rows_of([5] * 50 + [9]), 1).attributes["x"]
        # all interior boundaries collapse onto the duplicate value
        assert attr.boundaries == [5, 9]

    def test_constant_column_has_no_histogram(self):
        manager = StatisticsManager()
        attr = manager.rebuild("S", rows_of([7] * 10), 1).attributes["x"]
        assert attr.boundaries == []


class TestSelectivity:
    def test_eq_uses_distinct_count(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of(range(20)), 1)
        assert manager.eq_selectivity("S", "x", 5) == pytest.approx(1 / 20)
        assert manager.distinct("S", "x") == 20

    def test_eq_out_of_range_value_floors(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of(range(20)), 1)
        assert manager.eq_selectivity("S", "x", 999) < 1 / 20

    def test_eq_defaults_without_stats(self):
        manager = StatisticsManager()
        assert manager.eq_selectivity("S", "x", 5) == DEFAULT_EQ_SELECTIVITY
        assert manager.distinct("S", "x") is None

    def test_eq_scales_by_null_fraction(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of([1, 2, NULL, NULL]), 1)
        assert manager.eq_selectivity("S", "x", 1) == pytest.approx(0.5 / 2)

    def test_range_histogram_interpolation(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of(range(1, 101)), 1)
        assert manager.range_selectivity("S", "x", ">", 75) == pytest.approx(
            0.25, abs=0.05
        )
        assert manager.range_selectivity("S", "x", "<", 25) == pytest.approx(
            0.25, abs=0.05
        )

    def test_range_minmax_linear_without_histogram(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of([0.0, 100.0]), 1)
        stats = manager.get("S")
        stats.attributes["x"].boundaries = []  # force the linear path
        assert manager.range_selectivity("S", "x", "<", 30.0) == pytest.approx(
            0.3
        )

    def test_range_defaults(self):
        manager = StatisticsManager()
        assert (
            manager.range_selectivity("S", "x", ">", 3)
            == DEFAULT_RANGE_SELECTIVITY
        )
        assert (
            manager.range_selectivity("S", "x", "!=", 3)
            == DEFAULT_NEQ_SELECTIVITY
        )
        manager.rebuild("S", rows_of(["a", "b"]), 1)
        assert (
            manager.range_selectivity("S", "x", ">", "a")
            == DEFAULT_RANGE_SELECTIVITY
        )

    def test_range_eq_delegates(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of(range(10)), 1)
        assert manager.range_selectivity("S", "x", "=", 3) == pytest.approx(
            1 / 10
        )

    def test_vacuous_range_saturates(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of(range(1, 101)), 1)
        assert manager.range_selectivity("S", "x", ">", 0) == 1.0
        assert manager.range_selectivity("S", "x", "<", 0) == pytest.approx(
            1e-4
        )


class TestIncrementalUpkeep:
    def test_insert_widens_minmax_exactly(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of([10, 20]), 1)
        manager.observe_insert("S", {"x": 99})
        attr = manager.get("S").attributes["x"]
        assert (attr.minimum, attr.maximum) == (10, 99)
        assert manager.get("S").churn == 1

    def test_remove_extremal_keeps_minmax(self):
        """Min/max never shrink between analyze runs: removing the
        maximum leaves the (now conservative) range as it was."""
        manager = StatisticsManager()
        manager.rebuild("S", rows_of([10, 20, 30]), 1)
        manager.observe_remove("S")
        attr = manager.get("S").attributes["x"]
        assert (attr.minimum, attr.maximum) == (10, 30)
        assert manager.get("S").churn == 1

    def test_update_widens_but_never_shrinks(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of([10, 20, 30]), 1)
        manager.observe_update("S", {"x": 5})
        manager.observe_update("S", {"x": 15})
        attr = manager.get("S").attributes["x"]
        assert (attr.minimum, attr.maximum) == (5, 30)

    def test_remove_of_the_last_value_keeps_minmax(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of([10, 20]), 1)
        manager.observe_remove("S")
        manager.observe_remove("S")
        attr = manager.get("S").attributes["x"]
        assert (attr.minimum, attr.maximum) == (10, 20)

    def test_update_is_one_churn(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of([10, 20]), 1)
        manager.observe_update("S", {"x": 50})
        stats = manager.get("S")
        assert stats.churn == 1
        attr = stats.attributes["x"]
        assert (attr.minimum, attr.maximum) == (10, 50)

    def test_upkeep_noop_when_never_analyzed(self):
        manager = StatisticsManager()
        manager.observe_insert("S", {"x": 1})
        manager.observe_remove("S")
        manager.observe_update("S", {"x": 2})
        assert manager.get("S") is None


class TestStaleness:
    def test_churn_limit_floor(self):
        manager = StatisticsManager()
        stats = manager.rebuild("S", rows_of([1, 2]), 1)
        assert stats.churn_limit() == STALE_CHURN_MIN

    def test_churn_limit_fraction(self):
        manager = StatisticsManager()
        stats = manager.rebuild("S", rows_of(range(100)), 1)
        assert stats.churn_limit() == 20

    def test_on_stale_fires_once_at_threshold(self):
        fired = []
        manager = StatisticsManager(on_stale=lambda: fired.append(1))
        manager.rebuild("S", rows_of(range(10)), 1)
        for _ in range(STALE_CHURN_MIN):
            manager.observe_insert("S", {"x": 1})
        assert not manager.get("S").stale
        manager.observe_insert("S", {"x": 1})
        assert manager.get("S").stale
        assert fired == [1]
        manager.observe_insert("S", {"x": 1})
        assert fired == [1]  # no re-fire while already stale

    def test_stale_stats_fall_back_to_defaults(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of(range(100)), 1)
        manager.get("S").stale = True
        assert manager.eq_selectivity("S", "x", 5) == DEFAULT_EQ_SELECTIVITY
        assert manager.distinct("S", "x") is None

    def test_analyze_resets_staleness(self):
        manager = StatisticsManager()
        manager.rebuild("S", rows_of(range(10)), 1)
        manager.get("S").stale = True
        stats = manager.rebuild("S", rows_of(range(10)), 2)
        assert not stats.stale and stats.churn == 0


class TestDatabaseAnalyze:
    """``Database.analyze`` + upkeep hooks on real mutations."""

    def test_analyze_named_set(self, company):
        analyzed = company.analyze("Employees")
        assert analyzed == ["Employees"]
        stats = company.catalog.statistics.get("Employees")
        assert stats.analyzed_cardinality == len(
            company.execute("retrieve (E.name) from E in Employees").rows
        )
        age = stats.attributes["age"]
        assert age.n_distinct > 0 and age.minimum is not None

    def test_analyze_all_sets(self, company):
        analyzed = company.analyze()
        assert "Employees" in analyzed and "Departments" in analyzed

    def test_analyze_unknown_set_rejected(self, company):
        with pytest.raises(Exception):
            company.analyze("Nope")

    def test_analyze_non_set_rejected(self, company):
        with pytest.raises(TypeSystemError):
            company.analyze("Today")

    def test_analyze_bumps_epoch(self, company):
        before = company.catalog.epoch
        company.analyze("Employees")
        assert company.catalog.epoch > before

    def test_insert_keeps_minmax_exact(self, company):
        company.analyze("Employees")
        company.execute(
            'append Employees (name = "Old", age = 99, salary = 1.0)'
        )
        attr = company.catalog.statistics.get("Employees").attributes["age"]
        assert attr.maximum == 99

    def test_delete_extremal_keeps_minmax_conservative(self, company):
        """Deleting the oldest employee leaves the analyzed maximum in
        place (a superset of the data's range) instead of rescanning."""
        company.analyze("Employees")
        stats = company.catalog.statistics.get("Employees")
        old_max = stats.attributes["age"].maximum
        company.execute(
            f"delete E from E in Employees where E.age = {old_max}"
        )
        remaining = company.execute(
            "retrieve (hi = max(E.age)) from E in Employees"
        ).scalar()
        assert stats.attributes["age"].maximum == old_max > remaining

    def test_update_keeps_minmax_conservative(self, company):
        company.analyze("Employees")
        stats = company.catalog.statistics.get("Employees")
        old_max = stats.attributes["age"].maximum
        company.execute(
            f"replace E (age = 21) from E in Employees where E.age = {old_max}"
        )
        remaining = company.execute(
            "retrieve (hi = max(E.age)) from E in Employees"
        ).scalar()
        assert stats.attributes["age"].maximum == old_max > remaining

    def test_destroy_forgets_stats(self, company):
        company.analyze("Employees")
        company.execute("destroy Employees")
        assert company.catalog.statistics.get("Employees") is None


class TestTransactionInterplay:
    """Abort must restore statistics together with the data they
    describe, and must push the catalog epoch and data version forward
    so no cached plan prepared against in-transaction state survives.
    """

    def test_abort_restores_statistics_deeply(self, company):
        from repro.util.statedump import _render_stats

        db = company
        db.analyze("Employees")
        before = _render_stats(db.catalog.statistics.get("Employees"))
        db.begin()
        db.execute('append to Employees (name = "Kid", age = 1, salary = 1.0)')
        db.execute("replace E (age = E.age + 1) from E in Employees")
        db.analyze("Employees")
        assert _render_stats(db.catalog.statistics.get("Employees")) != before
        db.abort()
        assert _render_stats(db.catalog.statistics.get("Employees")) == before

    def test_aborted_analyze_leaves_no_stats(self, company):
        db = company
        assert db.catalog.statistics.get("Employees") is None
        db.begin()
        db.analyze("Employees")
        assert db.catalog.statistics.get("Employees") is not None
        db.abort()
        assert db.catalog.statistics.get("Employees") is None
        assert db.catalog.statistics.analyzed_sets() == []

    def test_abort_forces_epoch_and_data_version_forward(self, company):
        db = company
        db.begin()
        db.analyze("Employees")  # bumps the epoch inside the transaction
        db.execute('append to Employees (name = "T", age = 2, salary = 2.0)')
        seen_epoch = db.catalog.epoch
        seen_version = db.data_version
        db.abort()
        # never reuse an epoch/version observed inside the aborted
        # transaction, or stale cached plans/stats would look current
        assert db.catalog.epoch > seen_epoch
        assert db.data_version > seen_version

    def test_cached_plan_reprepared_after_abort(self, company):
        db = company
        query = "retrieve (E.name) from E in Employees where E.age > 30"
        db.execute(query)
        assert db.execute(query).metrics["cache"] == "hit"
        db.begin()
        db.execute("create index on Employees (age) using btree")
        db.execute(query)
        db.abort()
        # the index is gone; a plan prepared against it must not be reused
        result = db.execute(query)
        assert result.metrics["cache"] == "miss"
        assert db.execute(query).metrics["cache"] == "hit"

    def test_churn_tracking_survives_abort(self, company):
        db = company
        db.analyze("Employees")
        db.execute('append to Employees (name = "C1", age = 3, salary = 3.0)')
        churn_before = db.catalog.statistics.get("Employees").churn
        db.begin()
        for index in range(5):
            db.execute(
                f'append to Employees (name = "C{index}x", age = 4, '
                "salary = 4.0)"
            )
        assert db.catalog.statistics.get("Employees").churn > churn_before
        db.abort()
        assert db.catalog.statistics.get("Employees").churn == churn_before


class TestUpkeepCost:
    def test_extremal_replace_faults_no_object(self):
        """Replacing the row that holds an analyzed minimum is O(1)
        statistics work: on a paged store whose object cache holds a
        tenth of the set, the replace faults no object (a min/max
        rescan would fault the whole set back in)."""
        db = Database(storage="paged", cache_capacity=16)
        db.interpreter.parallel_mode = "off"
        db.execute(
            "define type Acct as (id: int4, bal: float8) "
            "create {own ref Acct} Accts "
            "create index on Accts (id) using hash"
        )
        for n in range(160):
            db.insert("Accts", id=n, bal=float(n))
        db.execute("analyze Accts")
        assert db.execute("retrieve (A.bal) from A in Accts where A.id = 0").rows == [
            (0.0,)
        ]
        faults = db.store.cache_stats.faults
        db.execute("replace A (bal = 500.0) from A in Accts where A.id = 0")
        assert db.store.cache_stats.faults == faults
        bal = db.catalog.statistics.get("Accts").attributes["bal"]
        assert (bal.minimum, bal.maximum) == (0.0, 500.0)
