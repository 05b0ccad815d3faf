"""Property test: after any update sequence, every index lookup equals a
full scan.

An update maintains the indexes its statement's plan recorded when it
was lowered (:class:`~repro.excess.plan.WritePlan`): the named sets with
an index over an assigned attribute, each checked for membership at run
time. The sequences mix ``replace`` / ``set`` of indexed and unindexed
attributes with ``append`` and ``delete``, and some objects belong to
both ``Employees`` and a second indexed ``{ref Emp}`` set, ``Stars``,
which indexes an attribute ``Employees`` does not. Each sequence runs
under ``exec_mode`` ``fused`` and ``row``, through the plan cache (shape
hits) and with it disabled.

After every statement, for every index: each key's lookup (and, for a
B+-tree, the full range scan) over live objects equals a scan of the
set's live members; and each indexed query returns what the same query
returns with the optimizer (so index selection) off.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.core.values import NULL

NAMES = [f"e{i}" for i in range(10)]

SCHEMA = """
define type Emp as (name: char(20), age: int4, salary: float8, note: int4)
create {own ref Emp} Employees
create {ref Emp} Stars
create index on Employees (name) using hash
create index on Employees (salary) using btree
create index on Stars (age) using hash
create index on Stars (salary) using btree
"""

#: (set, indexed attribute, kind)
INDEXES = [
    ("Employees", "name", "hash"),
    ("Employees", "salary", "btree"),
    ("Stars", "age", "hash"),
    ("Stars", "salary", "btree"),
]


def _database(exec_mode: str, cached: bool) -> Database:
    db = Database()
    db.interpreter.parallel_mode = "off"
    db.interpreter.exec_mode = exec_mode
    db.interpreter.plan_cache.enabled = cached
    db.execute(SCHEMA)
    for i, name in enumerate(NAMES[:6]):
        db.execute(
            f'append to Employees (name = "{name}", age = {30 + i % 3}, '
            f"salary = {(i % 4 + 1) * 1000}.0, note = {i})"
        )
    for name in NAMES[:3]:
        db.execute(f'append to Stars (E) from E in Employees where E.name = "{name}"')
    return db


name = st.sampled_from(NAMES)
age = st.integers(min_value=29, max_value=33)
salary = st.integers(min_value=1, max_value=5).map(lambda k: f"{k * 1000}.0")
small = st.integers(min_value=0, max_value=9)

statements = st.one_of(
    # indexed in both sets
    st.builds(
        'replace E (salary = {1}) from E in Employees where E.name = "{0}"'.format,
        name, salary,
    ),
    # indexed only in Stars, plus an unindexed attribute; a btree range
    st.builds(
        "replace E (age = E.age + {1}, note = E.note + 1) "
        "from E in Employees where E.salary >= {0}".format,
        salary, st.sampled_from([-1, 1]),
    ),
    # unindexed only
    st.builds(
        'replace E (note = {1}) from E in Employees where E.name = "{0}"'.format,
        name, small,
    ),
    # through the second set's index
    st.builds(
        "replace S (salary = {1}) from S in Stars where S.age = {0}".format,
        age, salary,
    ),
    st.builds(
        'set E.salary = {1} from E in Employees where E.name = "{0}"'.format,
        name, salary,
    ),
    st.builds(
        'set E.age = {1} from E in Employees where E.name = "{0}"'.format,
        name, age,
    ),
    st.builds(
        'set E.note = {1} from E in Employees where E.name = "{0}"'.format,
        name, small,
    ),
    st.builds(
        'append to Employees (name = "{0}", age = {1}, salary = {2}, '
        "note = {3})".format,
        name, age, salary, small,
    ),
    st.builds(
        'append to Stars (E) from E in Employees where E.name = "{0}"'.format,
        name,
    ),
    st.builds(
        'delete E from E in Employees where E.name = "{0}"'.format, name
    ),
    st.builds("delete S from S in Stars where S.age = {0}".format, age),
)


def _live_members(db: Database, set_name: str) -> list:
    objects = db.objects
    return [
        (ref.oid, objects.deref(ref.oid))
        for ref in db.named(set_name).value
        if objects.is_live(ref.oid)
    ]


def _check_indexes(db: Database) -> None:
    """Every index lookup over live objects equals a scan of the set."""
    objects = db.objects
    for set_name, attribute, kind in INDEXES:
        (descriptor,) = [
            d for d in db.catalog.indexes.indexes_on(set_name)
            if (d.attribute, d.kind) == (attribute, kind)
        ]
        index = descriptor.index
        scanned: dict = {}
        for oid, instance in _live_members(db, set_name):
            value = instance.get(attribute)
            if value is not NULL:
                scanned.setdefault(value, []).append(oid)
        for key in set(scanned) | set(index.keys()):
            found = sorted(o for o in index.search(key) if objects.is_live(o))
            assert found == sorted(scanned.get(key, [])), (
                f"{descriptor.name}: lookup of {key!r}"
            )
        if kind == "btree":
            pairs = [
                (key, oid) for key, oid in index.range_scan()
                if objects.is_live(oid)
            ]
            assert pairs == sorted(
                (key, oid) for key, oids in scanned.items() for oid in oids
            ), f"{descriptor.name}: full range scan"


def _check_queries(db: Database, scan) -> None:
    """Indexed queries answer what the unoptimized scan answers."""
    for set_name, attribute, kind in INDEXES:
        values = {
            instance.get(attribute) for _oid, instance in _live_members(db, set_name)
        }
        for value in sorted(v for v in values if v is not NULL):
            literal = f'"{value}"' if isinstance(value, str) else repr(value)
            ops = ("=", ">=") if kind == "btree" else ("=",)
            for op in ops:
                text = (
                    f"retrieve (X.name, X.age, X.salary, X.note) from X in "
                    f"{set_name} where X.{attribute} {op} {literal}"
                )
                assert sorted(db.execute(text).rows) == sorted(
                    scan.execute(text).rows
                ), text


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("exec_mode", ["fused", "row"])
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sequence=st.lists(statements, min_size=1, max_size=14))
def test_index_lookups_equal_scans(exec_mode, cached, sequence):
    db = _database(exec_mode, cached)
    scan = db.connect()
    scan.set_flag("optimize", False)
    _check_indexes(db)
    for text in sequence:
        db.execute(text)
        _check_indexes(db)
    _check_queries(db, scan)
