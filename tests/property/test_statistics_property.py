"""Property: statistics upkeep between ``analyze`` runs is conservative.

Writes widen an attribute's min/max and never shrink it, so whatever
sequence of appends, replaces and deletes runs after an ``analyze``, the
kept range contains the range a fresh ``analyze`` finds. The estimates
read min/max only to call a value out of range (the selectivity floor)
or to interpolate, so no value the data holds is ever estimated as out
of range."""

from hypothesis import given, settings, strategies as st

from repro import Database

values = st.integers(min_value=-50, max_value=50)

writes = st.lists(
    st.one_of(
        st.tuples(st.just("append"), values),
        st.tuples(st.just("replace"), values, values),
        st.tuples(st.just("delete"), values),
    ),
    max_size=25,
)


def _ranges(db: Database) -> dict:
    """Each attribute's (min, max); (None, None) when ``analyze`` saw no
    row to describe it."""
    attributes = db.catalog.statistics.get("Accts").attributes
    ranges = {}
    for name in ("n", "x"):
        attribute = attributes.get(name)
        ranges[name] = (
            (None, None)
            if attribute is None
            else (attribute.minimum, attribute.maximum)
        )
    return ranges


@given(start=st.lists(values, min_size=1, max_size=15), script=writes)
@settings(max_examples=60, deadline=None)
def test_kept_range_contains_a_fresh_analyze(start, script):
    db = Database()
    db.interpreter.parallel_mode = "off"
    db.execute(
        "define type Acct as (n: int4, x: float8) create {own ref Acct} Accts"
    )
    for value in start:
        db.insert("Accts", n=value, x=value / 2)
    db.execute("analyze Accts")
    for write in script:
        if write[0] == "append":
            db.execute(f"append to Accts (n = {write[1]}, x = {write[1] / 2})")
        elif write[0] == "replace":
            db.execute(
                f"replace A (n = {write[2]}, x = {write[2] / 2}) "
                f"from A in Accts where A.n = {write[1]}"
            )
        else:
            db.execute(f"delete A from A in Accts where A.n = {write[1]}")
    kept = _ranges(db)
    db.execute("analyze Accts")
    fresh = _ranges(db)
    for name, (low, high) in fresh.items():
        if low is None:
            continue  # the set is empty: nothing to be out of range
        kept_low, kept_high = kept[name]
        assert kept_low <= low and high <= kept_high
