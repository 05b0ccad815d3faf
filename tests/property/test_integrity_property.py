"""Property-based tests for integrity invariants: no matter what sequence
of inserts/deletes runs, ownership stays exclusive, cascades leave no
orphans, and live sets never contain dead members after vacuum."""

from hypothesis import given, settings, strategies as st

from repro import Database
from repro.core.values import Ref, SetInstance


def build_db() -> Database:
    """Person is self-referential (kids are Persons), so define it
    through EXCESS, which supports two-phase construction."""
    db = Database()
    db.execute(
        """
        define type Person as (name: char(20), age: int4,
                               kids: {own ref Person})
        create {own ref Person} People
        create {ref Person} Watchlist
        """
    )
    return db


@st.composite
def action_sequences(draw):
    count = draw(st.integers(min_value=1, max_value=40))
    actions = []
    for index in range(count):
        kind = draw(st.sampled_from(
            ["insert", "insert_with_kid", "delete", "watch", "vacuum"]
        ))
        actions.append((kind, draw(st.integers(min_value=0, max_value=9))))
    return actions


class TestIntegrityInvariants:
    @given(action_sequences())
    @settings(max_examples=50, deadline=None)
    def test_invariants_hold_under_arbitrary_histories(self, actions):
        db = build_db()
        inserted: list[Ref] = []
        for step, (kind, pick) in enumerate(actions):
            if kind == "insert":
                member = db.insert("People", name=f"p{step}", age=step % 80)
                if member is not None:
                    inserted.append(member)
            elif kind == "insert_with_kid":
                member = db.insert(
                    "People",
                    name=f"p{step}", age=step % 80,
                    kids=[{"name": f"k{step}", "age": 1}],
                )
                if member is not None:
                    inserted.append(member)
            elif kind == "delete" and inserted:
                victim = inserted[pick % len(inserted)]
                db.delete(victim)
            elif kind == "watch" and inserted:
                target = inserted[pick % len(inserted)]
                if db.objects.is_live(target.oid):
                    db.insert("Watchlist", target)
            elif kind == "vacuum":
                db.vacuum()
        self.check_invariants(db)

    def check_invariants(self, db: Database) -> None:
        people = db.named("People").value
        # 1. every member of People is live and owned by People
        for member in people:
            assert db.objects.is_live(member.oid)
            assert db.objects.owner_of(member.oid) == (None, "People")
        # 2. every live kid's owner is live and holds the kid in its set
        for oid in db.objects.oids():
            owner_oid, owner_name = db.objects.owner_of(oid)
            if owner_oid is not None:
                assert db.objects.is_live(owner_oid)
                kids = db.objects.fetch(owner_oid).get("kids")
                assert kids.contains(Ref(oid))
        # 3. after vacuum, no reference anywhere dangles
        db.vacuum()
        for oid in db.objects.oids():
            instance = db.objects.fetch(oid)
            for value in instance.attributes().values():
                if isinstance(value, Ref):
                    assert db.objects.is_live(value.oid)
                elif isinstance(value, SetInstance):
                    for member in value:
                        if isinstance(member, Ref):
                            assert db.objects.is_live(member.oid)
        for name in db.catalog.named_names():
            value = db.named(name).value
            if isinstance(value, SetInstance):
                for member in value:
                    if isinstance(member, Ref):
                        assert db.objects.is_live(member.oid)

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_cascade_depth(self, shape):
        """Chains of own-ref kids cascade fully on root deletion."""
        db = build_db()
        root = db.insert("People", name="root", age=50)
        parent = root
        created = [root]
        for index, _ in enumerate(shape):
            instance = db.objects.fetch(parent.oid)
            kid = db.integrity.create_object(
                db.type("Person"),
                {"name": f"gen{index}", "age": 1},
                owner=parent.oid,
            )
            instance.get("kids").insert(kid)
            db.objects.mark_dirty(instance)
            created.append(kid)
            parent = kid
        deleted = db.delete(root)
        assert deleted == len(created)
        for member in created:
            assert not db.objects.is_live(member.oid)
