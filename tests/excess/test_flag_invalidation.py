"""A flag change reaches the next statement of a cached shape.

Each session resolves its flags once into one tuple
(:class:`~repro.excess.flags.Flags`); the plan-cache key embeds it and
the evaluator runs under it. The tuple is refreshed only when a flag
changes, so every way of changing one must be seen by both: the next
execution of an already cached shape misses the cache (the key moved)
and runs an evaluator carrying the new value. The ways are an
interpreter attribute write, the server's ``set`` op and a session
override.
"""

import pytest

from repro.errors import ExcessError
from repro.excess import interpreter as interpreter_module
from repro.excess.evaluator import Evaluator
from repro.excess.flags import Flags
from repro.server import Client, ServerThread

SHAPE = "retrieve (E.name) from E in Employees where E.age > {}"
JOIN = (
    "retrieve (E.name, D.dname) from E in Employees, D in Departments "
    "where E.dept is D and E.age > {}"
)

#: a value other than the default, per flag
CHANGED = {
    "optimize": False,
    "hash_joins": False,
    "cost_based": False,
    "compile_mode": "off",
    "exec_mode": "row",
    "parallel_mode": "off",
    "workers": Flags().workers + 1,
    "statement_timeout_ms": 60_000,
    "memory_budget": 1 << 20,
}

#: the flags the wire ``set`` op accepts
SESSION_FLAGS = (
    "optimize",
    "compile_mode",
    "exec_mode",
    "statement_timeout_ms",
    "memory_budget",
)


@pytest.fixture
def evaluators(monkeypatch):
    """Every evaluator the interpreter constructs, in order."""
    seen = []

    class Recording(Evaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self)

    monkeypatch.setattr(interpreter_module, "Evaluator", Recording)
    return seen


def _run(execute, age, evaluators):
    """``(cache outcome, flags of its evaluator)`` of one execution."""
    result = execute(SHAPE.format(age))
    assert sorted(row[0] for row in result.rows) == sorted(
        name for name, years in (("Sue", 40), ("Bob", 30), ("Ann", 50))
        if years > age
    )
    return result.metrics["cache"], evaluators[-1].flags


def test_every_flag_has_a_changed_value():
    assert set(CHANGED) == set(Flags._fields)
    for name, value in CHANGED.items():
        assert getattr(Flags(), name) != value


class TestInterpreterAttribute:
    @pytest.mark.parametrize("name", sorted(CHANGED))
    def test_write_moves_key_and_evaluator(self, small_company, evaluators, name):
        db = small_company
        assert _run(db.execute, 20, evaluators)[0] == "miss"
        cache, flags = _run(db.execute, 25, evaluators)
        assert cache == "hit" and getattr(flags, name) != CHANGED[name]
        setattr(db.interpreter, name, CHANGED[name])
        cache, flags = _run(db.execute, 35, evaluators)
        assert cache == "miss" and getattr(flags, name) == CHANGED[name]
        cache, flags = _run(db.execute, 45, evaluators)
        assert cache == "hit" and getattr(flags, name) == CHANGED[name]

    def test_hash_joins_reaches_the_plan(self, small_company):
        db = small_company
        db.execute(JOIN.format(20))
        assert "HashJoin" in db.execute(JOIN.format(25)).plan_tree
        db.interpreter.hash_joins = False
        result = db.execute(JOIN.format(35))
        assert result.metrics["cache"] == "miss"
        assert "HashJoin" not in result.plan_tree
        db.interpreter.hash_joins = True
        assert "HashJoin" in db.execute(JOIN.format(45)).plan_tree

    def test_cost_based_reaches_the_optimizer(self, small_company):
        db = small_company
        db.execute(JOIN.format(20))
        db.interpreter.cost_based = False
        result = db.execute(JOIN.format(25))
        assert result.metrics["cache"] == "miss"
        assert db.default_session.resolved_flags().cost_based is False

    def test_bad_value_changes_nothing(self, small_company):
        interpreter = small_company.interpreter
        before = small_company.default_session.resolved_flags()
        generation = interpreter.flags_generation
        with pytest.raises(ExcessError, match="exec_mode must be one of"):
            interpreter.exec_mode = "warp"
        assert interpreter.flags_generation == generation
        assert small_company.default_session.resolved_flags() is before


class TestSessionOverride:
    @pytest.mark.parametrize("name", sorted(CHANGED))
    def test_override_moves_key_and_evaluator(self, small_company, evaluators, name):
        db = small_company
        session = db.connect()
        other = db.connect()
        _run(session.execute, 20, evaluators)
        assert _run(other.execute, 25, evaluators)[0] == "hit"
        session.set_flag(name, CHANGED[name])
        cache, flags = _run(session.execute, 35, evaluators)
        assert cache == "miss" and getattr(flags, name) == CHANGED[name]
        # the other session keeps its flags and its cache entry
        cache, flags = _run(other.execute, 45, evaluators)
        assert cache == "hit" and getattr(flags, name) != CHANGED[name]

    def test_override_outlives_interpreter_writes(self, small_company, evaluators):
        db = small_company
        session = db.connect()
        session.set_flag("exec_mode", "row")
        db.interpreter.exec_mode = "fused"
        db.interpreter.memory_budget = 64
        _cache, flags = _run(session.execute, 20, evaluators)
        assert flags.exec_mode == "row" and flags.memory_budget == 64

    def test_overrides_are_read_only(self, small_company):
        session = small_company.connect()
        session.set_flag("optimize", False)
        assert session.overrides == {"optimize": False}
        with pytest.raises(TypeError):
            session.overrides["optimize"] = True  # type: ignore[index]

    def test_set_flag_validates(self, small_company):
        session = small_company.connect()
        with pytest.raises(ExcessError, match="workers must be a positive"):
            session.set_flag("workers", 0)
        with pytest.raises(ExcessError, match="unknown flag"):
            session.set_flag("turbo", True)
        assert session.overrides == {}

    def test_interleaved_sessions_keep_their_own_flags(
        self, small_company, evaluators
    ):
        db = small_company
        row = db.connect()
        row.set_flag("exec_mode", "row")
        off = db.connect()
        off.set_flag("compile_mode", "off")
        outcomes = []
        for age in (20, 25, 35, 45, 20, 30):
            for session, want in ((row, ("row", "closure")), (off, ("fused", "off"))):
                cache, flags = _run(session.execute, age, evaluators)
                assert (flags.exec_mode, flags.compile_mode) == want
                outcomes.append(cache)
        # one miss per session, then shape hits on each one's own entry
        assert outcomes[:2] == ["miss", "miss"]
        assert set(outcomes[2:]) == {"hit"}


class TestServerSetOp:
    @pytest.mark.parametrize("name", SESSION_FLAGS)
    def test_set_moves_key_and_evaluator(self, small_company, evaluators, name):
        db = small_company
        thread = ServerThread(db)
        thread.start()
        try:
            host, port = thread.server.address
            with Client(host, port, user="dba") as client:
                _run(client.query, 20, evaluators)
                cache, flags = _run(client.query, 25, evaluators)
                assert cache == "hit" and getattr(flags, name) != CHANGED[name]
                client.set_flag(name, CHANGED[name])
                cache, flags = _run(client.query, 35, evaluators)
                assert cache == "miss" and getattr(flags, name) == CHANGED[name]
                cache, flags = _run(client.query, 45, evaluators)
                assert cache == "hit" and getattr(flags, name) == CHANGED[name]
            # the default session never saw the wire override
            assert getattr(db.default_session.resolved_flags(), name) != CHANGED[name]
        finally:
            thread.stop()
