"""P9 — durability: incremental undo transactions, WAL commit
overhead, and recovery time.

Perf claims from this iteration:

* a begin/touch/abort cycle under the incremental undo log costs
  O(objects touched), not O(database): wrapping a statement in
  begin/abort stays a small multiple of the statement's own cost from
  100 to 10k objects;
* logical WAL commit overhead is a modest per-statement constant when
  ``fsync`` is off (group commit + CRC framing) and fsync-dominated
  when on;
* recovery replays the log at statement-execution speed, so a
  checkpoint (snapshot + log rotation) collapses recovery time.
"""

import os
import time

import pytest

from conftest import fresh_company
from repro.storage.recovery import open_database

APPEND = 'append to Employees (name = "t", age = 30, salary = 900.0)'


def txn_cycle(db):
    """One transaction touching a handful of objects, then rolled back."""
    db.begin()
    db.execute(APPEND)
    db.execute("replace E (salary = E.salary + 1.0) from E in Employees "
               "where E.age = 44")
    db.abort()


_company_cache = {}


def sized_company(employees: int):
    if employees not in _company_cache:
        _company_cache[employees] = fresh_company(employees=employees)
    return _company_cache[employees]


# -- begin/touch/abort with the undo log ---------------------------------------


@pytest.mark.parametrize("employees", [100, 1000])
@pytest.mark.benchmark(group="p9-txn-cycle")
def test_txn_cycle(benchmark, employees):
    benchmark(txn_cycle, sized_company(employees))


def test_undo_cost_tracks_touched_not_database_size_at_10k():
    """Acceptance: wrapping a statement in begin/abort adds overhead
    proportional to what the statement touched — a small multiple of
    the statement's own cost at every scale."""

    def best(fn, repeats: int = 8) -> float:
        best_time = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best_time = min(best_time, time.perf_counter() - start)
        return best_time

    def wrapped(db):
        db.begin()
        db.execute(APPEND)
        db.abort()

    for employees in (100, 10000):
        db = sized_company(employees)
        plain = best(lambda: db.execute(APPEND))
        undo = best(lambda: wrapped(db))
        # the undo log's before-images cover only the touched objects,
        # so the envelope is a constant factor of the statement cost
        # (plus a sliver of absolute slack for timer noise)
        assert undo < plain * 8.0 + 0.002, (employees, plain, undo)


# -- per-commit WAL overhead --------------------------------------------------


def durable_db(tmp_path, fsync: bool):
    db = open_database(str(tmp_path / "db"), fsync=fsync)
    db.execute("define type Emp as (name: char(20), salary: float8)")
    db.execute("create {own ref Emp} Employees")
    return db


@pytest.mark.parametrize("fsync", [False, True],
                         ids=["fsync_off", "fsync_on"])
@pytest.mark.benchmark(group="p9-wal-commit")
def test_wal_commit_overhead(benchmark, tmp_path, fsync):
    db = durable_db(tmp_path, fsync=fsync)
    statement = 'append to Employees (name = "w", salary = 1.0)'
    try:
        benchmark(db.execute, statement)
    finally:
        db.close()


@pytest.mark.benchmark(group="p9-wal-commit")
def test_commit_overhead_baseline_no_wal(benchmark):
    from repro import Database

    db = Database()
    db.execute("define type Emp as (name: char(20), salary: float8)")
    db.execute("create {own ref Emp} Employees")
    benchmark(db.execute, 'append to Employees (name = "w", salary = 1.0)')


# -- recovery time vs log length ----------------------------------------------


def build_log(tmp_path, records: int, checkpoint: bool = False) -> str:
    directory = str(tmp_path / f"log{records}{'c' if checkpoint else ''}")
    db = open_database(directory, fsync=False)
    db.execute("define type Emp as (name: char(20), salary: float8)")
    db.execute("create {own ref Emp} Employees")
    for index in range(records):
        db.execute(f'append to Employees (name = "e{index}", '
                   f"salary = {float(index)})")
    if checkpoint:
        db.checkpoint()
    db.close()
    return directory


def recover(directory: str):
    db = open_database(directory, fsync=False)
    count = db.execute(
        "retrieve (count(E.salary)) from E in Employees"
    ).scalar()
    db.close()
    return count


@pytest.mark.parametrize("records", [100, 1000])
@pytest.mark.benchmark(group="p9-recovery")
def test_recovery_replay(benchmark, tmp_path, records):
    directory = build_log(tmp_path, records)
    assert benchmark(recover, directory) == records


@pytest.mark.benchmark(group="p9-recovery")
def test_recovery_after_checkpoint(benchmark, tmp_path):
    directory = build_log(tmp_path, 1000, checkpoint=True)
    assert benchmark(recover, directory) == 1000


def test_checkpoint_collapses_recovery_time(tmp_path):
    """Acceptance: recovering from a checkpointed database (snapshot +
    empty log) is much faster than replaying a 1000-record log."""
    replay_dir = build_log(tmp_path, 1000)
    snap_dir = build_log(tmp_path, 1000, checkpoint=True)
    assert os.path.getsize(os.path.join(snap_dir, "wal.log")) < 64

    def best(directory: str, repeats: int = 3) -> float:
        best_time = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            assert recover(directory) == 1000
            best_time = min(best_time, time.perf_counter() - start)
        return best_time

    replay = best(replay_dir)
    snapshot = best(snap_dir)
    assert snapshot * 5.0 < replay, (snapshot, replay)
