"""``paged_cold_mixed`` — a durable paged store ten times its object cache.

20 000 accounts behind ``cache_capacity=2000`` / ``pool_capacity=64``,
fsync on. Keys are uniform, so almost every operation faults its object
in, evicts another (writing it back if dirty) and turns over the buffer
pool; every write appends to the WAL and syncs it; an inline checkpoint
runs every 2 500 operations. 55 % point read, 30 % auto-commit
``replace``, 10 % two-account transfer in an explicit transaction, 5 %
``append`` — reads and writes share the storage layers, so a read gain
bought with write or space cost shows. The literal keys also miss the
plan cache, so the front end is busy here too; the per-layer metrics
separate the two.

After the window: a checkpoint, a fixed tail of operations (so the WAL
suffix to replay has the same length on every run), a simulated kill
(the directory is copied while the database is still open and dirty),
recovery of the copy, and an exact comparison of every account with the
model — no acknowledged write may be lost.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time

from datasets import ACCT_ROW_BYTES, create_accounts, open_accounts
from harness import (
    Workload,
    directory_bytes,
    median_or_zero,
    percentile,
    span_durations_ms,
)

ACCOUNTS = 20000
CACHE_RATIO = 10  # accounts per object-cache slot
CHECKPOINT_EVERY = 2500
TAIL_OPS = 1000
PROBE_OIDS = 300
BLOCK_BYTES = 4096


def storage_counters(db) -> dict[str, float]:
    """``Database.storage_stats()`` flattened to ``layer.counter``."""
    stats = db.storage_stats()
    out = {}
    for layer in ("buffer", "disk", "object_cache"):
        for key, value in stats[layer].items():
            if isinstance(value, (int, float)):
                out[f"{layer}.{key}"] = value
    return out


def storage_layer_metrics(delta: dict, ops: int) -> dict[str, float]:
    """The object-cache / buffer-pool / disk ratios both paged workloads
    report, from counters differenced across the window."""
    kops = ops / 1000.0

    def ratio(hits: str, misses: str) -> float:
        total = delta[hits] + delta[misses]
        return delta[hits] / total if total else 0.0

    return {
        "object_store.hit_ratio": ratio("object_cache.hits", "object_cache.faults"),
        "object_store.faults_per_kop": delta["object_cache.faults"] / kops,
        "object_store.evictions_per_kop": delta["object_cache.evictions"] / kops,
        "object_store.writebacks_per_kop": delta["object_cache.writebacks"] / kops,
        "buffer.hit_ratio": ratio("buffer.hits", "buffer.misses"),
        "buffer.evictions_per_kop": delta["buffer.evictions"] / kops,
        "buffer.dirty_writebacks_per_kop": delta["buffer.dirty_writebacks"] / kops,
        "disk.reads_per_kop": delta["disk.reads"] / kops,
        "disk.writes_per_kop": delta["disk.writes"] / kops,
        "disk.syncs_per_kop": delta["disk.syncs"] / kops,
    }


class PagedWorkload(Workload):
    """What the two durable paged workloads share: the temp directory,
    WAL/storage counters, and write/space amplification."""

    directory = ""

    def create_store(self, rng: random.Random, accounts: int, cache: int) -> None:
        """A fresh temp directory holding ``accounts`` checkpointed rows."""
        self.directory = tempfile.mkdtemp(prefix=self.name + "_", dir=self.out_dir)
        self.db, self.model = create_accounts(self.directory, rng, accounts, cache)
        self._wal_base = self.db.durability.status()["bytes"]
        self._wal_folded = 0
        self.snapshot_bytes = 0
        self.rows_written = 0
        #: per-layer numbers measured outside the window (probes, recovery)
        self.extra: dict[str, float] = {}

    def teardown(self) -> None:
        super().teardown()
        for path in (self.directory, self.directory + "_crash"):
            if path and os.path.isdir(path):
                shutil.rmtree(path)

    def checkpoint(self) -> dict:
        """``db.checkpoint()`` with WAL-byte and snapshot-byte upkeep
        (the checkpoint rotates the log, so its size restarts)."""
        durability = self.db.durability
        self._wal_folded += durability.status()["bytes"] - self._wal_base
        report = self.db.checkpoint()
        self._wal_base = durability.status()["bytes"]
        self.snapshot_bytes += report["bytes"]
        return report

    def counters(self) -> dict[str, float]:
        out = super().counters()
        out.update(storage_counters(self.db))
        status = self.db.durability.status()
        out["wal.bytes"] = self._wal_folded + status["bytes"] - self._wal_base
        out["wal.records"] = status["next_lsn"]
        out["snapshot.bytes"] = self.snapshot_bytes
        out["rows_written"] = self.rows_written
        return out

    def io_counters(self) -> tuple:
        stats = self.db.storage_stats()
        return (
            stats["object_cache"]["faults"],
            stats["disk"]["reads"],
            stats["disk"]["writes"],
        )

    def per_layer(self, spans: list) -> dict[str, float]:
        out = super().per_layer(spans)
        out.update(self.extra)
        delta = self.delta
        ops = max(1, self.ops_done())
        out.update(storage_layer_metrics(delta, ops))
        out["disk.pages_data_bytes"] = os.path.getsize(
            os.path.join(self.directory, "pages.data"))
        writes = len(self.client_samples(self.write_kinds))
        if writes:
            out["wal.bytes_per_write_op"] = delta["wal.bytes"] / writes
        out["wal.records_per_kop"] = delta["wal.records"] / ops * 1000.0
        user_bytes = delta["rows_written"] * ACCT_ROW_BYTES
        if user_bytes:
            out["storage.write_amp"] = (
                delta["wal.bytes"]
                + delta["disk.writes"] * BLOCK_BYTES
                + delta["snapshot.bytes"]
            ) / user_bytes
        out["storage.space_amp"] = self.space_bytes / (
            len(self.model) * ACCT_ROW_BYTES
        )
        out["session.txn_p50_ms"] = percentile(
            self.samples.get("transfer", []), 50) / 1e6
        out["session.commit_us"] = (
            median_or_zero(span_durations_ms(spans, "session.commit")) * 1e3
        )
        return out

    def after_window(self) -> None:
        super().after_window()
        self.space_bytes = directory_bytes(self.directory)


class PagedColdMixed(PagedWorkload):
    name = "paged_cold_mixed"
    warmup_ops = 1000
    read_kinds = ("read",)
    write_kinds = ("replace", "transfer", "append")

    def setup(self) -> None:
        self.accounts = max(500, ACCOUNTS // self.scale)
        self.cache_capacity = self.accounts // CACHE_RATIO
        self.create_store(self.data_rng(), self.accounts, self.cache_capacity)
        self.rng = random.Random(f"{self.seed}:ops")
        self.next_id = self.accounts
        self.since_checkpoint = 0
        self.checkpoint_every = max(100, CHECKPOINT_EVERY // self.scale)
        self.checkpoint_reports: list[dict] = []

    def reset_counts(self) -> None:
        super().reset_counts()
        self.checkpoint_reports = []

    def recover_from_failed_op(self) -> None:
        if self.db.in_transaction:
            self.db.abort()

    # -- the mix -------------------------------------------------------------

    def step(self) -> None:
        rng = self.rng
        draw = rng.random()
        key = rng.randrange(self.accounts)
        if draw < 0.55:
            with self.op("read") as op:
                result = self.statement(
                    "retrieve (A.id, A.bal, A.branch) from A in Accts "
                    f"where A.id = {key}"
                )
            if op.ok:
                bal, branch = self.model[key]
                self.check(
                    result.rows == [(key, bal, branch)], f"read of account {key}"
                )
        elif draw < 0.85:
            amount = float(rng.randint(1, 50))
            with self.op("replace") as op:
                self.statement(
                    f"replace A (bal = A.bal + {amount}) from A in Accts "
                    f"where A.id = {key}"
                )
            if op.ok:
                self.model[key][0] += amount
                self.rows_written += 1
        elif draw < 0.95:
            other = (key + 1 + rng.randrange(self.accounts - 1)) % self.accounts
            amount = float(rng.randint(1, 50))
            with self.op("transfer") as op:
                self.db.begin()
                self.statement(
                    f"replace A (bal = A.bal - {amount}) from A in Accts "
                    f"where A.id = {key}"
                )
                self.statement(
                    f"replace A (bal = A.bal + {amount}) from A in Accts "
                    f"where A.id = {other}"
                )
                self.spanned("session.commit", self.db.commit)
            if op.ok:
                self.model[key][0] -= amount
                self.model[other][0] += amount
                self.rows_written += 2
        else:
            new_id = self.next_id
            self.next_id += 1
            bal = float(rng.randint(500, 1500))
            branch = rng.randrange(50)
            with self.op("append") as op:
                self.statement(
                    f"append to Accts (id = {new_id}, bal = {bal}, "
                    f'branch = {branch}, note = "account-{new_id:08d}")'
                )
            if op.ok:
                self.model[new_id] = [bal, branch]
                self.rows_written += 1
        self.since_checkpoint += 1
        if self.since_checkpoint >= self.checkpoint_every:
            self.since_checkpoint = 0
            with self.op("checkpoint") as op:
                report = self.checkpoint()
            if op.ok:
                self.checkpoint_reports.append(report)

    # -- recovery ------------------------------------------------------------

    def finish(self) -> None:
        # the tail is neither timed nor traced: it only builds the WAL
        # suffix that recovery replays
        window_samples, self.samples = self.samples, {}
        tracer, self.tracer = self.tracer, None
        self.checkpoint()
        self.checkpoint_every = TAIL_OPS + 1  # no checkpoint inside the tail
        self.since_checkpoint = 0
        for _ in range(max(50, TAIL_OPS // self.scale)):
            self.step()
        self.samples = window_samples
        self.tracer = tracer
        if tracer is not None:
            self.probe_fetches()
        replay_records = self.db.durability.status()["records_since_checkpoint"]
        # the simulated kill: no close(), no flush — the copy holds what
        # a dead process would have left on disk (every acknowledged
        # write was fsynced to the WAL before its acknowledgement)
        crashed = self.directory + "_crash"
        shutil.copytree(self.directory, crashed)
        start = time.perf_counter()
        recovered = open_accounts(crashed, self.cache_capacity)
        reopen_s = time.perf_counter() - start
        try:
            rows = recovered.execute(
                "retrieve (A.id, A.bal, A.branch) from A in Accts"
            ).rows
        finally:
            recovered.interpreter.shutdown_parallel()
            recovered.close()
        found = {row[0]: [row[1], row[2]] for row in rows}
        self.check(
            len(rows) == len(self.model),
            f"recovered {len(rows)} accounts, model has {len(self.model)}",
        )
        for key, want in self.model.items():
            if found.get(key) != want:
                self.fail(
                    f"account {key} after recovery: {found.get(key)} != {want}"
                )
        self.extra.update({
            "recovery.reopen_s": reopen_s,
            "recovery.replay_records": replay_records,
            "recovery.replay_us_per_record":
                reopen_s / max(1, replay_records) * 1e6,
        })

    def probe_fetches(self) -> None:
        """Direct ``store.fetch`` / ``fetch_cold`` calls on random
        objects: the object cache's own hit and miss costs."""
        store = self.db.store
        members = self.db.named("Accts").value.members()
        rng = random.Random(f"{self.seed}:probe")
        warm, cold = [], []
        for ref in rng.sample(members, min(PROBE_OIDS, len(members))):
            store.fetch(ref.oid)  # bring it in; timed fetch below hits
            mark = time.perf_counter_ns()
            store.fetch(ref.oid)
            warm.append(time.perf_counter_ns() - mark)
            mark = time.perf_counter_ns()
            store.fetch_cold(ref.oid)
            cold.append(time.perf_counter_ns() - mark)
        self.extra["object_store.fetch_warm_us"] = median_or_zero(warm) / 1e3
        self.extra["object_store.fetch_cold_us"] = median_or_zero(cold) / 1e3

    def per_layer(self, spans: list) -> dict[str, float]:
        out = super().per_layer(spans)
        checkpoints = [ns / 1e6 for ns in self.samples.get("checkpoint", [])]
        if checkpoints:
            out["checkpoint.p50_ms"] = median_or_zero(checkpoints)
            out["checkpoint.max_ms"] = max(checkpoints)
            out["checkpoint.pages_written_per_cycle"] = median_or_zero(
                [report["pages_written"] for report in self.checkpoint_reports]
            )
        return out
