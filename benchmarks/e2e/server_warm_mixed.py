"""``server_warm_mixed`` — the production shape: clients over the wire.

An in-process ``ServerThread`` fronts a durable paged store whose 5 000
accounts all fit the object cache (``cache_capacity=8000``). Two
closed-loop ``Client`` connections (this box has two cores; both log in
as the same user, so they share plan-cache entries) issue 84 % point
reads over 48 hot accounts, 10 % single-statement ``replace`` over 24 of
them and 6 % two-``replace`` transfer transactions over 12 fixed pairs
— a closed set of 96 statement texts, under the 128-entry plan cache.
(6 %, not 5 %: transfers are the slowest kind, and with exactly 5 % of
them ``latency_p95_ms`` would sit on the edge between two modes.)
Engine time per operation is tens of microseconds, so protocol framing,
the asyncio loop, the engine lock and the session statement/commit
brackets dominate. It is the fits-in-cache twin of ``paged_cold_mixed``:
same storage code, warm, so a storage-cold optimisation must not move it.

The load is closed-loop because the generator threads share the
interpreter lock with the in-process server: an open-loop schedule would
measure how late the generator ran, not the engine.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from types import SimpleNamespace
from typing import Any

from repro.errors import ExtraError
from repro.server import Client, RemoteError, RetryPolicy, ServerThread
from repro.server.protocol import ProtocolError, encode_message, read_message

from frontend import stage_statement
from harness import Workload, median_or_zero, percentile, span_durations_ms
from paged_cold_mixed import PagedWorkload
from trace import Tracer

ACCOUNTS = 5000
CACHE_CAPACITY = 8000
CLIENTS = 2
HOT_READS = 48
HOT_REPLACES = 24
TRANSFER_PAIRS = 12
RETRIES = RetryPolicy(attempts=10, base_delay=0.001, max_delay=0.05)
CONNECT_PROBES = 5
INPROCESS_REPS = 5


class ClientLoop(Workload):
    """One connection's closed loop; runs on its own thread with its own
    samples, model deltas and tracer (merged by the workload)."""

    op_errors = (ExtraError, ProtocolError, OSError)

    def __init__(self, parent: "ServerWarmMixed", index: int):
        super().__init__(parent.seed, parent.scale, parent.out_dir)
        self.parent = parent
        self.index = index
        self.rng = random.Random(f"{parent.seed}:client{index}")
        start = time.perf_counter()
        self.client = Client(
            parent.host, parent.port, user="bench", read_timeout=30.0
        )
        self.connect_ms = (time.perf_counter() - start) * 1e3
        #: acknowledged balance changes, account id -> total delta
        self.deltas: dict[int, float] = {}
        self.rows_written = 0
        self.retries = 0
        self.protocol_bytes = 0
        # a local socket pair carries real frames through read_message
        self.loop_a, self.loop_b = socket.socketpair()

    def close(self) -> None:
        self.client.close()
        self.loop_a.close()
        self.loop_b.close()

    def reset_counts(self) -> None:
        super().reset_counts()
        self.retries = 0
        self.protocol_bytes = 0

    def recover_from_failed_op(self) -> None:
        try:
            self.client.abort()
        except (RemoteError, ProtocolError, OSError):
            pass  # no transaction was open, or the connection is gone

    # -- one statement over the wire ------------------------------------------

    def statement(self, text: str) -> Any:
        tracer = self.tracer
        if tracer is None:
            return self.client.query(text)
        request = {"op": "query", "text": text}
        with tracer.span("client.query"):
            response = self.client.call(request)
        mark = time.perf_counter_ns()
        self.probe_protocol(request, response)
        self._staged_ns += time.perf_counter_ns() - mark
        result = SimpleNamespace(
            rows=[tuple(row) for row in response["rows"]],
            metrics=response["metrics"],
        )
        self.note_result(result, 0, 0)
        return result

    def probe_protocol(self, request: dict, response: dict) -> None:
        """Time ``server.protocol`` on this operation's real frames:
        encode both, then read both back through a socket pair."""
        tracer = self.tracer
        frames = []
        for doc in (request, response):
            with tracer.span("protocol.encode"):
                frames.append(encode_message(doc))
        for frame in frames:
            self.protocol_bytes += len(frame)
            self.loop_a.sendall(frame)
            with tracer.span("protocol.decode"):
                read_message(self.loop_b)

    def retried(self, unit: Any) -> None:
        """Run ``unit(client)`` under the retry policy, counting the
        attempts beyond the first."""
        attempts = 0

        def counted(client: Client) -> None:
            nonlocal attempts
            attempts += 1
            if attempts > 1:
                try:  # a retryable failure may have left a txn open
                    client.abort()
                except RemoteError:
                    pass
            unit(client)

        try:
            self.client.with_retries(counted, RETRIES)
        finally:
            self.retries += max(0, attempts - 1)

    # -- the mix ---------------------------------------------------------------

    def step(self) -> None:
        parent = self.parent
        rng = self.rng
        draw = rng.random()
        if draw < 0.84:
            key = parent.hot[rng.randrange(HOT_READS)]
            with self.op("read") as op:
                result = self.statement(parent.read_text[key])
            if op.ok:
                # the balance moves under concurrent writers; identity
                # and the immutable branch must match exactly
                self.check(
                    len(result.rows) == 1
                    and result.rows[0][0] == key
                    and result.rows[0][2] == parent.model[key][1],
                    f"read of account {key}",
                )
        elif draw < 0.94:
            key = parent.hot[rng.randrange(HOT_REPLACES)]
            text = parent.replace_text[key]
            with self.op("replace") as op:
                self.retried(lambda _client: self.statement(text))
            if op.ok:
                self.deltas[key] = self.deltas.get(key, 0.0) + 1.0
                self.rows_written += 1
        else:
            source, target = parent.pairs[rng.randrange(TRANSFER_PAIRS)]
            debit, credit = parent.transfer_text[(source, target)]

            def unit(client: Client) -> None:
                client.begin()
                self.statement(debit)
                self.statement(credit)
                self.spanned("session.commit", client.commit)

            with self.op("transfer") as op:
                self.retried(unit)
            if op.ok:
                self.deltas[source] = self.deltas.get(source, 0.0) - 5.0
                self.deltas[target] = self.deltas.get(target, 0.0) + 5.0
                self.rows_written += 2

    def drive(self, deadline: float) -> None:
        clock = time.perf_counter
        stopped = self.parent.stop.is_set
        while clock() < deadline and not stopped():
            self.step()


class ServerWarmMixed(PagedWorkload):
    name = "server_warm_mixed"
    warmup_ops = 400  # per connection
    read_kinds = ("read",)
    write_kinds = ("replace", "transfer")

    def __init__(self, seed: int, scale: int, out_dir: str):
        super().__init__(seed, scale, out_dir)
        self.server: Any = None
        self.loops: list[ClientLoop] = []
        self.stop = threading.Event()
        self.threads: list[threading.Thread] = []

    def setup(self) -> None:
        rng = self.data_rng()
        accounts = max(500, ACCOUNTS // self.scale)
        self.create_store(rng, accounts, CACHE_CAPACITY)
        self.hot = rng.sample(range(accounts), HOT_READS)
        self.pairs = [
            (self.hot[HOT_REPLACES + i], self.hot[HOT_REPLACES + TRANSFER_PAIRS + i])
            for i in range(TRANSFER_PAIRS)
        ]
        self.read_text = {
            key: "retrieve (A.id, A.bal, A.branch) from A in Accts "
                 f"where A.id = {key}"
            for key in self.hot
        }
        self.replace_text = {
            key: f"replace A (bal = A.bal + 1.0) from A in Accts where A.id = {key}"
            for key in self.hot[:HOT_REPLACES]
        }
        self.transfer_text = {
            (source, target): (
                f"replace A (bal = A.bal - 5.0) from A in Accts where A.id = {source}",
                f"replace A (bal = A.bal + 5.0) from A in Accts where A.id = {target}",
            )
            for source, target in self.pairs
        }
        self.stop.clear()
        self.server = ServerThread(self.db)
        self.host, self.port = self.server.start()
        self.loops = [ClientLoop(self, index) for index in range(CLIENTS)]

    def teardown(self) -> None:
        self.stop.set()
        for thread in self.threads:
            thread.join()
        self.threads = []
        loops, self.loops = self.loops, []
        for loop in loops:
            loop.close()
        server, self.server = self.server, None
        if server is not None:
            server.stop()
        super().teardown()

    # -- the window: both connections at once -----------------------------------

    def warmup(self) -> None:
        for loop in self.loops:
            for _ in range(max(20, self.warmup_ops // self.scale)):
                loop.step()
        self.reset_counts()

    def reset_counts(self) -> None:
        super().reset_counts()
        for loop in self.loops:
            loop.reset_counts()

    def drive(self, deadline: float) -> None:
        errors: list[BaseException] = []

        def run(loop: ClientLoop) -> None:
            try:
                loop.drive(deadline)
            except BaseException as exc:  # a harness bug: surface it
                errors.append(exc)
                self.stop.set()

        self.threads = [
            threading.Thread(target=run, args=(loop,), name=f"client{loop.index}")
            for loop in self.loops
        ]
        for thread in self.threads:
            thread.start()
        for thread in self.threads:
            while thread.is_alive():
                thread.join(0.2)  # short waits keep signals deliverable
        self.threads = []
        if errors:
            raise errors[0]
        for loop in self.loops:
            for kind, values in loop.samples.items():
                self.samples.setdefault(kind, []).extend(values)
            loop.samples = {}
            for key, value in loop.exec_stats.items():
                self.exec_stats[key] += value
                loop.exec_stats[key] = 0

    def counters(self) -> dict[str, float]:
        self.rows_written = sum(loop.rows_written for loop in self.loops)
        return super().counters()

    # -- tracing ------------------------------------------------------------------

    def start_tracing(self) -> None:
        """Per-thread tracers (disjoint id ranges). The front end is
        staged here, once per distinct text and before the clients
        start: the engine is not thread-safe, so staging beside a busy
        server would race it."""
        self.tracer = Tracer()
        for loop in self.loops:
            loop.tracer = Tracer(first_id=(loop.index + 1) * 10**9)
        texts = list(self.read_text.values()) + list(self.replace_text.values())
        for pair in self.transfer_text.values():
            texts.extend(pair)
        for text in texts:
            with self.tracer.span("stage"):
                stage_statement(self.db, text, self.tracer)
        connects = []
        for _ in range(CONNECT_PROBES):
            start = time.perf_counter()
            Client(self.host, self.port, user="bench").close()
            connects.append((time.perf_counter() - start) * 1e3)
        self.extra["server.conn_setup_ms"] = median_or_zero(
            connects + [loop.connect_ms for loop in self.loops]
        )

    def spans(self) -> list:
        merged = list(self.tracer.spans)
        for loop in self.loops:
            merged.extend(loop.tracer.spans)
        return merged

    # -- end-of-run checks -----------------------------------------------------------

    def finish(self) -> None:
        for loop in self.loops:
            self.attempted += loop.attempted
            self.failed += loop.failed
            self.errors.extend(loop.errors)
        status = self.loops[0].client.status()
        ops = max(1, self.ops_done())
        self.extra["server.refused_per_kop"] = (
            status["overloaded_refusals"] / ops * 1000.0
        )
        self.extra["session.serialization_retries_per_kop"] = (
            sum(loop.retries for loop in self.loops) / ops * 1000.0
        )
        if self.tracer is not None:
            self.probe_in_process()
        # both connections are idle now, so the engine is ours again
        rows = self.db.execute("retrieve (A.id, A.bal) from A in Accts").rows
        found = dict(rows)
        self.check(len(rows) == len(self.model), f"{len(rows)} accounts")
        for key, (initial, _branch) in self.model.items():
            want = initial + sum(loop.deltas.get(key, 0.0) for loop in self.loops)
            if found.get(key) != want:
                self.fail(
                    f"model mismatch: account {key}: {found.get(key)} != {want}"
                )

    def probe_in_process(self) -> None:
        """The same hit-cached read texts through ``db.execute``: what a
        read costs without the wire."""
        records = []
        for text in self.read_text.values():
            for _ in range(INPROCESS_REPS):
                with self.tracer.span("interpreter.execute") as record:
                    self.db.execute(text)
                records.append(record)
        in_process_us = median_or_zero(
            span_durations_ms(records, "interpreter.execute")) * 1e3
        wire_us = percentile(self.samples.get("read", []), 50) / 1e3
        self.extra["server.wire_overhead_us"] = wire_us - in_process_us

    def per_layer(self, spans: list) -> dict[str, float]:
        out = super().per_layer(spans)
        encodes = span_durations_ms(spans, "protocol.encode")
        decodes = span_durations_ms(spans, "protocol.decode")
        if encodes:
            out["protocol.encode_us_per_msg"] = sum(encodes) / len(encodes) * 1e3
            out["protocol.decode_us_per_msg"] = sum(decodes) / len(decodes) * 1e3
            out["protocol.bytes_per_op"] = (
                sum(loop.protocol_bytes for loop in self.loops)
                / max(1, self.ops_done())
            )
        return out
