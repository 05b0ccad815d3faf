"""Network chaos, admission control, graceful drain, and client retry.

The chaos matrix routes real client connections through
:class:`~repro.util.netchaos.ChaosProxy` and injects every fault the
proxy knows, asserting the robustness contract:

* the client sees either a correct result or a clean error — never a
  hang (all waits are bounded);
* the server stays healthy: the victim's session is closed, its
  transaction aborted, and :meth:`TransactionManager.introspect` shows
  no leaked parked workspace or stuck version-log entry;
* a fresh connection works normally afterwards.
"""

import socket
import time

import pytest

from repro.core.database import Database
from repro.errors import ServerOverloadedError, StatementTimeout
from repro.server import Client, RemoteError, RetryPolicy, ServerThread
from repro.server.protocol import ProtocolError, encode_message, read_message
from repro.util.netchaos import FAULTS, ChaosProxy


def make_db() -> Database:
    db = Database()
    db.execute("define type Dept as (dname: char(20), floor: int4)")
    db.execute("create {own ref Dept} Depts")
    db.execute('append to Depts (dname = "Toys", floor = 2)')
    return db


@pytest.fixture
def server():
    thread = ServerThread(make_db())
    thread.start()
    yield thread
    thread.stop()


def wait_quiesced(db, timeout=5.0):
    """Wait for the server's handler teardown to release everything."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snapshot = db.transactions.introspect()
        if (
            snapshot["open_transactions"] == 0
            and snapshot["parked_workspaces"] == 0
            and snapshot["version_entries"] == 0
            and not snapshot["applied"]
        ):
            return snapshot
        time.sleep(0.02)
    raise AssertionError(
        f"engine did not quiesce: {db.transactions.introspect()}"
    )


def assert_server_still_serves(server):
    host, port = server.server.address
    with Client(host, port, user="after") as client:
        rows = client.query("retrieve (D.dname) from D in Depts").rows
        assert ("Toys",) in rows


# -- the chaos matrix --------------------------------------------------------


class TestChaosMatrix:
    def test_fault_names_are_exhaustive(self):
        assert set(FAULTS) == {
            "truncate_frame", "disconnect", "delay", "duplicate",
        }

    def test_truncated_frame_mid_transaction(self, server):
        """A frame cut apart mid-send: the server reads a torn header,
        reports a protocol error (or sees EOF) and tears the session
        down, aborting the open transaction."""
        host, port = server.server.address
        with ChaosProxy(host, port, fault="truncate_frame", on_frame=4) as proxy:
            client = Client(*proxy.address, user="victim", timeout=5.0,
                            read_timeout=5.0)
            client.begin()
            client.query('append to Depts (dname = "Torn", floor = 1)')
            with pytest.raises((RemoteError, ProtocolError, OSError)):
                client.query("retrieve (D.dname) from D in Depts")
                client.commit()
            assert proxy.faults_fired >= 1
        wait_quiesced(server.db)
        assert_server_still_serves(server)
        # the aborted transaction left no trace
        host, port = server.server.address
        with Client(host, port, user="check") as client:
            rows = client.query("retrieve (D.dname) from D in Depts").rows
            assert ("Torn",) not in rows

    def test_disconnect_mid_transaction_releases_workspace(self, server):
        """A clean cut while a transaction is open: the handler's
        teardown must abort it explicitly — no parked workspace, no
        version-log entry survives (the regression this layer fixes:
        teardown used to lean on the GC)."""
        host, port = server.server.address
        with ChaosProxy(host, port, fault="disconnect", on_frame=4) as proxy:
            client = Client(*proxy.address, user="victim", timeout=5.0,
                            read_timeout=5.0)
            client.begin()
            client.query('append to Depts (dname = "Lost", floor = 3)')
            with pytest.raises((RemoteError, ProtocolError, OSError)):
                client.query("retrieve (D.dname) from D in Depts")
            assert proxy.faults_fired >= 1
        wait_quiesced(server.db)
        assert_server_still_serves(server)

    def test_delayed_response_hits_read_timeout(self, server):
        """A stalled server→client frame: the client's read deadline
        fires with a clean *retryable* error, and a retry succeeds."""
        host, port = server.server.address
        with ChaosProxy(
            host, port, fault="delay", on_frame=2, direction="s2c",
            delay_s=1.0, max_fires=1,
        ) as proxy:
            client = Client(*proxy.address, user="slow", timeout=5.0,
                            read_timeout=0.2)
            with pytest.raises(RemoteError) as excinfo:
                client.query("retrieve (D.dname) from D in Depts")
            assert excinfo.value.retryable
            assert client.closed  # a late reply must not desync the stream
            # the same work retried on a fresh connection succeeds
            rows = client.with_retries(
                lambda c: c.query("retrieve (D.dname) from D in Depts"),
                RetryPolicy(attempts=3, base_delay=0.01),
            ).rows
            assert ("Toys",) in rows
            client.close()
        wait_quiesced(server.db)
        assert_server_still_serves(server)

    def test_duplicate_hello_gets_clean_refusal(self, server):
        """A replayed hello on an established session: the server
        answers the duplicate with a protocol error instead of creating
        a second session, and the client surfaces it cleanly."""
        host, port = server.server.address
        with ChaosProxy(host, port, fault="duplicate", on_frame=1) as proxy:
            client = Client(*proxy.address, user="twice", timeout=5.0,
                            read_timeout=5.0)
            # the duplicate's error response is the next frame the
            # client reads — a clean RemoteError, never a hang
            with pytest.raises((RemoteError, ProtocolError)) as excinfo:
                client.query("retrieve (D.dname) from D in Depts")
            if isinstance(excinfo.value, RemoteError):
                assert "already established" in str(excinfo.value)
            client.close()
            assert proxy.faults_fired >= 1
        wait_quiesced(server.db)
        assert_server_still_serves(server)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_every_fault_leaves_no_leaks(self, server, fault):
        """The full sweep: each fault against an in-transaction session,
        bounded waits only, and the engine quiesces afterwards."""
        host, port = server.server.address
        with ChaosProxy(
            host, port, fault=fault, on_frame=3, delay_s=0.5,
        ) as proxy:
            try:
                client = Client(*proxy.address, user="sweep", timeout=5.0,
                                read_timeout=0.2)
                client.begin()
                client.query('append to Depts (dname = "Sweep", floor = 4)')
                client.query("retrieve (D.dname) from D in Depts")
                client.close()
            except (RemoteError, ProtocolError, OSError):
                pass  # a clean, typed error is an accepted outcome
        wait_quiesced(server.db)
        assert_server_still_serves(server)
        host, port = server.server.address
        with Client(host, port, user="check") as client:
            rows = client.query("retrieve (D.dname) from D in Depts").rows
            assert ("Sweep",) not in rows  # the open txn never committed


# -- admission control and graceful drain ------------------------------------


class TestAdmissionControl:
    def test_connection_limit_refuses_with_retryable_error(self):
        thread = ServerThread(make_db())
        thread.server.max_connections = 1
        host, port = thread.start()
        try:
            with Client(host, port, user="first") as first:
                with pytest.raises(RemoteError) as excinfo:
                    Client(host, port, user="second", timeout=5.0)
                assert excinfo.value.retryable
                assert excinfo.value.remote_type == "ServerOverloadedError"
                # the admitted session is unaffected
                assert first.query(
                    "retrieve (D.dname) from D in Depts"
                ).rows
            # capacity freed: the next connection is admitted
            with Client(host, port, user="third") as third:
                assert third.status()["ok"]
        finally:
            thread.stop()

    def test_status_reports_admission_state(self, server):
        host, port = server.server.address
        with Client(host, port, user="s") as client:
            status = client.status()
            assert status["connections"] >= 1
            assert status["max_connections"] == 64
            assert status["draining"] is False
            assert "overloaded_refusals" in status

    def test_overload_error_is_always_retryable(self):
        assert ServerOverloadedError("x") is not None
        from repro.server.server import _error_payload

        payload = _error_payload(ServerOverloadedError("full"))
        assert payload["error"]["retryable"] is True
        payload = _error_payload(StatementTimeout("slow"))
        assert payload["error"]["retryable"] is True
        payload = _error_payload(ValueError("bug"))
        assert payload["error"]["retryable"] is False


class TestGracefulDrain:
    def test_stop_aborts_open_transactions_before_loop_death(self):
        """ServerThread.stop() drains: a session whose client is still
        connected mid-transaction is aborted and forgotten — not left
        to the garbage collector (the old teardown bug)."""
        thread = ServerThread(make_db())
        host, port = thread.start()
        db = thread.db
        client = Client(host, port, user="open", timeout=5.0,
                        read_timeout=5.0)
        client.begin()
        client.query('append to Depts (dname = "Doomed", floor = 5)')
        snapshot = db.transactions.introspect()
        assert snapshot["open_transactions"] == 1
        thread.stop()
        snapshot = db.transactions.introspect()
        assert snapshot["open_transactions"] == 0
        assert snapshot["parked_workspaces"] == 0
        assert snapshot["version_entries"] == 0
        assert not snapshot["applied"]
        # the uncommitted write is gone
        rows = db.execute("retrieve (D.dname) from D in Depts").rows
        assert ("Doomed",) not in rows
        client.close()

    def test_draining_server_refuses_new_work(self):
        thread = ServerThread(make_db())
        host, port = thread.start()
        thread.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0)

    def test_drain_checkpoints_durable_state(self, tmp_path):
        db = Database.open(str(tmp_path / "chaos-db"))
        thread = ServerThread(db)
        host, port = thread.start()
        with Client(host, port, user="dba") as client:
            client.query("define type T as (n: char(8))")
            client.query("create {own ref T} S")
            client.query('append to S (n = "kept")')
        thread.stop()  # drain checkpoints before the loop dies
        import os

        from repro.storage.recovery import SNAPSHOT_NAME

        assert os.path.exists(
            os.path.join(str(tmp_path / "chaos-db"), SNAPSHOT_NAME)
        )
        db.close()
        reopened = Database.open(str(tmp_path / "chaos-db"))
        rows = reopened.execute("retrieve (M.n) from M in S").rows
        assert rows == [("kept",)]
        reopened.close()


# -- client deadlines, context manager, retry --------------------------------


class TestClientRobustness:
    def test_context_manager_closes_cleanly(self, server):
        host, port = server.server.address
        with Client(host, port, user="ctx") as client:
            assert client.protocol >= 1
            assert not client.closed
        assert client.closed
        # close is idempotent and safe after the socket is gone
        client.close()

    def test_read_timeout_is_separate_from_connect_timeout(self, server):
        host, port = server.server.address
        client = Client(host, port, user="t", timeout=5.0, read_timeout=7.5)
        try:
            assert client.connect_timeout == 5.0
            assert client.read_timeout == 7.5
            assert client._sock.gettimeout() == 7.5
        finally:
            client.close()

    def test_retry_policy_backoff_is_bounded(self):
        policy = RetryPolicy(attempts=6, base_delay=0.1, max_delay=0.4,
                             jitter=False)
        delays = [policy.delay(n) for n in range(6)]
        assert delays[0] == 0.1
        assert max(delays) == 0.4  # capped
        jittered = RetryPolicy(base_delay=0.1, max_delay=0.4)
        assert 0.0 <= jittered.delay(3) <= 0.4

    def test_non_retryable_error_raises_immediately(self, server):
        host, port = server.server.address
        calls = []
        with Client(host, port, user="x") as client:
            def unit(c):
                calls.append(1)
                return c.query("retrieve (D.nonsense) from D in Depts")

            with pytest.raises(RemoteError) as excinfo:
                client.with_retries(unit, RetryPolicy(attempts=4,
                                                      base_delay=0.01))
            assert not excinfo.value.retryable
        assert len(calls) == 1  # no pointless retries of a hard error

    def test_with_retries_wins_a_serialization_conflict(self, server):
        """The canonical retry loop: first-committer-wins dooms the
        slower transaction once; with_retries re-runs the whole unit
        and the second attempt commits."""
        host, port = server.server.address
        attempts = []
        with Client(host, port, user="slow") as slow, \
                Client(host, port, user="fast") as fast:
            def unit(c):
                attempts.append(1)
                c.begin()
                c.query('append to Depts (dname = "Retry", floor = 6)')
                if len(attempts) == 1:
                    # a rival commits an overlapping write first
                    fast.begin()
                    fast.query(
                        'append to Depts (dname = "Rival", floor = 7)'
                    )
                    fast.commit()
                c.commit()
                return True

            assert slow.with_retries(
                unit, RetryPolicy(attempts=5, base_delay=0.01)
            )
        assert len(attempts) == 2
        wait_quiesced(server.db)
        rows = server.db.execute("retrieve (D.dname) from D in Depts").rows
        assert ("Retry",) in rows and ("Rival",) in rows

    def test_with_retries_reconnects_after_disconnect(self, server):
        """A dropped connection mid-unit: with_retries reconnects a
        fresh session and the retry completes."""
        host, port = server.server.address
        with ChaosProxy(host, port, fault="disconnect", on_frame=2,
                        max_fires=1) as proxy:
            client = Client(*proxy.address, user="re", timeout=5.0,
                            read_timeout=5.0)
            rows = client.with_retries(
                lambda c: c.query("retrieve (D.dname) from D in Depts"),
                RetryPolicy(attempts=4, base_delay=0.01),
            ).rows
            assert ("Toys",) in rows
            assert proxy.faults_fired == 1
            client.close()
        wait_quiesced(server.db)

    def test_eof_in_call_releases_the_socket(self, server):
        host, port = server.server.address
        with ChaosProxy(host, port, fault="disconnect", on_frame=2) as proxy:
            client = Client(*proxy.address, user="eof", timeout=5.0,
                            read_timeout=5.0)
            sock = client._sock
            with pytest.raises((ProtocolError, OSError)):
                client.query("retrieve (D.dname) from D in Depts")
            assert client.closed
            assert sock.fileno() == -1
        wait_quiesced(server.db)

    def test_with_retries_releases_the_dropped_socket(self, server):
        """A unit that fails with a ConnectionError: the retry loop
        closes the old socket before reconnecting over it."""
        host, port = server.server.address
        with Client(host, port, user="drop") as client:
            first = client._sock

            def unit(c):
                if c._sock is first:
                    raise ConnectionResetError("connection reset by peer")
                return c.query("retrieve (D.dname) from D in Depts")

            rows = client.with_retries(
                unit, RetryPolicy(attempts=3, base_delay=0.01)
            ).rows
            assert ("Toys",) in rows
            assert client._sock is not first
            assert first.fileno() == -1
        wait_quiesced(server.db)

    def test_refused_hello_releases_the_socket(self, monkeypatch):
        thread = ServerThread(make_db())
        thread.server.max_connections = 1
        host, port = thread.start()
        opened = []
        connect = socket.create_connection

        def recording(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(socket, "create_connection", recording)
        try:
            with Client(host, port, user="first"):
                with pytest.raises(RemoteError):
                    Client(host, port, user="second", timeout=5.0)
            assert len(opened) == 2
            assert opened[1].fileno() == -1
        finally:
            thread.stop()

    def test_query_accepts_a_retry_policy(self, server):
        host, port = server.server.address
        with Client(host, port, user="q") as client:
            rows = client.query(
                "retrieve (D.dname) from D in Depts",
                retry_policy=RetryPolicy(attempts=2, base_delay=0.01),
            ).rows
            assert ("Toys",) in rows

    def test_set_governance_flags_over_the_wire(self, server):
        host, port = server.server.address
        with Client(host, port, user="gov") as client:
            client.set_flag("statement_timeout_ms", 60_000)
            client.set_flag("memory_budget", 4096)
            assert client.query(
                "retrieve (D.dname) from D in Depts"
            ).rows
            with pytest.raises(RemoteError):
                client.set_flag("statement_timeout_ms", -5)
            with pytest.raises(RemoteError):
                client.set_flag("memory_budget", "lots")

    def test_remote_statement_timeout_is_retryable(self, server):
        """A server-side StatementTimeout crosses the wire with
        ``retryable = true`` — the injected cancellation fires inside
        the server's engine, not the client."""
        from repro.util import faultinject

        host, port = server.server.address
        with Client(host, port, user="to") as client:
            client.set_flag("statement_timeout_ms", 60_000)
            faultinject.arm("timeout.root", on_hit=1)
            try:
                with pytest.raises(RemoteError) as excinfo:
                    client.query("retrieve (D.dname) from D in Depts")
            finally:
                faultinject.reset()
            assert excinfo.value.remote_type == "StatementTimeout"
            assert excinfo.value.retryable
            # the session survives the cancelled statement
            assert client.query(
                "retrieve (D.dname) from D in Depts"
            ).rows
