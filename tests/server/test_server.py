"""The network server: framing, the session ops, error mapping.

Each connection is one server-side :class:`SessionContext`; the wire
protocol is length-prefixed JSON (``docs/LANGUAGE.md``). These tests
run a real server on a loopback socket.
"""

import socket
import struct
import time

import pytest

from repro.core.database import Database
from repro.server import Client, RemoteError, ServerThread
from repro.server.protocol import (
    MAX_MESSAGE,
    ProtocolError,
    encode_message,
    read_message,
)
from tests.server.test_chaos import wait_quiesced


@pytest.fixture(scope="module")
def server():
    db = Database()
    db.execute("define type Dept as (dname: char(20), floor: int4)")
    db.execute("create {own ref Dept} Depts")
    db.execute('append to Depts (dname = "Toys", floor = 2)')
    thread = ServerThread(db)
    thread.start()
    yield thread
    thread.stop()


@pytest.fixture
def client(server):
    host, port = server.server.address
    with Client(host, port, user="tester") as c:
        yield c


def raw_socket(server, rcvbuf=None):
    """A bare socket to the server, for frames no :class:`Client` sends."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:  # before connect: a fixed window, no autotuning
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(10)
    sock.connect(server.server.address)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class TestProtocol:
    def test_framing_round_trip(self):
        blob = encode_message({"op": "hello", "user": "x"})
        (length,) = struct.unpack(">I", blob[:4])
        assert length == len(blob) - 4

    def test_oversized_message_rejected(self):
        with pytest.raises(ProtocolError):
            encode_message({"pad": "x" * (MAX_MESSAGE + 1)})

    def test_hello_must_come_first(self, server):
        host, port = server.server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(encode_message({"op": "query", "text": "analyze"}))
            response = read_message(sock)
            assert response["ok"] is False
            assert "hello" in response["error"]["message"]
            # the server hangs up after the refusal
            assert read_message(sock) is None

    def test_malformed_payload_reports_error(self, server):
        with raw_socket(server) as sock:
            sock.sendall(struct.pack(">I", 7) + b"not{jso")
            response = read_message(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert read_message(sock) is None  # and hangs up

    def test_oversized_declared_length_reports_error(self, server):
        with raw_socket(server) as sock:
            # refused from the header alone, before any payload arrives
            sock.sendall(struct.pack(">I", MAX_MESSAGE + 1))
            response = read_message(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert "exceeds" in response["error"]["message"]
            assert read_message(sock) is None

    def test_unknown_op_keeps_connection(self, client):
        with pytest.raises(RemoteError, match="unknown op"):
            client.call({"op": "mystery"})
        assert client.status()["ok"]


class TestFrameParser:
    """The server splits frames out of whatever chunks the stream
    delivers and answers them in order."""

    def test_request_sent_one_byte_at_a_time(self, server):
        with raw_socket(server) as sock:
            for request in (
                {"op": "hello", "user": "trickle"},
                {"op": "query", "text": "retrieve (D.dname) from D in Depts"},
            ):
                for byte in encode_message(request):
                    sock.sendall(bytes([byte]))
                    time.sleep(0.001)
                response = read_message(sock)
                assert response["ok"], response
            assert ["Toys"] in response["rows"]

    def test_pipelined_requests_answered_in_order(self, server):
        requests = [
            {"op": "hello", "user": "piped"},
            {"op": "query", "text": 'retrieve (D.dname) from D in Depts '
                                    'where D.dname = "Toys"'},
            {"op": "status"},
            {"op": "bye"},
        ]
        with raw_socket(server) as sock:
            sock.sendall(b"".join(encode_message(r) for r in requests))
            hello, query, status, bye = [read_message(sock) for _ in requests]
            assert hello["user"] == "piped"
            assert query["rows"] == [["Toys"]]
            assert status["user"] == "piped"
            assert bye["message"] == "goodbye"
            assert read_message(sock) is None

    def test_eof_mid_frame_aborts_open_transaction(self, server):
        with raw_socket(server) as sock:
            for request in (
                {"op": "hello", "user": "torn"},
                {"op": "begin"},
                {"op": "query",
                 "text": 'append to Depts (dname = "Torn", floor = 9)'},
            ):
                sock.sendall(encode_message(request))
                assert read_message(sock)["ok"]
            assert server.db.transactions.introspect()["open_transactions"] == 1
            sock.sendall(encode_message({"op": "commit"})[:6])
            sock.shutdown(socket.SHUT_WR)
            response = read_message(sock)
            assert response["error"]["type"] == "ProtocolError"
            assert "mid-message" in response["error"]["message"]
            assert read_message(sock) is None
        wait_quiesced(server.db)
        names = {row[0] for row in server.db.execute(
            "retrieve (D.dname) from D in Depts").rows}
        assert "Torn" not in names

    def test_client_that_stops_reading_is_bounded_then_served(self):
        """Flow control: once the unread answers back up, the server
        stops reading requests instead of buffering answers without
        limit, and serves the rest once the client reads."""
        db = Database()
        db.execute("define type Row as (label: char(40), n: int4)")
        db.execute("create {own ref Row} Rows")
        for n in range(1000):
            db.execute(f'append to Rows (label = "row-{n:036d}", n = {n})')
        thread = ServerThread(db)
        thread.start()
        requests = 400  # ~50 KB answers: ~20 MB unread, far past the kernel buffers
        try:
            with raw_socket(thread, rcvbuf=64 * 1024) as sock:
                sock.sendall(encode_message({"op": "hello", "user": "hog"}))
                assert read_message(sock)["ok"]
                (connection,) = thread.server.connections
                request = encode_message(
                    {"op": "query", "text": "retrieve (R.label, R.n) from R in Rows"}
                )
                sock.sendall(request * requests)
                deadline = time.monotonic() + 10
                while connection.transport.is_reading():
                    assert time.monotonic() < deadline, "reading never paused"
                    time.sleep(0.01)
                assert not connection.transport.is_closing()
                # the 64 KiB default high-water mark, one answer past it,
                # and every request still unparsed
                bound = 64 * 1024 + 64 * 1024 + len(request) * requests
                for _ in range(2):  # paused, and it stays put
                    buffered = (connection.transport.get_write_buffer_size()
                                + len(connection.buffer))
                    assert buffered < bound
                    time.sleep(0.1)
                answered = 0
                for _ in range(requests):
                    response = read_message(sock)
                    assert len(response["rows"]) == 1000
                    answered += len(encode_message(response))
                assert answered > 20 * bound
                sock.sendall(encode_message({"op": "status"}))
                assert read_message(sock)["user"] == "hog"
        finally:
            thread.stop()


class TestSessionOps:
    def test_hello_names_the_session(self, server):
        host, port = server.server.address
        a = Client(host, port, user="alice")
        b = Client(host, port, user="bob", name="bobs")
        assert a.user == "alice"
        assert b.session == "bobs"
        assert a.session != b.session
        a.close()
        b.close()

    def test_query_returns_result(self, client):
        result = client.query("retrieve (D.dname, D.floor) from D in Depts")
        assert result.columns == ["dname", "floor"]
        assert ("Toys", 2) in result.rows
        assert result.metrics is not None
        assert "retrieve" == result.kind

    def test_query_error_maps_remote_type(self, client):
        with pytest.raises(RemoteError) as info:
            client.query("retrieve (D.dname) from D in Nowhere")
        assert info.value.remote_type
        assert not info.value.serialization

    def test_transaction_ops(self, server, client):
        client.begin()
        assert client.status()["in_transaction"]
        client.query('append to Depts (dname = "Tmp", floor = 8)')
        client.abort()
        assert not client.status()["in_transaction"]
        names = {r[0] for r in client.query(
            "retrieve (D.dname) from D in Depts").rows}
        assert "Tmp" not in names

    def test_set_flag_round_trip(self, client):
        client.set_flag("exec_mode", "row")
        result = client.query("retrieve (D.dname) from D in Depts")
        assert result.rows
        client.set_flag("exec_mode", "fused")

    def test_set_flag_validation(self, client):
        with pytest.raises(RemoteError, match="unknown session flag"):
            client.set_flag("turbo", True)
        with pytest.raises(RemoteError, match="must be one of"):
            client.set_flag("exec_mode", "warp")
        with pytest.raises(RemoteError, match="positive integer"):
            client.set_flag("batch_size", 0)
        with pytest.raises(RemoteError, match="positive integer"):
            client.set_flag("batch_size", True)
        client.set_flag("batch_size", 64)

    def test_set_flag_shares_the_interpreter_table(self, server, client):
        """The wire rejects a typo with the very error the Python API
        raises (one allowed-value table, in the interpreter)."""
        from repro.errors import ExcessError

        interpreter = server.server.db.interpreter
        for flag, bad in (("compile_mode", "closures"), ("exec_mode", "fusedd")):
            with pytest.raises(ExcessError) as local:
                setattr(interpreter, flag, bad)
            with pytest.raises(RemoteError) as remote:
                client.set_flag(flag, bad)
            assert str(local.value) in str(remote.value)
        client.set_flag("compile_mode", "off")
        assert client.query("retrieve (D.dname) from D in Depts").rows
        client.set_flag("compile_mode", "closure")

    def test_status_reports_sessions(self, client):
        status = client.status()
        assert "isolation_mode" not in status
        assert status["connections"] >= 1
        assert status["user"] == "tester"

    def test_status_reports_plan_cache_shapes(self, client):
        before = client.status()["plan_cache"]
        for floor in (1, 2, 3):
            client.query(f"retrieve (D.dname) from D in Depts where D.floor > {floor}")
        after = client.status()["plan_cache"]
        assert set(after) == {"entries", "hits", "misses", "shapes", "pinned_slots"}
        assert after["shapes"] == before["shapes"] + 1
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 2

    def test_only_explain_carries_a_plan(self, client):
        text = "retrieve (D.dname) from D in Depts"
        assert "plan" not in client.call({"op": "query", "text": text})
        assert client.query(text).plan_tree is None
        explained = client.query("explain " + text)
        assert "SeqScan Depts as D" in explained.plan_tree

    def test_disconnect_aborts_open_transaction(self, server):
        host, port = server.server.address
        c = Client(host, port, user="dropper")
        c.begin()
        c.query('append to Depts (dname = "Ghost", floor = 13)')
        c.close()  # server closes the session, aborting the txn
        check = Client(host, port, user="tester")
        names = {r[0] for r in check.query(
            "retrieve (D.dname) from D in Depts").rows}
        check.close()
        assert "Ghost" not in names


class TestWireIsolation:
    def test_snapshot_isolation_over_the_wire(self, server):
        host, port = server.server.address
        writer = Client(host, port, user="alice")
        reader = Client(host, port, user="bob")
        reader.begin()
        writer.query('append to Depts (dname = "Wire", floor = 4)')
        names = {r[0] for r in reader.query(
            "retrieve (D.dname) from D in Depts").rows}
        assert "Wire" not in names  # committed after the snapshot
        reader.commit()
        names = {r[0] for r in reader.query(
            "retrieve (D.dname) from D in Depts").rows}
        assert "Wire" in names
        writer.query('delete D from D in Depts where D.dname = "Wire"')
        writer.close()
        reader.close()

    def test_write_write_conflict_over_the_wire(self, server):
        host, port = server.server.address
        first = Client(host, port, user="alice")
        second = Client(host, port, user="bob")
        first.begin()
        second.begin()
        first.query('replace D (floor = 5) from D in Depts '
                    'where D.dname = "Toys"')
        second.query('replace D (floor = 9) from D in Depts '
                     'where D.dname = "Toys"')
        first.commit()
        with pytest.raises(RemoteError) as info:
            second.commit()
        assert info.value.serialization
        floor = first.query(
            'retrieve (D.floor) from D in Depts where D.dname = "Toys"'
        ).rows[0][0]
        assert floor == 5
        first.query('replace D (floor = 2) from D in Depts '
                    'where D.dname = "Toys"')
        first.close()
        second.close()


class TestStatusStorageField:
    def test_memory_store_omits_storage(self, client):
        assert "storage" not in client.status()

    def test_paged_store_reports_counters(self):
        db = Database(storage="paged", store_mode="sim", cache_capacity=32)
        db.execute("define type T as (x: int4)")
        db.execute("create {own ref T} Ts")
        db.execute("append to Ts (x = 1)")
        thread = ServerThread(db)
        thread.start()
        try:
            host, port = thread.server.address
            with Client(host, port, user="tester") as client:
                storage = client.status()["storage"]
                assert storage["store_mode"] == "sim"
                assert storage["object_cache"]["capacity"] == 32
                assert storage["disk"]["writes"] >= 0
                assert set(storage["buffer"]) >= {
                    "capacity", "hits", "misses", "hit_ratio", "evictions",
                }
        finally:
            thread.stop()
