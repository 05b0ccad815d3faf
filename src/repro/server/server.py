"""The asyncio TCP server fronting one database with many sessions.

Each accepted connection gets its own frame-parsing
:class:`asyncio.Protocol` and its own
:class:`~repro.core.session.SessionContext`. Every request is dispatched
synchronously on the event-loop thread and dispatch never awaits, so
the loop thread itself serializes statements from all connections — the
MVCC manager parks and resumes per-session workspaces around each
statement, so interleaved transactions stay snapshot-isolated even
though only one statement executes at a time (the engine mutates shared
state in place and is not internally thread-safe). Requests on one
connection are answered in order, so a client may pipeline them.

Request ops (full wire reference in ``docs/LANGUAGE.md``):

=============  =========================================================
``hello``      ``{user, name?}`` → session created; must be first
``query``      ``{text}`` → columns/rows/count/message/metrics
               (+ ``plan`` for ``explain``)
``begin``      open a transaction in this session
``commit``     commit it (first-committer-wins; conflicts report
               ``error.serialization = true`` so clients can retry)
``abort``      abort it
``set``        ``{flag, value}`` → session-local ablation override
``status``     server + session diagnostics
``bye``        close the session and the connection
=============  =========================================================

Error payloads carry ``error.retryable = true`` for transient failures
(commit conflicts, statement timeouts, admission refusals) so clients
can retry verbatim. Admission control bounds concurrent connections
(``max_connections``); refusals are
:class:`~repro.errors.ServerOverloadedError`. SIGTERM and SIGINT
trigger a graceful drain: open transactions abort, durable state
checkpoints, and the listener and every connection close (answers
already written flush first).
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
from typing import Any, Optional

from repro.core.database import Database
from repro.errors import (
    ExcessError,
    SerializationError,
    ServerOverloadedError,
    StatementTimeout,
)
from repro.excess.flags import validate_flag
from repro.excess.result import Result, render_value
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_message,
    next_frame,
)

__all__ = ["ExcessServer", "ServerThread", "main"]

#: session flags a client may override (mirrors the CLI's ablation
#: toggles); values are validated by the interpreter's flag table
_SESSION_FLAGS = (
    "optimize",
    "compile_mode",
    "exec_mode",
    "batch_size",
    "statement_timeout_ms",
    "memory_budget",
)


#: every live listening socket, so forked children (parallel query
#: workers, benchmark client processes) can close their inherited
#: copies — a child holding a duplicated LISTEN fd keeps the port bound
#: after the parent drains, and a restart on the same port would fail
#: with EADDRINUSE (SO_REUSEADDR does not cover live listeners)
_LISTENERS: set = set()


def _close_listeners_after_fork() -> None:
    for sock in list(_LISTENERS):
        try:
            # asyncio exposes TransportSocket wrappers (no .close());
            # in the child only the raw fd matters
            os.close(sock.fileno())
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
    _LISTENERS.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_close_listeners_after_fork)


def _validate_flag(flag: str, value: Any) -> Any:
    if flag not in _SESSION_FLAGS:
        raise ExcessError(
            f"unknown session flag {flag!r} "
            f"(expected one of {sorted(_SESSION_FLAGS)})"
        )
    return validate_flag(flag, value)


def _json_cell(value: Any) -> Any:
    """One result cell as a JSON-safe value (EXTRA values render to
    their textual form — the wire carries display semantics, not refs
    into the server's heap)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return render_value(value)


def result_payload(result: Result) -> dict:
    """A :class:`Result` as a success payload. Only ``explain`` carries
    its rendered ``plan``; an executed statement's tree (with actual row
    counts) is rendered on demand in-process, never for the wire."""
    payload = {
        "ok": True,
        "kind": result.kind,
        "columns": list(result.columns),
        "rows": [[_json_cell(cell) for cell in row] for row in result.rows],
        "count": result.count,
        "message": result.message,
        "metrics": result.metrics,
    }
    if result.kind == "explain":
        payload["plan"] = result.plan_tree
    return payload


def _error_payload(exc: Exception) -> dict:
    return {
        "ok": False,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "serialization": isinstance(exc, SerializationError),
            # transient failures a client may retry verbatim: commit
            # conflicts, statement timeouts, and admission refusals
            "retryable": isinstance(
                exc,
                (SerializationError, StatementTimeout, ServerOverloadedError),
            ),
        },
    }


class _Connection(asyncio.Protocol):
    """One client connection: splits length-prefixed frames out of the
    byte stream and answers each on the loop thread, in arrival order."""

    def __init__(self, server: "ExcessServer"):
        self.server = server
        self.transport: Any = None
        self.session: Any = None
        #: received bytes not yet consumed as complete frames
        self.buffer = bytearray()

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            # each message is one small frame; never batch them
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        server = self.server
        if server.draining or len(server.connections) >= server.max_connections:
            server.overloaded_refusals += 1
            reason = (
                "server is draining"
                if server.draining
                else f"connection limit reached ({server.max_connections})"
            )
            self.hang_up(ServerOverloadedError(reason))
            return
        server.connections.add(self)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self.serve()

    def serve(self) -> None:
        """Answer every complete buffered frame, in order, until the buffer
        runs dry, the peer stops reading, or the connection closes."""
        buffer = self.buffer
        offset = 0
        try:
            # not reading = closing, or paused by pause_writing
            while self.transport.is_reading():
                frame = next_frame(buffer, offset)
                if frame is None:
                    break
                request, offset = frame
                response, done = self.server._respond(self, request)
                self.transport.write(encode_message(response))
                if done:
                    self.transport.close()
        except ProtocolError as exc:  # a malformed or oversized frame
            self.hang_up(exc)
        del buffer[:offset]

    def hang_up(self, exc: Exception) -> None:
        """Answer with ``exc``'s error payload, then close (after a flush)."""
        self.transport.write(encode_message(_error_payload(exc)))
        self.transport.close()

    def eof_received(self) -> None:
        if self.buffer:
            self.hang_up(ProtocolError("connection closed mid-message"))
        # returning None lets the transport close itself

    def pause_writing(self) -> None:
        # the peer is not reading its answers: stop reading its requests
        # (frames already buffered wait for resume_writing)
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()
        self.serve()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server.connections.discard(self)
        self.end_session()

    def end_session(self) -> None:
        """Close the session, aborting its open transaction (never left
        to the GC, even when the client vanished mid-transaction)."""
        session, self.session = self.session, None
        if session is not None:
            session.close()


class ExcessServer:
    """One database served to many TCP sessions."""

    def __init__(
        self,
        database: Optional[Database] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 64,
    ):
        self.db = database if database is not None else Database()
        self.host = host
        self.port = port
        self.address: Optional[tuple[str, int]] = None
        self.max_connections = max_connections
        #: admitted, still-open connections
        self.connections: set[_Connection] = set()
        self.overloaded_refusals = 0
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        for sock in self._server.sockets:
            _LISTENERS.add(sock)
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        return self.address

    async def drain(self) -> None:
        """Graceful shutdown: refuse new connections, abort open
        transactions, close every connection, checkpoint durable state.
        Dispatch never awaits, so no statement is in flight here; answers
        already written sit in transport buffers that ``close()`` flushes
        before cutting the connection."""
        if self.draining:
            return
        self.draining = True
        server, self._server = self._server, None
        if server is not None:
            for sock in server.sockets:
                _LISTENERS.discard(sock)
            server.close()
        for connection in list(self.connections):
            connection.end_session()
            connection.transport.close()
        if server is not None:
            await server.wait_closed()
        if self.db.durability is not None:
            try:
                self.db.checkpoint()
            except Exception:  # pragma: no cover - best effort on the way out
                pass

    async def stop(self) -> None:
        await self.drain()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- one request -------------------------------------------------------

    def _respond(self, connection: _Connection, request: dict) -> tuple[dict, bool]:
        """Dispatch one request; returns ``(response, close_after)``."""
        op = request.get("op")
        if connection.session is None and op != "hello":
            return (
                _error_payload(
                    ProtocolError("the first request must be 'hello'")
                ),
                True,
            )
        try:
            return self._dispatch(connection, op, request)
        except Exception as exc:  # engine errors and bugs: report, keep serving
            return _error_payload(exc), False

    def _dispatch(
        self, connection: _Connection, op: Any, request: dict
    ) -> tuple[dict, bool]:
        session = connection.session
        if op == "hello":
            if session is not None:
                raise ProtocolError("session already established")
            user = request.get("user") or None
            context = self.db.connect(user=user, name=request.get("name"))
            connection.session = context
            return (
                {
                    "ok": True,
                    "server": "extra-excess",
                    "protocol": PROTOCOL_VERSION,
                    "session": context.name,
                    "user": context.user,
                },
                False,
            )
        if op == "query":
            text = request.get("text")
            if not isinstance(text, str):
                raise ProtocolError("'query' requires a string 'text'")
            return result_payload(session.execute(text)), False
        if op == "begin":
            session.begin()
            return {"ok": True, "message": "transaction started"}, False
        if op == "commit":
            session.commit()
            return {"ok": True, "message": "transaction committed"}, False
        if op == "abort":
            session.abort()
            return {"ok": True, "message": "transaction aborted"}, False
        if op == "set":
            flag = request.get("flag")
            value = _validate_flag(flag, request.get("value"))
            session.set_flag(flag, value)
            return {"ok": True, "flag": flag, "value": value}, False
        if op == "status":
            payload = {
                "ok": True,
                "session": session.name,
                "user": session.user,
                "in_transaction": session.in_transaction,
                "connections": len(self.connections),
                "max_connections": self.max_connections,
                "draining": self.draining,
                "overloaded_refusals": self.overloaded_refusals,
                "open_transactions": sum(
                    1
                    for s in self.db.transactions.sessions.values()
                    if s.txn is not None
                ),
            }
            storage = self.db.storage_stats()
            if storage:
                payload["storage"] = storage
            payload["plan_cache"] = self.db.interpreter.plan_cache.stats()
            return payload, False
        if op == "bye":
            return {"ok": True, "message": "goodbye"}, True
        raise ProtocolError(f"unknown op {op!r}")


class ServerThread:
    """An :class:`ExcessServer` on a daemon thread's event loop.

    The blocking shape tests, benchmarks, and the CLI want::

        server = ServerThread(db)
        host, port = server.start()
        ...
        server.stop()
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.server = ExcessServer(database, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def db(self) -> Database:
        return self.server.db

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise self._startup_error
        assert self.server.address is not None
        return self.server.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # bind failure and the like
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            # drain on the loop *before* stopping it: loop.stop() alone
            # leaves the sessions of still-connected clients open
            # mid-transaction until the GC finds them
            try:
                asyncio.run_coroutine_threadsafe(
                    self.server.drain(), self._loop
                ).result(timeout=10.0)
            except Exception:  # pragma: no cover - drain timed out/raced
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._loop = None
        self._thread = None


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - CLI glue
    """``python -m repro.server`` — serve a database over TCP."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.server",
        description="EXTRA/EXCESS network server (EXODUS reproduction)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8727)
    parser.add_argument(
        "--open", metavar="DIR",
        help="serve a durable database rooted at DIR (WAL + recovery)",
    )
    parser.add_argument(
        "--storage", choices=["memory", "paged"], default="memory",
        help="object store for a fresh in-memory database",
    )
    parser.add_argument(
        "--max-connections", type=int, default=64,
        help="admission limit; further connects get a retryable refusal",
    )
    options = parser.parse_args(argv)

    if options.open:
        db = Database.open(options.open)
    else:
        db = Database(storage=options.storage)

    async def serve() -> None:
        import signal

        server = ExcessServer(
            db,
            host=options.host,
            port=options.port,
            max_connections=options.max_connections,
        )
        host, port = await server.start()
        print(f"extra-excess server listening on {host}:{port}")
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stopping.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        forever = asyncio.ensure_future(server.serve_forever())
        waiter = asyncio.ensure_future(stopping.wait())
        try:
            await asyncio.wait(
                {forever, waiter}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (forever, waiter):
                task.cancel()
            # graceful: finish in-flight statements, abort open
            # transactions, checkpoint durable state, close connections
            await server.drain()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        db.close()
    return 0
