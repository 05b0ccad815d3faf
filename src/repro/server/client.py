"""A blocking client for the EXTRA/EXCESS wire protocol.

Used by the CLI's ``\\connect``, the tests, and the benchmark's worker
processes. ``query()`` reconstructs a regular
:class:`~repro.excess.result.Result` from the response payload, so code
written against the embedded API (including the shell's result
printer) works unchanged against a remote server.

Two deadlines govern the socket: ``timeout`` bounds the *connect* (and
the hello handshake), ``read_timeout`` bounds each *response read*. A
long-running statement that outlives ``read_timeout`` surfaces as a
clean :class:`RemoteError` with ``retryable = True`` and closes the
connection (the response stream would otherwise desynchronize — the
late reply has no request to pair with).

``with_retries()`` runs a callable under a :class:`RetryPolicy`:
retryable failures (commit conflicts, statement timeouts, server
overload, clean disconnects) are retried with exponential backoff and
jitter, reconnecting a fresh session when the connection was lost.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar

from repro.errors import ExtraError
from repro.excess.result import Result
from repro.server.protocol import ProtocolError, encode_message, read_message

__all__ = ["Client", "RemoteError", "RetryPolicy"]

_T = TypeVar("_T")


class RemoteError(ExtraError):
    """An error reported by the server (or a client-side read timeout).

    ``remote_type`` is the server-side exception class name;
    ``serialization`` is True for snapshot-isolation conflicts (the
    canonical client response is to abort and retry the transaction);
    ``retryable`` is True for any transient failure the client may
    retry verbatim — conflicts, statement timeouts, admission refusals,
    and local read timeouts.
    """

    def __init__(self, message: str, remote_type: str = "ExtraError",
                 serialization: bool = False, retryable: bool = False):
        super().__init__(message)
        self.remote_type = remote_type
        self.serialization = serialization
        self.retryable = retryable or serialization


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter.

    ``attempts`` counts total tries (first + retries); delay before
    retry *n* is ``min(max_delay, base_delay * 2**n)``, scaled by a
    uniform random factor when ``jitter`` is on so synchronized
    retriers spread out.
    """

    attempts: int = 5
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: bool = True

    def delay(self, attempt: int) -> float:
        backoff = min(self.max_delay, self.base_delay * (2 ** attempt))
        if self.jitter:
            backoff *= random.random()
        return backoff


class Client:
    """One connection = one server-side session."""

    def __init__(
        self,
        host: str,
        port: int,
        user: Optional[str] = None,
        name: Optional[str] = None,
        timeout: Optional[float] = 30.0,
        read_timeout: Optional[float] = None,
    ):
        self.host = host
        self.port = port
        self._user = user
        self._name = name
        self.connect_timeout = timeout
        self.read_timeout = read_timeout
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.closed = False
        try:
            hello = self.call(
                {"op": "hello", "user": self._user, "name": self._name}
            )
        except RemoteError:  # refused, e.g. by max_connections
            self._drop()
            raise
        self.session = hello["session"]
        self.user = hello["user"]
        self.protocol = hello["protocol"]
        # the connect deadline covered create_connection and the hello
        # round trip; from here on reads run under read_timeout
        self._sock.settimeout(self.read_timeout)

    def reconnect(self) -> None:
        """Open a fresh connection (and a fresh server-side session)."""
        if not self.closed:
            self.close()
        self._connect()

    # -- request/response --------------------------------------------------

    def call(self, request: dict) -> dict:
        """One round trip; raises :class:`RemoteError` on an error
        response or a read timeout, and :class:`ProtocolError` (or the
        ``OSError`` that broke the stream) on a dropped connection."""
        frame = encode_message(request)
        try:
            self._sock.sendall(frame)
            response = read_message(self._sock)
        except socket.timeout:
            # a late reply would desynchronize the stream; drop the
            # connection so the next attempt starts clean
            self._drop()
            raise RemoteError(
                f"no response within read_timeout={self.read_timeout}s",
                remote_type="ReadTimeout",
                retryable=True,
            ) from None
        except (OSError, ProtocolError):  # a broken or torn stream
            self._drop()
            raise
        if response is None:
            self._drop()
            raise ProtocolError("server closed the connection")
        if not response.get("ok"):
            error = response.get("error") or {}
            raise RemoteError(
                error.get("message", "unknown server error"),
                remote_type=error.get("type", "ExtraError"),
                serialization=bool(error.get("serialization")),
                retryable=bool(error.get("retryable")),
            )
        return response

    # -- retries -----------------------------------------------------------

    def with_retries(
        self,
        fn: Callable[["Client"], _T],
        policy: Optional[RetryPolicy] = None,
    ) -> _T:
        """Run ``fn(self)`` until it succeeds or retries are exhausted.

        Retries on retryable :class:`RemoteError` (conflicts, timeouts,
        overload) and on clean disconnects (:class:`ProtocolError` /
        :class:`ConnectionError`), reconnecting a fresh session first.
        ``fn`` must be a complete retryable unit — e.g. a whole
        begin/.../commit sequence — since a reconnect abandons any
        transaction that was open on the old session.
        """
        policy = policy or RetryPolicy()
        last: Optional[BaseException] = None
        for attempt in range(policy.attempts):
            if self.closed:
                try:
                    self.reconnect()
                except (OSError, ProtocolError, RemoteError) as exc:
                    last = exc
                    time.sleep(policy.delay(attempt))
                    continue
            try:
                return fn(self)
            except RemoteError as exc:
                if not exc.retryable:
                    raise
                last = exc
            except (ProtocolError, ConnectionError) as exc:
                self._drop()
                last = exc
            time.sleep(policy.delay(attempt))
        assert last is not None
        raise last

    # -- the session API ---------------------------------------------------

    def query(
        self, text: str, retry_policy: Optional[RetryPolicy] = None
    ) -> Result:
        """Run EXCESS statements in this session; an optional
        ``retry_policy`` retries transient failures (see
        :meth:`with_retries`)."""
        if retry_policy is not None:
            return self.with_retries(
                lambda client: client._query_once(text), retry_policy
            )
        return self._query_once(text)

    def _query_once(self, text: str) -> Result:
        payload = self.call({"op": "query", "text": text})
        result = Result(
            kind=payload["kind"],
            columns=payload["columns"],
            rows=[tuple(row) for row in payload["rows"]],
            count=payload["count"],
            message=payload["message"],
            metrics=payload["metrics"],
        )
        result._plan_tree = payload.get("plan")
        return result

    execute = query  # embedded-API spelling

    def begin(self) -> None:
        self.call({"op": "begin"})

    def commit(self) -> None:
        self.call({"op": "commit"})

    def abort(self) -> None:
        self.call({"op": "abort"})

    def set_flag(self, flag: str, value: Any) -> None:
        """Install a session-local ablation override."""
        self.call({"op": "set", "flag": flag, "value": value})

    def status(self) -> dict:
        return self.call({"op": "status"})

    def close(self) -> None:
        if self.closed:
            return
        try:
            self._sock.sendall(encode_message({"op": "bye"}))
            read_message(self._sock)
        except (OSError, ProtocolError):  # pragma: no cover - best effort
            pass
        finally:
            self._drop()

    def _drop(self) -> None:
        """Mark the connection gone and release its socket — on every
        path that abandons it, so no socket is left to the GC."""
        self.closed = True
        self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
