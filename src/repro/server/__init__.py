"""A multi-session network front end for the EXTRA/EXCESS engine.

EXODUS positioned the storage manager and type system behind
application-level servers (paper §2); this package reproduces the user
contract: an asyncio TCP server that fronts one :class:`Database` with
many concurrent client *sessions*, each an isolated
:class:`~repro.core.session.SessionContext` with its own range
declarations, flag overrides, and snapshot-isolated transactions.

Wire protocol (see :mod:`repro.server.protocol`): length-prefixed UTF-8
JSON messages, documented in ``docs/LANGUAGE.md``.

* :class:`ExcessServer` — the asyncio server (one frame-parsing
  protocol per connection; statements run one at a time on the event
  loop thread, exactly matching the MVCC workspace-parking model).
* :class:`ServerThread` — runs a server on a background thread's event
  loop (tests, benchmarks, the CLI).
* :class:`Client` — a blocking socket client; ``query()`` returns a
  regular :class:`~repro.excess.result.Result`.
"""

from repro.server.client import Client, RemoteError, RetryPolicy
from repro.server.protocol import MAX_MESSAGE, PROTOCOL_VERSION
from repro.server.server import ExcessServer, ServerThread, main

__all__ = [
    "Client",
    "ExcessServer",
    "MAX_MESSAGE",
    "PROTOCOL_VERSION",
    "RemoteError",
    "RetryPolicy",
    "ServerThread",
    "main",
]
