"""An interactive EXCESS shell and script runner.

Usage::

    python -m repro                      # interactive REPL
    python -m repro script.excess        # run a script file
    python -m repro --database db.snap   # open (and save on exit) a snapshot

Inside the REPL, statements may span lines; a statement is executed when
it parses completely (end with ``;`` to force a boundary). Meta commands
start with a backslash:

==============  =====================================================
``\\help``       show this help
``\\quit``       exit (saving the snapshot when one was opened)
``\\stats``      engine statistics + per-set optimizer statistics
``\\analyze [SET]``     rebuild optimizer statistics (all sets or one)
``\\save PATH``  snapshot the database to PATH
``\\load PATH``  replace the session database with a snapshot
``\\open DIR``   open a durable database (WAL + crash recovery) in DIR
``\\checkpoint`` snapshot durable state and truncate the WAL
``\\wal``        show write-ahead-log status (durable databases)
``\\storage``    buffer-pool / disk / object-cache counters (paged stores)
``\\vacuum``     compact the paged store (squeeze holes, free dead pages)
``\\plancache``  plan-cache counters: entries, hits/misses, shapes, pinned slots
``\\connect HOST PORT [USER]``  attach to a network server (own session)
``\\disconnect`` detach from the server, back to the local database
``\\user NAME``  switch the session user (authorization applies)
``\\authz on|off``      toggle authorization enforcement
``\\optimizer on|off``  toggle the query optimizer (for comparisons)
``\\compile on|off``    toggle compiled expression closures (ablation)
``\\exec MODE``  execution mode: ``fused`` | ``batch`` | ``row`` (ablation)
``\\batch N``    rows per batch in batch execution mode
``\\timeout MS`` statement timeout in milliseconds (0 disables)
``\\budget BYTES``      operator memory budget; spill to disk beyond it
``\\timing on|off``     print per-statement wall time + plan-cache hit/miss
``\\schema``     list types and named objects
==============  =====================================================
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import IO, Optional

from repro.core.database import Database
from repro.errors import ExcessError, ExtraError, LexicalError, ParseError
from repro.excess.interpreter import FLAG_VALUES
from repro.excess.result import Result

__all__ = ["Shell", "main"]

_PROMPT = "excess> "
_CONTINUATION = "   ...> "


def _int_arg(args: list[str]) -> object:
    """A meta command's argument as an integer when it reads as one;
    anything else goes to the flag setter as typed, which rejects it
    with the interpreter's own error."""
    text = " ".join(args)
    try:
        return int(text)
    except ValueError:
        return text


class Shell:
    """The REPL engine, separated from I/O for testability."""

    def __init__(
        self,
        database: Optional[Database] = None,
        out: IO[str] = sys.stdout,
        snapshot_path: Optional[str] = None,
        timing: bool = False,
    ):
        self.db = database if database is not None else Database()
        self.out = out
        self.snapshot_path = snapshot_path
        self.user = self.db.authz.directory.dba
        self.timing = timing
        self.done = False
        #: when connected to a network server, statements route there
        self.remote = None

    # -- output -----------------------------------------------------------------

    def _write(self, text: str) -> None:
        self.out.write(text + "\n")

    def show_result(self, result: Result) -> None:
        """Print a statement result."""
        if result.columns:
            self._write(result.pretty())
            self._write(f"({len(result.rows)} row(s))")
            if result.message:  # explain carries the optimizer summary
                self._write(result.message)
            if result.kind == "explain" and result.plan_tree:
                self._write(result.plan_tree)
        elif result.message:
            self._write(result.message)
        else:
            self._write(f"{result.kind}: {result.count}")

    def _write_set_statistics(self) -> None:
        """The per-set section of ``\\stats``: optimizer statistics."""
        statistics = self.db.catalog.statistics
        names = statistics.analyzed_sets()
        if not names:
            self._write("set statistics: none (run \\analyze)")
            return
        self._write("set statistics:")
        for name in sorted(names):
            stats = statistics.get(name)
            state = "stale" if stats.stale else "fresh"
            self._write(
                f"  {name}: cardinality={stats.analyzed_cardinality} "
                f"analyzed@v{stats.analyzed_version} "
                f"churn={stats.churn}/{stats.churn_limit()} ({state})"
            )

    # -- statement handling ----------------------------------------------------------

    def execute(self, text: str) -> None:
        """Run one complete EXCESS input (may hold several statements)."""
        start = time.perf_counter()
        try:
            if self.remote is not None:
                result = self.remote.query(text)
            else:
                result = self.db.execute(text, user=self.user)
        except ExtraError as exc:
            self._write(f"error: {exc}")
            return
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.show_result(result)
        if self.timing:
            metrics = result.metrics or {}
            cache = metrics.get("cache") or "n/a"
            if metrics.get("shape_hit"):
                # the plan was prepared for other literal values
                cache += "(shape)"
            self._write(f"time: {elapsed_ms:.3f} ms  plan-cache: {cache}")

    def is_complete(self, text: str) -> bool:
        """Heuristic: does ``text`` parse as complete statement(s)?

        Incomplete input (errors at end-of-input) returns False so the
        REPL keeps reading; any other parse error counts as complete —
        executing it will surface the error to the user.
        """
        from repro.excess.lexer import Lexer
        from repro.excess.parser import Parser

        stripped = text.strip()
        if not stripped:
            return False
        if stripped.endswith(";"):
            return True
        try:
            table = self.db.interpreter._operator_table()
            lexer = Lexer(text, extra_symbols=table.punctuation_symbols())
            tokens = lexer.tokens()
            Parser(tokens, table).parse_script()
            return True
        except (ParseError, LexicalError) as exc:
            eof_line = text.count("\n") + 1
            # an error on the last line usually means "keep typing"
            return getattr(exc, "line", 0) < eof_line

    # -- meta commands ------------------------------------------------------------------

    def meta(self, line: str) -> None:
        """Handle a backslash meta command."""
        parts = line[1:].split()
        command = parts[0] if parts else ""
        args = parts[1:]
        if command in ("quit", "q", "exit"):
            if self.remote is not None:
                self.remote.close()
                self.remote = None
            if self.snapshot_path:
                size = self.db.save(self.snapshot_path)
                self._write(f"saved {size} bytes to {self.snapshot_path}")
            self.done = True
        elif command == "help":
            self._write(__doc__ or "")
        elif command == "stats":
            for key, value in self.db.stats().items():
                self._write(f"{key}: {value}")
            self._write_set_statistics()
        elif command == "analyze":
            text = "analyze " + args[0] if args else "analyze"
            self.execute(text)
        elif command == "save" and args:
            size = self.db.save(args[0])
            self._write(f"saved {size} bytes to {args[0]}")
        elif command == "load" and args:
            self.db = Database.load(args[0])
            self._write(f"loaded {args[0]}")
        elif command == "open" and args:
            self.db.close()  # release a previous durable session's WAL
            self.db = Database.open(args[0])
            status = self.db.durability.status()
            self._write(
                f"opened durable database in {args[0]} "
                f"(next LSN {status['next_lsn']})"
            )
        elif command == "checkpoint":
            if self.db.durability is None:
                self._write(
                    "not in durable mode — use \\open DIR to open a "
                    "durable database first"
                )
                return
            try:
                info = self.db.checkpoint()
            except ExtraError as exc:
                self._write(f"error: {exc}")
            else:
                self._write(
                    f"checkpointed {info['bytes']} bytes through "
                    f"LSN {info['wal_lsn']}"
                )
        elif command == "plancache":
            stats = self.db.interpreter.plan_cache.stats()
            self._write(
                "plan cache: "
                + " ".join(f"{name}={value}" for name, value in stats.items())
            )
        elif command == "storage":
            info = self.db.storage_stats()
            if not info:
                self._write(
                    "storage: memory object store (no page substrate); "
                    "start with --storage paged for counters"
                )
                return
            self._write(
                f"store: mode={info['store_mode']} pages={info['pages']}"
            )
            buffer = info["buffer"]
            self._write(
                f"buffer: capacity={buffer['capacity']} "
                f"cached={buffer['cached']} hits={buffer['hits']} "
                f"misses={buffer['misses']} "
                f"hit_ratio={buffer['hit_ratio']:.3f} "
                f"evictions={buffer['evictions']} "
                f"dirty_writebacks={buffer['dirty_writebacks']}"
            )
            disk = info["disk"]
            self._write(
                f"disk: reads={disk['reads']} writes={disk['writes']} "
                f"allocations={disk['allocations']} frees={disk['frees']} "
                f"syncs={disk['syncs']}"
            )
            cache = info["object_cache"]
            capacity = cache["capacity"]
            self._write(
                f"object cache: capacity="
                f"{'unbounded' if capacity is None else capacity} "
                f"live={cache['live']} pinned={cache['pinned']} "
                f"dirty={cache['dirty']} hits={cache['hits']} "
                f"faults={cache['faults']} evictions={cache['evictions']} "
                f"writebacks={cache['writebacks']} "
                f"peak_live={cache['peak_live']}"
            )
        elif command == "vacuum":
            dangling = self.db.integrity.vacuum()
            report = self.db.compact()
            if report:
                self._write(
                    f"vacuum: {dangling} dangling ref(s) removed, "
                    f"{report['records_moved']} record(s) migrated, "
                    f"{report['pages_freed']} page(s) freed, "
                    f"{report['slots_trimmed']} slot(s) trimmed"
                )
            else:
                self._write(
                    f"vacuum: {dangling} dangling ref(s) removed "
                    "(memory store — no pages to compact)"
                )
        elif command == "wal":
            if self.db.durability is None:
                self._write(
                    "not in durable mode — use \\open DIR to open a "
                    "durable database first"
                )
            else:
                for key, value in self.db.durability.status().items():
                    self._write(f"{key}: {value}")
        elif command == "connect":
            if not (2 <= len(args) <= 3):
                self._write("usage: \\connect HOST PORT [USER]")
                return
            try:
                port = int(args[1])
            except ValueError:
                self._write(f"error: PORT must be an integer, got {args[1]!r}")
                return
            from repro.server.client import Client

            if self.remote is not None:
                self.remote.close()
                self.remote = None
            user = args[2] if len(args) == 3 else self.user
            try:
                self.remote = Client(args[0], port, user=user)
            except OSError as exc:
                self._write(f"error: cannot connect to {args[0]}:{port}: {exc}")
                return
            self._write(
                f"connected to {args[0]}:{port} as {self.remote.user} "
                f"(session {self.remote.session})"
            )
        elif command == "disconnect":
            if self.remote is None:
                self._write("not connected")
            else:
                self.remote.close()
                self.remote = None
                self._write("disconnected (statements run locally again)")
        elif command == "user" and args:
            self.db.authz.directory.add_user(args[0])
            self.user = args[0]
            self._write(f"now acting as {args[0]}")
        elif command == "authz" and args:
            self.db.authz.enabled = args[0] == "on"
            self._write(f"authorization {'on' if self.db.authz.enabled else 'off'}")
        elif command == "optimizer" and args:
            self.db.interpreter.optimize = args[0] == "on"
            state = "on" if self.db.interpreter.optimize else "off"
            self._write(f"optimizer {state}")
        elif command == "compile":
            # the shell says on|off; "on" is the interpreter's "closure"
            mode = "closure" if args == ["on"] else " ".join(args)
            try:
                self.db.interpreter.compile_mode = mode
            except ExcessError as exc:
                self._write(f"usage: \\compile on|off ({exc})")
                return
            self._write(f"expression compilation {mode}")
        elif command == "exec":
            try:
                self.db.interpreter.exec_mode = " ".join(args)
            except ExcessError as exc:
                usage = "|".join(FLAG_VALUES["exec_mode"])
                self._write(f"usage: \\exec {usage} ({exc})")
                return
            self._write(f"execution mode {args[0]}")
        elif command == "batch":
            try:
                self.db.interpreter.batch_size = _int_arg(args)
            except ExcessError as exc:
                self._write(f"usage: \\batch N ({exc})")
                return
            self._write(f"batch size {self.db.interpreter.batch_size}")
        elif command == "timeout":
            try:
                self.db.interpreter.statement_timeout_ms = _int_arg(args)
            except ExcessError as exc:
                self._write(
                    f"usage: \\timeout MS (milliseconds, 0 disables; {exc})"
                )
                return
            ms = self.db.interpreter.statement_timeout_ms
            self._write(
                f"statement timeout {ms} ms" if ms else "statement timeout off"
            )
        elif command == "budget":
            try:
                self.db.interpreter.memory_budget = _int_arg(args)
            except ExcessError as exc:
                self._write(
                    f"usage: \\budget BYTES (0 disables spilling; {exc})"
                )
                return
            budget = self.db.interpreter.memory_budget
            self._write(
                f"memory budget {budget} bytes (operators spill beyond it)"
                if budget else "memory budget off"
            )
        elif command == "timing" and args:
            self.timing = args[0] == "on"
            self._write(f"timing {'on' if self.timing else 'off'}")
        elif command == "schema":
            for name in self.db.catalog.type_names():
                self._write(f"type {self.db.type(name).describe_full()}")
            for name in self.db.catalog.named_names():
                named = self.db.named(name)
                self._write(f"object {name}: {named.spec.describe()}")
        else:
            self._write(f"unknown meta command \\{command} (try \\help)")

    # -- loops ---------------------------------------------------------------------------

    def run_script(self, text: str) -> None:
        """Execute a whole script, printing each statement's result."""
        self.execute(text)

    def repl(self, stdin: IO[str] = sys.stdin, interactive: bool = True) -> None:
        """Read-eval-print until EOF or \\quit."""
        buffer: list[str] = []
        while not self.done:
            if interactive:
                prompt = _CONTINUATION if buffer else _PROMPT
                self.out.write(prompt)
                self.out.flush()
            line = stdin.readline()
            if not line:
                break
            if not buffer and line.strip().startswith("\\"):
                self.meta(line.strip())
                continue
            buffer.append(line)
            text = "".join(buffer)
            if self.is_complete(text):
                buffer = []
                self.execute(text.rstrip().rstrip(";"))


def main(argv: Optional[list[str]] = None, stdin: IO[str] = sys.stdin,
         stdout: IO[str] = sys.stdout) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EXTRA/EXCESS interactive shell (EXODUS reproduction)",
    )
    parser.add_argument(
        "script", nargs="?", help="EXCESS script file to execute"
    )
    parser.add_argument(
        "--database", "-d", metavar="PATH",
        help="snapshot to load (created on \\quit if missing)",
    )
    parser.add_argument(
        "--storage", choices=["memory", "paged"], default="memory",
        help="object store for a fresh database",
    )
    parser.add_argument(
        "--time", action="store_true", dest="timing",
        help="print per-statement wall time and plan-cache hit/miss",
    )
    options = parser.parse_args(argv)

    import os

    if options.database and os.path.exists(options.database):
        database = Database.load(options.database)
    else:
        database = Database(storage=options.storage)
    shell = Shell(
        database=database, out=stdout, snapshot_path=options.database,
        timing=options.timing,
    )
    if options.script:
        try:
            with open(options.script) as handle:
                shell.run_script(handle.read())
        except OSError as exc:
            stdout.write(f"error: cannot read {options.script}: {exc}\n")
            return 1
        if options.database:
            database.save(options.database)
        return 0
    stdout.write(
        "EXTRA/EXCESS shell — the EXODUS data model and query language.\n"
        "Type \\help for meta commands, \\quit to exit.\n"
    )
    shell.repl(stdin=stdin, interactive=stdin.isatty())
    return 0
