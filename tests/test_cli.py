"""Tests for the interactive shell and script runner."""

import io
import os


from repro import Database
from repro.cli import Shell, main


def run_shell(lines: list[str], database=None, snapshot_path=None) -> str:
    out = io.StringIO()
    shell = Shell(database=database or Database(), out=out,
                  snapshot_path=snapshot_path)
    stdin = io.StringIO("".join(line + "\n" for line in lines))
    shell.repl(stdin=stdin, interactive=False)
    return out.getvalue()


class TestRepl:
    def test_simple_statement(self):
        output = run_shell([
            "create Date Today",
            'set Today = Date("7/4/1988")',
            "retrieve (Today)",
        ])
        assert "7/4/1988" in output
        assert "created Today" in output

    def test_multi_line_statement(self):
        output = run_shell([
            "define type Person as (",
            "  name: char(30),",
            "  age: int4",
            ")",
            "create {own ref Person} People",
            'append to People (name = "Sue", age = 40)',
            "retrieve (P.name) from P in People",
        ])
        assert "Sue" in output
        assert "(1 row(s))" in output

    def test_semicolon_forces_boundary(self):
        output = run_shell(["create Date Today;", "retrieve (Today)"])
        assert "null" in output

    def test_error_reported_not_fatal(self):
        output = run_shell([
            "retrieve (Nothing.here)",
            "create Date Today",
        ])
        assert "error:" in output
        assert "created Today" in output

    def test_quit(self):
        output = run_shell(["\\quit", "create Date Today"])
        assert "created" not in output


class TestPlanCacheDisplay:
    def test_timing_tells_shape_hits_from_text_hits(self):
        output = run_shell([
            "\\timing on",
            "define type Person as (name: char(30), age: int4)",
            "create {own ref Person} People",
            'append to People (name = "Sue", age = 40)',
            'append to People (name = "Bob", age = 30)',
            "retrieve (P.name) from P in People where P.age > 35",
            "retrieve (P.name) from P in People where P.age > 25",
            "retrieve (P.name) from P in People where P.age > 35",
            "\\plancache",
        ])
        statuses = [
            line.split("plan-cache: ")[1]
            for line in output.splitlines() if "plan-cache: " in line
        ]
        assert statuses == [
            "n/a", "n/a", "miss", "hit(shape)", "miss", "hit(shape)", "hit",
        ]
        assert (
            "plan cache: entries=2 hits=3 misses=2 shapes=2 pinned_slots=0"
            in output
        )


class TestMetaCommands:
    def test_help(self):
        assert "meta command" in run_shell(["\\help"]).lower()

    def test_stats(self):
        assert "objects:" in run_shell(["\\stats"])

    def test_schema(self):
        output = run_shell([
            "define type Person as (name: char(10))",
            "create {own ref Person} People",
            "\\schema",
        ])
        assert "type Person" in output
        assert "object People" in output

    def test_unknown_meta(self):
        assert "unknown meta command" in run_shell(["\\bogus"])

    def test_user_switch_and_authz(self):
        db = Database()
        db.execute("define type T as (x: int4)")
        db.execute("create {own ref T} S")
        output = run_shell(
            ["\\authz on", "\\user intruder", "retrieve (M.x) from M in S"],
            database=db,
        )
        assert "lacks 'select'" in output

    def test_optimizer_toggle(self):
        output = run_shell(["\\optimizer off", "\\optimizer on"])
        assert "optimizer off" in output
        assert "optimizer on" in output

    def test_stats_without_statistics_hints_analyze(self):
        output = run_shell(["\\stats"])
        assert "set statistics: none (run \\analyze)" in output

    def test_analyze_then_stats_shows_per_set_section(self):
        db = Database()
        db.execute("define type T as (x: int4)")
        db.execute("create {own ref T} S")
        db.insert("S", x=1)
        db.insert("S", x=2)
        output = run_shell(["\\analyze", "\\stats"], database=db)
        assert "analyzed S" in output
        assert "S: cardinality=2" in output
        assert "(fresh)" in output

    def test_analyze_one_set(self):
        db = Database()
        db.execute("define type T as (x: int4)")
        db.execute("create {own ref T} S")
        output = run_shell(["\\analyze S"], database=db)
        assert "analyzed S" in output

    def test_stats_marks_stale_sets(self):
        db = Database()
        db.execute("define type T as (x: int4)")
        db.execute("create {own ref T} S")
        db.insert("S", x=0)
        db.analyze("S")
        limit = db.catalog.statistics.get("S").churn_limit()
        for i in range(limit + 1):
            db.insert("S", x=i)
        output = run_shell(["\\stats"], database=db)
        assert "(stale)" in output

    def test_save_and_load(self, tmp_path):
        path = os.path.join(tmp_path, "x.snap")
        output = run_shell([
            "create Date Today",
            f"\\save {path}",
            "destroy Today",
            f"\\load {path}",
            "retrieve (Today)",
        ])
        assert "saved" in output
        assert "loaded" in output
        assert "null" in output  # Today exists again (value null)


class TestMain:
    def test_script_execution(self, tmp_path):
        script = os.path.join(tmp_path, "setup.excess")
        with open(script, "w") as handle:
            handle.write(
                "define type T as (x: int4)\n"
                "create {own ref T} S\n"
                "append to S (x = 7)\n"
                "retrieve (M.x) from M in S\n"
            )
        out = io.StringIO()
        code = main([script], stdin=io.StringIO(""), stdout=out)
        assert code == 0
        assert "7" in out.getvalue()

    def test_script_missing_file(self, tmp_path):
        out = io.StringIO()
        code = main(
            [os.path.join(tmp_path, "nope.excess")],
            stdin=io.StringIO(""), stdout=out,
        )
        assert code == 1
        assert "cannot read" in out.getvalue()

    def test_database_snapshot_round_trip(self, tmp_path):
        path = os.path.join(tmp_path, "db.snap")
        script = os.path.join(tmp_path, "make.excess")
        with open(script, "w") as handle:
            handle.write("define type T as (x: int4)\ncreate {own ref T} S\n")
        out = io.StringIO()
        assert main([script, "--database", path],
                    stdin=io.StringIO(""), stdout=out) == 0
        assert os.path.exists(path)
        # reopen: the schema is still there
        out2 = io.StringIO()
        stdin = io.StringIO("retrieve (count(M.x)) from M in S\n")
        assert main(["--database", path], stdin=stdin, stdout=out2) == 0
        assert "0" in out2.getvalue()

    def test_repl_banner(self):
        out = io.StringIO()
        main([], stdin=io.StringIO("\\quit\n"), stdout=out)
        assert "EXTRA/EXCESS shell" in out.getvalue()
