#!/usr/bin/env python3
"""Static checks on the benchmark itself (no engine needed).

* **fork-free**: no file under ``benchmarks/e2e/`` may import
  ``subprocess``, use ``multiprocessing.Process`` or call ``os.fork`` —
  the benchmark is one process so that nothing can outlive it.
* **BENCHMARK.json**: the limits of the driver's contract (key set,
  name/unit alphabets, counts, bounds, ``setup_s``).
* ``check.py --trace FILE``: every operation's span self times sum to
  the operation's duration.

Exit code 0 when everything holds; problems are listed on stderr.
"""

from __future__ import annotations

import ast
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def forbidden_uses(path: str) -> list[str]:
    """Process-spawning constructs in one source file."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "subprocess":
                    found.append(f"{path}:{node.lineno}: imports subprocess")
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            names = {alias.name for alias in node.names}
            if module == "subprocess":
                found.append(f"{path}:{node.lineno}: imports subprocess")
            if module == "multiprocessing" and "Process" in names:
                found.append(f"{path}:{node.lineno}: imports multiprocessing.Process")
            if module == "os" and names & {"fork", "forkpty"}:
                found.append(f"{path}:{node.lineno}: imports os.fork")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            use = (node.value.id, node.attr)
            if use in {("multiprocessing", "Process"), ("os", "fork"),
                       ("os", "forkpty")}:
                found.append(f"{path}:{node.lineno}: uses {use[0]}.{use[1]}")
    return found


def check_fork_free() -> list[str]:
    problems = []
    for directory, _dirs, files in os.walk(HERE):
        for name in files:
            if name.endswith(".py"):
                problems += forbidden_uses(os.path.join(directory, name))
    return problems


def check_spec() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    if set(spec) != KEYS:
        problems.append(f"keys {sorted(spec)} != {sorted(KEYS)}")
        return problems
    if not 1 <= len(spec["paths"]) <= 16 or not all(
        PATH_RE.fullmatch(p) and not p.startswith("/") and ".." not in p
        for p in spec["paths"]
    ):
        problems.append("paths out of limits")
    if not 1 <= len(spec["command"]) <= 32:
        problems.append("command out of limits")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds out of limits")
    for section, low, high in (
        ("workloads", 2, 8), ("end_to_end", 1, 16), ("per_layer", 1, 128)
    ):
        if not low <= len(spec[section]) <= high:
            problems.append(f"{section}: {len(spec[section])} entries")
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in spec[section]]
    for name in names:
        if not NAME_RE.fullmatch(name):
            problems.append(f"malformed name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for workload in spec["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200 \
                or "\n" in workload["why"]:
            problems.append(f"workload {workload.get('name')}: bad entry")
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"}:
            problems.append(f"{metric.get('name')}: keys")
        elif not 0 < metric["bound"] <= 0.25:
            problems.append(f"{metric['name']}: bound {metric['bound']}")
    for metric in spec["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            problems.append(f"{metric.get('name')}: keys")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT_RE.fullmatch(metric.get("unit", "")):
            problems.append(f"{metric.get('name')}: unit")
        if metric.get("better") not in ("lower", "higher"):
            problems.append(f"{metric.get('name')}: better")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or mis-declared")
    return problems


def check_trace(path: str) -> list[str]:
    sys.path.insert(0, HERE)
    from trace import check_self_times

    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    broken = check_self_times(doc["spans"])
    return [f"{path}: {broken} operations whose self times do not sum"] if broken else []


def main(argv: list[str]) -> int:
    problems = check_fork_free() + check_spec()
    if len(argv) == 2 and argv[0] == "--trace":
        problems += check_trace(argv[1])
    for problem in problems:
        print(f"check.py: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
