"""Statement coverage of ``src/gcgmp`` over the tier-1 suite, standard library only.

Run from the repository root::

    python tools/linecov.py            # the whole suite
    python tools/linecov.py tests/test_checker.py -k Bounded

Arguments go to pytest after the tier-1 options.  The suite runs in this
process under a ``sys.settrace`` collector that follows only frames of
``src/gcgmp``, so it takes about four times as long as a plain run.
``PYTHONPATH`` gains ``src`` for the tests that start the command line in a
subprocess; those processes are not traced.  A statement counts as run when
its first line with bytecode produced a line event.  The report lists, per
module, the statements that never ran, as line ranges.  Tests that fail only
under the collector, such as wall-clock bounds, show in pytest's own output
above the report, and the exit status is pytest's.

After the statements, the report lists each public top-level name of
``src/gcgmp`` that no file under ``src``, ``bench`` or ``tools`` mentions
outside its own definition, by a plain text search for the word.  Such a
name is called only from tests, or from nowhere.  Last come the line count
of each module of ``src/gcgmp`` and their total, the size the design
metric tracks.
"""

from __future__ import annotations

import ast
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "gcgmp") + os.sep
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def statement_lines(path: str) -> list[int]:
    """First line of every statement that compiles to bytecode."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    with_code = set()
    todo = [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    stmts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            span = range(node.lineno, node.end_lineno + 1)
            line = next((n for n in span if n in with_code), None)
            if line is not None:
                stmts.add(line)
    return sorted(stmts)


def top_level_names(path: str):
    """Public names a module defines at top level, each with the line span
    of its definition."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            ends = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in ends if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, range(node.lineno, node.end_lineno + 1)


def unreferenced(modules: list[str]) -> list[str]:
    """``module.name`` for each public top-level name of ``modules`` that no
    Python file under ``src``, ``bench`` or ``tools`` mentions outside its own
    definition."""
    lines = {}
    for top in ("src", "bench", "tools"):
        for base, _, files in os.walk(os.path.join(ROOT, top)):
            for f in files:
                if f.endswith(".py"):
                    path = os.path.join(base, f)
                    with open(path, encoding="utf-8") as fh:
                        lines[path] = fh.read().splitlines()
    out = []
    for path in modules:
        for name, span in top_level_names(path):
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(line)
                       for other, text in lines.items()
                       for n, line in enumerate(text, 1)
                       if not (other == path and n in span)):
                out.append(f"{os.path.basename(path)[:-3]}.{name}")
    return out


def ranges(missed: list[int], stmts: list[int]) -> str:
    """Missed lines joined into runs of statements that are next to each other."""
    pos = {line: i for i, line in enumerate(stmts)}
    runs: list[list[int]] = []
    for line in missed:
        if runs and pos[line] == pos[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def main(argv: list[str]) -> int:
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    sys.path.insert(0, SRC)
    import pytest

    hits: dict[str, set] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PACKAGE):
            return None
        hits.setdefault(name, set())
        return local

    os.chdir(ROOT)
    sys.settrace(global_)
    try:
        status = pytest.main(TIER1 + argv)
    finally:
        sys.settrace(None)

    total = run = 0
    modules = [os.path.join(PACKAGE, m) for m in sorted(os.listdir(PACKAGE)) if m.endswith(".py")]
    print("\nstatements of src/gcgmp that never ran:")
    for path in modules:
        module = os.path.basename(path)
        stmts = statement_lines(path)
        missed = [line for line in stmts if line not in hits.get(path, ())]
        total += len(stmts)
        run += len(stmts) - len(missed)
        print(f"  {module}: {len(missed)} of {len(stmts)}"
              + (f": {ranges(missed, stmts)}" if missed else ""))
    print(f"  all: {total - run} of {total} never ran; pytest exit status {int(status)}")
    names = unreferenced(modules)
    print("\npublic names of src/gcgmp that no src, bench or tools file mentions:")
    for name in names:
        print(f"  {name}")
    print(f"  {len(names)} in all")
    print("\nlines of src/gcgmp:")
    total = 0
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            n = len(fh.readlines())
        total += n
        print(f"  {os.path.basename(path)}: {n}")
    print(f"  all: {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
