"""Run pytest under a line tracer and print every line of ``src/scorekit`` that no test ran.

Usage::

    python tools/untested_lines.py [PYTEST_ARGS...]

The arguments go to pytest unchanged (none: the suite in ``tests/``), and
the exit status is pytest's.  The tests run in this process under a
``sys.settrace`` tracer that records line events only in frames whose code
comes from ``src/scorekit``, so frames elsewhere cost one call each.  A
file's executable lines are the line numbers its compiled code objects,
nested ones included, report through ``co_lines()``.  After pytest returns,
each executable line that never ran is printed as ``path:line: text``,
with the path relative to the repository root.  Uses the standard library
only; a traced run of the whole suite takes about 1.4 times as long as an
untraced one.
"""

from __future__ import annotations

import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "scorekit")


def executable_lines(path: str) -> set[int]:
    """Line numbers that the compiled code of the file at ``path`` can run."""
    with open(path, encoding="utf-8") as fh:
        pending = [compile(fh.read(), path, "exec")]
    lines = set()
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.dirname(PACKAGE))
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE + os.sep):
            return None
        ran.setdefault(filename, set())
        return local

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for folder, _, files in sorted(os.walk(PACKAGE)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read().splitlines()
            for line in sorted(executable_lines(path) - ran.get(path, set())):
                print(f"{os.path.relpath(path, ROOT)}:{line}: {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
