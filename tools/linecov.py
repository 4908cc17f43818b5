"""The lines of corrmatch's source that a pytest run never executes.

    PYTHONPATH=src python tools/linecov.py [PYTEST ARGUMENTS ...]

Runs pytest in this interpreter, with the given arguments, under a
``sys.settrace`` line tracer that follows only frames of files under
``src/``. Then prints every line that the compiler gives code to and
that never ran, as ``path:line: text``, and their count. Code that runs
in another thread or a subprocess (the CLI's ``__main__`` line) is not
seen. Uses the standard library only; the traced run is slower.
"""

from __future__ import annotations

import collections
import contextlib
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold code, in any function or class."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


@contextlib.contextmanager
def tracing(root: Path):
    """Record, while the block runs, the lines executed in files under
    ``root``: a dict of resolved file name -> set of line numbers."""
    ran: dict[str, set[int]] = collections.defaultdict(set)
    inside: dict[str, str | None] = {}  # co_filename -> resolved name under root, or None

    def line(frame, event, arg):
        if event == "line":
            ran[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(name).resolve()
            inside[name] = str(path) if path.is_relative_to(root.resolve()) else None
        return line if inside[name] else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        yield ran
    finally:
        sys.settrace(previous)


def never_ran(root: Path, ran: dict[str, set[int]]) -> list[str]:
    """``path:line: text`` for every line with code under ``root`` that
    is not in ``ran``, in file and line order; paths start at ``root``'s name."""
    out = []
    root = root.resolve()
    for path in sorted(root.rglob("*.py")):
        text = path.read_text().splitlines()
        missed = executable_lines(path) - ran.get(str(path), set())
        out += [f"{path.relative_to(root.parent)}:{i}: {text[i - 1].strip()}"
                for i in sorted(missed)]
    return out


def main(argv: list[str]) -> int:
    import pytest

    with tracing(SRC) as ran:
        status = pytest.main(argv)
    lines = never_ran(SRC, ran)
    print("\n".join([*lines, f"{len(lines)} lines of src/ never ran"]))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
