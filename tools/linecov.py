"""Print every line of src/ that compiles to code but that no tier-1 test runs.

Runs the test suite in this process under sys.settrace and threading.settrace
(standard library only) and reports, per source file, the executable lines
that never produced a line event.  Lines run only by a subprocess that a test
starts do not count.  Usage, from the repository root:

    python tools/linecov.py [extra pytest arguments]

The exit code is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def executable_lines(path: Path) -> set:
    """Line numbers that some code object compiled from path executes."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTracer:
    def __init__(self, files):
        self.files = {str(f) for f in files}
        self.seen = {f: set() for f in self.files}
        self.pending = {}  # code object -> its lines not yet seen

    def global_trace(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        left = self.pending.get(code)
        if left is None:
            left = self.pending[code] = {
                line for _, _, line in code.co_lines() if line
            } - self.seen[code.co_filename]
        if not left:
            return None  # every line of this code object has run
        seen = self.seen[code.co_filename]

        def local_trace(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                left.discard(frame.f_lineno)
                if not left:
                    return None
            return local_trace

        # the def line of a function runs when the function is called
        seen.add(code.co_firstlineno)
        left.discard(code.co_firstlineno)
        return local_trace


def main(argv) -> int:
    files = sorted(SRC.rglob("*.py"))
    tracer = LineTracer(files)
    sys.path.insert(0, str(SRC))
    import pytest

    threading.settrace(tracer.global_trace)
    sys.settrace(tracer.global_trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in files:
        source = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - tracer.seen[str(path)])
        total += len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{total} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
