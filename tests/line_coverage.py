"""Lines of the package's functions that the Tier-1 tests never run.

    python tests/line_coverage.py [pytest arguments]

Run from anywhere; it needs only the standard library and pytest. It runs
pytest in this process (on ``tests/`` unless arguments are given) with a
``sys.settrace``/``threading.settrace`` collector that records the lines run
in ``src/xkg``, then prints each line of a package function (a ``def``,
``lambda`` or comprehension body, not module or class level code) that no
test ran. A line that ``REASONS`` gives a reason for is printed with it;
any other unrun line makes the script exit 1, as does a failing test run.
``REASONS`` is keyed by file, function and the line's text, so an edit
elsewhere in the file does not void an entry; an entry that matches no
unrun line is printed as stale. Tests run two to three times as slowly as without
the collector, and code run in a child process is not seen.
"""

from __future__ import annotations

import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "xkg"

_NEWLOCALS = 0x2  # inspect.CO_NEWLOCALS: a function body, not a module or class body

#: (file, function, the line's text without its indentation) -> why no
#: Tier-1 test runs it.
REASONS: dict[tuple[str, str, str], str] = {
    ("backends.py", "_default_post", line):
        "the only code that opens a socket: tests inject post, so they reach no network "
        "(ROADMAP item 15)"
    for line in ("import requests",
                 "return requests.post(url, json=payload, headers=headers, timeout=timeout)")
}


def function_lines(path: Path) -> dict[int, str]:
    """Each line of a function in the module at ``path`` that can run, with
    the qualified name of its function: the lines where the compiler starts
    a statement, less each function's own first line (its ``def`` or first
    decorator), which no line event reports."""
    lines: dict[int, str] = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
        if code.co_flags & _NEWLOCALS:
            name = getattr(code, "co_qualname", code.co_name)
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    lines.setdefault(line, name)
    return lines


class Collector:
    """The lines run in files under ``root``, from every thread."""

    def __init__(self, root: Path):
        self.prefix = str(root) + "/"
        self.ran: dict[str, set[int]] = defaultdict(set)
        self.watched: dict[types.CodeType, bool] = {}

    def trace(self, frame, event, arg):
        """The global trace function: a local one for the package's frames."""
        code = frame.f_code
        watched = self.watched.get(code)
        if watched is None:
            watched = self.watched[code] = code.co_filename.startswith(self.prefix)
        if not watched:
            return None
        ran = self.ran[code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local

        return local

    def __enter__(self) -> "Collector":
        threading.settrace(self.trace)
        sys.settrace(self.trace)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)


def main(args: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    with Collector(PACKAGE) as collector:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                              *(args or [str(ROOT / "tests")])])
    unrun = unexplained = 0
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        ran = collector.ran.get(str(path), set())
        for line, function in sorted(function_lines(path).items()):
            if line in ran:
                continue
            key = (path.name, function, text[line - 1].strip())
            reason = REASONS.get(key)
            used.add(key)
            unrun += 1
            unexplained += reason is None
            print(f"src/xkg/{path.name}:{line} {function}: {key[2]}"
                  + (f"\n    reason: {reason}" if reason else ""))
    for key in REASONS.keys() - used:
        print(f"stale reason, no unrun line matches it: {key}")
    print(f"{unrun} unrun lines, {unexplained} without a reason; pytest exited {int(status)}")
    return 1 if unexplained or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
