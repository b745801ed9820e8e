"""Line-coverage gate: tier-1 must run every executable line of ``src/quasimeasure``.

Runs the tier-1 suite in this process under a ``sys.settrace`` hook that
traces only frames whose code lies under ``src/quasimeasure``, and records
each line they run.  A module's executable lines are those of its compiled
code objects, nested ones included, as ``co_lines()`` lists them.  Code that
runs only in a subprocess, such as the CLI tests' ``python -m quasimeasure.cli``
runs, is invisible to the hook, so a line that cannot run in process goes on
``ALLOWED`` with its reason; an allowed line that runs, or that no longer
exists, is reported too, so the list cannot go stale.

Usage: python mutants/coverage.py

Exit status: 0 when every executable line ran or is allowed, 1 when a line
did not run or an allowance is stale, 2 when the tests fail.  Only the
standard library is needed to run it; the tests need pytest and hypothesis.
"""

from __future__ import annotations

import os
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quasimeasure"

# (module file, stripped line text) -> why the line cannot run in process.
ALLOWED = {
    ("cli.py", "raise SystemExit(main())"):
        "the __main__ guard's body runs only under python -m, in the CLI subprocess tests",
}


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that carry bytecode, over every code object compiled from it."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` with the hook installed; its exit status and the lines run per file."""
    import pytest

    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = defaultdict(set)

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen = ran[filename]
        seen.add(frame.f_lineno)

        def line(frame, event, arg):
            seen.add(frame.f_lineno)
            return line
        return line

    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), ran


def main() -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    status, ran = run_traced(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              str(ROOT / "tests")])
    if status != 0:
        print(f"coverage: the tests failed (pytest exit {status})", file=sys.stderr)
        return 2
    flagged, stale, total, covered = [], dict(ALLOWED), 0, 0
    for path in sorted(SRC.glob("*.py")):
        executable = executable_lines(path)
        missed = sorted(executable - ran[str(path)])
        total, covered = total + len(executable), covered + len(executable) - len(missed)
        text = path.read_text(encoding="utf-8").splitlines()
        for number in missed:
            key = (path.name, text[number - 1].strip())
            if stale.pop(key, None) is None:
                flagged.append(f"{path.relative_to(ROOT)}:{number}: not run: {key[1]}")
    flagged += [f"{name}: allowed, but it ran or is gone: {line}" for name, line in stale]
    for line in flagged:
        print(line)
    print(f"coverage: {covered} of {total} executable lines run, {len(ALLOWED) - len(stale)} allowed,"
          f" {len(flagged)} flagged, in {time.perf_counter() - started:.0f} s")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
