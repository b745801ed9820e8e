"""The README's Python quick tour runs as written and prints what its comments say.

On every line of the block that is a bare expression, the comment starts
with the expected value, up to the first ``": "``; lines that assign keep
free-text comments.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_quick_tour_values_match_their_comments():
    blocks = python_blocks()
    assert len(blocks) == 1
    source = blocks[0]
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        code = compile(ast.Module([statement], type_ignores=[]), str(README), "exec")
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        line = lines[statement.end_lineno - 1]
        assert "#" in line, f"expression without its value: {line}"
        expected = line.split("#", 1)[1].strip().split(": ", 1)[0]
        got = eval(compile(ast.Expression(statement.value), str(README), "eval"), namespace)
        assert got == eval(expected, namespace), line
        checked += 1
    assert checked == 6
