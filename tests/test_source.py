"""Source-level guards on the library package."""

import ast
from pathlib import Path

import conestab

SRC = Path(conestab.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert, so runtime invariants must raise ConestabError.
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC.parent)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
