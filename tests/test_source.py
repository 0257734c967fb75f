"""Source-level rules for the library package."""

import ast
from pathlib import Path

import ptareach

SRC = Path(ptareach.__file__).parent


def test_library_has_no_asserts():
    # Invariants must raise real exceptions: asserts vanish under python -O.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
