import ast
from pathlib import Path

import kscolor

SOURCE = Path(kscolor.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, and every check must survive it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.glob("*.py"))) > 1
    assert found == []
