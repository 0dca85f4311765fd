import ast
import importlib
from pathlib import Path

import kscolor

SOURCE = Path(kscolor.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_traced_entry_points_exist():
    # the benchmark's tracer wraps these names; a deleted one fails only a traced run
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    entry_points = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"]
    )
    missing = []
    for module, names in entry_points.items():
        mod = importlib.import_module(f"kscolor.{module}")
        for name in names:
            if "." in name:  # looked up in the class's own __dict__, as the tracer does
                cls_name, meth = name.split(".")
                found = meth in vars(getattr(mod, cls_name, object))
            else:
                found = hasattr(mod, name)
            if not found:
                missing.append(f"{module}.{name}")
    assert len(entry_points) == 5
    assert missing == []
