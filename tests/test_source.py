import ast
import importlib
from pathlib import Path

import pytest

import kscolor
from kscolor import cli

SOURCE = Path(kscolor.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def _package_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.glob("*.py"))}


def test_no_function_keeps_a_process_wide_memo():
    # an lru_cache or cache is state every caller in the process shares
    def is_memo(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        return name in ("lru_cache", "cache")

    memoized = {
        f"{stem}.{node.name}"
        for stem, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(is_memo(d) for d in node.decorator_list)
    }
    assert memoized == set()


def test_no_module_rebinds_a_global():
    # a global statement is module state that one call leaves for the next
    found = [
        f"{stem}:{node.lineno}"
        for stem, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_install_metadata_names_the_console_script_and_the_certificate():
    # an offline stand-in for installing the package: the console script and
    # the package-data glob must point at code and files that exist
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, attr = meta["project"]["scripts"]["kscolor"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
    package_dir = ROOT / meta["tool"]["setuptools"]["packages"]["find"]["where"][0] / "kscolor"
    data = {path.relative_to(package_dir).as_posix()
            for pattern in meta["tool"]["setuptools"]["package-data"]["kscolor"]
            for path in package_dir.glob(pattern)}
    assert "data/q_uncolorable.cert" in data


def test_cli_writes_stdout_only_through_write():
    # one output route: _write puts files before stdout and turns a failed
    # stdout write into a write error, so nothing else in the CLI may print
    tree = _package_trees()["cli"]
    write = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_write")
    in_write = {id(node) for node in ast.walk(write)}

    def is_sys(node, name):
        return (isinstance(node, ast.Attribute) and node.attr == name
                and isinstance(node.value, ast.Name) and node.value.id == "sys")

    prints = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "print"]
    to_stdout = [node.lineno for node in prints
                 if not any(k.arg == "file" and is_sys(k.value, "stderr") for k in node.keywords)]
    stdout_uses = [node.lineno for node in ast.walk(tree)
                   if is_sys(node, "stdout") and id(node) not in in_write]
    assert len(prints) == 2  # build's vector count and main's error line
    assert to_stdout == []
    assert stdout_uses == []
