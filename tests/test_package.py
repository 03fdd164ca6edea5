import ast
import importlib
import importlib.util
from pathlib import Path

import edgeloop
from edgeloop import experiment

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    assert [name for name in edgeloop.__all__ if not hasattr(edgeloop, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from edgeloop import *", namespace)
    assert set(edgeloop.__all__) <= set(namespace)


def test_benchmark_traced_names_resolve():
    # the benchmark wraps these from outside the package, by name
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module_name, owner, attr in tracing.TRACED:
        target = importlib.import_module(f"edgeloop.{module_name}")
        if owner is not None:
            target = getattr(target, owner)
        assert callable(getattr(target, attr)), (module_name, owner, attr)
    assert callable(experiment.load_disturbance)


def _used_identifiers(tree: ast.AST) -> set[str]:
    """Names read, attributes accessed, names imported, and identifier strings
    (the benchmark looks functions up by name); definitions are not uses."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return used


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    # a re-export in __init__ is not a use: the name must be reached by the
    # package itself or by the benchmark, or it is surface only tests call
    package = sorted((ROOT / "src" / "edgeloop").glob("*.py"))
    sources = [p for p in package if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in sources:
        used |= _used_identifiers(ast.parse(path.read_text(), filename=str(path)))
    unused = []
    for path in package:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_") and node.name not in used:
                    unused.append(f"{path.stem}.{node.name}")
    assert unused == []
