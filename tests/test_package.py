import ast
import collections
import importlib
import importlib.util
import tomllib
from pathlib import Path

from edgeloop import experiment

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _identifiers(nodes, strings: bool = False) -> set[str]:
    """Names read, attributes accessed and names imported under nodes; with
    strings, identifier-shaped string constants too (the benchmark looks
    functions up by name)."""
    used = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return used


def _unreached_definitions() -> list[str]:
    """Package functions, classes, methods and properties that no entry point reaches.

    The roots are the console scripts in pyproject.toml, the module-level
    statements of the package (they run on import; an import statement only
    binds a name) and every identifier the benchmark reads, imports or names
    in a string. Reaching a name reaches every definition of that name; a
    reached function brings in the names in its body, decorators and default
    values, and a reached class its bases, decorators, class-body statements
    and dunder methods. The tests are not uses.
    """
    definitions = {}  # qualified name -> node
    by_name = collections.defaultdict(list)
    roots = set()
    for path in sorted((ROOT / "src" / "edgeloop").glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, DEFINITIONS):
                members = [(f"{path.stem}.{stmt.name}", stmt)]
                if isinstance(stmt, ast.ClassDef):
                    members += [
                        (f"{path.stem}.{stmt.name}.{m.name}", m)
                        for m in stmt.body
                        if isinstance(m, DEFINITIONS)
                    ]
                for qualname, node in members:
                    definitions[qualname] = node
                    by_name[node.name].append(qualname)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _identifiers([stmt])
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots |= _identifiers([ast.parse(path.read_text(), filename=str(path))], strings=True)

    reached = set()
    pending = []

    def reach(qualname):
        if qualname in reached:
            return
        reached.add(qualname)
        node = definitions[qualname]
        if isinstance(node, ast.ClassDef):
            followed = [*node.bases, *node.keywords, *node.decorator_list]
            for member in node.body:
                if not isinstance(member, DEFINITIONS):
                    followed.append(member)
                elif member.name.startswith("__") and member.name.endswith("__"):
                    reach(f"{qualname}.{member.name}")
        else:
            defaults = [d for d in node.args.kw_defaults if d is not None]
            followed = [*node.decorator_list, *node.args.defaults, *defaults, *node.body]
        pending.extend(_identifiers(followed))

    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    for target in scripts.values():  # "edgeloop.cli:main" reaches cli.main
        module, attr = target.split(":")
        reach(f"{module.removeprefix('edgeloop.')}.{attr}")
    pending.extend(roots)
    followed_names = set()
    while pending:
        name = pending.pop()
        if name not in followed_names:
            followed_names.add(name)
            for qualname in by_name[name]:
                reach(qualname)
    return sorted(set(definitions) - reached)


def test_every_definition_is_reached_from_an_entry_point():
    # surface that only tests call is dead code: delete it or give it a caller
    assert _unreached_definitions() == []
