import ast
import collections
import dataclasses
import importlib
import importlib.util
import json
import sys
import tomllib
from pathlib import Path

import pytest

from edgeloop import cli, config, experiment

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
BENCHMARK_WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_benchmark_module(name, path):
    """A module of the benchmark, executed from its file; the benchmark tree is only read."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up while it is built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_benchmark_traced_names_resolve():
    # the benchmark wraps these from outside the package, by name
    tracing = load_benchmark_module("perfbench_tracing", TRACING)
    for _, module_name, owner, attr in tracing.TRACED:
        target = importlib.import_module(f"edgeloop.{module_name}")
        if owner is not None:
            target = getattr(target, owner)
        assert callable(getattr(target, attr)), (module_name, owner, attr)
    assert callable(experiment.load_disturbance)


def test_benchmark_traced_names_are_on_the_run_path(tmp_path, monkeypatch):
    # a traced name the run stops calling (a call routed round the module the
    # benchmark wraps) reads 0 in the benchmark without failing it; wrap each
    # as tracing.install does and run every workload's first seed briefly
    tracing = load_benchmark_module("perfbench_tracing", TRACING)
    workloads = load_benchmark_module("perfbench_workloads", WORKLOADS)
    called = set()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for name, module_name, owner, attr in tracing.TRACED:
        target = importlib.import_module(f"edgeloop.{module_name}")
        if owner is not None:
            target = getattr(target, owner)
        monkeypatch.setattr(target, attr, counted(name, getattr(target, attr)))
    for name in BENCHMARK_WORKLOADS:
        work = tmp_path / name
        work.mkdir()
        path = workloads.build(name, 1, work).config_path
        data = json.loads(path.read_text())
        # training starts at the first full batch, so the learner's layers run in 20 steps
        warmup = config.load_config(path).agent.batch_size
        data.update(max_steps=20, seeds=data["seeds"][:1], agent={**data.get("agent", {}), "warmup": warmup})
        path.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(path), "--out", str(work / "out")]) == 0
    # Kernel.run dispatches events itself and no longer calls Kernel.step
    assert called == {name for name, *_ in tracing.TRACED} - {"simcore.Kernel.step"}


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_benchmark_workload_inputs_load_and_run(tmp_path, name):
    # the benchmark's generated config and trace must stay valid inputs: load them
    # as its runs do, then run the first seed for 20 steps an episode
    workloads = load_benchmark_module("perfbench_workloads", WORKLOADS)
    workload = workloads.build(name, 1, tmp_path)
    cfg = config.load_config(workload.config_path)
    assert cfg.seeds == workload.seeds
    assert (cfg.episodes, cfg.eval_episodes) == (workload.train_episodes, workload.eval_episodes)
    assert cfg.steps_per_episode == workload.steps_per_episode
    disturbance = experiment.load_disturbance(cfg)
    result = experiment.run_seed(dataclasses.replace(cfg, max_steps=20), cfg.seeds[0], disturbance)
    assert result.divergence is None
    assert len(result.records) == cfg.episodes + cfg.eval_episodes
    assert all(0 < r.uninterrupted_steps <= 20 for r in result.records)


def test_reporting_imports_nothing_from_experiment():
    # the metrics schema sits below the run: experiment imports reporting, never the reverse
    tree = ast.parse((ROOT / "src" / "edgeloop" / "reporting.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        else:
            continue
        found += [ast.unparse(node) for path in paths if "experiment" in path.split(".")]
    assert found == []


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


def _own_returns(node) -> list[ast.Return]:
    """The return statements of a function that give a value, not those of functions nested in it."""
    found, stack = [], list(node.body)
    while stack:
        child = stack.pop()
        if isinstance(child, ast.Return) and child.value is not None:
            found.append(child)
        elif not isinstance(child, (*DEFINITIONS, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(child))
    return found


def _test_only_signatures() -> list[str]:
    """Defaults, parameters and return values of package functions that no caller uses.

    The callers are the calls in the package and in perfbench/; the tests are
    not uses. `<module>.f(...)` resolves to that edgeloop module's f,
    `self.f(...)` to the enclosing class's own f when it defines one, and
    `Cls(...)` to Cls.__init__; any other call counts as a call of every
    definition with its name. A function that is also referenced without
    being called (passed as a handler, stored) may be called from anywhere,
    so it is not judged; an attribute read whose name some package class
    stores as data is taken to read that data, and an annotation is no use.
    Of the rest, each function with calls is flagged for:

    - (a) a parameter default that every call overrides (no call relies on it);
    - (b) a defaulted parameter that no call passes (it is a constant);
    - (c) a returned value that every call discards.

    A call with *args or **kwargs binds unknown parameters, so its function's
    defaults are not judged. Dataclass and NamedTuple field defaults are out
    of scope: the generated __init__ has no definition here, and the config
    defaults are the product.
    """
    trees = [
        (folder == "src/edgeloop", path.stem, ast.parse(path.read_text(), filename=str(path)))
        for folder in ("src/edgeloop", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    functions = {}  # qualified name -> (FunctionDef, whether a call binds its first parameter)
    by_name = collections.defaultdict(list)
    scopes = {}  # package module -> {top-level name: qualified name}
    fields = set()  # names stored as data: by attribute assignment or as class-body fields
    for inside, stem, tree in trees:
        if not inside:
            continue
        scopes[stem] = {}
        for stmt in tree.body:
            if not isinstance(stmt, DEFINITIONS):
                continue
            scopes[stem][stmt.name] = f"{stem}.{stmt.name}"
            members = [(f"{stem}.{stmt.name}", stmt, False)]
            if isinstance(stmt, ast.ClassDef):
                members = [
                    (f"{stem}.{stmt.name}.{m.name}", m, "staticmethod" not in _identifiers(m.decorator_list))
                    for m in stmt.body
                    if isinstance(m, ast.FunctionDef)
                ]
            for qualname, node, bound in members:
                functions[qualname] = node, bound
                by_name[node.name].append(qualname)
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                fields.add(node.target.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                fields.add(node.attr)

    def definitions(qualname: str) -> list[str]:
        init = f"{qualname}.__init__"  # calling a class calls its __init__
        return [init if init in functions else qualname]

    calls = collections.defaultdict(list)  # qualified name -> [(Call, whether its result is read)]
    referenced = set()
    for inside, stem, tree in trees:
        names = dict(scopes[stem]) if inside else {}  # name -> package definition it binds
        aliases = {}  # name -> package module it binds
        for node in ast.walk(tree):
            module = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and (node.level or module.startswith("edgeloop")):
                module = module.removeprefix("edgeloop").lstrip(".")
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if not module and alias.name in scopes:
                        aliases[bound] = alias.name
                    elif alias.name in scopes.get(module, {}):
                        names[bound] = scopes[module][alias.name]

        def resolve(node, cls) -> list[str]:
            if isinstance(node, ast.Name):
                return definitions(names[node.id]) if node.id in names else []
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if owner in aliases and node.attr in scopes[aliases[owner]]:
                return definitions(scopes[aliases[owner]][node.attr])
            if owner == "self" and f"{cls}.{node.attr}" in functions:
                return [f"{cls}.{node.attr}"]
            return by_name[node.attr]

        discarded = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
        annotations = {id(a) for n in ast.walk(tree)
                       for a in (getattr(n, "annotation", None), getattr(n, "returns", None)) if a}
        callees = set()
        stack = [(tree, None)]
        while stack:
            node, cls = stack.pop()
            if id(node) in annotations:
                continue
            if isinstance(node, ast.ClassDef):
                cls = f"{stem}.{node.name}"
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callees.add(id(node.func))
                targets = resolve(node.func, cls)
                if isinstance(node.func, ast.Name) and not targets:
                    targets = by_name[node.func.id]  # a name no import binds: any definition of it
                for qualname in targets:
                    calls[qualname].append((node, id(node) not in discarded))
            elif (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                  and id(node) not in callees and getattr(node, "attr", None) not in fields):
                referenced.update(resolve(node, cls))
            stack.extend((child, cls) for child in ast.iter_child_nodes(node))

    found = []
    for qualname, (node, bound) in sorted(functions.items()):
        sites = calls[qualname]
        if qualname in referenced or not sites:
            continue
        params = [*node.args.posonlyargs, *node.args.args][1 if bound else 0:]
        defaulted = list(zip(params[len(params) - len(node.args.defaults):], node.args.defaults))
        defaulted += [(a, d) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d]
        starred = any(isinstance(a, ast.Starred) for call, _ in sites for a in call.args) or any(
            k.arg is None for call, _ in sites for k in call.keywords)
        for arg, default in [] if starred else defaulted:
            passing = sum(
                arg.arg in {k.arg for k in call.keywords}
                or (arg in params and params.index(arg) < len(call.args))
                for call, _ in sites
            )
            shown = f"{qualname}({arg.arg}={ast.unparse(default)})"
            if passing == len(sites):
                found.append(f"{shown}: every call passes it")
            elif passing == 0:
                found.append(f"{shown}: no call passes it")
        if _own_returns(node) and not any(read for _, read in sites):
            found.append(f"{qualname}: every call discards the returned value")
    return found


def test_no_default_parameter_or_return_value_serves_only_tests():
    # a default every caller overrides, a parameter no caller sets, or a result
    # no caller reads is surface for tests only: make it required, a constant, or gone
    assert _test_only_signatures() == []
