import importlib
import importlib.util
from pathlib import Path

import edgeloop
from edgeloop import experiment

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
