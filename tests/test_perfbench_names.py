"""The functions the benchmark traces by name still exist in ``qdrive``.

``perfbench`` reads each per-layer metric from the traced calls of a function
it names as a string.  A deleted or renamed function would not fail the
benchmark: its metric would silently read 0.  This test resolves every such
name and checks that the tracer would wrap it.
"""
import functools
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import qdrive

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(filename: str, name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


bench = load("run.py", "perfbench_run_names")
tracer = load("tracer.py", "perfbench_tracer_names")

NAMES = sorted(
    {
        *bench.CALL_COUNTS.values(),
        *bench.BUSY_TIMES.values(),
        *bench.GATHER,
        *tracer.OBSERVERS,
        *tracer.SAMPLED,
    }
)


@functools.cache
def wrapped_names() -> frozenset[str]:
    """Qualified names of every function the tracer wraps."""
    names = set()
    for info in pkgutil.iter_modules(qdrive.__path__):
        module = importlib.import_module(f"qdrive.{info.name}")
        names.update(name for _, _, name in tracer._targets(module, info.name))
    return frozenset(names)


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves(name):
    short, *attrs = name.split(".")
    target = importlib.import_module(f"qdrive.{short}")
    for attr in attrs:
        assert hasattr(target, attr), f"{name}: qdrive.{short} has no {attr!r}"
        target = getattr(target, attr)
    assert inspect.isfunction(target), f"{name} is not a function or method"
    assert name in wrapped_names(), f"the tracer does not wrap {name}"
