"""The functions and trace fields the benchmark reads by name still exist.

``perfbench`` reads each per-layer metric from the traced calls of a function
it names as a string, and its scheduling metrics from the fields of the
events that ``orchestrator.execute`` returns.  A deleted or renamed function
or field would not fail the benchmark: its metric would silently read 0.
These tests resolve every such function name, check that the tracer would
wrap it, and feed a real multi-worker trace to the scheduling metrics.
"""
import functools
import importlib
import importlib.util
import inspect
import pkgutil
import sys
import time
from pathlib import Path

import pytest

import qdrive
from qdrive.orchestrator import build_dag, execute

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


def test_orchestrator_metrics_read_a_real_trace():
    dag = build_dag({"even": 2, "odd": 1}, 2, parities=("even", "odd"))
    for node in dag.nodes.values():
        node.payload = lambda node, degraded: time.sleep(0.01)
    entry = time.monotonic()
    trace = execute(dag, workers=2)
    call = {
        "entry": entry,
        "exit": time.monotonic(),
        "parents": {nid: list(ps) for nid, ps in dag.parents.items()},
        "events": trace,
    }
    metrics = bench.orchestrator_metrics([call])
    assert metrics["orchestrator.nodes"] == len(dag.nodes)
    assert metrics["orchestrator.nodes_failed"] == metrics["orchestrator.nodes_skipped"] == 0
    assert 0 < metrics["orchestrator.critical_path_s"] <= metrics["orchestrator.execute_s"]
    assert metrics["orchestrator.node_busy_s"] >= 0.01 * len(dag.nodes)
    assert metrics["orchestrator.dispatch_wait_s"] >= 0
