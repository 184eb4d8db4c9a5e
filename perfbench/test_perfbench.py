"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload once untraced and once traced with budgets cut to a
few evaluations, and checks that each metric is emitted with the unit that
``BENCHMARK.json`` declares.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses look their module up there
_spec.loader.exec_module(bench)

TINY = {
    "sv_run": {"q": 2, "n_states": {"even": 1, "odd": 1},
               "optimizer": {"hermitian_f_max": 8, "nonhermitian_f_max": 8}},
    "noisy_chain": {"shots": 1000,
                    "optimizer": {"hermitian_f_max": 8, "nonhermitian_f_max": 8}},
    "noisy_sweep": {"shots": 1000,
                    "optimizer": {"hermitian_f_max": 8, "nonhermitian_f_max": 8}},
}


def declared(kind):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_declared_metrics_match_harness():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared_workloads = [w["name"] for w in doc["workloads"]]
    assert declared_workloads == [w for w in bench.WORKLOADS if w in declared_workloads]
    assert "noisy_chain" in declared_workloads and "sv_run" in declared_workloads
    assert declared("end_to_end") == dict(bench.END_TO_END)
    assert declared("per_layer") == dict(bench.PER_LAYER)


@pytest.fixture(scope="module")
def sessions():
    untraced = bench.run_sessions(list(TINY), 7, 0.0, False, min_rounds=2, overrides_by_name=TINY)
    traced = bench.run_sessions(list(TINY), 7, 0.0, True, min_rounds=1, overrides_by_name=TINY)
    return untraced, traced


def test_untraced_emits_every_end_to_end_metric(sessions, capsys):
    untraced, _ = sessions
    result = bench.summarize(untraced, trace=False, prefix=True)
    printed = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0
    for session in untraced:
        assert len(session.reps) == 2  # the second one matched the first
        for name, unit in [*bench.END_TO_END, *bench.QUALITY]:
            assert any(
                line.split()[:1] == [name] and line.split()[2] == unit
                for line in printed.splitlines()
            ), (session.name, name)
        for name, unit in declared("end_to_end").items():
            metric = result["metrics"][f"{session.name}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0


def test_traced_emits_every_layer_metric(sessions, capsys):
    _, traced = sessions
    result = bench.summarize(traced, trace=True, prefix=True)
    capsys.readouterr()
    assert result["correct"]
    for session in traced:
        for name, unit in declared("per_layer").items():
            assert result["metrics"][f"{session.name}.{name}"]["unit"] == unit
    by_name = {s.name: s.per_layer() for s in traced}
    assert by_name["sv_run"]["simulator.density_matrix_calls"] == 0
    assert by_name["noisy_chain"]["estimator.overlap_calls"] > 0
    assert by_name["noisy_sweep"]["orchestrator.nodes"] == 8


def test_output_mismatch_fails_the_session(tmp_path):
    session = bench.Session("sv_run", 7, tmp_path)
    out = tmp_path / "rep" / "out"
    out.mkdir(parents=True)
    session.reference = b"first"
    (out / "winners.csv").write_bytes(b"second")
    (out.parent / "sidecar.json").write_text(json.dumps({"execute": []}))
    assert "differs" in session._check(out.parent, 0)
    assert "exit code" in session._check(out.parent, 1)
