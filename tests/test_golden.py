"""Seeded end-to-end outputs, byte for byte, on every tier and on ``sweep``.

Each case runs one tiny ``qdrive`` command and compares its CSV artifacts
with the copies under ``tests/data/golden/<case>/``.  A change that is meant
to keep results identical (a refactor, a speedup) must leave these passing.
A change that alters results on purpose regenerates the copies with::

    PYTHONPATH=src python -m tests.test_golden

and says why in its changelog entry.
"""
import json
import sys
from pathlib import Path

import pytest

from qdrive.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

_TINY = {
    "q": 2,
    "batch_size": 1,
    "workers": 1,
    "seed": 4242,
    "shots": 2000,
    "final_shots_factor": 2,
}

# case -> (command, config overrides on _TINY, compared artifacts)
CASES = {
    "statevector": (
        "run",
        {"tier": "statevector", "n_states": {"even": 2, "odd": 1},
         "optimizer": {"hermitian_f_max": 64, "nonhermitian_f_max": 32}},
        ("winners.csv", "table.csv"),
    ),
    # the statevector case on the paper's path: COBYLA Hermitian stages and
    # the constant deflation penalty 100
    "statevector_paper": (
        "run",
        {"tier": "statevector", "n_states": {"even": 2, "odd": 1},
         "optimizer": {"hermitian_kind": "simplex", "penalty_c": 100,
                       "hermitian_f_max": 64, "nonhermitian_f_max": 32}},
        ("winners.csv", "table.csv"),
    ),
    # q = 3 with three even states: deflated stages with several priors
    "statevector_q3": (
        "run",
        {"q": 3, "tier": "statevector", "n_states": {"even": 3, "odd": 1},
         "optimizer": {"hermitian_f_max": 160, "nonhermitian_f_max": 64}},
        ("winners.csv", "table.csv"),
    ),
    "shots": (
        "run",
        {"tier": "shots", "n_states": {"even": 2, "odd": 1},
         "optimizer": {"hermitian_f_max": 64, "nonhermitian_f_max": 32}},
        ("winners.csv", "table.csv"),
    ),
    # three runs without deflation: each run finds one even state twice, and
    # the runs' records are pooled per state index
    "shots_batch": (
        "run",
        {"tier": "shots", "batch_size": 3, "n_states": {"even": 2, "odd": 1},
         "optimizer": {"penalty_c": 0, "hermitian_f_max": 64, "nonhermitian_f_max": 32}},
        ("winners.csv", "table.csv"),
    ),
    "noisy": (
        "run",
        {"tier": "noisy", "parities": ["even"], "n_states": {"even": 2, "odd": 1},
         "optimizer": {"hermitian_f_max": 40, "nonhermitian_f_max": 4}},
        ("winners.csv", "table.csv"),
    ),
    "noisy_readout_only": (
        "run",
        {"tier": "noisy", "parities": ["odd"], "n_states": {"even": 1, "odd": 2},
         "mitigation": {"readout": True, "zne": False},
         "optimizer": {"hermitian_f_max": 40, "nonhermitian_f_max": 4}},
        ("winners.csv", "table.csv"),
    ),
    "noisy_sweep": (
        "sweep",
        {"tier": "noisy", "parities": ["odd"], "n_states": {"even": 1, "odd": 1},
         "optimizer": {"hermitian_kind": "simplex", "hermitian_f_max": 6,
                       "nonhermitian_f_max": 4},
         "sweep": {"reduction_factors": [1.0, 10000.0],
                   "longevity_factors": ["inf"], "repeats": 1}},
        ("sweep.csv",),
    ),
}


def run_case(name: str, out: Path, **extra) -> Path:
    command, overrides, _ = CASES[name]
    doc = json.loads(json.dumps({**_TINY, **overrides, **extra}))
    doc["output_dir"] = str(out)
    out.mkdir(parents=True, exist_ok=True)
    config = out.parent / f"{name}.json"
    config.write_text(json.dumps(doc))
    main(["--config", str(config), command])
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_seeded_outputs_match_golden(name, tmp_path):
    out = run_case(name, tmp_path / "out")
    for artifact in CASES[name][2]:
        assert (out / artifact).read_bytes() == (GOLDEN / name / artifact).read_bytes(), (
            f"{name}/{artifact} differs from the golden copy"
        )


def test_noisy_outputs_do_not_depend_on_workers(tmp_path):
    # two worker processes, each filling its own copy of the operator cache
    out = run_case("noisy", tmp_path / "out", workers=2)
    for artifact in CASES["noisy"][2]:
        assert (out / artifact).read_bytes() == (GOLDEN / "noisy" / artifact).read_bytes()


@pytest.mark.parametrize("workers", [2, 4])
def test_sweep_outputs_do_not_depend_on_workers(workers, tmp_path):
    # the points of one sweep DAG share the workers and run side by side
    out = run_case("noisy_sweep", tmp_path / "out", workers=workers)
    assert (out / "sweep.csv").read_bytes() == (GOLDEN / "noisy_sweep" / "sweep.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    for name in sys.argv[1:] or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out = run_case(name, Path(tmp) / "out")
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            for artifact in CASES[name][2]:
                (GOLDEN / name / artifact).write_bytes((out / artifact).read_bytes())
        print(f"{name}: regenerated")
