import csv
import gc
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdrive import cli, model, orchestrator, pauli, pipeline
from qdrive.cli import (
    _write_json,
    collect_winners,
    main,
    prepare_execution,
    write_winners_csv,
)
from qdrive.config import (
    DEFAULTS,
    OUTPUT_ROOT_ENV,
    ConfigError,
    bundled_profile_path,
    load_config,
    validate_config,
)
from tests.test_golden import _TINY, CASES, GOLDEN, run_case
from tests.test_orchestrator import execute_simulated

FAST_RUN = {
    "q": 2,
    "batch_size": 2,
    "workers": 2,
    "optimizer": {"hermitian_f_max": 1024, "nonhermitian_f_max": 256},
    "seed": 414243,
}


# json.dumps(load_config(None)), byte for byte: a changed default or key order
# would change every config.frozen.json
DEFAULT_BYTES = (
    '{"model": {"lam": 0.1, "j": 0.8, "x0": 8.0, "x_max": 10.0, "n_points": 4096}, '
    '"q": 3, "parities": ["even", "odd"], "n_states": {"even": 4, "odd": 2}, '
    '"batch_size": 8, "tier": "statevector", "shots": 100000, "final_shots_factor": 10, '
    '"seed": 20240601, "noise_profile": null, "gate_noise_reduction_factor": 1.0, '
    '"qubit_longevity_factor": null, "mitigation": {"readout": true, "zne": true}, '
    '"optimizer": {"penalty_c": null, "hermitian_kind": "nft", "hermitian_f_max": 2048, '
    '"nonhermitian_f_max": 1024}, "workers": 4, "output_dir": "out", '
    '"sweep": {"reduction_factors": [1.0, 10000.0], "longevity_factors": [10.0, "inf"], '
    '"repeats": 8}}'
)


def flatten(doc, prefix=""):
    """(dotted key, value) of every leaf of a nested config document."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def nested(key, value):
    """The override document that sets one dotted key."""
    *sections, leaf = key.split(".")
    doc = {leaf: value}
    for section in reversed(sections):
        doc = {section: doc}
    return doc


KEYS = dict(flatten(DEFAULTS))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("#")  # schema version comment
    return list(csv.DictReader(lines[1:]))


class TestConfig:
    def test_defaults_validate(self):
        doc = load_config(None)
        validate_config(doc)
        assert doc["batch_size"] == 8
        assert doc["shots"] == 100000
        assert doc["optimizer"]["penalty_c"] is None  # derived per channel
        assert doc["model"] == {
            "lam": 0.1, "j": 0.8, "x0": 8.0, "x_max": 10.0, "n_points": 4096,
        }

    def test_default_document_is_unchanged(self):
        assert json.dumps(load_config(None)) == DEFAULT_BYTES

    @pytest.mark.parametrize("key", KEYS)
    def test_each_default_loads(self, key):
        assert load_config(None, nested(key, KEYS[key])) == load_config(None)

    @pytest.mark.parametrize("key", KEYS)
    def test_each_key_rejects_the_other_json_kind(self, key):
        # a boolean is an int to Python: only bool keys take true, and they take no 1
        bad = 1 if isinstance(KEYS[key], bool) else True
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            load_config(None, nested(key, bad))

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        path = write_config(tmp_path, [1])
        assert main(["--config", path, "diag"]) == 2
        assert f"config file {path} holds a list" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, {"qubitz": 3})
        with pytest.raises(ConfigError, match="qubitz"):
            load_config(path)

    def test_wrong_type_named(self, tmp_path):
        path = write_config(tmp_path, {"shots": "many"})
        with pytest.raises(ConfigError, match="shots"):
            load_config(path)

    def test_bad_tier_named(self, tmp_path):
        path = write_config(tmp_path, {"tier": "hardware"})
        with pytest.raises(ConfigError, match="tier"):
            load_config(path)

    def test_cli_exit_code_two_on_config_error(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, {"qubitz": 3})
        code = main(["--config", path, "diag"])
        assert code == 2
        assert "qubitz" in capsys.readouterr().err
        # bad values fail at load, before any task runs
        cases = [
            (["--set", f"{key}=0"], key)
            for key in (
                "shots", "final_shots_factor", "batch_size", "workers",
                "optimizer.hermitian_f_max", "optimizer.nonhermitian_f_max",
                "sweep.repeats",
            )
        ]
        cases.append((["--set", "shots=-5"], "shots"))
        cases.append((["--set", "q=6", "--set", "tier=noisy"], "'q'"))
        cases.append((["--set", "model.n_points=16", "--set", "q=3"], "'q'"))
        cases.append((["--set", "model.n_points=100"], "'model'"))
        # a grid beyond 2**16 points fails at load, not in Grid.points' allocation
        cases.append((["--set", f"model.n_points={2**17}"], "'model.n_points'"))
        cases.append((["--set", f"model.n_points={2**40}"], "'model.n_points'"))
        cases.append((["--set", "q=0"], "'q'"))
        cases.append((["--set", "q=7"], "'q'"))
        cases.append((["--set", 'parities=["even","even"]'], "'parities'"))
        cases.append((["--set", "parities=[]"], "'parities'"))
        cases.append((["--set", "sweep.reduction_factors=[0]"], "sweep.reduction_factors"))
        cases.append((["--set", "sweep.longevity_factors=[-1]"], "sweep.longevity_factors"))
        cases.append((["--set", 'sweep.longevity_factors=["never"]'], "sweep.longevity_factors"))
        # each factor is one sweep point: equal floats, 'inf' and 'infinity' included, repeat one
        cases.append((["--set", "sweep.reduction_factors=[1.0,1.0]"], "sweep.reduction_factors"))
        cases.append((["--set", "sweep.reduction_factors=[2,2.0]"], "sweep.reduction_factors"))
        cases.append((["--set", 'sweep.longevity_factors=[10,"inf","Infinity"]'],
                      "sweep.longevity_factors"))
        cases.append((["--set", "gate_noise_reduction_factor=0"], "gate_noise_reduction_factor"))
        cases.append((["--set", "qubit_longevity_factor=0"], "qubit_longevity_factor"))
        # a positive int beyond the float range fails at load, not in float()
        big = "1" + "0" * 400
        cases.append((["--set", f"gate_noise_reduction_factor={big}"], "gate_noise_reduction_factor"))
        cases.append((["--set", f"sweep.reduction_factors=[{big}]"], "sweep.reduction_factors"))
        cases.append((["--set", f"sweep.longevity_factors=[{big}]"], "sweep.longevity_factors"))
        # a reduction factor below p2 = 0.003 pushes a depolarizing probability above 1
        noisy = ["--set", "tier=noisy", "--set", "q=2"]
        cases.append(([*noisy, "--set", "gate_noise_reduction_factor=0.001"],
                      "gate_noise_reduction_factor"))
        cases.append(([*noisy, "--set", "sweep.reduction_factors=[0.001]"],
                      "sweep.reduction_factors"))
        # a dotted override under a key that an earlier --set gave a value
        cases.append((["--set", "q=2", "--set", "q.x=1"], "'q.x'"))
        # state counts and the seed fail at load, not inside build_dag or SeedSequence
        cases.append((["--set", "n_states.even=0"], "n_states.even"))
        cases.append((["--set", "n_states.odd=-2"], "n_states.odd"))
        cases.append((["--set", "seed=-1"], "'seed'"))
        # numpy's multinomial draws at most 2**63 - 1 shots, not 10**19 final shots
        cases.append((["--set", f"shots={2**63}"], "'shots'"))
        cases.append((["--set", "shots=1000000000000000000"], "'final_shots_factor'"))
        # a boolean is an int to Python, but no number key takes one
        cases.append((["--set", "model.lam=true"], "model.lam"))
        cases.append((["--set", "optimizer.penalty_c=true"], "optimizer.penalty_c"))
        # real-valued settings out of range or not finite
        for key, values in [
            ("optimizer.penalty_c", ("-1", "-Infinity", "NaN")),
            ("model.j", ("NaN",)),
            # beyond these, H_N^dag H_N overflows
            ("model.x_max", ("NaN", "1e200", "1e-300", "1.0000001e60", "9.999999e-61")),
        ]:
            cases.extend((["--set", f"{key}={value}"], key) for value in values)
        # a channel has 2**q states: a requested parity asks for no more
        cases.append((["--set", "q=2", "--set", "n_states.even=5"], "'n_states.even'"))
        # settings that are module constants now: a config that still sets
        # one, at its old default too, is unknown
        for key, value in [
            ("optimizer.hermitian_max_iterations", 512), ("optimizer.reset_interval", 32),
            ("optimizer.f_tol", 0.05), ("optimizer.retries", 3), ("optimizer.r_beg", 1.0),
            ("optimizer.p_beg", 1.0), ("classifier.cap_weight", 0.5),
            ("classifier.im_gain", 0.001), ("classifier.sigma_max", 0.5),
            ("classifier.gamma_max", 0.05), ("dedup_overlap_tol", 0.5),
        ]:
            cases.append((["--set", f"{key}={value}"], f"unknown config key {key!r}"))
        # the trust region runs only as NFT's downgrade and the pseudovariance
        # stages; null is no kind: the default is "nft"
        for kind in ("trust_region", "null"):
            cases.append((["--set", f"optimizer.hermitian_kind={kind}"],
                          "'optimizer.hermitian_kind'"))
        # a noise profile with a negative gate time or T1 fails at load too
        profile = json.loads(bundled_profile_path().read_text())
        n = len(profile["t1_us"])
        for i, fields in enumerate([
            {"gate_time_1q_us": -0.05},
            {"t1_us": [-70.0] * n, "t2_us": [-140.0] * n},  # T2 <= 2 T1 holds
        ]):
            path = write_config(tmp_path, {**profile, **fields}, name=f"bad_profile_{i}.json")
            args = ["--set", "tier=noisy", "--set", f"noise_profile={path}"]
            cases.append((args, "'noise_profile'"))
        # so does one whose readout rows sum to 1 + 1e-7, with or without readout mitigation
        readout = json.loads(bundled_profile_path().read_text())["readout"]
        readout[0][0][0] += 1e-7
        off_sum = write_config(tmp_path, {**profile, "readout": readout}, name="off_sum.json")
        cases.append(([*noisy, "--set", "mitigation.readout=false",
                       "--set", f"noise_profile={off_sum}"], "'noise_profile'"))
        # so does a readout confusion that readout mitigation cannot invert
        singular = write_config(tmp_path, {
            **profile, "readout": [[[0.5, 0.5], [0.5, 0.5]]] + profile["readout"][1:]
        }, name="singular_readout.json")
        cases.append(([*noisy, "--set", f"noise_profile={singular}"],
                      "'noise_profile': readout of qubit 0"))
        out = str(tmp_path / "out")
        for args, key in cases:
            code = main(["--set", f"output_dir={out}", *args, "run"])
            assert code == 2, args
            assert key in capsys.readouterr().err
        # the same values within range still load
        load_config(None, {"tier": "noisy", "q": 2, "gate_noise_reduction_factor": 0.5,
                           "sweep": {"reduction_factors": [0.5]}})
        load_config(None, {"tier": "noisy", "q": 2, "noise_profile": singular,
                           "mitigation": {"readout": False}})
        load_config(None, {"model": {"n_points": 2**16}})
        for x_max in (1e-60, 1e60):
            load_config(None, {"model": {"x_max": x_max}})
        load_config(None, {"q": 2, "n_states": {"even": 4, "odd": 4}})
        # an absorber at infinity is no absorber, not an error
        assert load_config(None, {"model": {"x0": float("inf")}})["model"]["x0"] == float("inf")
        # more than one worker needs fork; one worker runs inline anywhere
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert main(["--set", f"output_dir={out}", "--set", "workers=2", "run"]) == 2
        assert "'workers'" in capsys.readouterr().err
        load_config(None, {"workers": 1})
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("f_max,warned", [(24, True), (33, False)])
    def test_idle_trust_region_warned(self, f_max, warned, capsys):
        # at q=2 the trust region needs 2m + 1 = 33 evaluations to start
        load_config(None, {"q": 2, "optimizer": {"nonhermitian_f_max": f_max}})
        err = capsys.readouterr().err
        assert ("optimizer.nonhermitian_f_max" in err) == warned
        assert err.count("warning:") == int(warned)

    def test_override_flags(self, tmp_path):
        path = write_config(tmp_path, {"q": 3})
        doc = load_config(path, {"q": 2, "model": {"x0": 9.0}})
        assert doc["q"] == 2
        assert doc["model"]["x0"] == 9.0


class TestDiag:
    def test_q3_table_row(self, tmp_path, capsys):
        path = write_config(tmp_path, {"output_dir": str(tmp_path / "out")})
        assert main(["--config", path, "diag"]) == 0
        rows = read_csv(tmp_path / "out" / "diag_even.csv")
        reference = 0.505 - 2.02e-5j
        values = [complex(float(r["energy_re"]), float(r["energy_im"])) for r in rows]
        assert min(abs(v - reference) / abs(reference) for v in values) < 0.01

    def test_cap_disabled_real_spectrum(self, tmp_path):
        path = write_config(
            tmp_path,
            {"output_dir": str(tmp_path / "out"), "model": {"x0": 100.0}},
        )
        assert main(["--config", path, "diag"]) == 0
        for parity in ("even", "odd"):
            rows = read_csv(tmp_path / "out" / f"diag_{parity}.csv")
            assert all(abs(float(r["energy_im"])) < 1e-10 for r in rows)

    def test_json_spectrum_written(self, tmp_path):
        path = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), "q": 2})
        main(["--config", path, "diag"])
        doc = json.loads((tmp_path / "out" / "diag_odd.json").read_text())
        assert {"re", "im", "classification"} <= set(doc[0])

    def test_builds_no_pauli_decomposition(self, tmp_path, monkeypatch):
        # the oracle alone: a channel problem would decompose three operators
        calls = []
        real = pauli.decompose
        monkeypatch.setattr(pauli, "decompose", lambda matrix: calls.append(1) or real(matrix))
        path = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), "q": 6})
        assert main(["--config", path, "diag"]) == 0
        assert len(read_csv(tmp_path / "out" / "diag_even.csv")) == 64
        assert calls == []

    def test_exit_collections_skip_what_the_command_left(self, tmp_path):
        path = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), "q": 2})
        assert gc.get_freeze_count() == 0
        assert main(["--config", path, "diag"]) == 0
        assert gc.get_freeze_count() > 0


class TestOracleOnce:
    """Each channel's oracle is diagonalized once, with its problem: the sort
    nodes and the report read it from there."""

    @pytest.fixture
    def diagonalized(self, monkeypatch):
        """The parity of each exact_diagonalize call, through any qdrive module."""
        calls = []
        real = model.exact_diagonalize

        def counted(pair, *args):
            calls.append(pair.basis.parity)
            return real(pair, *args)

        for name, module in list(sys.modules.items()):
            if name.startswith("qdrive") and getattr(module, "exact_diagonalize", None) is real:
                monkeypatch.setattr(module, "exact_diagonalize", counted)
        return calls

    def test_once_per_channel_in_a_run(self, tmp_path, diagonalized):
        run_case("statevector", tmp_path / "out")  # both parities, one worker
        assert sorted(diagonalized) == ["even", "odd"]

    def test_once_per_channel_in_a_sweep(self, tmp_path, diagonalized):
        run_case("noisy_sweep", tmp_path / "out")  # the odd channel at two points
        assert diagonalized == ["odd"]


class TestZneDemo:
    def test_branch_table_output(self, capsys):
        code = main(
            ["zne-demo", "--x1", "0.9", "--x3", "0.7", "--x5", "0.5", "--shots", "100000"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert list(record) == ["x1", "x3", "x5", "z", "branch", "x0"]
        assert record["branch"] == "exponential"
        assert record["x0"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "flag,value",
        [("--shots", "0"), ("--x1", "2.0"), ("--x3", "NaN"), ("--x5", "-0.5")],
    )
    def test_out_of_range_flag_is_a_config_error(self, flag, value, capsys):
        argv = ["zne-demo", "--x1", "0.9", "--x3", "0.7", "--x5", "0.5", flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert flag in err


def submitted_argv(export_dir: Path, job: str) -> list[str]:
    """A job's command line as its submit file gives it: the quoted
    ``arguments`` split as a shell would, less the ``qdrive`` console script."""
    sub = (export_dir / "submit" / f"{job}.sub").read_text()
    program, *argv = shlex.split(re.search(r'^arguments = "(.*)"$', sub, re.M).group(1))
    assert program == "qdrive"
    return argv


class TestExportDag:
    def test_files_written(self, tmp_path):
        path = write_config(
            tmp_path,
            {"output_dir": str(tmp_path / "out"), "n_states": {"even": 1, "odd": 1},
             "batch_size": 1},
        )
        assert main(["--config", path, "export-dag"]) == 0
        dag_text = (tmp_path / "out" / "batch.dag").read_text()
        jobs = [l for l in dag_text.splitlines() if l.startswith("JOB")]
        assert len(jobs) == 8  # two parity channels of 4 nodes each
        subs = list((tmp_path / "out" / "submit").glob("*.sub"))
        assert len(subs) == 8

    def test_submitted_task_runs_from_the_frozen_config(self, tmp_path, monkeypatch):
        # every submit file runs `qdrive --config config.frozen.json run --single-task <id>`
        doc = dict(FAST_RUN, batch_size=1, n_states={"even": 1, "odd": 1})
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["--config", write_config(tmp_path, doc), "export-dag"]) == 0
        assert (tmp_path / "out" / "logs").is_dir()  # the submit files' output, error and log
        monkeypatch.chdir(tmp_path / "out")  # DAGMan runs each job from the dag file's directory
        assert main(submitted_argv(tmp_path / "out", "even_r0_h1")) == 0
        assert (tmp_path / "out" / "runs/batch0/even/0/even_r0_h1.json").exists()

    @pytest.mark.parametrize("case,nonhermitian_f_max,n_jobs", [
        ("shots", 8, 18),
        # one parity; a budget of 40 starts COBYQA (2m + 1 = 33) on the noisy tier
        ("noisy", 40, 11),
    ], ids=["shots", "noisy"])
    def test_replayed_jobs_match_run(self, tmp_path, monkeypatch, case, nonhermitian_f_max,
                                     n_jobs):
        # every JOB of batch.dag in file order, each writing its own artifact
        # only, gives the runs/ tree of `run`
        _, overrides, _ = CASES[case]
        doc = json.loads(json.dumps({**_TINY, **overrides, "batch_size": 2}))
        doc["optimizer"] = {"hermitian_f_max": 16, "nonhermitian_f_max": nonhermitian_f_max}
        doc["output_dir"] = str(tmp_path / "htc")
        assert main(["--config", write_config(tmp_path, doc), "export-dag"]) == 0
        frozen = tmp_path / "htc" / "config.frozen.json"
        inode = frozen.stat().st_ino
        dag_text = (tmp_path / "htc" / "batch.dag").read_text()
        jobs = [line.split()[1] for line in dag_text.splitlines() if line.startswith("JOB")]
        assert len(jobs) == n_jobs
        monkeypatch.chdir(tmp_path / "htc")
        for job in jobs:
            assert main(submitted_argv(tmp_path / "htc", job)) == 0
        assert frozen.stat().st_ino == inode  # never replaced

        doc["output_dir"] = str(tmp_path / "run")
        main(["--config", write_config(tmp_path, doc, "run.json"), "run"])

        def tree(root):
            return {
                p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()
            }

        replayed = tree(tmp_path / "htc" / "runs")
        assert len(replayed) == n_jobs
        assert replayed == tree(tmp_path / "run" / "runs")

    def test_default_output_dir_replays_as_run(self, tmp_path, monkeypatch):
        # the default output_dir `out` is relative: export-dag and run resolve
        # it against their working directories, and each job, one fresh
        # interpreter as DAGMan starts it, runs from the export directory
        monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
        _, overrides, _ = CASES["shots"]
        doc = json.loads(json.dumps({**_TINY, **overrides}))
        doc.update(n_states={"even": 1, "odd": 1},
                   optimizer={"hermitian_f_max": 16, "nonhermitian_f_max": 8})
        assert "output_dir" not in doc
        config = write_config(tmp_path, doc)
        for cwd, command in (("htc", "export-dag"), ("run", "run")):
            (tmp_path / cwd).mkdir()
            monkeypatch.chdir(tmp_path / cwd)
            main(["--config", config, command])
        export = tmp_path / "htc" / "out"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        ))
        dag_text = (export / "batch.dag").read_text()
        jobs = [line.split()[1] for line in dag_text.splitlines() if line.startswith("JOB")]
        assert len(jobs) == 8
        for job in jobs:
            subprocess.run(
                [sys.executable, "-m", "qdrive.cli", *submitted_argv(export, job)],
                cwd=export, env=env, check=True, capture_output=True,
            )

        def tree(root):
            return {
                p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()
            }

        replayed = tree(export / "runs")
        assert len(replayed) == 8
        assert replayed == tree(tmp_path / "run" / "out" / "runs")
        assert not (export / "out").exists()


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    doc = dict(FAST_RUN)
    doc["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path, doc)
    code = main(["--config", path, "run"])
    return tmp_path, path, code


class TestRun:
    def test_exit_zero(self, fast_run):
        _, _, code = fast_run
        assert code == 0

    def test_artifact_layout(self, fast_run):
        tmp_path, _, _ = fast_run
        out = tmp_path / "out"
        assert (out / "winners.csv").exists()
        assert (out / "table.csv").exists()
        assert (out / "trace.jsonl").exists()
        assert (out / "config.frozen.json").exists()
        assert (out / "runs" / "batch0" / "even" / "0").is_dir()

    def test_table_has_three_targets(self, fast_run):
        tmp_path, _, _ = fast_run
        rows = read_csv(tmp_path / "out" / "table.csv")
        row = rows[0]
        for label in ("bound", "resonance_1", "resonance_2"):
            assert row[f"{label}_status"] == "ok"
            assert float(row[f"{label}_relative_error"]) < 0.10

    def test_no_nan_without_status_flag(self, fast_run):
        tmp_path, _, _ = fast_run
        for row in read_csv(tmp_path / "out" / "table.csv"):
            for key, value in row.items():
                if value in ("", "nan"):
                    label = key.rsplit("_", 1)[0]
                    assert row[f"{label}_status"] != "ok"

    def test_rerun_from_frozen_config_is_byte_identical(self, fast_run):
        tmp_path, _, _ = fast_run
        first = (tmp_path / "out" / "winners.csv").read_bytes()
        frozen = tmp_path / "out" / "config.frozen.json"
        doc = json.loads(frozen.read_text())
        doc["output_dir"] = str(tmp_path / "out2")
        path2 = tmp_path / "config2.json"
        path2.write_text(json.dumps(doc))
        assert main(["--config", str(path2), "run"]) == 0
        second = (tmp_path / "out2" / "winners.csv").read_bytes()
        assert first == second

    def test_workers_do_not_change_winners(self, fast_run):
        tmp_path, _, _ = fast_run
        first = (tmp_path / "out" / "winners.csv").read_bytes()  # 2 workers
        doc = json.loads((tmp_path / "out" / "config.frozen.json").read_text())
        for workers in (1, 4):
            doc["workers"] = workers
            doc["output_dir"] = str(tmp_path / f"out{workers}")
            path = tmp_path / f"config{workers}.json"
            path.write_text(json.dumps(doc))
            assert main(["--config", str(path), "run"]) == 0
            assert (tmp_path / f"out{workers}" / "winners.csv").read_bytes() == first
        # the inline virtual-clock executor picks the same winners
        out = tmp_path / "out_sim"
        out.mkdir()
        _, dag = prepare_execution(doc, out)
        execute_simulated(dag, workers=2)
        winners, missing = collect_winners(dag, out)
        assert missing == []
        write_winners_csv(out / "winners.csv", winners)
        assert (out / "winners.csv").read_bytes() == first

    def test_single_task_mode(self, tmp_path):
        doc = dict(FAST_RUN)
        doc["batch_size"] = 1
        doc["n_states"] = {"even": 1, "odd": 1}
        doc["output_dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, doc)
        assert main(["--config", path, "run", "--single-task", "even_r0_h1"]) == 0
        artifact = tmp_path / "out" / "runs" / "batch0" / "even" / "0" / "even_r0_h1.json"
        # each stage's angles once, in its own record
        assert json.loads(artifact.read_text()).keys() == {"stages"}
        assert main(["--config", path, "run", "--single-task", "even_r0_n1"]) == 0

    @pytest.mark.parametrize("task", ["odd_r0_h1", "odd_r0_pool", "odd_sort"])
    def test_single_task_builds_its_channel_only(self, task, tmp_path, monkeypatch):
        # an HTC job pays for the one channel problem its node reads
        built = []
        real = pipeline.build_problem

        def counted(model, grid, parity, *args):
            built.append(parity)
            return real(model, grid, parity, *args)

        monkeypatch.setattr(pipeline, "build_problem", counted)
        doc = dict(FAST_RUN, batch_size=1, n_states={"even": 1, "odd": 1})
        doc["optimizer"] = {"hermitian_f_max": 16, "nonhermitian_f_max": 8}
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["--config", write_config(tmp_path, doc), "run", "--single-task", task]) == 0
        assert built == ["odd"]

    def test_single_task_runs_with_the_set_up_heap_frozen(self, tmp_path, monkeypatch):
        counts, real = [], orchestrator._run_payload

        def counted(node, degraded):
            counts.append(gc.get_freeze_count())
            return real(node, degraded)

        monkeypatch.setattr(orchestrator, "_run_payload", counted)
        doc = dict(FAST_RUN, batch_size=1, n_states={"even": 1, "odd": 1})
        doc["optimizer"] = {"hermitian_f_max": 16, "nonhermitian_f_max": 8}
        doc["output_dir"] = str(tmp_path / "out")
        assert gc.get_freeze_count() == 0
        path = write_config(tmp_path, doc)
        assert main(["--config", path, "run", "--single-task", "even_r0_h1"]) == 0
        assert len(counts) == 1 and counts[0] > 0

    def test_single_task_failure_exits_three(self, tmp_path, capsys):
        doc = dict(FAST_RUN, batch_size=1, n_states={"even": 2, "odd": 1})
        doc["output_dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, doc)
        # even_r0_h2 reads the artifact that even_r0_h1 has not written yet
        assert main(["--config", path, "run", "--single-task", "even_r0_h2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("task even_r0_h2: failed: FileNotFoundError")
        assert "Traceback" not in err

    def test_unknown_single_task_rejected(self, tmp_path):
        doc = dict(FAST_RUN)
        doc["output_dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, doc)
        assert main(["--config", path, "run", "--single-task", "nope"]) == 2


def test_dead_worker_gives_exit_three(tmp_path, monkeypatch, capsys):
    real = cli.make_payload

    def make_payload(*args):
        payload = real(*args)

        def dying(node, degraded):
            if node.id == "odd_r0_h1":
                os._exit(1)
            payload(node, degraded)

        return dying

    monkeypatch.setattr(cli, "make_payload", make_payload)  # forked workers inherit it
    doc = dict(FAST_RUN, batch_size=1, n_states={"even": 1, "odd": 1})
    doc["optimizer"] = {"hermitian_f_max": 64, "nonhermitian_f_max": 64}
    doc["output_dir"] = str(tmp_path / "out")
    assert main(["--config", write_config(tmp_path, doc), "run"]) == 3
    out, err = capsys.readouterr()
    assert "odd_r0_h1" in err and "Traceback" not in err
    # the even channel ran beside the dying node and finished
    assert any(line.startswith("bound: E = ") for line in out.splitlines())
    lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
    trace = {e["node"]: e for e in map(json.loads, lines)}
    event = trace["odd_r0_h1"]
    assert event["status"] == "failed"
    assert event["error"].startswith(f"worker {event['worker']} (pid ")
    assert event["error"].endswith("died with exit code 1")
    for nid in ("even_r0_h1", "even_sort"):
        assert trace[nid]["status"] == "done"


def inject_failure(monkeypatch, failing_id: str) -> None:
    """Make the payload of node ``failing_id`` raise; forked workers inherit it."""
    real = cli.make_payload

    def make_payload(*args):
        payload = real(*args)

        def failing(node, degraded):
            if node.id == failing_id:
                raise RuntimeError("injected")
            payload(node, degraded)

        return failing

    monkeypatch.setattr(cli, "make_payload", make_payload)


def golden_run_config(tmp_path, name, **extra):
    """The statevector golden case's config with ``extra`` keys, writing under ``name``."""
    _, overrides, _ = CASES["statevector"]
    doc = json.loads(json.dumps({**_TINY, **overrides, **extra}))
    doc["output_dir"] = str(tmp_path / name)
    return write_config(tmp_path, doc, f"{name}.json")


def test_degraded_inputs_are_node_ids(tmp_path, monkeypatch, capsys):
    # two runs of the even channel; the second run's second stage fails
    path = golden_run_config(tmp_path, "out", parities=["even"], batch_size=2)
    inject_failure(monkeypatch, "even_r1_n2")
    assert main(["--config", path, "run"]) == 3
    assert "nodes=['even_r1_n2']" in capsys.readouterr().err
    out = tmp_path / "out"
    pool = json.loads((out / "runs/batch0/even/1/even_r1_pool.json").read_text())
    sort = json.loads((out / "runs/batch0/even/even_sort.json").read_text())
    assert pool["degraded_inputs"] == ["even_r1_n2"]
    assert sort["degraded_inputs"] == ["even_r1_n2"]
    # the surviving stages' winners, index 2 from the first run alone
    rows = read_csv(out / "winners.csv")
    assert [(r["index"], r["run_id"], float(r["energy_re"])) for r in rows] == [
        (str(w["index"]), str(w["run_id"]), w["energy_re"]) for w in sort["winners"]
    ]
    assert [r["index"] for r in rows] == ["1", "2"]
    assert rows[1]["run_id"] == "0"


def test_failed_sort_is_missing_from_the_report(tmp_path, monkeypatch, capsys):
    # every state of both q=2 channels, so that the clean run finds all three
    # targets: resonance_2 is the fourth even state, resonance_1 the second odd one
    extra = {"n_states": {"even": 4, "odd": 2}}
    assert main(["--config", golden_run_config(tmp_path, "clean", **extra), "run"]) == 0
    clean = tmp_path / "clean"
    for label in pipeline.TARGET_LABELS:
        assert float(read_csv(clean / "table.csv")[0][f"{label}_relative_error"]) < 0.01
    inject_failure(monkeypatch, "odd_sort")
    capsys.readouterr()
    assert main(["--config", golden_run_config(tmp_path, "out", **extra), "run"]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        "partial failure: nodes=['odd_sort'] targets=['resonance_1'] missing=['odd_sort']"
    )
    [row], [clean_row] = read_csv(tmp_path / "out" / "table.csv"), read_csv(clean / "table.csv")
    assert row["resonance_1_status"] == "absent"
    assert row["resonance_1_re"] == row["resonance_1_relative_error"] == ""
    for label in ("bound", "resonance_2"):
        for col in ("re", "im", "relative_error", "status"):
            assert row[f"{label}_{col}"] == clean_row[f"{label}_{col}"]
    # the even winners, byte for byte, and no odd one
    lines = (tmp_path / "out" / "winners.csv").read_text().splitlines()
    assert lines == [
        line for line in (clean / "winners.csv").read_text().splitlines()
        if not line.startswith("odd,")
    ]


@pytest.mark.parametrize("case", ["noisy", "noisy_readout_only"])
def test_one_parity_run_does_not_request_the_other_channel(case, tmp_path, capsys):
    # the noisy golden runs the even channel alone, noisy_readout_only the odd
    # one; here with every state of the channel (4 even, 2 odd at q=2) and a
    # Hermitian budget that reaches its targets
    _, overrides, _ = CASES[case]
    doc = json.loads(json.dumps({**_TINY, **overrides, "n_states": {"even": 4, "odd": 2}}))
    doc["optimizer"]["hermitian_f_max"] = 100
    doc["output_dir"] = str(tmp_path / "out")
    assert main(["--config", write_config(tmp_path, doc), "run"]) == 0
    out = capsys.readouterr().out.splitlines()
    [row] = read_csv(tmp_path / "out" / "table.csv")
    for label, (parity, _) in pipeline.TARGET_LABELS.items():
        if parity in doc["parities"]:
            assert row[f"{label}_status"] == "ok"
            assert float(row[f"{label}_relative_error"]) < 0.05
        else:
            assert row[f"{label}_status"] == "not_requested"
            assert row[f"{label}_re"] == row[f"{label}_relative_error"] == ""
            assert f"{label}: not requested" in out


class TestOutputRootEnv:
    def test_env_var_prefixes_relative_dirs(self, tmp_path, monkeypatch):
        from qdrive.config import OUTPUT_ROOT_ENV

        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        path = write_config(tmp_path, {"output_dir": "rel", "q": 2})
        assert main(["--config", path, "diag"]) == 0
        assert (tmp_path / "root" / "rel" / "diag_even.csv").exists()


def test_failed_write_keeps_the_previous_artifact(tmp_path):
    path = tmp_path / "artifact.json"
    _write_json(path, {"value": 1})
    # json.dumps fails on the object before any file is opened
    with pytest.raises(TypeError):
        _write_json(path, {"value": 2, "broken": object()})
    assert json.loads(path.read_text()) == {"value": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_failed_report_write_keeps_the_previous_report(tmp_path, monkeypatch, capsys):
    _, overrides, _ = CASES["statevector"]
    doc = json.loads(json.dumps({**_TINY, **overrides}))
    doc["output_dir"] = str(tmp_path / "out")
    main(["--config", write_config(tmp_path, doc), "run"])  # 3: a target is absent
    winners = tmp_path / "out" / "winners.csv"
    first = winners.read_bytes()
    real = os.replace

    def replace(src, dst):
        if Path(dst).name == "winners.csv":
            raise OSError("disk gone")
        real(src, dst)

    # cli's os is the os module: every os.replace onto a winners.csv fails
    monkeypatch.setattr(cli.os, "replace", replace)
    # another seed gives other winners, which an in-place write would leave
    doc["seed"] += 1
    capsys.readouterr()
    assert main(["--config", write_config(tmp_path, doc), "run"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: disk gone"
    assert "Traceback" not in err
    assert winners.read_bytes() == first
    assert not [p for p in (tmp_path / "out").rglob("*") if p.name.endswith(".tmp")]


class TestSweep:
    """A sweep runs the batches of all its points as one DAG."""

    POINTS = ("sweep_r1.0_linf_0/", "sweep_r10000.0_linf_0/")

    def config(self, tmp_path, **extra):
        _, overrides, _ = CASES["noisy_sweep"]
        doc = json.loads(json.dumps({**_TINY, **overrides, **extra}))
        doc["output_dir"] = str(tmp_path / "out")
        return write_config(tmp_path, doc)

    def test_one_execute_call_over_every_point(self, tmp_path, monkeypatch):
        calls = []
        real = orchestrator.execute

        def execute(dag, **kwargs):
            calls.append(dag)
            return real(dag, **kwargs)

        monkeypatch.setattr(orchestrator, "execute", execute)
        assert main(["--config", self.config(tmp_path), "sweep"]) == 0
        [dag] = calls
        assert len(dag.nodes) == 8  # per point: odd h1, n1, pool and sort
        for point in self.POINTS:
            nodes = [n for n in dag.nodes.values() if n.id.startswith(point)]
            assert len(nodes) == 4
            for node in nodes:
                assert node.output.startswith(point + "runs/batch0/odd/")
                assert (tmp_path / "out" / node.output).exists()

    def test_leaves_the_provenance_of_run(self, tmp_path):
        path = self.config(tmp_path)
        assert main(["--config", path, "sweep"]) == 0
        out = tmp_path / "out"
        frozen = json.loads((out / "config.frozen.json").read_text())
        assert frozen == load_config(path, {})
        trace = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        dag = orchestrator.TaskDag()
        for point in self.POINTS:
            orchestrator.build_dag({"odd": 1}, 1, ["odd"], prefix=point, dag=dag)
        assert sorted(e["node"] for e in trace) == sorted(dag.nodes)
        assert {e["status"] for e in trace} == {"done"}

    def test_failed_point_leaves_the_other_rows(self, tmp_path, monkeypatch, capsys):
        failed = self.POINTS[1]
        inject_failure(monkeypatch, failed + "odd_r0_h1")
        assert main(["--config", self.config(tmp_path, workers=2), "sweep"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # the failed stage and the three nodes skipped after it; the sort wrote nothing
        nodes = [failed + nid for nid in ("odd_r0_h1", "odd_r0_n1", "odd_r0_pool", "odd_sort")]
        last = err.splitlines()[-1]
        assert last.startswith("partial failure: nodes=")
        assert last.endswith(f" missing={[failed + 'odd_sort']}")
        assert sorted(re.findall(r"'([^']+)'", last.split(" missing=")[0])) == sorted(nodes)
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        golden = (GOLDEN / "noisy_sweep" / "sweep.csv").read_text().splitlines()
        # the header and the clean point's row; the failed point has no sort artifact
        assert lines == [line for line in golden if not line.startswith("10000.0,")]
        assert not (tmp_path / "out" / "sweep_r10000.0_linf_0/runs/batch0/odd/odd_sort.json").exists()


class TestStartUp:
    """Each HTC job is a fresh interpreter: a job that runs no trust-region
    or simplex phase loads no scipy, a job or run that forks no worker loads
    no ``multiprocessing``, and a multi-worker run imports
    ``scipy.optimize`` once, before it forks the workers."""

    REPO = Path(__file__).resolve().parent.parent
    SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    MULTIPROCESSING = "sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing')"

    def python(self, code: str) -> list[str]:
        """The stdout lines of ``code`` run in a fresh interpreter."""
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=self.REPO,
        )
        return out.stdout.splitlines()

    @pytest.fixture(scope="class")
    def noisy_run(self, tmp_path_factory):
        # the golden noisy case: NFT stages and a pseudovariance budget too
        # small for the trust region to start
        out = tmp_path_factory.mktemp("noisy") / "out"
        lines = self.python(
            "import sys; from pathlib import Path; from tests.test_golden import run_case; "
            f"run_case('noisy', Path({str(out)!r})); print({self.SCIPY})"
        )
        return out, lines[-1]

    def test_importing_the_cli_loads_no_scipy(self):
        assert self.python(f"import sys, qdrive.cli; print({self.SCIPY})") == ["[]"]

    def test_one_worker_noisy_run_loads_no_scipy(self, noisy_run):
        out, modules = noisy_run
        assert (out / "winners.csv").exists()
        assert modules == "[]"

    def test_sort_job_loads_no_scipy(self, noisy_run):
        out, _ = noisy_run
        config = str(out / "config.frozen.json")
        lines = self.python(
            "import sys; from qdrive.cli import main; "
            f"code = main(['--config', {config!r}, 'run', '--single-task', 'even_sort']); "
            f"print(code, {self.SCIPY})"
        )
        assert lines[-1] == "0 []"

    def test_one_worker_noisy_run_loads_no_multiprocessing(self, noisy_run, tmp_path):
        # the payloads run inline: nothing forks, so nothing loads the machinery
        out, _ = noisy_run
        config = str(out / "config.frozen.json")
        lines = self.python(
            "import sys; from qdrive.cli import main; "
            f"code = main(['--config', {config!r}, '--set', 'output_dir={tmp_path}', 'run']); "
            f"print(code, {self.MULTIPROCESSING})"
        )
        assert (tmp_path / "winners.csv").read_bytes() == (out / "winners.csv").read_bytes()
        assert lines[-1].endswith(" []")

    def test_single_task_job_loads_no_multiprocessing(self, noisy_run):
        out, _ = noisy_run
        config = str(out / "config.frozen.json")
        lines = self.python(
            "import sys; from qdrive.cli import main; "
            f"code = main(['--config', {config!r}, 'run', '--single-task', 'even_r0_h1']); "
            f"print(code, {self.MULTIPROCESSING})"
        )
        assert lines[-1] == "0 []"

    @pytest.mark.parametrize(
        "case, loaded",
        [
            ("run", True),  # Hermitian stages pinned to simplex
            ("noisy_sweep", True),  # simplex Hermitian stages
            # NFT Hermitian stages and a pseudovariance budget too small for
            # the trust region to start: no phase of the plan uses scipy
            ("nft_sweep", False),
        ],
    )
    def test_workers_inherit_scipy_from_the_parent(self, case, loaded, tmp_path):
        if case == "run":
            doc = {"q": 2, "parities": ["even"], "n_states": {"even": 1},
                   "batch_size": 1, "workers": 2, "tier": "statevector",
                   "optimizer": {"hermitian_kind": "simplex", "hermitian_f_max": 8,
                                 "nonhermitian_f_max": 4},
                   "output_dir": str(tmp_path / "out")}
            command = f"main(['--config', {write_config(tmp_path, doc)!r}, 'run'])"
        else:
            extra = ", optimizer={'hermitian_f_max': 6, 'nonhermitian_f_max': 4}"
            command = (
                f"run_case('noisy_sweep', Path({str(tmp_path / 'out')!r}), workers=2"
                f"{extra if case == 'nft_sweep' else ''})"
            )
        lines = self.python(
            "import sys; from pathlib import Path; from qdrive import orchestrator; "
            "from qdrive.cli import main; from tests.test_golden import run_case\n"
            "execute = orchestrator.execute\n"
            "def spy(*args, **kwargs):\n"
            "    print('entered execute with scipy.optimize', 'scipy.optimize' in sys.modules)\n"
            "    return execute(*args, **kwargs)\n"
            f"orchestrator.execute = spy\n{command}\n"
        )
        assert f"entered execute with scipy.optimize {loaded}" in lines
