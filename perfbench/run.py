"""qdrive benchmark: batch CLI workloads, end-to-end metrics, per-layer trace.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sv_run --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 120 --trace 0

Every repetition is one ``qdrive run`` or ``qdrive sweep`` command in a fresh
interpreter (``perfbench/child.py``) with its own output root, so no module
cache or artifact carries over.  The load is closed-loop with one client:
one command at a time.  Repetitions continue until ``--seconds`` is used up
(at least three rounds untraced, one round traced).  With ``--trace 0`` the
end-to-end metrics are medians over repetitions; with ``--trace 1``
untraced and traced repetitions alternate and the per-layer metrics are
medians over the traced ones.  Every repetition must reproduce the first
one's result file byte for byte, and its DAG trace must cover every node;
a mismatch makes ``correct`` false and is never averaged in.

The times ``wall_s``, ``setup_s`` and ``cpu_s`` are reported at a reference
CPU speed: each repetition's raw time is multiplied by ``REF_CHUNK_S`` over
the mean CPU time of a calibration chunk that ``child.py`` runs every 20 ms
inside the measured process.  A single-worker command runs pinned to one
CPU, so the chunk shares the CPU with the work.  ``wall_s`` also leaves
out the time that the hypervisor gave to other guests during the
repetition (the ``steal`` column of ``/proc/stat``), per CPU that the
command may use.  The raw medians are printed beside the scaled ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (DAG nodes over all repetitions) and ``metrics``.
See ``perfbench/README.md`` for the workloads and the metric table.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".bench_out"
HARD_LIMIT_S = 170.0  # the whole benchmark process ends before 180 s
# the calibration chunk's CPU time at the reference speed that times are
# reported at: between its means pinned (80-120 us) and unpinned (110-170 us)
# on the 2.0 GHz Xeon vCPUs of the shared host the benchmark was built on
REF_CHUNK_S = 150e-6
SCALED = ("wall_s", "setup_s", "cpu_s")

# Reference budgets are reduced so that one repetition takes a few seconds
# on a 2-core machine; see README.md for why each workload exists.
WORKLOADS: dict[str, dict] = {
    "sv_run": {
        "command": "run",
        "config": {
            "q": 3,
            "parities": ["even", "odd"],
            "n_states": {"even": 4, "odd": 2},
            "batch_size": 1,
            "workers": 2,
            "tier": "statevector",
            "optimizer": {"hermitian_f_max": 96, "nonhermitian_f_max": 64},
        },
    },
    "noisy_chain": {
        "command": "run",
        "config": {
            "q": 2,
            "parities": ["even"],
            "n_states": {"even": 2, "odd": 2},
            "batch_size": 1,
            "workers": 1,
            "tier": "noisy",
            "shots": 10000,
            "mitigation": {"readout": True, "zne": True},
            "optimizer": {"hermitian_f_max": 40, "nonhermitian_f_max": 24},
        },
    },
    "noisy_sweep": {
        "command": "sweep",
        "config": {
            "q": 2,
            "parities": ["odd"],
            "n_states": {"even": 1, "odd": 1},
            "batch_size": 1,
            "workers": 2,
            "tier": "noisy",
            "shots": 10000,
            "mitigation": {"readout": True, "zne": True},
            "optimizer": {"hermitian_f_max": 40, "nonhermitian_f_max": 24},
            "sweep": {
                "reduction_factors": [1.0, 10000.0],
                "longevity_factors": ["inf"],
                "repeats": 1,
            },
        },
    },
}

# (name, unit): the metrics of BENCHMARK.json, in its order
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]
# printed with the end-to-end table; the traced run's result line carries
# them as per-layer metrics, because they can be 0 or spread across seeds
# beyond any bound BENCHMARK.json may set
QUALITY = [
    ("fail_frac", "ratio"),
    ("max_rel_error", "ratio"),
    ("mean_sigma2", "a.u."),
    ("mean_fidelity_error", "ratio"),
]
ZNE_BRANCHES = (
    "constant",
    "undefined-averaged",
    "outlier-x5",
    "linear-order",
    "linear-ztest",
    "exponential",
)
PER_LAYER = [
    ("optimize.minimize_calls", "count"),
    ("optimize.minimize_s", "s"),
    ("optimize.self_s", "s"),
    ("optimize.objective_evals", "count"),
    ("optimize.objective_s", "s"),
    ("optimize.vqd_eval_p50_ms", "ms"),
    ("optimize.vqd_eval_p99_ms", "ms"),
    ("optimize.pv_eval_p50_ms", "ms"),
    ("optimize.pv_eval_p99_ms", "ms"),
    ("optimize.budget_exhausted", "count"),
    ("optimize.nft_downgrades", "count"),
    ("simulator.statevector_calls", "count"),
    ("simulator.statevector_s", "s"),
    ("simulator.density_matrix_calls", "count"),
    ("simulator.density_matrix_s", "s"),
    ("simulator.gate_noise_calls", "count"),
    ("simulator.gate_noise_s", "s"),
    ("simulator.outcome_probabilities_s", "s"),
    ("simulator.sample_shots_calls", "count"),
    ("simulator.shots_drawn", "count"),
    ("circuits.build_ansatz_calls", "count"),
    ("circuits.build_ansatz_s", "s"),
    ("mitigation.fold_calls", "count"),
    ("mitigation.fold_s", "s"),
    ("estimator.expectation_calls", "count"),
    ("estimator.expectation_s", "s"),
    ("estimator.expectation_self_s", "s"),
    ("estimator.overlap_calls", "count"),
    ("estimator.overlap_s", "s"),
    ("estimator.circuits_run", "count"),
    ("mitigation.zne_calls", "count"),
    ("mitigation.zne_s", "s"),
    *[(f"mitigation.zne_branch.{b}", "count") for b in ZNE_BRANCHES],
    ("mitigation.readout_invert_calls", "count"),
    ("mitigation.readout_clamped", "count"),
    ("mitigation.readout_clamp_frac", "ratio"),
    ("mitigation.invert_distribution_calls", "count"),
    ("mitigation.invert_distribution_clamped", "count"),
    ("pipeline.build_problem_s", "s"),
    ("pipeline.hermitian_stage_s", "s"),
    ("pipeline.nonhermitian_stage_s", "s"),
    ("pipeline.gather_s", "s"),
    ("cli.oracle_s", "s"),
    ("config.load_s", "s"),
    ("orchestrator.execute_s", "s"),
    ("orchestrator.node_busy_s", "s"),
    ("orchestrator.parallelism", "ratio"),
    ("orchestrator.critical_path_s", "s"),
    ("orchestrator.dispatch_wait_s", "s"),
    ("orchestrator.nodes", "count"),
    ("orchestrator.nodes_failed", "count"),
    ("orchestrator.nodes_skipped", "count"),
    ("orchestrator.nodes_degraded", "count"),
    ("cli.write_json_calls", "count"),
    ("cli.write_json_s", "s"),
    ("cli.read_json_s", "s"),
    ("cli.artifact_bytes", "B"),
    ("cli.report_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("calibration.chunk_us", "us"),
    *[(f"quality.{name}", unit) for name, unit in QUALITY],
]
# report label -> parity channel of its target (the table.csv columns)
TARGET_PARITY = {"bound": "even", "resonance_1": "odd", "resonance_2": "even"}
GATHER = (
    "pipeline.deduplicate",
    "pipeline.pool_batches",
    "pipeline.filter_spurious",
    "pipeline.attach_fidelity",
)


class SetupError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def workload_config(name: str, seed: int, overrides: dict | None = None) -> dict:
    """The generated config of one workload: its fixed sizes plus the seed."""
    doc = json.loads(json.dumps(WORKLOADS[name]["config"]))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            doc.setdefault(key, {}).update(value)
        else:
            doc[key] = value
    doc["seed"] = seed
    doc["output_dir"] = "out"
    return doc


def expected_nodes(doc: dict, command: str) -> int:
    """DAG nodes one command attempts: per parity a sort node plus, per run,
    a pool node and a Hermitian and a non-Hermitian node per state."""
    per_batch = sum(
        1 + doc["batch_size"] * (1 + 2 * doc["n_states"][p]) for p in doc["parities"]
    )
    if command != "sweep":
        return per_batch
    sweep = doc["sweep"]
    points = len(sweep["reduction_factors"]) * len(sweep["longevity_factors"])
    return per_batch * points * sweep["repeats"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _read_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    return list(csv.DictReader(lines[1:]))  # line 0 is the schema comment


def _child_env(output_root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        ),
        QDRIVE_OUTPUT_ROOT=str(output_root),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def stolen_s(cpus: set[int]) -> float:
    """CPU time the hypervisor has given other guests while ``cpus`` were
    runnable, per CPU of ``cpus``; 0 where the kernel does not say."""
    try:
        with open("/proc/stat") as fh:
            ticks = [
                int(fields[8])
                for fields in map(str.split, fh)
                if fields[0][:3] == "cpu" and fields[0][3:].isdigit()
                and int(fields[0][3:]) in cpus
            ]
        return sum(ticks) / len(cpus) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_child(args: list[str], cwd: Path, env: dict, log: Path, timeout: float):
    """Run one fresh interpreter to completion; returns (wall start, wall end,
    exit code, rusage).  The process is killed at ``timeout`` seconds."""
    with open(log, "w") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage


# ---------------------------------------------------------------------------
# metrics of one repetition
# ---------------------------------------------------------------------------


def orchestrator_metrics(calls: list[dict]) -> dict:
    """Scheduling figures from the traces that ``orchestrator.execute`` returned."""
    execute_s = busy = critical = wait = 0.0
    nodes = failed = skipped = degraded = 0
    for call in calls:
        execute_s += call["exit"] - call["entry"]
        events = {e["node"]: e for e in call["events"]}
        path: dict[str, float] = {}
        for event in sorted(call["events"], key=lambda e: e["finish"]):
            nid = event["node"]
            parents = call["parents"].get(nid, [])
            duration = event["finish"] - event["start"]
            path[nid] = duration + max((path.get(p, 0.0) for p in parents), default=0.0)
            nodes += 1
            failed += event["status"] == "failed"
            skipped += event["status"] == "skipped"
            degraded += bool(event["degraded_inputs"])
            if event["status"] == "skipped":
                continue
            busy += duration
            ready = max(
                (events[p]["finish"] for p in parents if p in events),
                default=call["entry"],
            )
            wait += event["start"] - ready
        critical += max(path.values(), default=0.0)
    return {
        "orchestrator.execute_s": execute_s,
        "orchestrator.node_busy_s": busy,
        "orchestrator.parallelism": busy / execute_s if execute_s > 0 else 0.0,
        "orchestrator.critical_path_s": critical,
        "orchestrator.dispatch_wait_s": wait,
        "orchestrator.nodes": nodes,
        "orchestrator.nodes_failed": failed,
        "orchestrator.nodes_skipped": skipped,
        "orchestrator.nodes_degraded": degraded,
    }


# metric -> traced function whose call count it is
CALL_COUNTS = {
    "optimize.minimize_calls": "optimize.minimize",
    "simulator.statevector_calls": "simulator.statevector",
    "simulator.density_matrix_calls": "simulator.density_matrix",
    "simulator.gate_noise_calls": "simulator.apply_gate_noise",
    "simulator.sample_shots_calls": "simulator.sample_shots",
    "circuits.build_ansatz_calls": "circuits.build_ansatz",
    "mitigation.fold_calls": "mitigation.fold_circuit",
    "estimator.expectation_calls": "estimator.Estimator.expectation",
    "estimator.overlap_calls": "estimator.Estimator.overlap_lowdepth",
    "mitigation.zne_calls": "mitigation.zne_extrapolate",
    "mitigation.readout_invert_calls": "mitigation.readout_invert",
    "mitigation.invert_distribution_calls": "mitigation.invert_distribution",
    "cli.write_json_calls": "cli._write_json",
}
# metric -> traced function whose busy (outermost inclusive) time it is
BUSY_TIMES = {
    "optimize.minimize_s": "optimize.minimize",
    "simulator.statevector_s": "simulator.statevector",
    "simulator.density_matrix_s": "simulator.density_matrix",
    "simulator.gate_noise_s": "simulator.apply_gate_noise",
    "simulator.outcome_probabilities_s": "simulator.outcome_probabilities",
    "circuits.build_ansatz_s": "circuits.build_ansatz",
    "mitigation.fold_s": "mitigation.fold_circuit",
    "estimator.expectation_s": "estimator.Estimator.expectation",
    "estimator.overlap_s": "estimator.Estimator.overlap_lowdepth",
    "mitigation.zne_s": "mitigation.zne_extrapolate",
    "pipeline.build_problem_s": "pipeline.build_problem",
    "pipeline.hermitian_stage_s": "pipeline.run_hermitian_stage",
    "pipeline.nonhermitian_stage_s": "pipeline.run_nonhermitian_stage",
    "cli.oracle_s": "cli.oracle_target_map",
    "config.load_s": "config.load_config",
    "cli.write_json_s": "cli._write_json",
    "cli.read_json_s": "cli._read_json",
}
# metric -> count taken by a tracer observer from a return value
OBSERVED = [
    "optimize.budget_exhausted",
    "optimize.nft_downgrades",
    "simulator.shots_drawn",
    "estimator.circuits_run",
    "mitigation.readout_clamped",
    "mitigation.invert_distribution_clamped",
    *[f"mitigation.zne_branch.{b}" for b in ZNE_BRANCHES],
]


def layer_metrics(report: dict) -> dict:
    """Per-layer figures from the tracer's report of one traced command."""
    calls, busy, counts = report["calls"], report["inclusive_s"], report["counts"]
    out = {metric: calls.get(fn, 0) for metric, fn in CALL_COUNTS.items()}
    out.update({metric: busy.get(fn, 0.0) for metric, fn in BUSY_TIMES.items()})
    out.update({metric: counts.get(metric, 0) for metric in OBSERVED})
    objective_s = report["objective_in_minimize_s"]
    out["optimize.objective_evals"] = len(objective_s)
    out["optimize.objective_s"] = sum(objective_s)
    out["optimize.self_s"] = out["optimize.minimize_s"] - out["optimize.objective_s"]
    for short, fn in (("vqd", "optimize.vqd_objective"), ("pv", "optimize.pseudovariance_objective")):
        samples = report["samples_s"].get(fn, [])
        out[f"optimize.{short}_eval_p50_ms"] = 1e3 * percentile(samples, 0.5)
        out[f"optimize.{short}_eval_p99_ms"] = 1e3 * percentile(samples, 0.99)
    out["estimator.expectation_self_s"] = report["self_s"].get(
        "estimator.Estimator.expectation", 0.0
    )
    inverted = out["mitigation.readout_invert_calls"]
    out["mitigation.readout_clamp_frac"] = (
        out["mitigation.readout_clamped"] / inverted if inverted else 0.0
    )
    out["pipeline.gather_s"] = sum(busy.get(fn, 0.0) for fn in GATHER)
    # reporting: from the end of the last execute call to the command's end
    spans = report["spans"]
    commands = [s for s in spans if s[0] in ("cli.cmd_run", "cli.cmd_sweep")]
    executes = [s for s in spans if s[0] == "orchestrator.execute"]
    out["cli.report_s"] = sum(
        c[4] - max((e[4] for e in executes if c[3] <= e[4] <= c[4]), default=c[3])
        for c in commands
    )
    return out


@dataclass
class Rep:
    traced: bool
    wall_s: float  # raw times, as the machine ran them
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    chunk_s: float  # mean calibration chunk CPU time during the repetition
    stolen_s: float  # CPU time the hypervisor took, per CPU the command had
    layers: dict = field(default_factory=dict)

    def value(self, name: str) -> float | None:
        """An end-to-end metric, with times at the reference speed and
        ``wall_s`` without stolen time."""
        raw = getattr(self, name)
        if name == "wall_s":
            raw -= self.stolen_s
        if name in SCALED and raw is not None:
            return raw * REF_CHUNK_S / self.chunk_s
        return raw


class Session:
    """Repetitions of one workload, checked against the session's first one."""

    def __init__(self, name: str, seed: int, work: Path, overrides: dict | None = None):
        self.name = name
        self.command = WORKLOADS[name]["command"]
        self.doc = workload_config(name, seed, overrides)
        if self.doc["workers"] > (os.cpu_count() or 1):
            raise SetupError(
                f"workload {name} uses {self.doc['workers']} workers but "
                f"os.cpu_count() is {os.cpu_count()}"
            )
        # one worker: pin the command to one CPU, which the calibration
        # chunk then shares with the work
        allowed = os.sched_getaffinity(0)
        self.cpus = {max(allowed)} if self.doc["workers"] == 1 else allowed
        self.cpu_arg = str(max(allowed)) if self.doc["workers"] == 1 else "all"
        self.work = work / name
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.doc, indent=2))
        self.result_name = "winners.csv" if self.command == "run" else "sweep.csv"
        self.reference: bytes | None = None
        self.reps: list[Rep] = []
        self.problems: list[str] = []
        self.quality: dict = {}
        self.started = 0

    def run_rep(self, traced: bool, deadline: float) -> Rep | None:
        index = self.started
        self.started += 1
        rep_dir = self.work / f"rep{index}"
        rep_dir.mkdir()
        sidecar = rep_dir / "sidecar.json"
        stolen = stolen_s(self.cpus)
        start, end, code, usage = run_child(
            [
                str(CHILD), str(sidecar), "1" if traced else "0", self.cpu_arg, "--",
                "--config", str(self.config_path), self.command,
            ],
            cwd=rep_dir,
            env=_child_env(rep_dir),
            log=rep_dir / "log.txt",
            timeout=max(1.0, deadline - time.monotonic()),
        )
        stolen = stolen_s(self.cpus) - stolen
        problem = self._check(rep_dir, code)
        if problem is not None:
            log = (rep_dir / "log.txt").read_text()[-2000:]
            self.problems.append(f"rep {index}: {problem}\n{log}")
            return None
        side = json.loads(sidecar.read_text())
        calls = side["execute"]
        if side["calibration"]["chunk_s"] is None:
            self.problems.append(f"rep {index}: no calibration sample was taken")
            return None
        attempted = expected_nodes(self.doc, self.command)
        done = sum(e["status"] == "done" for c in calls for e in c["events"])
        rep = Rep(
            traced=traced,
            wall_s=end - start,
            setup_s=calls[0]["entry"] - start if calls else None,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            attempted=attempted,
            failed=attempted - done,
            chunk_s=side["calibration"]["chunk_s"],
            stolen_s=stolen,
        )
        out = rep_dir / "out"
        if not self.quality:
            self.quality = self._quality(out, rep)
        rep.layers = orchestrator_metrics(calls)
        rep.layers["cli.artifact_bytes"] = sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file()
        )
        rep.layers["calibration.chunk_us"] = 1e6 * rep.chunk_s
        if traced:
            rep.layers.update(layer_metrics(side["trace"]))
            rep.layers["trace.unattributed_s"] = rep.wall_s - side["trace"][
                "inclusive_s"
            ].get("cli.main", 0.0)
        self.reps.append(rep)
        shutil.rmtree(rep_dir)
        return rep

    def _check(self, rep_dir: Path, code: int) -> str | None:
        """Why this repetition's outputs are wrong, or None."""
        # run exits 3 when a target is absent: counted by max_rel_error
        if code not in (0, 3):
            return f"exit code {code}"
        sidecar = rep_dir / "sidecar.json"
        result = rep_dir / "out" / self.result_name
        if not sidecar.exists() or not result.exists():
            return f"missing {sidecar.name} or {self.result_name}"
        data = result.read_bytes()
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            return f"{self.result_name} differs from the first repetition"
        calls = json.loads(sidecar.read_text())["execute"]
        nodes = {nid for c in calls for nid in c["parents"]}
        if len(nodes) > expected_nodes(self.doc, self.command):
            return f"{len(nodes)} DAG nodes, config implies fewer"
        for call in calls:
            if {e["node"] for e in call["events"]} != set(call["parents"]):
                return "an execute trace does not cover its DAG"
        if self.command == "run":
            trace_file = rep_dir / "out" / "trace.jsonl"
            covered = {json.loads(line)["node"] for line in trace_file.read_text().splitlines()}
            if covered != nodes:
                return "trace.jsonl does not cover every DAG node"
        return None

    def _quality(self, out: Path, rep: Rep) -> dict:
        """Result quality; seeded outputs repeat, so the first repetition's."""
        rows = _read_rows(out / self.result_name)
        ok = [r for r in rows if r.get("status", "ok") == "ok" and r["sigma2"]]
        if self.command == "run":
            table = _read_rows(out / "table.csv")[0]
            errors = [
                float(table[f"{label}_relative_error"])
                if table[f"{label}_status"] == "ok" else 1.0
                for label, parity in TARGET_PARITY.items()
                if parity in self.doc["parities"]
            ]
        else:
            log = out.parent / "oracle.txt"
            _, _, code, _ = run_child(
                [str(CHILD), "--sweep-errors", str(self.config_path), str(out / self.result_name)],
                cwd=out.parent,
                env=_child_env(out.parent),
                log=log,
                timeout=60.0,
            )
            if code != 0:
                self.problems.append(f"oracle failed: {log.read_text()[-2000:]}")
                errors = []
            else:
                errors = json.loads(log.read_text().splitlines()[-1])
        return {
            "fail_frac": rep.failed / rep.attempted,
            "max_rel_error": max(errors, default=1.0),
            "mean_sigma2": statistics.fmean(float(r["sigma2"]) for r in ok) if ok else 0.0,
            "mean_fidelity_error": (
                statistics.fmean(float(r["fidelity_error"]) for r in ok) if ok else 0.0
            ),
        }

    # -- summaries -----------------------------------------------------------

    def untraced(self) -> list[Rep]:
        return [r for r in self.reps if not r.traced]

    def end_to_end(self, raw: bool = False) -> dict[str, list[float]]:
        """Untraced values per metric; times at the reference speed unless
        ``raw``."""
        get = getattr if raw else Rep.value
        return {
            name: [get(r, name) for r in self.untraced() if getattr(r, name) is not None]
            for name, _ in END_TO_END
        }

    def per_layer(self) -> dict:
        traced = [r for r in self.reps if r.traced]
        out = {}
        for name, _ in PER_LAYER:
            values = [r.layers[name] for r in traced if name in r.layers]
            if values:
                out[name] = statistics.median(values)
        untraced_wall = [r.wall_s for r in self.untraced()]
        if traced and untraced_wall:
            out["trace.overhead_s"] = statistics.median(
                r.wall_s for r in traced
            ) - statistics.median(untraced_wall)
        for name, _ in QUALITY:
            out[f"quality.{name}"] = self.quality.get(name, 0.0)
        return out


def run_sessions(
    names: list[str],
    seed: int,
    seconds: float,
    trace: bool,
    min_rounds: int | None = None,
    overrides_by_name: dict[str, dict] | None = None,
) -> list[Session]:
    """Alternate repetitions of the workloads until ``seconds`` are used.

    A round runs every workload once (untraced, then traced with ``trace``);
    odd rounds run the same steps in reverse order.  A round starts only if
    the previous one's duration still fits in ``seconds``, after at least
    ``min_rounds`` rounds.
    """
    if not (ROOT / "src" / "qdrive" / "cli.py").exists():
        raise SetupError(f"no qdrive sources under {ROOT / 'src'}")
    if min_rounds is None:
        min_rounds = 1 if trace else 3
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        sessions = [
            Session(n, seed, work, (overrides_by_name or {}).get(n)) for n in names
        ]
        # compile the sources and warm the file cache before any timing
        run_child(
            ["-c", "import qdrive.cli"], cwd=work, env=_child_env(work),
            log=work / "warmup.txt", timeout=60.0,
        )
        steps = [(s, traced) for s in sessions for traced in ((False, True) if trace else (False,))]
        rounds, last = 0, 0.0
        while rounds < min_rounds or time.monotonic() - started + last <= seconds:
            if time.monotonic() > started + 0.7 * HARD_LIMIT_S:
                break
            t0 = time.monotonic()
            for session, traced in steps if rounds % 2 == 0 else steps[::-1]:
                session.run_rep(traced, deadline)
            rounds += 1
            last = time.monotonic() - t0
            if any(s.problems for s in sessions):
                break
        return sessions
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), **versions}


def summarize(sessions: list[Session], trace: bool, prefix: bool) -> dict:
    """Print the human-readable tables; return the result object."""
    metrics: dict = {}
    for session in sessions:
        untraced = session.untraced()
        print(
            f"workload {session.name}: seed {session.doc['seed']}, "
            f"{len(untraced)} untraced and {len(session.reps) - len(untraced)} traced repetitions"
        )
        key = (lambda n: f"{session.name}.{n}") if prefix else (lambda n: n)
        series, raw = session.end_to_end(), session.end_to_end(raw=True)
        for name, unit in END_TO_END:
            values = series[name]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            note = f"; raw {statistics.median(raw[name]):.4f}" if name in SCALED else ""
            print(
                f"  {name:<24}{med:>12.4f} {unit:<6} median of {len(values)} "
                f"(q1 {q1:.4f}, q3 {q3:.4f}){note}"
            )
            if not trace:
                metrics[key(name)] = {"value": med, "unit": unit}
        for name, unit in QUALITY:
            value = session.quality.get(name)
            if value is not None:
                print(f"  {name:<24}{value:>12.6g} {unit:<6} seeded, repeats exactly")
        if trace:
            layers = session.per_layer()
            for name, unit in PER_LAYER:
                if name in layers:
                    print(f"  {name:<40}{layers[name]:>14.6g} {unit}")
                    metrics[key(name)] = {"value": layers[name], "unit": unit}
        for problem in session.problems:
            print(f"  PROBLEM {problem}")
    return {
        "correct": all(not s.problems and s.reps for s in sessions),
        "attempted": sum(r.attempted for s in sessions for r in s.reps) or 1,
        "failed": sum(r.failed for s in sessions for r in s.reps),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        sessions = run_sessions(names, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    result = summarize(sessions, bool(args.trace), prefix=len(names) > 1)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps(
            {
                **result,
                "env": env,
                "reps": {s.name: [r.__dict__ for r in s.reps] for s in sessions},
                "problems": {s.name: s.problems for s in sessions},
            },
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
