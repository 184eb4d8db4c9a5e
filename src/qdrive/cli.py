"""Command-line front end: diag, run, sweep, export-dag, zne-demo.

All commands are batch-oriented: they read a JSON config (flags override
file keys), write CSV/JSON artifacts under the output directory, and use
the exit-code contract 0 = success, 2 = config error, 3 = partial pipeline
failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import orchestrator, pipeline
from .config import (
    OUTPUT_ROOT_ENV,
    ConfigError,
    build_grid,
    build_model,
    build_plan,
    load_config,
)
from .mitigation import ZnePoints, zne_extrapolate
from .model import build_basis, exact_diagonalize, oracle_targets, project_hamiltonians
from .pipeline import (
    TARGET_LABELS,
    ResonanceRecord,
    attach_fidelity,
    deduplicate,
    filter_spurious,
    match_targets,
    pool_batches,
    run_hermitian_stage,
    run_nonhermitian_stage,
)

WINNERS_SCHEMA = "# qdrive-winners-v1"
TABLE_SCHEMA = "# qdrive-table-v1"
DIAG_SCHEMA = "# qdrive-diag-v1"
SWEEP_SCHEMA = "# qdrive-sweep-v1"


def resolve_output_dir(doc: dict) -> Path:
    out = Path(doc["output_dir"])
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not out.is_absolute():
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# DAG payloads: every stage reads and writes JSON artifacts only
# ---------------------------------------------------------------------------


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: Path, doc) -> None:
    """Write ``doc`` atomically: a crash leaves the old file or none, never a
    truncated one that a downstream task would read.  Each artifact has one
    writing task, so the process id makes the temporary name unique."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def make_payload(plan, problems, root: Path, batch: str):
    def payload(node, degraded):
        problem = problems[node.parity]
        out_path = root / node.output
        if node.kind == "hermitian":
            thetas: list = []
            stages: list = []
            if node.inputs:  # the previous Hermitian stage's artifact
                prev = _read_json(root / node.inputs[0])
                thetas = prev["thetas"]
                stages = prev["stages"]
            priors = [np.asarray(t) for t in thetas]
            stage = run_hermitian_stage(
                node.index, priors, problem, plan, node.run
            )
            _write_json(
                out_path,
                {"thetas": thetas + [stage["theta"]], "stages": stages + [stage]},
            )
        elif node.kind == "nonhermitian":
            herm = _read_json(root / node.inputs[0])
            record = run_nonhermitian_stage(
                node.index,
                np.asarray(herm["thetas"][-1]),
                problem,
                plan,
                node.run,
                batch_id=batch,
            )
            _write_json(out_path, record.to_dict())
        elif node.kind == "pool":
            records = []
            for path in node.inputs:
                full = root / path
                if full.exists():
                    records.append(ResonanceRecord.from_dict(_read_json(full)))
            est = plan.make_estimator(node.parity, node.run, "pool")
            survivors = deduplicate(records, est, plan.overlap_tol)
            _write_json(
                out_path,
                {
                    "records": [r.to_dict() for r in survivors],
                    "degraded_inputs": degraded,
                },
            )
        elif node.kind == "sort":
            records = []
            degraded_runs = []
            for path in node.inputs:
                full = root / path
                if full.exists():
                    doc = _read_json(full)
                    records.extend(
                        ResonanceRecord.from_dict(d) for d in doc["records"]
                    )
                    if doc["degraded_inputs"]:
                        degraded_runs.append(path)
            winners = pool_batches(records)
            filter_spurious(winners, problem, plan.thresholds)
            attach_fidelity(winners, problem)
            _write_json(
                out_path,
                {
                    "winners": [w.to_dict() for w in winners],
                    "degraded_inputs": degraded + degraded_runs,
                },
            )
        else:  # pragma: no cover - build_dag emits only the four kinds
            raise ValueError(f"unknown task kind {node.kind}")

    return payload


def prepare_execution(doc: dict, root: Path, batch: str = "batch0"):
    grid = build_grid(doc)
    model = build_model(doc)
    plan = build_plan(doc)
    problems = {
        parity: pipeline.build_problem(model, grid, parity, plan.q)
        for parity in plan.parities
    }
    dag = orchestrator.build_dag(
        plan.n_states, plan.batch_size, plan.parities, batch=batch
    )
    payload = make_payload(plan, problems, root, batch)
    for node in dag.nodes.values():
        node.payload = payload
    return plan, problems, dag


def collect_winners(dag, root: Path) -> tuple[list[ResonanceRecord], list[str]]:
    winners: list[ResonanceRecord] = []
    missing: list[str] = []
    for node in dag.nodes.values():
        if node.kind != "sort":
            continue
        path = root / node.output
        if not path.exists():
            missing.append(node.id)
            continue
        doc = _read_json(path)
        winners.extend(ResonanceRecord.from_dict(d) for d in doc["winners"])
    return winners, missing


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_winners_csv(path: Path, winners: list[ResonanceRecord]) -> None:
    rows = sorted(winners, key=lambda w: (w.parity, w.index))
    with open(path, "w", newline="") as fh:
        fh.write(WINNERS_SCHEMA + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "parity",
                "index",
                "run_id",
                "energy_re",
                "energy_im",
                "sigma2",
                "classification",
                "fidelity_error",
                "converged",
            ]
        )
        for w in rows:
            writer.writerow(
                [
                    w.parity,
                    w.index,
                    w.run_id,
                    _fmt(w.energy_re),
                    _fmt(w.energy_im),
                    _fmt(w.sigma2),
                    w.classification,
                    _fmt(w.fidelity_error),
                    w.converged,
                ]
            )


def write_table_csv(
    path: Path,
    doc: dict,
    matched: dict[str, ResonanceRecord | None],
    oracle: dict[str, complex],
) -> list[str]:
    """Benchmark-table layout: the three target states and relative errors."""
    failures = []
    fields = ["q", "tier"]
    values: list = [doc["q"], doc["tier"]]
    for label in TARGET_LABELS:
        record = matched.get(label)
        target = oracle.get(label)
        fields += [f"{label}_re", f"{label}_im", f"{label}_relative_error", f"{label}_status"]
        if record is None or target is None:
            failures.append(label)
            values += ["", "", "", "absent"]
            continue
        err = abs(record.energy - target) / abs(target)
        values += [_fmt(record.energy_re), _fmt(record.energy_im), _fmt(err), "ok"]
    with open(path, "w", newline="") as fh:
        fh.write(TABLE_SCHEMA + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        writer.writerow(values)
    return failures


def _spectra(doc: dict):
    """(parity, exact spectrum) of each parity channel of the config."""
    grid = build_grid(doc)
    model = build_model(doc)
    plan = build_plan(doc)
    for parity in plan.parities:
        basis = build_basis(parity, plan.q, grid)
        pair = project_hamiltonians(model, basis, grid)
        yield parity, exact_diagonalize(pair, plan.thresholds)


def oracle_target_map(doc: dict) -> tuple[dict, dict]:
    """Exact-diagonalization targets per (parity, kind) and per report label."""
    by_key: dict[tuple[str, str], complex] = {}
    for parity, spectrum in _spectra(doc):
        for kind, energy in oracle_targets(spectrum).items():
            by_key[(parity, kind)] = energy
    labels = {
        label: by_key[key] for label, key in TARGET_LABELS.items() if key in by_key
    }
    return by_key, labels


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_diag(doc: dict) -> int:
    out = resolve_output_dir(doc)
    for parity, spectrum in _spectra(doc):
        (out / f"diag_{parity}.json").write_text(spectrum.to_json())
        with open(out / f"diag_{parity}.csv", "w", newline="") as fh:
            fh.write(DIAG_SCHEMA + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "energy_re", "energy_im", "classification"])
            for k, (e, label) in enumerate(
                zip(spectrum.eigenvalues, spectrum.classifications), start=1
            ):
                writer.writerow([k, _fmt(float(e.real)), _fmt(float(e.imag)), label])
        print(f"{parity}: {len(spectrum.eigenvalues)} states -> diag_{parity}.csv")
    return 0


def _execute_batch(doc: dict, root: Path):
    """Run the batch DAG of ``doc`` with its artifacts under ``root``; returns
    the trace, the sort winners, the failed or skipped nodes and the sort
    nodes that wrote no artifact."""
    _, _, dag = prepare_execution(doc, root)
    trace = orchestrator.execute(dag, workers=doc["workers"])
    winners, missing = collect_winners(dag, root)
    failed = [e["node"] for e in trace if e["status"] in ("failed", "skipped")]
    return trace, winners, failed, missing


def cmd_run(doc: dict, single_task: str | None = None) -> int:
    out = resolve_output_dir(doc)
    _write_json(out / "config.frozen.json", doc)
    if single_task is not None:
        _, _, dag = prepare_execution(doc, out)
        if single_task not in dag.nodes:
            raise ConfigError(f"unknown task id {single_task!r}")
        node = dag.nodes[single_task]
        degraded = [
            p for p in dag.parents[node.id]
            if not (out / dag.nodes[p].output).exists()
        ]
        status, error = orchestrator._run_payload(node, degraded)
        if status == "failed":
            print(f"task {single_task}: failed: {error}", file=sys.stderr)
            return 3
        print(f"task {single_task}: wrote {node.output}")
        return 0
    trace, winners, failed_nodes, missing_sorts = _execute_batch(doc, out)
    with open(out / "trace.jsonl", "w") as fh:
        for event in trace:
            fh.write(json.dumps(event) + "\n")
    write_winners_csv(out / "winners.csv", winners)
    by_key, oracle_labels = oracle_target_map(doc)
    matched = match_targets(winners, by_key)
    failures = write_table_csv(out / "table.csv", doc, matched, oracle_labels)
    for label in TARGET_LABELS:
        record = matched.get(label)
        target = oracle_labels.get(label)
        if record is not None and target is not None:
            err = abs(record.energy - target) / abs(target)
            print(
                f"{label}: E = {record.energy_re:+.6f}{record.energy_im:+.3e}i "
                f"(oracle {target.real:+.6f}{target.imag:+.3e}i, "
                f"relative error {100 * err:.3f}%)"
            )
        else:
            print(f"{label}: absent")
    if failed_nodes or failures or missing_sorts:
        print(
            f"partial failure: nodes={failed_nodes} targets={failures} "
            f"missing={missing_sorts}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_sweep(doc: dict) -> int:
    if doc["tier"] != "noisy":
        raise ConfigError("config key 'tier' must be 'noisy' for sweeps")
    out = resolve_output_dir(doc)
    sweep = doc["sweep"]
    rows = []
    status = 0
    for reduction in sweep["reduction_factors"]:
        for longevity in sweep["longevity_factors"]:
            for repeat in range(sweep["repeats"]):
                point = json.loads(json.dumps(doc))
                point["gate_noise_reduction_factor"] = float(reduction)
                point["qubit_longevity_factor"] = longevity
                point["seed"] = doc["seed"] + 7919 * repeat
                point["output_dir"] = str(
                    Path(doc["output_dir"])
                    / f"sweep_r{reduction}_l{longevity}_{repeat}"
                )
                try:
                    code = _run_point(point, rows, reduction, longevity, repeat)
                    status = max(status, code)
                except Exception as exc:  # noqa: BLE001 - recorded per point
                    rows.append(
                        {
                            "reduction": reduction,
                            "longevity": longevity,
                            "repeat": repeat,
                            "status": f"error: {exc}",
                        }
                    )
                    status = 3
    with open(out / "sweep.csv", "w", newline="") as fh:
        fh.write(SWEEP_SCHEMA + "\n")
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "reduction",
                "longevity",
                "repeat",
                "parity",
                "index",
                "sigma2",
                "fidelity_error",
                "energy_re",
                "energy_im",
                "classification",
                "status",
            ],
            lineterminator="\n",
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"sweep: {len(rows)} rows -> sweep.csv")
    return status


def _run_point(point: dict, rows: list, reduction, longevity, repeat) -> int:
    _, winners, failed, missing = _execute_batch(point, resolve_output_dir(point))
    for w in winners:
        rows.append(
            {
                "reduction": reduction,
                "longevity": longevity,
                "repeat": repeat,
                "parity": w.parity,
                "index": w.index,
                "sigma2": _fmt(w.sigma2),
                "fidelity_error": _fmt(w.fidelity_error),
                "energy_re": _fmt(w.energy_re),
                "energy_im": _fmt(w.energy_im),
                "classification": w.classification,
                "status": "ok",
            }
        )
    return 3 if (failed or missing) else 0


def cmd_export_dag(doc: dict) -> int:
    out = resolve_output_dir(doc)
    plan = build_plan(doc)
    dag = orchestrator.build_dag(plan.n_states, plan.batch_size, plan.parities)
    cli_args = "--config config.frozen.json"
    text, submits = orchestrator.export_dagman(dag, cli_args=cli_args)
    (out / "batch.dag").write_text(text)
    for rel_path, content in submits.items():
        sub = out / rel_path
        sub.parent.mkdir(parents=True, exist_ok=True)
        sub.write_text(content)
    print(f"exported {len(dag.nodes)} jobs -> batch.dag")
    return 0


def cmd_zne_demo(doc: dict, x1: float, x3: float, x5: float, shots: int, mode: str) -> int:
    try:
        pts = ZnePoints(x1=x1, x3=x3, x5=x5, n=shots, mode=mode)
    except ValueError as exc:  # it names the value by its flag: x1, x3, x5 or shots
        raise ConfigError(f"zne-demo flag --{exc}")
    result = zne_extrapolate(pts)
    print(json.dumps(result.telemetry(pts), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdrive",
        description="Bound and resonance state identification on simulated quantum hardware",
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key, e.g. --set q=2 --set tier=shots",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("diag", help="exact spectra per parity channel")
    run_p = sub.add_parser("run", help="execute one batch end to end")
    run_p.add_argument("--single-task", default=None, help="run one DAG node only")
    sub.add_parser("sweep", help="noise-factor grid sweep")
    sub.add_parser("export-dag", help="write the DAGMan description")
    zne_p = sub.add_parser("zne-demo", help="print the extrapolation branch for a triple")
    zne_p.add_argument("--x1", type=float, required=True)
    zne_p.add_argument("--x3", type=float, required=True)
    zne_p.add_argument("--x5", type=float, required=True)
    zne_p.add_argument("--shots", type=int, default=10**5)
    zne_p.add_argument("--mode", default="probability", choices=["probability", "expectation"])
    return parser


def _parse_overrides(pairs: list[str]) -> dict:
    overrides: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not KEY=VALUE")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = overrides
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
        target[parts[-1]] = value
    return overrides


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = load_config(args.config, _parse_overrides(args.set))
        if args.command == "diag":
            return cmd_diag(doc)
        if args.command == "run":
            return cmd_run(doc, single_task=args.single_task)
        if args.command == "sweep":
            return cmd_sweep(doc)
        if args.command == "export-dag":
            return cmd_export_dag(doc)
        if args.command == "zne-demo":
            return cmd_zne_demo(doc, args.x1, args.x3, args.x5, args.shots, args.mode)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
