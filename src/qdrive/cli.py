"""Command-line front end: diag, run, sweep, export-dag, zne-demo.

All commands are batch-oriented: they read a JSON config (flags override
file keys), write CSV/JSON artifacts under the output directory, and use
the exit-code contract 0 = success, 2 = config error, 3 = partial pipeline
failure or a file that could not be written.  ``run`` executes one batch
DAG; ``sweep`` builds one DAG over the batches of all its noise-factor
points and executes it once.  Every artifact, task JSON and report file
alike, goes through one atomic writer, :func:`_write_text`, so a killed
process leaves the previous file or none.
"""
from __future__ import annotations

import argparse
import csv
import io
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
WINNERS_FIELDS = [
    "parity", "index", "run_id", "energy_re", "energy_im", "sigma2",
    "classification", "fidelity_error", "converged",
]
TABLE_SCHEMA = "# qdrive-table-v1"
TABLE_FIELDS = ["q", "tier"] + [
    f"{label}_{col}" for label in TARGET_LABELS for col in ("re", "im", "relative_error", "status")
]
DIAG_SCHEMA = "# qdrive-diag-v1"
DIAG_FIELDS = ["index", "energy_re", "energy_im", "classification"]
SWEEP_SCHEMA = "# qdrive-sweep-v1"
SWEEP_FIELDS = [
    "reduction", "longevity", "repeat", "parity", "index", "sigma2",
    "fidelity_error", "energy_re", "energy_im", "classification", "status",
]


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


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` atomically: a crash leaves the old file or none, never a
    truncated one that a reader would take as complete.  Each artifact has one
    writing process, so the process id makes the temporary name unique."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2))


def _write_csv(path: Path, schema: str, fields: list[str], rows) -> None:
    """The schema line, the header and one line per row dict.  A float is
    written as its repr, None or a missing column as an empty field, and a
    key that is no column not at all."""
    buf = io.StringIO()
    buf.write(schema + "\n")
    writer = csv.DictWriter(buf, fields, lineterminator="\n", extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    _write_text(path, buf.getvalue())


def make_payload(plan, problems, root: Path):
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


def prepare_execution(
    doc: dict, root: Path, problems: dict | None = None, prefix: str = "", dag=None
):
    """The plan, channel problems and DAG of ``doc``'s batch, its artifacts
    under ``root``.  A sweep passes the problems of its first point and the
    DAG to add each further point to, its node ids and paths under ``prefix``."""
    plan = build_plan(doc)
    if problems is None:
        grid, model = build_grid(doc), build_model(doc)
        problems = {
            parity: pipeline.build_problem(model, grid, parity, plan.q)
            for parity in plan.parities
        }
    dag = orchestrator.build_dag(
        plan.n_states, plan.batch_size, plan.parities, prefix=prefix, dag=dag
    )
    payload = make_payload(plan, problems, root)
    for node in dag.nodes.values():
        if node.payload is None:  # this batch's nodes
            node.payload = payload
    return plan, problems, dag


def collect_winners(
    dag, root: Path, prefix: str = ""
) -> tuple[list[ResonanceRecord], list[str]]:
    """The winners of the sort nodes under ``prefix`` and the ids of those
    that wrote no artifact."""
    winners: list[ResonanceRecord] = []
    missing: list[str] = []
    for node in dag.nodes.values():
        if node.kind != "sort" or not node.id.startswith(prefix):
            continue
        path = root / node.output
        if not path.exists():
            missing.append(node.id)
            continue
        doc = _read_json(path)
        winners.extend(ResonanceRecord.from_dict(d) for d in doc["winners"])
    return winners, missing


def write_winners_csv(path: Path, winners: list[ResonanceRecord]) -> None:
    rows = sorted(winners, key=lambda w: (w.parity, w.index))
    _write_csv(path, WINNERS_SCHEMA, WINNERS_FIELDS, (w.to_dict() for w in rows))


def table_row(doc: dict, matched: dict, errors: dict[str, float]) -> dict:
    """The ``table.csv`` row of ``matched``'s records: the three targets,
    absent unless in ``errors``."""
    row = {"q": doc["q"], "tier": doc["tier"]}
    for label in TARGET_LABELS:
        if label in errors:
            record = matched[label]
            row[f"{label}_re"] = record.energy_re
            row[f"{label}_im"] = record.energy_im
            row[f"{label}_relative_error"] = errors[label]
        row[f"{label}_status"] = "ok" if label in errors else "absent"
    return row


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
        _write_text(out / f"diag_{parity}.json", spectrum.to_json())
        rows = (
            dict(zip(DIAG_FIELDS, (k, float(e.real), float(e.imag), label)))
            for k, (e, label) in enumerate(zip(spectrum.eigenvalues, spectrum.classifications), 1)
        )
        _write_csv(out / f"diag_{parity}.csv", DIAG_SCHEMA, DIAG_FIELDS, rows)
        print(f"{parity}: {len(spectrum.eigenvalues)} states -> diag_{parity}.csv")
    return 0


def cmd_run(doc: dict, single_task: str | None = None) -> int:
    """Execute the batch DAG, or with ``single_task`` one node of it.  A
    single task writes its own artifact only: its ``config.frozen.json`` is
    the one ``export-dag`` wrote, which concurrent jobs share."""
    out = resolve_output_dir(doc)
    _, _, dag = prepare_execution(doc, out)
    if single_task is not None:
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
    _write_json(out / "config.frozen.json", doc)
    trace = orchestrator.execute(dag, workers=doc["workers"])
    _write_text(out / "trace.jsonl", "".join(json.dumps(e) + "\n" for e in trace))
    failed_nodes = [e["node"] for e in trace if e["status"] in ("failed", "skipped")]
    winners, missing_sorts = collect_winners(dag, out)
    write_winners_csv(out / "winners.csv", winners)
    by_key, oracle_labels = oracle_target_map(doc)
    matched = match_targets(winners, by_key)
    errors = {
        label: abs(matched[label].energy - target) / abs(target)
        for label, target in oracle_labels.items()
        if matched.get(label) is not None
    }
    _write_csv(out / "table.csv", TABLE_SCHEMA, TABLE_FIELDS, [table_row(doc, matched, errors)])
    failures = [label for label in TARGET_LABELS if label not in errors]
    for label in TARGET_LABELS:
        if label in errors:
            record, target = matched[label], oracle_labels[label]
            print(
                f"{label}: E = {record.energy_re:+.6f}{record.energy_im:+.3e}i "
                f"(oracle {target.real:+.6f}{target.imag:+.3e}i, "
                f"relative error {100 * errors[label]:.3f}%)"
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
    """Every (reduction, longevity, repeat) point's batch as one DAG, run
    by one :func:`orchestrator.execute` call; each point's artifacts lie
    under its own directory and its winners become rows of ``sweep.csv``."""
    if doc["tier"] != "noisy":
        raise ConfigError("config key 'tier' must be 'noisy' for sweeps")
    out = resolve_output_dir(doc)
    _write_json(out / "config.frozen.json", doc)
    sweep = doc["sweep"]
    problems, dag = None, orchestrator.TaskDag()
    points = {}
    for reduction in sweep["reduction_factors"]:
        for longevity in sweep["longevity_factors"]:
            for repeat in range(sweep["repeats"]):
                point = dict(
                    doc,
                    gate_noise_reduction_factor=float(reduction),
                    qubit_longevity_factor=longevity,
                    seed=doc["seed"] + 7919 * repeat,
                )
                prefix = f"sweep_r{reduction}_l{longevity}_{repeat}/"
                _, problems, _ = prepare_execution(point, out, problems, prefix, dag)
                points[prefix] = {
                    "reduction": reduction, "longevity": longevity, "repeat": repeat
                }
    trace = orchestrator.execute(dag, workers=doc["workers"])
    _write_text(out / "trace.jsonl", "".join(json.dumps(e) + "\n" for e in trace))
    status = 3 if any(e["status"] in ("failed", "skipped") for e in trace) else 0
    rows = []
    for prefix, columns in points.items():
        winners, missing = collect_winners(dag, out, prefix)
        if missing:
            status = 3
        rows += [{**w.to_dict(), **columns, "status": "ok"} for w in winners]
    _write_csv(out / "sweep.csv", SWEEP_SCHEMA, SWEEP_FIELDS, rows)
    print(f"sweep: {len(rows)} rows -> sweep.csv")
    return status


def cmd_export_dag(doc: dict) -> int:
    out = resolve_output_dir(doc)
    plan = build_plan(doc)
    dag = orchestrator.build_dag(plan.n_states, plan.batch_size, plan.parities)
    cli_args = "--config config.frozen.json"
    _write_json(out / "config.frozen.json", doc)
    text, submits = orchestrator.export_dagman(dag, cli_args=cli_args)
    for rel_path, content in {"batch.dag": text, **submits}.items():
        _write_text(out / rel_path, content)
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
            if not isinstance(target, dict):
                raise ConfigError(f"override {key!r} nests under a key that has a value")
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
    except OSError as exc:  # an artifact or report could not be written
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
