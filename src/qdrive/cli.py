"""Command-line front end: diag, run, sweep, export-dag, zne-demo.

All commands are batch-oriented: they read a JSON config (flags override
file keys), write CSV/JSON artifacts under the output directory, and use
the exit-code contract 0 = success, 2 = config error, 3 = partial pipeline
failure or a file that could not be written.  ``run`` executes one batch
DAG and ``sweep`` one DAG over the batches of all its noise-factor points,
both through :func:`execute_points`.  Every artifact, task JSON and report
file alike, goes through one atomic writer, :func:`_write_text`, so a killed
process leaves the previous file or none; the gather steps read the
artifacts that exist through one reader, :func:`_read_existing`.  ``run``
reports against the oracles of its channel problems; ``diag`` builds none.
"""
from __future__ import annotations

import argparse
import csv
import gc
import io
import itertools
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
    idle_trust_region,
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


def _read_existing(root: Path, paths) -> dict:
    """The JSON of each artifact in ``paths`` under ``root`` that exists,
    keyed by path in the order of ``paths``."""
    return {p: _read_json(root / p) for p in paths if (root / p).exists()}


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
            stages: list = []
            if node.inputs:  # the previous Hermitian stage's artifact
                stages = _read_json(root / node.inputs[0])["stages"]
            priors = [np.asarray(s["theta"]) for s in stages]
            stage = run_hermitian_stage(node.index, priors, problem, plan, node.run)
            _write_json(out_path, {"stages": stages + [stage]})
        elif node.kind == "nonhermitian":
            herm = _read_json(root / node.inputs[0])
            record = run_nonhermitian_stage(
                node.index,
                np.asarray(herm["stages"][-1]["theta"]),
                problem,
                plan,
                node.run,
            )
            _write_json(out_path, record.to_dict())
        elif node.kind == "pool":
            docs = _read_existing(root, node.inputs).values()
            records = [ResonanceRecord.from_dict(d) for d in docs]
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
            # node ids only: the pools that wrote nothing, the stages each pool ran without
            docs = _read_existing(root, node.inputs).values()
            records = [ResonanceRecord.from_dict(d) for doc in docs for d in doc["records"]]
            degraded = degraded + [nid for doc in docs for nid in doc["degraded_inputs"]]
            winners = pool_batches(records)
            filter_spurious(winners, problem, plan.thresholds)
            attach_fidelity(winners, problem)
            _write_json(
                out_path,
                {
                    "winners": [w.to_dict() for w in winners],
                    "degraded_inputs": degraded,
                },
            )
        else:  # pragma: no cover - build_dag emits only the four kinds
            raise ValueError(f"unknown task kind {node.kind}")

    return payload


def prepare_execution(
    doc: dict, root: Path, problems: dict | None = None, prefix: str = "", dag=None
):
    """The channel problems and DAG of ``doc``'s batch, its artifacts under
    ``root``.  Later points of :func:`execute_points` pass the first one's
    problems and the DAG to add to, their node ids and paths under ``prefix``."""
    plan = build_plan(doc)
    if problems is None:
        grid, model = build_grid(doc), build_model(doc)
        problems = {
            parity: pipeline.build_problem(model, grid, parity, plan.q, plan.thresholds)
            for parity in plan.parities
        }
    dag = orchestrator.build_dag(
        plan.n_states, plan.batch_size, plan.parities, prefix=prefix, dag=dag
    )
    payload = make_payload(plan, problems, root)
    for node in dag.nodes.values():
        if node.payload is None:  # this batch's nodes
            node.payload = payload
    return problems, dag


def execute_points(doc: dict, out: Path, points: dict) -> tuple[dict, object, list[str]]:
    """Build the batch of each config in ``points``, keyed by node-id prefix,
    into one DAG; freeze ``doc`` beside the artifacts, execute the DAG and
    write ``trace.jsonl``.  The points differ in noise and seed only, so they
    share the first one's channel problems.  Returns those, the DAG and the
    ids of failed or skipped nodes.  With several workers, scipy is imported
    first when a stage can start a trust-region or (pinned) simplex phase: the
    forked workers inherit it, and before the build it costs 40 ms less (sv_run)."""
    if doc["workers"] > 1 and (
        build_plan(doc).hermitian_cfg.kind != "nft" or not idle_trust_region(doc)
    ):
        import scipy.optimize  # noqa: F401
    problems, dag = None, orchestrator.TaskDag()
    for prefix, point in points.items():
        problems, dag = prepare_execution(point, out, problems, prefix, dag)
    _write_json(out / "config.frozen.json", doc)
    trace = orchestrator.execute(dag, workers=doc["workers"])
    _write_text(out / "trace.jsonl", "".join(json.dumps(e) + "\n" for e in trace))
    return problems, dag, [e["node"] for e in trace if e["status"] in ("failed", "skipped")]


def collect_winners(dag, root: Path, prefix: str = "") -> tuple[list[ResonanceRecord], list[str]]:
    """The winners of the sort nodes under ``prefix`` and the ids of those
    that wrote no artifact."""
    sorts = [n for n in dag.nodes.values() if n.kind == "sort" and n.id.startswith(prefix)]
    docs = _read_existing(root, [n.output for n in sorts])
    winners = [ResonanceRecord.from_dict(d) for doc in docs.values() for d in doc["winners"]]
    return winners, [n.id for n in sorts if n.output not in docs]


def write_winners_csv(path: Path, winners: list[ResonanceRecord]) -> None:
    rows = sorted(winners, key=lambda w: (w.parity, w.index))
    _write_csv(path, WINNERS_SCHEMA, WINNERS_FIELDS, (w.to_dict() for w in rows))


def _spectra(doc: dict):
    """(parity, exact spectrum) of each parity channel of the config."""
    grid = build_grid(doc)
    model = build_model(doc)
    plan = build_plan(doc)
    for parity in plan.parities:
        basis = build_basis(parity, plan.q, grid)
        pair = project_hamiltonians(model, basis, grid)
        yield parity, exact_diagonalize(pair, plan.thresholds)


def _targets(spectra) -> dict[tuple[str, str], complex]:
    """Exact-diagonalization targets per (parity, kind) of the channels' spectra."""
    return {(s.parity, kind): e for s in spectra for kind, e in oracle_targets(s).items()}


def oracle_target_map(doc: dict) -> tuple[dict, dict]:
    """Exact-diagonalization targets per (parity, kind) and per report label."""
    by_key = _targets(spectrum for _, spectrum in _spectra(doc))
    labels = {
        label: by_key[key] for label, key in TARGET_LABELS.items() if key in by_key
    }
    return by_key, labels


def report_targets(
    doc: dict, problems: dict, winners: list[ResonanceRecord]
) -> tuple[dict, list[str]]:
    """Match ``winners`` to the targets of the channel ``problems``' oracles in
    one pass: print each target's console line, and return the ``table.csv``
    row and the labels left absent.  A target of a channel the config does
    not run is ``not_requested``, which is no failure."""
    by_key = _targets(p.spectrum for p in problems.values())
    matched = match_targets(winners, by_key)  # a record only for targets the oracle has
    row, absent = {"q": doc["q"], "tier": doc["tier"]}, []
    for label, key in TARGET_LABELS.items():
        if key[0] not in problems:
            row[f"{label}_status"] = "not_requested"
            print(f"{label}: not requested")
            continue
        record = matched[label]
        if record is None:
            row[f"{label}_status"] = "absent"
            absent.append(label)
            print(f"{label}: absent")
            continue
        target = by_key[key]
        error = abs(record.energy - target) / abs(target)
        row.update({f"{label}_re": record.energy_re, f"{label}_im": record.energy_im,
                    f"{label}_relative_error": error, f"{label}_status": "ok"})
        print(f"{label}: E = {record.energy_re:+.6f}{record.energy_im:+.3e}i (oracle "
              f"{target.real:+.6f}{target.imag:+.3e}i, relative error {100 * error:.3f}%)")
    return row, absent


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
    single task builds its node's channel alone and writes its own artifact
    only: its ``config.frozen.json`` is the one ``export-dag`` wrote, which
    concurrent jobs share."""
    out = resolve_output_dir(doc)
    if single_task is not None:
        plan = build_plan(doc)
        nodes = orchestrator.build_dag(plan.n_states, plan.batch_size, plan.parities).nodes
        if single_task not in nodes:
            raise ConfigError(f"unknown task id {single_task!r}")
        _, dag = prepare_execution(dict(doc, parities=[nodes[single_task].parity]), out)
        node = dag.nodes[single_task]
        degraded = [
            p for p in dag.parents[node.id]
            if not (out / dag.nodes[p].output).exists()
        ]
        gc.freeze()  # set-up ends here, as in orchestrator.execute
        status, error = orchestrator._run_payload(node, degraded)
        if status == "failed":
            print(f"task {single_task}: failed: {error}", file=sys.stderr)
            return 3
        print(f"task {single_task}: wrote {node.output}")
        return 0
    problems, dag, failed_nodes = execute_points(doc, out, {"": doc})
    winners, missing_sorts = collect_winners(dag, out)
    write_winners_csv(out / "winners.csv", winners)
    row, failures = report_targets(doc, problems, winners)
    _write_csv(out / "table.csv", TABLE_SCHEMA, TABLE_FIELDS, [row])
    if failed_nodes or failures or missing_sorts:
        print(f"partial failure: nodes={failed_nodes} targets={failures} "
              f"missing={missing_sorts}", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(doc: dict) -> int:
    """Every (reduction, longevity, repeat) point's batch as one DAG, run by
    one :func:`execute_points` call; each point's artifacts lie under its own
    directory and its winners become rows of ``sweep.csv``."""
    if doc["tier"] != "noisy":
        raise ConfigError("config key 'tier' must be 'noisy' for sweeps")
    out = resolve_output_dir(doc)
    sweep = doc["sweep"]
    points, columns = {}, {}
    for reduction, longevity, repeat in itertools.product(
        sweep["reduction_factors"], sweep["longevity_factors"], range(sweep["repeats"])
    ):
        prefix = f"sweep_r{reduction}_l{longevity}_{repeat}/"
        points[prefix] = dict(
            doc,
            gate_noise_reduction_factor=float(reduction),
            qubit_longevity_factor=longevity,
            seed=doc["seed"] + 7919 * repeat,
        )
        columns[prefix] = {"reduction": reduction, "longevity": longevity, "repeat": repeat}
    _, dag, failed_nodes = execute_points(doc, out, points)
    rows, missing_sorts = [], []
    for prefix, point_columns in columns.items():
        winners, missing = collect_winners(dag, out, prefix)
        missing_sorts += missing
        rows += [{**w.to_dict(), **point_columns, "status": "ok"} for w in winners]
    _write_csv(out / "sweep.csv", SWEEP_SCHEMA, SWEEP_FIELDS, rows)
    print(f"sweep: {len(rows)} rows -> sweep.csv")
    if failed_nodes or missing_sorts:
        print(f"partial failure: nodes={failed_nodes} missing={missing_sorts}", file=sys.stderr)
        return 3
    return 0


def cmd_export_dag(doc: dict) -> int:
    """Write the DAGMan description.  Each job runs from the output directory
    with the frozen config, so that config names the directory absolutely."""
    out = resolve_output_dir(doc)
    plan = build_plan(doc)
    dag = orchestrator.build_dag(plan.n_states, plan.batch_size, plan.parities)
    cli_args = "--config config.frozen.json"
    _write_json(out / "config.frozen.json", dict(doc, output_dir=str(out.resolve())))
    text, submits = orchestrator.export_dagman(dag, cli_args=cli_args)
    for rel_path, content in {"batch.dag": text, **submits}.items():
        _write_text(out / rel_path, content)
    (out / "logs").mkdir(exist_ok=True)  # every submit file's output, error and log
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
    finally:
        # the process ends next: its exit collections skip all it holds,
        # what a payload imported after the set-up freeze (scipy) included
        gc.freeze()
    return 0


if __name__ == "__main__":
    sys.exit(main())
