"""One benchmark repetition: a ``qdrive`` CLI command in this fresh interpreter.

Usage::

    python3 perfbench/child.py SIDECAR TRACE CPU -- QDRIVE_ARGS...

Runs ``qdrive.cli.main(QDRIVE_ARGS)``, the console-script entry point, and
exits with its code.  ``orchestrator.execute`` is wrapped so the harness
learns when set-up ended (entry of the first call), which DAG each call ran
and the trace it returned.  With TRACE = 1 the tracer wraps every ``qdrive``
function first.  With CPU a CPU number, the process and every thread it
starts run on that CPU only; with CPU = all they run anywhere.  SIDECAR
receives all of this as JSON when the command ends.

While the command runs, the main thread times a fixed calibration chunk
every 20 ms; see ``Calibration``.

``python3 perfbench/child.py --sweep-errors CONFIG SWEEP_CSV`` prints, as a
JSON list, the oracle relative error of every target at every sweep point.
"""
from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time

import numpy as np

SAMPLE_PERIOD_S = 0.02
_CHUNK_MATRIX = np.eye(4, dtype=complex) * 0.5


def calibration_chunk() -> int:
    """Fixed work shaped like the program's inner loop: interpreted Python
    around tiny numpy products.  It uses no qdrive code, so no change to the
    program alters its cost."""
    total = 0
    for i in range(200):
        total += i * i
    m = _CHUNK_MATRIX
    for _ in range(20):
        m = m @ _CHUNK_MATRIX
    return total


class Calibration:
    """The speed of the CPU the command runs on, sampled while it runs.

    The host is shared: the same command's CPU time drifts by up to 1.7x
    within minutes, because the CPU itself runs slower, so neither wall nor
    CPU time repeats from run to run.  Every ``SAMPLE_PERIOD_S`` of wall
    time a ``SIGALRM`` handler on the main thread runs
    :func:`calibration_chunk` and records its CPU time (waiting for the GIL
    or a core does not count).  The harness divides the command's times by
    the mean, so the times read as if the CPU had run at one speed.  The
    chunk tracks the CPU the command's work runs on only when it shares it,
    which is why the harness pins single-worker commands to one CPU.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        calibration_chunk()
        self.samples.append(time.thread_time() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return {
            "samples": len(self.samples),
            "chunk_s": statistics.fmean(self.samples) if self.samples else None,
        }


def _record_execute(orchestrator, calls: list) -> None:
    execute = orchestrator.execute

    def recorded(dag, *args, **kwargs):
        entry = time.monotonic()
        trace = execute(dag, *args, **kwargs)
        calls.append(
            {
                "entry": entry,
                "exit": time.monotonic(),
                "parents": {nid: list(ps) for nid, ps in dag.parents.items()},
                "events": trace,
            }
        )
        return trace

    orchestrator.execute = recorded


def run(sidecar: str, traced: bool, cpu: str, argv: list[str]) -> int:
    if cpu != "all":
        os.sched_setaffinity(0, {int(cpu)})
    calibration = Calibration()
    calibration.start()
    tracer = None
    if traced:
        import tracer as tracer_module

        tracer = tracer_module.install()
    from qdrive import cli, orchestrator

    calls: list = []
    _record_execute(orchestrator, calls)
    try:
        return cli.main(argv)
    finally:
        doc = {
            "execute": calls,
            "calibration": calibration.stop(),
            "trace": tracer.report() if tracer is not None else None,
        }
        with open(sidecar, "w") as fh:
            json.dump(doc, fh)


def sweep_relative_errors(config_path: str, rows: list[dict]) -> list[float]:
    """Oracle relative error of every target in the swept parities, per point.

    ``rows`` are the ``sweep.csv`` rows; a target without a matching winner
    at a point counts as 1.0.
    """
    from types import SimpleNamespace

    from qdrive.cli import oracle_target_map
    from qdrive.config import load_config
    from qdrive.pipeline import match_targets

    doc = load_config(config_path)
    by_key, labels = oracle_target_map(doc)
    points: dict[tuple, list] = {}
    for row in rows:
        point = points.setdefault((row["reduction"], row["longevity"], row["repeat"]), [])
        if row["status"] == "ok":
            point.append(
                SimpleNamespace(
                    parity=row["parity"],
                    classification=row["classification"],
                    energy_re=float(row["energy_re"]),
                    energy=complex(float(row["energy_re"]), float(row["energy_im"])),
                )
            )
    errors = []
    for winners in points.values():
        matched = match_targets(winners, by_key)
        for label, target in labels.items():
            record = matched.get(label)
            errors.append(1.0 if record is None else abs(record.energy - target) / abs(target))
    return errors


if __name__ == "__main__":
    if sys.argv[1] == "--sweep-errors":
        import csv

        with open(sys.argv[3]) as fh:
            rows = list(csv.DictReader(fh.read().splitlines()[1:]))
        print(json.dumps(sweep_relative_errors(sys.argv[2], rows)))
        sys.exit(0)
    split = sys.argv.index("--")
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[split + 1 :]))
