"""Target recovery of fixed configs over fixed seeds, for one or two source trees.

Each (suite, seed) runs one ``qdrive run`` in a fresh interpreter with
``PYTHONPATH`` set to the given ``src`` directory, and reads back its
``table.csv`` and the Hermitian stage records under ``runs/``.  Per suite
and source tree it prints the requested targets found within 10 % and
within 1 % of the oracle and the Hermitian stages that downgraded from NFT
to the trust region.  With two trees it also pairs the seeds: the number
of seeds on which the second tree recovers more targets within 10 %, fewer,
and the two-sided sign-test p-value.

    python tests/recovery_pilot.py --src PARENT/src --src src
    python tests/recovery_pilot.py --src src --suite sv_run --set optimizer.penalty_c=100

The file is not collected by the test suite: a full pass runs several
hundred commands, about ten minutes on two cores.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# small-shot settings of the golden cases
_GOLDEN = {"q": 2, "batch_size": 1, "shots": 2000, "final_shots_factor": 2}

# suite -> (config, seeds)
SUITES: dict[str, tuple[dict, range]] = {
    # the sv_run benchmark workload's config, on one worker
    "sv_run": ({"q": 3, "n_states": {"even": 4, "odd": 2}, "batch_size": 1,
                "tier": "statevector",
                "optimizer": {"hermitian_f_max": 96, "nonhermitian_f_max": 64}},
               range(1, 21)),
    # tests/test_cli.py's FAST_RUN
    "fast_run": ({"q": 2, "batch_size": 2, "tier": "statevector",
                  "optimizer": {"hermitian_f_max": 1024, "nonhermitian_f_max": 256}},
                 range(1, 9)),
    "q3": ({"q": 3, "batch_size": 2, "tier": "statevector",
            "optimizer": {"hermitian_f_max": 400, "nonhermitian_f_max": 200}},
           range(1, 9)),
    "shots": ({"q": 2, "batch_size": 2, "tier": "shots", "shots": 10000,
               "optimizer": {"hermitian_f_max": 400, "nonhermitian_f_max": 200}},
              range(1, 9)),
    # the statevector and noisy golden cases of tests/test_golden.py; the
    # statevector one with a second odd state, the one resonance_1 is at q=2
    "sv_golden": ({**_GOLDEN, "tier": "statevector", "n_states": {"even": 2, "odd": 2},
                   "optimizer": {"hermitian_f_max": 64, "nonhermitian_f_max": 32}},
                  range(4200, 4260)),
    "noisy_golden": ({**_GOLDEN, "tier": "noisy", "parities": ["even"],
                      "n_states": {"even": 2, "odd": 1},
                      "optimizer": {"hermitian_f_max": 40, "nonhermitian_f_max": 4}},
                     range(4200, 4260)),
}


def run_one(src: Path, config: dict, seed: int, sets: list[str]) -> dict:
    """One seeded run: relative errors of its requested targets and its
    Hermitian stage count and NFT downgrades."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**config, "seed": seed, "workers": 1,
                                    "output_dir": str(out)}))
        args = [a for s in sets for a in ("--set", s)]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
        proc = subprocess.run(
            [sys.executable, "-m", "qdrive.cli", "--config", str(path), *args, "run"],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode not in (0, 3):
            raise RuntimeError(f"seed {seed} exited {proc.returncode}: {proc.stderr}")
        lines = (out / "table.csv").read_text().splitlines()
        [row] = csv.DictReader(lines[1:])
        errors = [
            float(row[f"{label}_relative_error"]) if row[f"{label}_status"] == "ok" else math.inf
            for label in ("bound", "resonance_1", "resonance_2")
            if row[f"{label}_status"] != "not_requested"
        ]
        stages = {}  # each Hermitian artifact repeats its chain's earlier stages
        for artifact in (out / "runs").rglob("*_h*.json"):
            for stage in json.loads(artifact.read_text())["stages"]:
                stages[(artifact.parent, stage["index"])] = stage["optimizer"]
    return {
        "errors": errors,
        "stages": len(stages),
        "downgrades": sum(kind == "nft->trust_region" for kind in stages.values()),
    }


def sign_test(wins: int, losses: int) -> float:
    """Two-sided p-value of ``wins`` against ``losses`` under a fair coin."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2.0 * tail)


def within(errors: list[float], tol: float) -> int:
    return sum(e <= tol for e in errors)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, type=Path,
                        help="a source tree holding the qdrive package; give one or two")
    parser.add_argument("--suite", action="append", choices=list(SUITES),
                        help="run only these suites (default: all)")
    parser.add_argument("--set", action="append", default=[], dest="sets",
                        metavar="KEY=VALUE", help="passed to every qdrive command")
    parser.add_argument("--jobs", type=int, default=2, help="commands run side by side")
    args = parser.parse_args(argv)
    if len(args.src) > 2:
        parser.error("give one or two --src trees")
    srcs = [src.resolve() for src in args.src]
    print("suite         src  targets  within_10%  within_1%  downgrades/stages")
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for name in args.suite or SUITES:
            config, seeds = SUITES[name]
            results = [
                list(pool.map(lambda s: run_one(src, config, s, args.sets), seeds))
                for src in srcs
            ]
            for i, runs in enumerate(results):
                errors = [e for r in runs for e in r["errors"]]
                print(f"{name:<13} {i:>3}  {len(errors):>7}  {within(errors, 0.10):>10}  "
                      f"{within(errors, 0.01):>9}  "
                      f"{sum(r['downgrades'] for r in runs)}/{sum(r['stages'] for r in runs)}")
            if len(results) == 2:
                diffs = [within(b["errors"], 0.10) - within(a["errors"], 0.10)
                         for a, b in zip(*results)]
                wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
                print(f"{name:<13} paired over {len(diffs)} seeds: src 1 better on {wins}, "
                      f"worse on {losses}, sign test p = {sign_test(wins, losses):.3g}")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
