"""Run configuration: a JSON document with schema validation and defaults.

Defaults reproduce the benchmark settings (lam = 0.1, j = 0.8, x0 = 8,
x_max = 10, 2^12 grid points, batch of 8 runs, 10^5 shots, penalty 100).
Command-line flags override file keys; the resolved document is frozen into
every run directory so a run can be reproduced byte-for-byte.
"""
from __future__ import annotations

import copy
import json
import math
import multiprocessing
import sys
from importlib import resources
from pathlib import Path

from .circuits import ansatz_parameter_count
from .model import ClassifierThresholds, Grid, PotentialModel
from .optimize import OptimizerConfig
from .pipeline import RunPlan
from .simulator import NoiseModel, load_noise_profile, scale_noise

OUTPUT_ROOT_ENV = "QDRIVE_OUTPUT_ROOT"


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


DEFAULTS: dict = {
    "model": {"lam": 0.1, "j": 0.8, "x0": 8.0, "x_max": 10.0, "n_points": 4096},
    "q": 3,
    "parities": ["even", "odd"],
    "n_states": {"even": 4, "odd": 2},
    "batch_size": 8,
    "tier": "statevector",
    "shots": 100000,
    "final_shots_factor": 10,
    "seed": 20240601,
    "noise_profile": None,
    "gate_noise_reduction_factor": 1.0,
    "qubit_longevity_factor": None,
    "mitigation": {"readout": True, "zne": True},
    "optimizer": {
        "penalty_c": 100.0,
        "hermitian_kind": None,
        "hermitian_f_max": 2048,
        "hermitian_max_iterations": 512,
        "reset_interval": 32,
        "nonhermitian_f_max": 1024,
        "f_tol": 0.05,
        "retries": 3,
        "r_beg": 1.0,
        "p_beg": 1.0,
    },
    "classifier": {
        "cap_weight": 0.5,
        "im_gain": 1e-3,
        "sigma_max": 0.5,
        "gamma_max": 0.05,
    },
    "dedup_overlap_tol": 0.5,
    "workers": 4,
    "output_dir": "out",
    "sweep": {
        "reduction_factors": [1.0, 10000.0],
        "longevity_factors": [10.0, "inf"],
        "repeats": 8,
    },
}

# key -> (expected type(s), optional allowed values)
_SCALAR_SCHEMA: dict[str, tuple] = {
    "model.lam": ((int, float), None),
    "model.j": ((int, float), None),
    "model.x0": ((int, float), None),
    "model.x_max": ((int, float), None),
    "model.n_points": (int, None),
    "q": (int, None),
    "parities": (list, None),
    "n_states.even": (int, None),
    "n_states.odd": (int, None),
    "batch_size": (int, None),
    "tier": (str, ("statevector", "shots", "noisy")),
    "shots": (int, None),
    "final_shots_factor": (int, None),
    "seed": (int, None),
    "noise_profile": ((str, type(None)), None),
    "gate_noise_reduction_factor": ((int, float), None),
    "qubit_longevity_factor": ((int, float, str, type(None)), None),
    "mitigation.readout": (bool, None),
    "mitigation.zne": (bool, None),
    "optimizer.penalty_c": ((int, float), None),
    "optimizer.hermitian_kind": ((str, type(None)), (None, "nft", "trust_region", "simplex")),
    "optimizer.hermitian_f_max": (int, None),
    "optimizer.hermitian_max_iterations": (int, None),
    "optimizer.reset_interval": (int, None),
    "optimizer.nonhermitian_f_max": (int, None),
    "optimizer.f_tol": ((int, float), None),
    "optimizer.retries": (int, None),
    "optimizer.r_beg": ((int, float), None),
    "optimizer.p_beg": ((int, float), None),
    "classifier.cap_weight": ((int, float), None),
    "classifier.im_gain": ((int, float), None),
    "classifier.sigma_max": ((int, float), None),
    "classifier.gamma_max": ((int, float), None),
    "dedup_overlap_tol": ((int, float), None),
    "workers": (int, None),
    "output_dir": (str, None),
    "sweep.reduction_factors": (list, None),
    "sweep.longevity_factors": (list, None),
    "sweep.repeats": (int, None),
}


# counts and budgets that must be at least 1
_POSITIVE = {
    "q",
    "shots",
    "final_shots_factor",
    "batch_size",
    "workers",
    "optimizer.hermitian_f_max",
    "optimizer.nonhermitian_f_max",
    "optimizer.hermitian_max_iterations",
    "optimizer.reset_interval",
    "sweep.repeats",
}


def _walk(doc: dict, prefix: str = ""):
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict) and path in ("model", "n_states", "mitigation", "optimizer", "classifier", "sweep"):
            yield from _walk(value, path)
        else:
            yield path, value


def validate_config(doc: dict) -> None:
    for path, value in _walk(doc):
        if path not in _SCALAR_SCHEMA:
            raise ConfigError(f"unknown config key {path!r}")
        expected, allowed = _SCALAR_SCHEMA[path]
        if isinstance(expected, type):
            expected = (expected,)
        # bool is an int subclass: only a bool key takes true/false
        if bool in expected:
            if not isinstance(value, bool):
                raise ConfigError(f"config key {path!r} must be a boolean")
        elif isinstance(value, bool) or not isinstance(value, tuple(expected)):
            raise ConfigError(
                f"config key {path!r} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in expected)}"
            )
        if allowed is not None and value not in allowed:
            raise ConfigError(f"config key {path!r} must be one of {allowed}")
        if path in _POSITIVE and value <= 0:
            raise ConfigError(f"config key {path!r} must be positive, got {value}")
    if doc["workers"] > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigError(
            "config key 'workers' must be 1 here: more workers run in forked "
            "processes, and this platform cannot fork"
        )
    if doc["q"] > 6:
        raise ConfigError(
            f"config key 'q' = {doc['q']} is above 6: the exact-diagonalization "
            "oracle takes at most 2**6 basis functions per channel"
        )
    parities = doc["parities"]
    for parity in parities:
        if parity not in ("even", "odd"):
            raise ConfigError(f"config key 'parities' entries must be 'even' or 'odd'")
    if not parities or len(set(parities)) != len(parities):
        raise ConfigError(
            f"config key 'parities' must be nonempty and distinct, got {parities}"
        )
    try:
        n_points = build_grid(doc).n_points
        build_model(doc)
    except ValueError as exc:
        raise ConfigError(f"config key 'model': {exc}")
    if 2 ** doc["q"] > n_points // 4:
        raise ConfigError(
            f"config key 'q' = {doc['q']}: 2**q basis functions alias on "
            f"model.n_points = {n_points} grid points; need 2**q <= n_points / 4"
        )
    factors = [
        ("gate_noise_reduction_factor", doc["gate_noise_reduction_factor"], False),
        *(("sweep.reduction_factors", v, False) for v in doc["sweep"]["reduction_factors"]),
        *(("sweep.longevity_factors", v, True) for v in doc["sweep"]["longevity_factors"]),
    ]
    if doc["qubit_longevity_factor"] is not None:
        factors.append(("qubit_longevity_factor", doc["qubit_longevity_factor"], True))
    for path, value, inf_ok in factors:
        if isinstance(value, str):
            valid = inf_ok and value.lower() in ("inf", "infinity")
        else:
            valid = isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0
        if not valid:
            allowed = "a positive number or 'inf'" if inf_ok else "a positive number"
            raise ConfigError(f"config key {path!r} must be {allowed}, got {value!r}")
    if doc.get("tier") == "noisy":
        # the noisy tier simulates the q system qubits plus one ancilla
        path = doc.get("noise_profile") or bundled_profile_path()
        try:
            n_qubits = load_noise_profile(path).n_qubits
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config key 'noise_profile': cannot load {path}: {exc}")
        if doc["q"] + 1 > n_qubits:
            raise ConfigError(
                f"config key 'q' = {doc['q']} needs {doc['q'] + 1} qubits on the "
                f"noisy tier, but the noise profile covers {n_qubits}"
            )


def merge_defaults(doc: dict, base: dict = DEFAULTS) -> dict:
    """A deep copy of ``base`` with ``doc``'s keys laid over it, recursively."""
    merged = copy.deepcopy(base)
    for key, value in doc.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = merge_defaults(value, merged[key])
        else:
            merged[key] = value
    return merged


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    doc = {}
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    merged = merge_defaults(overrides or {}, merge_defaults(doc))
    validate_config(merged)
    _warn_idle_trust_region(merged)
    return merged


def _warn_idle_trust_region(doc: dict) -> None:
    """Warn on stderr when the pseudovariance stages cannot optimize.

    Their trust-region optimizer needs 2m + 1 evaluations (m ansatz
    parameters) to start; with a smaller ``optimizer.nonhermitian_f_max`` it
    evaluates nothing and every stage keeps its Hermitian warm start.
    """
    f_max = doc["optimizer"]["nonhermitian_f_max"]
    needed = 2 * ansatz_parameter_count(doc["q"]) + 1
    if f_max < needed:
        print(
            f"warning: config key 'optimizer.nonhermitian_f_max' = {f_max} is "
            f"below the {needed} evaluations the trust-region optimizer needs "
            f"to start at q = {doc['q']}; the pseudovariance stages will keep "
            "their Hermitian warm starts",
            file=sys.stderr,
        )


def _longevity(value) -> float | None:
    if value is None:
        return None
    # validate_config admits no string but 'inf'
    return math.inf if isinstance(value, str) else float(value)


def bundled_profile_path() -> Path:
    return Path(resources.files("qdrive.data") / "torino.json")


def resolve_noise(doc: dict) -> NoiseModel | None:
    if doc["tier"] != "noisy":
        return None
    path = doc["noise_profile"] or bundled_profile_path()
    return scale_noise(
        load_noise_profile(path),
        reduction=float(doc["gate_noise_reduction_factor"]),
        longevity=_longevity(doc["qubit_longevity_factor"]),
    )


def build_grid(doc: dict) -> Grid:
    m = doc["model"]
    return Grid(x_max=float(m["x_max"]), n_points=int(m["n_points"]))


def build_model(doc: dict) -> PotentialModel:
    m = doc["model"]
    return PotentialModel(lam=float(m["lam"]), j=float(m["j"]), x0=float(m["x0"]))


def build_plan(doc: dict) -> RunPlan:
    opt = doc["optimizer"]
    parities = tuple(doc["parities"])
    hermitian_cfg = OptimizerConfig(
        kind=opt["hermitian_kind"] or ("simplex" if doc["tier"] == "statevector" else "nft"),
        max_iterations=opt["hermitian_max_iterations"],
        f_max=opt["hermitian_f_max"],
        reset_interval=opt["reset_interval"],
        retries=opt["retries"],
        r_beg=float(opt["r_beg"]),
        f_tol=float(opt["f_tol"]),
        p_beg=float(opt["p_beg"]),
    )
    nonhermitian_cfg = OptimizerConfig(
        kind="trust_region",
        f_max=opt["nonhermitian_f_max"],
        f_tol=float(opt["f_tol"]),
        retries=opt["retries"],
        r_beg=float(opt["r_beg"]),
    )
    cls = doc["classifier"]
    return RunPlan(
        q=doc["q"],
        parities=parities,
        n_states={p: int(doc["n_states"][p]) for p in parities},
        batch_size=doc["batch_size"],
        tier=doc["tier"],
        shots=doc["shots"],
        final_shots=doc["shots"] * doc["final_shots_factor"],
        seed=doc["seed"],
        noise=resolve_noise(doc),
        penalty=float(opt["penalty_c"]),
        overlap_tol=float(doc["dedup_overlap_tol"]),
        thresholds=ClassifierThresholds(
            cap_weight=float(cls["cap_weight"]),
            im_gain=float(cls["im_gain"]),
            sigma_max=float(cls["sigma_max"]),
            gamma_max=float(cls["gamma_max"]),
        ),
        hermitian_cfg=hermitian_cfg,
        nonhermitian_cfg=nonhermitian_cfg,
        mitigate_readout=doc["mitigation"]["readout"],
        mitigate_zne=doc["mitigation"]["zne"],
    )
