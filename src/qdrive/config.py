"""Run configuration: a JSON document with schema validation and defaults.

``_KEYS`` declares every config key once, as a dotted path with its default,
the JSON type(s) it accepts and the check its value must pass; ``DEFAULTS``
is the nested document of the defaults, in the same key order.  Defaults
reproduce the benchmark settings (lam = 0.1, j = 0.8, x0 = 8, x_max = 10,
2^12 grid points, batch of 8 runs, 10^5 shots, penalty 100).  A bad value
fails at load with a message that names its key, before any task runs.
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


_REAL = (int, float)
_OPTIONAL_STR = (str, type(None))

# A check is (test, what it asks for).  The test sees a value of the key's
# type; None, where the type admits it, means unset and is not checked.


def _positive(inf: bool = False):
    """A positive number; with ``inf`` the string 'inf' or 'infinity' too."""
    return (
        lambda v: (isinstance(v, _REAL) and not isinstance(v, bool) and v > 0)
        or (inf and isinstance(v, str) and v.lower() in ("inf", "infinity"))
    ), "a positive number or 'inf'" if inf else "a positive number"


def _finite(lo: float = -math.inf, hi: float = math.inf, strict: bool = False):
    """A number in [lo, hi], or in (lo, hi] when ``strict``, that a float
    holds finitely: not NaN, not infinite, no int beyond the float range."""
    bounded = lo > -math.inf or hi < math.inf
    return (
        lambda v: (lo < v if strict else lo <= v) and v <= hi
        and abs(v) <= sys.float_info.max
    ), f"finite and in {'(' if strict else '['}{lo:g}, {hi:g}]" if bounded else "finite"


def _one_of(*allowed):
    return (lambda v: v in allowed), f"one of {allowed}"


def _each(check):
    test, wanted = check
    return (lambda v: all(test(x) for x in v)), f"a list of entries each {wanted}"


# dotted key -> (default, accepted type(s), check or None)
_KEYS: dict[str, tuple] = {
    "model.lam": (0.1, _REAL, _positive()),
    "model.j": (0.8, _REAL, _finite()),
    # Infinity puts the absorber beyond the grid: no CAP
    "model.x0": (8.0, _REAL, ((lambda v: v > -math.inf), "a number or Infinity")),
    "model.x_max": (10.0, _REAL, _finite()),
    "model.n_points": (4096, int, None),
    "q": (3, int, _positive()),
    "parities": (["even", "odd"], list, _each(_one_of("even", "odd"))),
    "n_states.even": (4, int, _positive()),
    "n_states.odd": (2, int, _positive()),
    "batch_size": (8, int, _positive()),
    "tier": ("statevector", str, _one_of("statevector", "shots", "noisy")),
    "shots": (100000, int, _positive()),
    "final_shots_factor": (10, int, _positive()),
    "seed": (20240601, int, ((lambda v: v >= 0), "nonnegative")),
    "noise_profile": (None, _OPTIONAL_STR, None),
    "gate_noise_reduction_factor": (1.0, _REAL, _positive()),
    "qubit_longevity_factor": (None, (*_REAL, *_OPTIONAL_STR), _positive(inf=True)),
    "mitigation.readout": (True, bool, None),
    "mitigation.zne": (True, bool, None),
    "optimizer.penalty_c": (100.0, _REAL, _finite(0)),
    "optimizer.hermitian_kind": (None, _OPTIONAL_STR, _one_of("nft", "trust_region", "simplex")),
    "optimizer.hermitian_f_max": (2048, int, _positive()),
    "optimizer.hermitian_max_iterations": (512, int, _positive()),
    "optimizer.reset_interval": (32, int, _positive()),
    "optimizer.nonhermitian_f_max": (1024, int, _positive()),
    "optimizer.f_tol": (0.05, _REAL, _finite(0)),
    "optimizer.retries": (3, int, ((lambda v: v >= 0), "nonnegative")),
    "optimizer.r_beg": (1.0, _REAL, _finite(0, strict=True)),
    "optimizer.p_beg": (1.0, _REAL, _finite(0, strict=True)),
    "classifier.cap_weight": (0.5, _REAL, _finite(0, 1)),
    "classifier.im_gain": (1e-3, _REAL, _finite(0)),
    "classifier.sigma_max": (0.5, _REAL, _finite(0)),
    "classifier.gamma_max": (0.05, _REAL, _finite(0)),
    "dedup_overlap_tol": (0.5, _REAL, _finite(0, 1)),
    "workers": (4, int, _positive()),
    "output_dir": ("out", str, None),
    "sweep.reduction_factors": ([1.0, 10000.0], list, _each(_positive())),
    "sweep.longevity_factors": ([10.0, "inf"], list, _each(_positive(inf=True))),
    "sweep.repeats": (8, int, _positive()),
}


def _nest(table: dict) -> dict:
    doc: dict = {}
    for path, (default, _, _) in table.items():
        *sections, key = path.split(".")
        node = doc
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = default
    return doc


DEFAULTS: dict = _nest(_KEYS)


def _walk(doc: dict, defaults: dict = DEFAULTS, prefix: str = ""):
    for key, value in doc.items():
        if isinstance(value, dict) and isinstance(defaults.get(key), dict):
            yield from _walk(value, defaults[key], f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def validate_config(doc: dict) -> None:
    for path, value in _walk(doc):
        if path not in _KEYS:
            raise ConfigError(f"unknown config key {path!r}")
        _, types, check = _KEYS[path]
        # bool is an int subclass: only a bool key takes true/false
        if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
            names = (types,) if isinstance(types, type) else types
            raise ConfigError(
                f"config key {path!r} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in names)}"
            )
        if check is not None and value is not None and not check[0](value):
            raise ConfigError(f"config key {path!r} must be {check[1]}, got {value!r}")
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
    if not parities or len(set(parities)) != len(parities):
        raise ConfigError(
            f"config key 'parities' must be nonempty and distinct, got {parities}"
        )
    try:
        n_points = build_grid(doc).n_points
        build_model(doc)
    except (ValueError, OverflowError) as exc:  # float() of a huge int overflows
        raise ConfigError(f"config key 'model': {exc}")
    if 2 ** doc["q"] > n_points // 4:
        raise ConfigError(
            f"config key 'q' = {doc['q']}: 2**q basis functions alias on "
            f"model.n_points = {n_points} grid points; need 2**q <= n_points / 4"
        )
    if doc.get("tier") == "noisy":
        # the noisy tier simulates the q qubits of the ansatz
        path = doc.get("noise_profile") or bundled_profile_path()
        try:
            n_qubits = load_noise_profile(path).n_qubits
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config key 'noise_profile': cannot load {path}: {exc}")
        if doc["q"] > n_qubits:
            raise ConfigError(
                f"config key 'q' = {doc['q']} needs {doc['q']} qubits on the "
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
