"""Derivative-free minimization of circuit-parameter objectives.

Three optimizer kinds are provided behind one entry point:

* ``nft``           sequential per-parameter sinusoidal updates; each
                    rotation angle's restriction of the objective is
                    a + b*cos(theta - theta0), so three evaluations at
                    shifts {+pi/2, -pi/2, +pi} place the minimizer exactly.
                    The full objective is re-evaluated every
                    ``reset_interval`` parameter updates.
* ``trust_region``  bound-constrained quadratic-model minimization
                    (scipy's COBYQA) with up to ``retries`` full restarts
                    until the value reaches ``f_tol``.
* ``simplex``       linear-approximation fallback (scipy's COBYLA) with
                    initial variable change ``p_beg``.

Every kind returns the ``OptResult`` that ``_Counted.result`` builds: the
best evaluated point (the start if none was), its value and the evaluations
spent.  ``exhausted`` flags a spent budget, never an exception; ``converged``
means all NFT sweeps ran, the trust region reached ``f_tol``, or COBYLA
stopped by itself.  A downgraded NFT run has kind ``"nft->trust_region"``.

Angles are wrapped modulo 2*pi instead of clipped: every estimate here is
bilinear in the prepared state, so a 2*pi shift of any rotation angle is
exactly neutral.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .estimator import Estimator
from .pauli import PauliSum

# relative sinusoid-fit residual above which NFT downgrades to trust_region
RESIDUAL_TOL = 1e-3


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "trust_region"
    max_iterations: int = 2**9
    f_max: int = 2**11
    reset_interval: int = 32
    retries: int = 3
    r_beg: float = 1.0
    f_tol: float = 0.05
    p_beg: float = 1.0

    def __post_init__(self):
        if self.kind not in ("nft", "trust_region", "simplex"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.f_max <= 0 or self.max_iterations <= 0 or self.reset_interval <= 0:
            raise ValueError("budgets must be positive")


@dataclass
class OptResult:
    params: np.ndarray
    value: float
    nfev: int
    converged: bool
    exhausted: bool = False
    kind: str = ""


def wrap_angles(x: np.ndarray) -> np.ndarray:
    return (np.asarray(x, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi


def trust_region_start(m: int) -> int:
    """Evaluations the trust region spends before its first step on m
    parameters: COBYQA's initial interpolation set of 2m + 1 points."""
    return 2 * m + 1


class _Counted:
    """Objective wrapper: counts evaluations, tracks the best point, streams
    per-iteration telemetry, and enforces the evaluation budget."""

    def __init__(self, fun, f_max: int, telemetry=None):
        self.fun = fun
        self.f_max = f_max
        self.telemetry = telemetry
        self.nfev = 0
        self.best_x: np.ndarray | None = None
        self.best_val = math.inf

    def __call__(self, x) -> float:
        if self.nfev >= self.f_max:
            raise _BudgetExhausted
        x = wrap_angles(x)
        self.nfev += 1
        value = float(self.fun(x))
        if value < self.best_val:
            self.best_val = value
            self.best_x = x.copy()
        if self.telemetry is not None:
            digest = hashlib.sha1(x.tobytes()).hexdigest()[:12]
            self.telemetry.append(
                {
                    "iteration": self.nfev,
                    "params_hash": digest,
                    "value": value,
                    "evaluations": self.nfev,
                }
            )
        return value

    def result(self, x, kind: str, converged: bool, exhausted: bool) -> OptResult:
        """The best evaluated point, or ``x`` if none was evaluated."""
        params = self.best_x if self.best_x is not None else x
        return OptResult(params, self.best_val, self.nfev, converged, exhausted, kind)


class _BudgetExhausted(Exception):
    pass


def _fit_sinusoid(z_plus: float, z_minus: float, z_pi: float):
    """Recover f(t + d) = a + alpha*cos(d) + beta*sin(d) from the three shifts."""
    a = 0.5 * (z_plus + z_minus)
    beta = 0.5 * (z_plus - z_minus)
    alpha = a - z_pi
    return a, alpha, beta


def nft_minimize(
    fun, x0, config: OptimizerConfig, telemetry=None, sigma_hint: float = 0.0
) -> OptResult:
    """Sequential sinusoidal coordinate minimization.

    On the first parameter of the first sweep the fitted sinusoid is
    validated with an extra evaluation at the predicted minimizer; a
    relative residual above max(RESIDUAL_TOL, 5*sigma_hint) downgrades the
    whole run to the trust-region kind.  When fewer evaluations are left
    than trust_region needs to start, the downgraded run returns NFT's best
    evaluated point, flagged exhausted.
    """
    x = wrap_angles(np.asarray(x0, dtype=float))
    m = x.size
    counted = _Counted(fun, config.f_max, telemetry)
    updates = 0
    try:
        for sweep in range(config.max_iterations):
            for k in range(m):
                if counted.nfev + 3 > config.f_max:
                    raise _BudgetExhausted
                shift = np.zeros(m)
                shift[k] = 0.5 * math.pi
                z_plus = counted(x + shift)
                z_minus = counted(x - shift)
                shift[k] = math.pi
                z_pi = counted(x + shift)
                a, alpha, beta = _fit_sinusoid(z_plus, z_minus, z_pi)
                r = math.hypot(alpha, beta)
                phi = math.atan2(beta, alpha)
                x[k] = wrap_angles(np.array([x[k] + phi + math.pi]))[0]
                predicted = a - r
                updates += 1
                first = sweep == 0 and k == 0
                if first:
                    actual = counted(x)
                    scale = max(1.0, abs(a) + r)
                    residual = abs(actual - predicted) / scale
                    if residual > max(RESIDUAL_TOL, 5.0 * sigma_hint / scale):
                        remaining = config.f_max - counted.nfev
                        if remaining < trust_region_start(m):
                            return counted.result(x, "nft->trust_region", False, True)
                        inner = replace(config, kind="trust_region", f_max=remaining)
                        result = trust_region_minimize(fun, x, inner, telemetry)
                        result.nfev += counted.nfev
                        result.kind = "nft->trust_region"
                        return result
                # the prediction at x is exact for a sinusoidal objective
                if predicted < counted.best_val:
                    counted.best_val = predicted
                    counted.best_x = x.copy()
                if not first and updates % config.reset_interval == 0:
                    counted(x)
    except _BudgetExhausted:
        return counted.result(x, "nft", converged=False, exhausted=True)
    return counted.result(x, "nft", converged=True, exhausted=False)


def trust_region_minimize(
    fun, x0, config: OptimizerConfig, telemetry=None
) -> OptResult:
    """COBYQA with a retry loop: restart from the best point until f_tol."""
    x = wrap_angles(np.asarray(x0, dtype=float))
    counted = _Counted(fun, config.f_max, telemetry)
    bounds = scipy.optimize.Bounds(x - 2.0 * np.pi, x + 2.0 * np.pi)
    attempts = 0
    exhausted = False
    try:
        while True:
            remaining = config.f_max - counted.nfev
            if remaining < trust_region_start(x.size):
                raise _BudgetExhausted
            scipy.optimize.minimize(
                counted,
                x,
                method="cobyqa",
                bounds=bounds,
                options={
                    "maxfev": remaining,
                    "maxiter": 10 * remaining,
                    "initial_tr_radius": config.r_beg,
                    "final_tr_radius": 1e-8,
                },
            )
            attempts += 1
            if counted.best_val <= config.f_tol or attempts > config.retries:
                break
            x = counted.best_x.copy()
    except _BudgetExhausted:
        exhausted = True
    return counted.result(x, "trust_region", counted.best_val <= config.f_tol, exhausted)


def simplex_minimize(fun, x0, config: OptimizerConfig, telemetry=None) -> OptResult:
    x = wrap_angles(np.asarray(x0, dtype=float))
    counted = _Counted(fun, config.f_max, telemetry)
    try:
        scipy.optimize.minimize(
            counted,
            x,
            method="COBYLA",
            options={
                "rhobeg": config.p_beg,
                # COBYLA needs m + 2 evaluations to start; _Counted
                # enforces f_max
                "maxiter": max(x.size + 2, min(config.max_iterations, config.f_max)),
                "tol": 1e-10,
            },
        )
    except _BudgetExhausted:
        pass
    # COBYLA may also stop by itself at maxiter = f_max, having spent it all
    exhausted = counted.nfev >= config.f_max
    return counted.result(x, "simplex", converged=not exhausted, exhausted=exhausted)


def minimize(
    fun, config: OptimizerConfig, x0, telemetry=None, sigma_hint: float = 0.0
) -> OptResult:
    """Dispatch on the configured optimizer kind."""
    if config.kind == "nft":
        return nft_minimize(fun, x0, config, telemetry, sigma_hint)
    if config.kind == "trust_region":
        return trust_region_minimize(fun, x0, config, telemetry)
    return simplex_minimize(fun, x0, config, telemetry)


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------


def vqd_objective(
    params,
    h_h: PauliSum,
    prior_states: list,
    penalty: float,
    est: Estimator,
) -> float:
    """Deflated energy: <H_H> plus penalty * squared overlap with each prior."""
    value = est.expectation(h_h, params).real
    for prior in prior_states:
        value += penalty * est.overlap_lowdepth(params, prior)
    return value


def pseudovariance_objective(
    params, h_h: PauliSum, v_cap: PauliSum, h_dag_h: PauliSum, est: Estimator
) -> float:
    """<H_N^dag H_N> - |<H_N>|^2 of H_N = H_H + i V_cap, with <H_N> assembled
    as <H_H> + i <V_cap> from its two Hermitian parts."""
    energy = est.energy(params, h_h, v_cap)
    second_moment = est.expectation(h_dag_h, params).real
    return second_moment - abs(energy) ** 2
