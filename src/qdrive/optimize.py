"""Derivative-free minimization of circuit-parameter objectives.

``minimize`` is the one entry point.  Each call wraps the objective in one
``_Counted``, which every phase of the run spends its evaluations from and
which holds the run's best point, and runs the configured kind:

* ``nft``           sequential per-parameter sinusoidal updates; each
                    rotation angle's restriction of the objective is
                    a + b*cos(theta - theta0), so three evaluations at
                    shifts {+pi/2, -pi/2, +pi} place the minimizer exactly.
                    The full objective is re-evaluated every
                    ``reset_interval`` parameter updates.  The run stops
                    after a sweep that lowers the best value by at most
                    1e-10 * max(1, |best|), COBYLA's ``tol``.  A failed fit on
                    the first update downgrades the run: the trust-region
                    phase continues on NFT's counter, and the run has kind
                    ``"nft->trust_region"``.
* ``trust_region``  bound-constrained quadratic-model minimization
                    (scipy's COBYQA) with up to ``retries`` full restarts
                    from the run's best point until the value reaches
                    ``f_tol``.
* ``simplex``       linear-approximation fallback (scipy's COBYLA) with
                    initial variable change ``p_beg``.

scipy loads when the first trust-region or simplex phase starts.

The result is the run's best evaluated point (the start if none was), its
value and the evaluations spent, so a downgraded run reports the best of
NFT's evaluations and the trust region's together.  ``exhausted`` is read
from the counter alone: it refused an evaluation, or the budget is spent;
it is a flag, never an exception.  ``converged`` means the best value
reached ``f_tol`` for the trust-region kinds, and otherwise that the run
stopped by itself with budget left: NFT's sweeps stopped lowering the best
value or all ran, or COBYLA stopped.

Angles are wrapped modulo 2*pi instead of clipped: every estimate here is
bilinear in the prepared state, so a 2*pi shift of any rotation angle is
exactly neutral.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Objective wrapper for one run: counts evaluations, tracks the best
    point and enforces the budget."""

    def __init__(self, fun, f_max: int):
        self.fun = fun
        self.f_max = f_max
        self.nfev = 0
        self.refused = False
        self.best_x: np.ndarray | None = None
        self.best_val = math.inf

    def require(self, n: int) -> None:
        """Refuse, by raising _BudgetExhausted, unless n more evaluations fit."""
        if self.nfev + n > self.f_max:
            self.refused = True
            raise _BudgetExhausted

    def __call__(self, x) -> float:
        self.require(1)
        x = wrap_angles(x)
        self.nfev += 1
        value = float(self.fun(x))
        if value < self.best_val:
            self.best_val = value
            self.best_x = x.copy()
        return value


class _BudgetExhausted(Exception):
    pass


def _fit_sinusoid(z_plus: float, z_minus: float, z_pi: float):
    """Recover f(t + d) = a + alpha*cos(d) + beta*sin(d) from the three shifts."""
    a = 0.5 * (z_plus + z_minus)
    beta = 0.5 * (z_plus - z_minus)
    alpha = a - z_pi
    return a, alpha, beta


def _nft(counted: _Counted, x, config: OptimizerConfig, sigma_hint: float):
    """Sequential sinusoidal coordinate minimization from ``x``.  Returns
    None once a sweep leaves the best value where it was or every sweep has
    run, or the point at which the fit failed.

    On the first parameter of the first sweep the fitted sinusoid is checked
    by an evaluation at the predicted minimizer; the fit fails when the residual
    over scale = max(1, |a| + r) exceeds max(RESIDUAL_TOL, 5*sigma_hint/scale).
    """
    x = x.copy()
    m = x.size
    updates = 0
    for sweep in range(config.max_iterations):
        start = counted.best_val
        for k in range(m):
            counted.require(3)
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
                    return x
            # the prediction at x is exact for a sinusoidal objective
            if predicted < counted.best_val:
                counted.best_val = predicted
                counted.best_x = x.copy()
            if not first and updates % config.reset_interval == 0:
                counted(x)
        if start - counted.best_val <= 1e-10 * max(1.0, abs(counted.best_val)):
            break
    return None


def _trust_region(counted: _Counted, x, config: OptimizerConfig) -> None:
    """COBYQA from ``x`` with a retry loop: restart from the run's best point
    until its value reaches f_tol or the retries are spent."""
    start = x
    for _ in range(config.retries + 1):
        counted.require(trust_region_start(x.size))
        import scipy.optimize  # only once the phase can start
        remaining = counted.f_max - counted.nfev
        scipy.optimize.minimize(
            counted,
            x,
            method="cobyqa",
            bounds=scipy.optimize.Bounds(start - 2.0 * np.pi, start + 2.0 * np.pi),
            options={
                "maxfev": remaining,
                "maxiter": 10 * remaining,
                "initial_tr_radius": config.r_beg,
                "final_tr_radius": 1e-8,
            },
        )
        if counted.best_val <= config.f_tol:
            return
        x = counted.best_x.copy()


def _simplex(counted: _Counted, x, config: OptimizerConfig) -> None:
    import scipy.optimize
    scipy.optimize.minimize(
        counted,
        x,
        method="COBYLA",
        options={
            "rhobeg": config.p_beg,
            # COBYLA needs m + 2 evaluations to start; _Counted enforces f_max
            "maxiter": max(x.size + 2, min(config.max_iterations, config.f_max)),
            "tol": 1e-10,
        },
    )


def minimize(fun, config: OptimizerConfig, x0, sigma_hint: float = 0.0) -> OptResult:
    """Minimize ``fun`` from ``x0`` with the configured kind, every phase
    spending from and reporting through one counter.  ``sigma_hint`` must
    bound the shot-noise s.d. of the whole of ``fun``: NFT's fit check uses it."""
    x = wrap_angles(np.asarray(x0, dtype=float))
    counted = _Counted(fun, config.f_max)
    kind = config.kind
    try:
        if kind == "nft":
            failed_at = _nft(counted, x, config, sigma_hint)
            if failed_at is not None:
                kind = "nft->trust_region"
                _trust_region(counted, failed_at, config)
        elif kind == "trust_region":
            _trust_region(counted, x, config)
        else:
            _simplex(counted, x, config)
    except _BudgetExhausted:
        pass
    exhausted = counted.refused or counted.nfev >= config.f_max
    if kind in ("trust_region", "nft->trust_region"):
        converged = counted.best_val <= config.f_tol
    else:
        converged = not exhausted
    params = counted.best_x if counted.best_x is not None else x
    return OptResult(params, counted.best_val, counted.nfev, converged, exhausted, kind)


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


def vqd_sigma(h_h: PauliSum, n_priors: int, penalty: float, est: Estimator) -> float:
    """Shot-noise s.d. bound of one ``vqd_objective`` value: the energy's
    and each penalized overlap's, drawn independently, in quadrature."""
    overlap = penalty * est.overlap_sigma()
    return math.sqrt(est.statistical_sigma(h_h) ** 2 + n_priors * overlap**2)


def pseudovariance_objective(
    params, h_h: PauliSum, v_cap: PauliSum, h_dag_h: PauliSum, est: Estimator
) -> float:
    """<H_N^dag H_N> - |<H_N>|^2 of H_N = H_H + i V_cap, with <H_N> assembled
    as <H_H> + i <V_cap> from its two Hermitian parts."""
    energy = est.energy(params, h_h, v_cap)
    second_moment = est.expectation(h_dag_h, params).real
    return second_moment - abs(energy) ** 2
