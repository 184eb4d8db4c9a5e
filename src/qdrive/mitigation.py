"""Measurement post-processing: readout inversion and hybrid exp-linear ZNE.

Readout errors are undone by the inverse of the joint confusion, the
Kronecker product of the per-qubit 2x2 inverses of the noise model's
confusion rows (``NoiseModel.readout``).  Gate errors are
extrapolated away by one function, :func:`zne_extrapolate`, from the three
values at fold scales 1, 3, 5 and their shot count: an exponential fit where
the three points decay monotonically and significantly, with linear and
outlier fallbacks in the statistically degenerate orderings.  Significance
between two points is decided by a two-sample binomial z-test at |z| > 1.96.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate

Z_CRITICAL = 1.96

BRANCHES = (
    "constant",
    "undefined-averaged",
    "outlier-x5",
    "linear-order",
    "linear-ztest",
    "exponential",
)


def readout_invert(n0: float, rows: np.ndarray) -> tuple[float, float, bool]:
    """Infer one qubit's true (T0, T1) from its noisy P(measure 0) and its
    2x2 confusion ``rows``, one qubit's entry of ``NoiseModel.readout``.

    Solutions outside [0, 1] are clamped and flagged rather than rejected so
    optimization loops stay alive under heavy noise.
    """
    (p00, p01), (p10, p11) = rows
    n1 = 1.0 - n0
    t0 = (n0 - p10) / (p00 - p10)
    t1 = (n1 - p01) / (p11 - p01)
    clamped = False
    if t0 < 0.0:
        t0, clamped = 0.0, True
    elif t0 > 1.0:
        t0, clamped = 1.0, True
    if clamped:
        t1 = 1.0 - t0
    return t0, t1, clamped


def readout_inverse(readout: np.ndarray) -> np.ndarray:
    """The matrix that undoes independent per-qubit confusions on a
    big-endian outcome distribution.

    ``readout`` holds the (k, 2, 2) confusion rows of the k measured qubits,
    as ``NoiseModel.readout`` does.  The joint confusion is their tensor
    product, so its inverse is the Kronecker product of theirs; probabilities
    transform with the transpose of the true->measured map.  A qubit with
    p00 - p10 < 1e-9 raises ``ValueError``: its confusion has no usable inverse.
    """
    inverse = np.ones((1, 1))
    for k, rows in enumerate(readout):
        if rows[0, 0] - rows[1, 0] < 1e-9:
            msg = "degenerate confusion matrix: p00 must exceed p10"
            raise ValueError(f"readout of qubit {k}: {msg}")
        inverse = np.kron(inverse, np.linalg.inv(rows).T)
    return inverse


def invert_distribution(probs: np.ndarray, inverse: np.ndarray) -> tuple[np.ndarray, bool]:
    """Confusion inversion of a multi-qubit outcome distribution, or of each
    row of a stack of them, with the ``inverse`` of :func:`readout_inverse`.

    Each row is one product ``inverse @ row``: a product with the whole stack
    can round differently.  Negative entries from sampling noise are clamped
    to zero and each distribution renormalized (flagged, for any row).
    """
    flat = np.array([inverse @ row for row in np.atleast_2d(probs)]).reshape(np.shape(probs))
    clamped = bool(np.any(flat < -1e-12))
    flat = np.clip(flat, 0.0, None)
    empty = flat.sum(axis=-1, keepdims=True) <= 0
    flat = np.where(empty, 1.0, flat)  # a row clamped away entirely becomes uniform
    return flat / flat.sum(axis=-1, keepdims=True), clamped or bool(np.any(empty))


def z_score(x3: float, x5: float, n: int) -> float:
    """Two-sample binomial z-score between proportions x3 and x5 at n shots."""
    p3 = min(1.0, max(0.0, x3))
    p5 = min(1.0, max(0.0, x5))
    var = (p3 * (1.0 - p3) + p5 * (1.0 - p5)) / n
    if var <= 0.0:
        if x3 == x5:
            return 0.0
        return math.inf if x3 > x5 else -math.inf
    return (x3 - x5) / math.sqrt(var)


@dataclass(frozen=True)
class ZneResult:
    x0: float
    branch: str
    z: float  # z-score between the scale-3 and scale-5 proportions


def _strictly_between(v: float, a: float, b: float) -> bool:
    return min(a, b) < v < max(a, b)


def zne_extrapolate(x1: float, x3: float, x5: float, n: int, mode: str) -> ZneResult:
    """Zero-noise estimate of the values at fold scales 1, 3, 5 at ``n``
    shots each, with exhaustive branch coverage.

    ``mode`` is "probability" for values in [0, 1] (all-zeros statistics)
    and "expectation" for values in [-1, 1], which are mapped affinely to
    proportions before the binomial z-test.  A bad mode, n <= 0 or a value
    out of range raises ``ValueError``, whose message begins with the name
    of the value (``shots`` for n).

    Branch precedence (first match wins):

    1. constant            all three pairwise z-insignificant -> x1
    2. undefined-averaged  x1 ~ x5                            -> x1
    3. outlier-x5          x1 strictly between x3 and x5      -> (x1+x3)/2
    4. linear-order        x5 strictly between x1 and x3      -> (3*x1-x3)/2
    5. linear-ztest        x3 ~ x5 (or x1 ~ x3)               -> (3*x1-x3)/2
    6. exponential         monotone, all significant          -> closed form
    """
    if mode not in ("probability", "expectation"):
        raise ValueError(f"bad mode {mode!r}")
    if n <= 0:
        raise ValueError(f"shots = {n}: the shot count must be positive")
    lo = 0.0 if mode == "probability" else -1.0
    for name, v in (("x1", x1), ("x3", x3), ("x5", x5)):
        if not lo - 1e-9 <= v <= 1.0 + 1e-9:
            raise ValueError(f"{name} = {v} is outside [{lo}, 1]")
    p1, p3, p5 = (x1, x3, x5) if mode == "probability" else ((x + 1) / 2.0 for x in (x1, x3, x5))
    z = z_score(p3, p5, n)
    # which pairs of scales are z-insignificant, "~" above
    same13 = abs(z_score(p1, p3, n)) <= Z_CRITICAL
    same15 = abs(z_score(p1, p5, n)) <= Z_CRITICAL
    same35 = abs(z) <= Z_CRITICAL
    if same13 and same15 and same35:
        return ZneResult(x1, "constant", z)
    if same15:
        return ZneResult(x1, "undefined-averaged", z)
    if _strictly_between(x1, x3, x5):
        return ZneResult((x1 + x3) / 2.0, "outlier-x5", z)
    if _strictly_between(x5, x1, x3):
        return ZneResult((3.0 * x1 - x3) / 2.0, "linear-order", z)
    if same35 or same13:
        return ZneResult((3.0 * x1 - x3) / 2.0, "linear-ztest", z)
    beta = math.sqrt((x3 - x5) / (x1 - x3))
    return ZneResult(x1 + (x1 - x3) / (beta**2 + beta), "exponential", z)


def fold_circuit(circuit: Circuit, lam: int) -> Circuit:
    """Noise amplification: every gate G becomes G (G^dag G)^((lam-1)/2); the
    reference for the simulator's evolutions at a fold scale, which build no such circuit."""
    if lam < 1 or lam % 2 == 0:
        raise ValueError(f"fold scale must be an odd positive integer, got {lam}")
    if lam == 1:
        return circuit
    reps = (lam - 1) // 2
    gates: list[Gate] = []
    for gate in circuit.gates:
        gates.append(gate)
        inverse = gate.inverse()
        for _ in range(reps):
            gates.append(inverse)
            gates.append(gate)
    return Circuit(circuit.n_qubits, tuple(gates))
