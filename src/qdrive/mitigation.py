"""Measurement post-processing: readout inversion and hybrid exp-linear ZNE.

Readout errors are undone by the inverse of the joint confusion, the
Kronecker product of the per-qubit 2x2 inverses of the noise model's
confusion rows (``NoiseModel.readout``).  Gate errors are
extrapolated away from circuit results at fold scales 1, 3, 5: an
exponential fit where the three points decay monotonically and
significantly, with linear and outlier fallbacks in the statistically
degenerate orderings.  Significance between two points is
decided by a two-sample binomial z-test at |z| > 1.96.
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
class ZnePoints:
    """Expectation estimates at fold scales 1, 3, 5 with their shot count.

    ``mode`` is "probability" for values in [0, 1] (all-zeros statistics)
    and "expectation" for values in [-1, 1], which are mapped affinely to
    proportions before the binomial z-test.
    """

    x1: float
    x3: float
    x5: float
    n: int
    mode: str = "probability"

    def __post_init__(self):
        if self.mode not in ("probability", "expectation"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.n <= 0:
            raise ValueError(f"shots = {self.n}: the shot count must be positive")
        lo = 0.0 if self.mode == "probability" else -1.0
        for name, v in (("x1", self.x1), ("x3", self.x3), ("x5", self.x5)):
            if not lo - 1e-9 <= v <= 1.0 + 1e-9:
                raise ValueError(f"{name} = {v} is outside [{lo}, 1]")

    def proportions(self) -> tuple[float, float, float]:
        if self.mode == "probability":
            return self.x1, self.x3, self.x5
        return (self.x1 + 1) / 2.0, (self.x3 + 1) / 2.0, (self.x5 + 1) / 2.0


@dataclass(frozen=True)
class ZneResult:
    x0: float
    branch: str
    z13: float
    z15: float
    z35: float

    def telemetry(self, pts: ZnePoints) -> dict:
        return {
            "x1": pts.x1,
            "x3": pts.x3,
            "x5": pts.x5,
            "z": self.z35,
            "branch": self.branch,
            "x0": self.x0,
        }


def _strictly_between(v: float, a: float, b: float) -> bool:
    return min(a, b) < v < max(a, b)


def zne_extrapolate(pts: ZnePoints) -> ZneResult:
    """Zero-noise estimate with exhaustive branch coverage.

    Branch precedence (first match wins):

    1. constant            all three pairwise z-insignificant -> x1
    2. undefined-averaged  x1 ~ x5                            -> x1
    3. outlier-x5          x1 strictly between x3 and x5      -> (x1+x3)/2
    4. linear-order        x5 strictly between x1 and x3      -> (3*x1-x3)/2
    5. linear-ztest        x3 ~ x5 (or x1 ~ x3)               -> (3*x1-x3)/2
    6. exponential         monotone, all significant          -> closed form
    """
    x1, x3, x5 = pts.x1, pts.x3, pts.x5
    p1, p3, p5 = pts.proportions()
    z13 = z_score(p1, p3, pts.n)
    z15 = z_score(p1, p5, pts.n)
    z35 = z_score(p3, p5, pts.n)

    def result(x0: float, branch: str) -> ZneResult:
        return ZneResult(x0=x0, branch=branch, z13=z13, z15=z15, z35=z35)

    insig = lambda z: abs(z) <= Z_CRITICAL
    if insig(z13) and insig(z15) and insig(z35):
        return result(x1, "constant")
    if insig(z15):
        return result(x1, "undefined-averaged")
    if _strictly_between(x1, x3, x5):
        return result((x1 + x3) / 2.0, "outlier-x5")
    if _strictly_between(x5, x1, x3):
        return result((3.0 * x1 - x3) / 2.0, "linear-order")
    if insig(z35) or insig(z13):
        return result((3.0 * x1 - x3) / 2.0, "linear-ztest")
    beta = math.sqrt((x3 - x5) / (x1 - x3))
    return result(x1 + (x1 - x3) / (beta**2 + beta), "exponential")


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
