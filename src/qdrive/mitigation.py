"""Measurement post-processing: readout inversion and hybrid exp-linear ZNE.

Readout errors are undone by the inverse of the joint confusion, the
Kronecker product of the per-qubit 2x2 inverses.  Gate errors are
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


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic readout confusion: row = true state, column = measured."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        for v in (self.p00, self.p01, self.p10, self.p11):
            if not 0.0 <= v <= 1.0:
                raise ValueError("confusion entries must be probabilities")
        if abs(self.p00 + self.p01 - 1.0) > 1e-9 or abs(self.p10 + self.p11 - 1.0) > 1e-9:
            raise ValueError("confusion rows must sum to 1")
        if self.p00 - self.p10 < 1e-9:
            raise ValueError("degenerate confusion matrix: p00 must exceed p10")

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "ConfusionMatrix":
        return cls(
            p00=float(rows[0, 0]),
            p01=float(rows[0, 1]),
            p10=float(rows[1, 0]),
            p11=float(rows[1, 1]),
        )

    def forward(self, t0: float) -> float:
        """Noisy P(measure 0) for a true P(0) of t0."""
        return t0 * self.p00 + (1.0 - t0) * self.p10


def readout_invert(n0: float, matrix: ConfusionMatrix) -> tuple[float, float, bool]:
    """Infer the true (T0, T1) from the noisy P(measure 0).

    Solutions outside [0, 1] are clamped and flagged rather than rejected so
    optimization loops stay alive under heavy noise.
    """
    n1 = 1.0 - n0
    t0 = (n0 - matrix.p10) / (matrix.p00 - matrix.p10)
    t1 = (n1 - matrix.p01) / (matrix.p11 - matrix.p01)
    clamped = False
    if t0 < 0.0:
        t0, clamped = 0.0, True
    elif t0 > 1.0:
        t0, clamped = 1.0, True
    if clamped:
        t1 = 1.0 - t0
    return t0, t1, clamped


def readout_inverse(matrices: list[ConfusionMatrix]) -> np.ndarray:
    """The matrix that undoes independent per-qubit confusions on a
    big-endian outcome distribution.

    The joint confusion is the tensor product of the single-qubit matrices,
    so its inverse is the Kronecker product of theirs; probabilities
    transform with the transpose of the true->measured map.
    """
    inverse = np.ones((1, 1))
    for cm in matrices:
        fwd = np.array([[cm.p00, cm.p01], [cm.p10, cm.p11]])
        inverse = np.kron(inverse, np.linalg.inv(fwd).T)
    return inverse


def invert_distribution(probs: np.ndarray, inverse: np.ndarray) -> tuple[np.ndarray, bool]:
    """Confusion inversion of a multi-qubit outcome distribution with the
    ``inverse`` of :func:`readout_inverse`.

    Negative entries from sampling noise are clamped to zero and the
    distribution renormalized (flagged).
    """
    flat = inverse @ np.asarray(probs, dtype=float)
    clamped = bool(np.any(flat < -1e-12))
    flat = np.clip(flat, 0.0, None)
    total = flat.sum()
    if total <= 0:
        flat = np.full_like(flat, 1.0 / flat.size)
        clamped = True
    else:
        flat = flat / total
    return flat, clamped


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
    """Noise amplification: every gate G becomes G (G^dag G)^((lam-1)/2)."""
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
