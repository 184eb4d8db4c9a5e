"""Gate-list circuits and the hardware-efficient ansatz.

Bitstrings and state indices are big-endian in qubit order (qubit 0 is the
most significant bit).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

ANSATZ_LAYERS = 3

_SELF_INVERSE = {"h", "x", "cx", "cy", "cz"}
_KINDS_1Q = {"ry", "rz", "h", "x", "s", "sdg"}
_KINDS_2Q = {"cx", "cy", "cz"}
_KINDS = _KINDS_1Q | _KINDS_2Q


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    param: float | None = None

    def inverse(self) -> "Gate":
        if self.kind in _SELF_INVERSE:
            return self
        if self.kind in ("ry", "rz"):
            return Gate(self.kind, self.qubits, -self.param)
        if self.kind == "s":
            return Gate("sdg", self.qubits)
        if self.kind == "sdg":
            return Gate("s", self.qubits)
        raise ValueError(f"gate {self.kind!r} has no inverse")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for gate in self.gates:
            if gate.kind not in _KINDS:
                raise ValueError(f"unknown gate kind {gate.kind!r}")
            if any(q < 0 or q >= self.n_qubits for q in gate.qubits):
                raise ValueError(
                    f"gate {gate.kind} targets {gate.qubits} outside "
                    f"0..{self.n_qubits - 1}"
                )
            if gate.kind in _KINDS_2Q and len(set(gate.qubits)) != 2:
                raise ValueError(f"two-qubit gate needs two distinct qubits: {gate}")

    def inverse(self) -> "Circuit":
        return Circuit(self.n_qubits, tuple(g.inverse() for g in reversed(self.gates)))


def ansatz_parameter_count(q: int, layers: int = ANSATZ_LAYERS) -> int:
    return 2 * q * (layers + 1)


def random_initial_params(q: int, rng: np.random.Generator) -> np.ndarray:
    """Pseudorandom start in the canonical domain [-pi, pi]."""
    return rng.uniform(-np.pi, np.pi, size=ansatz_parameter_count(q))


@functools.lru_cache(maxsize=None)
def ansatz_layout(q: int) -> tuple[tuple[str, tuple[int, ...], int | None], ...]:
    """The hardware-efficient SU(2) ansatz on q qubits, one entry per gate in
    order: its kind, its qubits and the index of its angle in the parameter
    vector (None for a CX).

    Layout: an initial column of per-qubit RY then RZ rotations, followed by
    ANSATZ_LAYERS repetitions of [CX chain 0->1->...->q-1, RY column,
    RZ column].  Parameter k of column c is the angle for qubit k, with
    columns ordered (RY_0, RZ_0, RY_1, RZ_1, ...): params[2*q*c + k] is the
    RY angle of qubit k in block c and params[2*q*c + q + k] the RZ angle.
    """
    layout = []
    for block in range(ANSATZ_LAYERS + 1):
        if block:
            layout += [("cx", (k, k + 1), None) for k in range(q - 1)]
        base = 2 * q * block
        layout += [("ry", (k,), base + k) for k in range(q)]
        layout += [("rz", (k,), base + q + k) for k in range(q)]
    return tuple(layout)


def ansatz_angles(params, q: int) -> np.ndarray:
    """``params`` as a float vector, checked to hold the ansatz's finite angles."""
    params = np.asarray(params, dtype=float)
    expected = ansatz_parameter_count(q)
    if params.shape != (expected,):
        raise ValueError(f"ansatz on {q} qubits needs {expected} parameters, got {params.shape}")
    if not np.isfinite(params).all():
        raise ValueError("ansatz parameters must be finite")
    return params


def build_ansatz(params: np.ndarray, q: int) -> Circuit:
    """The ansatz of :func:`ansatz_layout` at the angles ``params``."""
    params = ansatz_angles(params, q)
    return Circuit(q, tuple(
        Gate(kind, qubits, None if k is None else float(params[k]))
        for kind, qubits, k in ansatz_layout(q)
    ))
