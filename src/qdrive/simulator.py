"""Circuit simulation in three fidelity tiers.

* exact statevector (no noise, no sampling),
* shot sampling on top of exact probabilities,
* full density-matrix evolution with per-gate Kraus noise, and its
  Heisenberg-picture adjoint: :func:`effective_povm` takes the readout-weighted
  outcome projectors back through a noisy circuit, so that the circuit's
  outcome probabilities on any input state rho are Tr(M_y rho).

A gate is one matrix product: the tensor's axes are permuted so that the
gate's qubits come first (the permutation and its inverse are cached per
tensor rank and qubit tuple), flattened to a 2^k-row matrix, multiplied,
and permuted back.  A density matrix takes the gate on its ket axes and the
conjugate gate on its bra axes.

Density matrices stay small by design: at most a four-qubit ansatz plus one
ancilla is ever simulated, i.e. a 32 x 32 matrix.  After each gate the noisy
tier applies thermal relaxation on the gate's qubits (generalized amplitude
damping composed with pure dephasing such that the total off-diagonal decay
over the gate duration is exp(-t/T2)) followed by a local depolarizing
channel on the same qubits.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .circuits import Circuit, Gate

_SQ2 = 1.0 / math.sqrt(2.0)


def _controlled(target: list) -> np.ndarray:
    """|0><0| (x) I + |1><1| (x) target, control first."""
    mat = np.eye(4, dtype=complex)
    mat[2:, 2:] = target
    return mat


_FIXED = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "cx": _controlled([[0, 1], [1, 0]]),
    "cy": _controlled([[0, -1j], [1j, 0]]),
    "cz": _controlled([[1, 0], [0, -1]]),
}


def gate_matrix(gate: Gate) -> np.ndarray:
    """The gate's unitary; a fixed gate's is a shared module constant."""
    if gate.kind in _FIXED:
        return _FIXED[gate.kind]
    if gate.kind == "ry":
        c, s = math.cos(gate.param / 2.0), math.sin(gate.param / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate.kind == "rz":
        return np.array(
            [[np.exp(-0.5j * gate.param), 0], [0, np.exp(0.5j * gate.param)]],
            dtype=complex,
        )
    raise ValueError(f"no matrix for gate kind {gate.kind!r}")


@functools.lru_cache(maxsize=None)
def _contraction(ndim: int, axes: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Permutations (front, back) around a matrix acting on ``axes``.

    ``front`` brings ``axes`` to the front, in their order, and keeps the
    other axes in theirs; ``back`` is its inverse.
    """
    front = axes + tuple(i for i in range(ndim) if i not in axes)
    back = tuple(sorted(range(ndim), key=front.__getitem__))
    return front, back


def _apply_matrix(t: np.ndarray, mat: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``mat`` (2^k x 2^k, big-endian over ``axes``) applied to the k axes of t.

    Every axis of t has size 2 except possibly a trailing stack axis, which
    is carried along.  This is one matrix product on the permuted tensor,
    the product ``np.tensordot`` forms, so the result is bitwise the one of
    ``tensordot`` followed by ``moveaxis``.
    """
    front, back = _contraction(t.ndim, axes)
    flat = t.transpose(front).reshape(mat.shape[0], -1)
    return np.dot(mat, flat).reshape(t.shape).transpose(back)


def statevector(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Exact amplitudes of the circuit output, big-endian flat vector.

    The circuit acts on |0..0>, or on the flat state ``initial`` if given.
    """
    if any(g.kind == "measure" for g in circuit.gates):
        raise ValueError("statevector simulation does not accept measure gates")
    if initial is None:
        psi = np.zeros((2,) * circuit.n_qubits, dtype=complex)
        psi[(0,) * circuit.n_qubits] = 1.0
    else:
        psi = np.asarray(initial).reshape((2,) * circuit.n_qubits)
    for gate in circuit.gates:
        psi = _apply_matrix(psi, gate_matrix(gate), gate.qubits)
    return psi.reshape(-1)


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------


def amplitude_damping_kraus(gamma1: float, p_excited: float) -> list[np.ndarray]:
    """Generalized amplitude damping toward equilibrium population p_excited."""
    g = math.sqrt(max(0.0, gamma1))
    r = math.sqrt(max(0.0, 1.0 - gamma1))
    cold = math.sqrt(max(0.0, 1.0 - p_excited))
    hot = math.sqrt(max(0.0, p_excited))
    return [
        cold * np.array([[1, 0], [0, r]], dtype=complex),
        cold * np.array([[0, g], [0, 0]], dtype=complex),
        hot * np.array([[r, 0], [0, 1]], dtype=complex),
        hot * np.array([[0, 0], [g, 0]], dtype=complex),
    ]


def phase_damping_kraus(gamma2: float) -> list[np.ndarray]:
    g = math.sqrt(max(0.0, gamma2))
    r = math.sqrt(max(0.0, 1.0 - gamma2))
    return [
        np.array([[1, 0], [0, r]], dtype=complex),
        np.array([[0, 0], [0, g]], dtype=complex),
    ]


def kraus_to_superop(kraus: list[np.ndarray]) -> np.ndarray:
    """Column-stacked superoperator, shape (4, 4) for one qubit."""
    return sum(np.kron(k, k.conj()) for k in kraus)


def _depolarizing_superop_1q(p: float) -> np.ndarray:
    s = np.zeros((2, 2, 2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            s[a, b, a, b] += 1.0 - p
    for a in range(2):
        for c in range(2):
            s[a, a, c, c] += p / 2.0
    return s.reshape(4, 4)


@dataclass
class NoiseModel:
    """Per-qubit relaxation, depolarizing gate errors, and readout confusion.

    ``readout[q]`` rows are (true state -> measured state) probabilities.
    ``gate_noise_reduction_factor`` and ``qubit_longevity_factor`` describe a
    hypothetical better processor; they are consumed by :func:`scale_noise`
    and ignored by the simulator itself.
    """

    t1_us: np.ndarray
    t2_us: np.ndarray
    excited_population: np.ndarray
    gate_time_1q_us: float
    gate_time_2q_us: float
    p1: float
    p2: float
    readout: np.ndarray  # (n, 2, 2)
    gate_noise_reduction_factor: float = 1.0
    qubit_longevity_factor: float | None = None
    name: str = "custom"
    _relax_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _povm_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.t1_us = np.asarray(self.t1_us, dtype=float)
        self.t2_us = np.asarray(self.t2_us, dtype=float)
        self.excited_population = np.asarray(self.excited_population, dtype=float)
        self.readout = np.asarray(self.readout, dtype=float)
        n = len(self.t1_us)
        if self.readout.shape != (n, 2, 2):
            raise ValueError(f"readout must have shape ({n}, 2, 2)")
        if np.any(self.t2_us > 2.0 * self.t1_us + 1e-12):
            raise ValueError("T2 must not exceed 2*T1")
        for arr, label in [
            (self.excited_population, "excited_population"),
            (self.readout, "readout"),
            (np.array([self.p1, self.p2]), "depolarizing probabilities"),
        ]:
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError(f"{label} outside [0, 1]")
        if not np.allclose(self.readout.sum(axis=2), 1.0, atol=1e-9):
            raise ValueError("readout confusion rows must sum to 1")
        if self.gate_noise_reduction_factor <= 0:
            raise ValueError("gate_noise_reduction_factor must be positive")

    @property
    def n_qubits(self) -> int:
        return len(self.t1_us)

    @classmethod
    def noiseless(cls, n: int) -> "NoiseModel":
        return cls(
            t1_us=np.full(n, math.inf),
            t2_us=np.full(n, math.inf),
            excited_population=np.zeros(n),
            gate_time_1q_us=0.0,
            gate_time_2q_us=0.0,
            p1=0.0,
            p2=0.0,
            readout=np.tile(np.eye(2), (n, 1, 1)),
            name="noiseless",
        )

    def gammas(self, qubit: int, t_us: float) -> tuple[float, float]:
        """(gamma1, gamma2') for duration t: population decay and the residual
        dephasing chosen so combined off-diagonal decay is exp(-t/T2)."""
        t1, t2 = self.t1_us[qubit], self.t2_us[qubit]
        g1 = 0.0 if not math.isfinite(t1) else 1.0 - math.exp(-t_us / t1)
        if not math.isfinite(t2):
            g2p = 0.0
        else:
            rate = 2.0 / t2 - (0.0 if not math.isfinite(t1) else 1.0 / t1)
            g2p = 1.0 - math.exp(-t_us * max(0.0, rate))
        return g1, g2p

    def relaxation_superop(self, qubit: int, t_us: float, depol: float) -> np.ndarray:
        """Composed 1-qubit noise block: GAD, then dephasing, then depolarizing."""
        key = (qubit, t_us, depol)
        cached = self._relax_cache.get(key)
        if cached is not None:
            return cached
        g1, g2p = self.gammas(qubit, t_us)
        sop = kraus_to_superop(
            amplitude_damping_kraus(g1, float(self.excited_population[qubit]))
        )
        sop = kraus_to_superop(phase_damping_kraus(g2p)) @ sop
        if depol > 0:
            sop = _depolarizing_superop_1q(depol) @ sop
        sop = sop.reshape(2, 2, 2, 2)
        self._relax_cache[key] = sop
        return sop

    def confusion(self, qubit: int) -> np.ndarray:
        return self.readout[qubit]

    def povm(self, key, build) -> np.ndarray:
        """Effective POVM operators under ``key``, from ``build()`` on first use.

        The operators depend on this model's noise, so they live on the model:
        every estimator sharing it shares them, and :func:`scale_noise` starts
        a new model with none.  Threads that miss the same key at once each
        build it; the copies are equal, so either may stay.
        """
        cached = self._povm_cache.get(key)
        if cached is None:
            cached = self._povm_cache[key] = build()
        return cached


def scale_noise(noise: NoiseModel) -> NoiseModel:
    """Apply the gate-noise-reduction and qubit-longevity factors.

    Depolarizing probabilities are divided by the reduction factor.  The
    longevity factor sets T1 to (leading digit of baseline T1) times the
    factor, preserving the T2/T1 ratio; an infinite factor removes thermal
    relaxation entirely.
    """
    p1 = noise.p1 / noise.gate_noise_reduction_factor
    p2 = noise.p2 / noise.gate_noise_reduction_factor
    t1, t2 = noise.t1_us.copy(), noise.t2_us.copy()
    longevity = noise.qubit_longevity_factor
    if longevity is not None:
        if math.isinf(longevity):
            t1 = np.full_like(t1, math.inf)
            t2 = np.full_like(t2, math.inf)
        else:
            if longevity <= 0:
                raise ValueError("qubit longevity factor must be positive")
            ratio = t2 / t1
            lead = np.floor(t1 / 10.0 ** np.floor(np.log10(t1)))
            t1 = lead * longevity
            t2 = t1 * ratio
    return replace(
        noise,
        t1_us=t1,
        t2_us=t2,
        p1=p1,
        p2=p2,
        gate_noise_reduction_factor=1.0,
        qubit_longevity_factor=None,
        _relax_cache={},
        _povm_cache={},
    )


def load_noise_profile(path) -> NoiseModel:
    """Read the structured key-value noise profile document."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return NoiseModel(
            t1_us=np.array(doc["t1_us"], dtype=float),
            t2_us=np.array(doc["t2_us"], dtype=float),
            excited_population=np.array(doc["excited_population"], dtype=float),
            gate_time_1q_us=float(doc["gate_time_1q_us"]),
            gate_time_2q_us=float(doc["gate_time_2q_us"]),
            p1=float(doc["p1"]),
            p2=float(doc["p2"]),
            readout=np.array(doc["readout"], dtype=float),
            name=doc.get("name", "profile"),
        )
    except KeyError as exc:
        raise ValueError(f"noise profile missing key {exc.args[0]!r}") from exc


def save_noise_profile(noise: NoiseModel, path) -> None:
    doc = {
        "name": noise.name,
        "t1_us": noise.t1_us.tolist(),
        "t2_us": noise.t2_us.tolist(),
        "excited_population": noise.excited_population.tolist(),
        "gate_time_1q_us": noise.gate_time_1q_us,
        "gate_time_2q_us": noise.gate_time_2q_us,
        "p1": noise.p1,
        "p2": noise.p2,
        "readout": noise.readout.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


# ---------------------------------------------------------------------------
# density-matrix evolution
# ---------------------------------------------------------------------------


# The kernels below act on a density tensor of 2n axes (n ket, then n bra),
# followed by any number of stack axes that they carry along unchanged.


def _apply_unitary_rho(rho: np.ndarray, mat: np.ndarray, qubits, n: int):
    """U rho U^dag: ``mat`` on the ket axes, then its conjugate on the bra axes."""
    rho = _apply_matrix(rho, mat, qubits)
    return _apply_matrix(rho, mat.conj(), tuple(n + q for q in qubits))


def _apply_superop_1q(rho: np.ndarray, sop: np.ndarray, qubit: int, n: int):
    in_idx = list(range(2 * n))
    in_idx[qubit] = 2 * n
    in_idx[n + qubit] = 2 * n + 1
    return np.einsum(
        sop, [qubit, n + qubit, 2 * n, 2 * n + 1],
        rho, in_idx + [...], list(range(2 * n)) + [...],
    )


def _depolarize(rho: np.ndarray, qubits, p: float, n: int):
    """Local depolarizing: rho -> (1-p) rho + p * (I/2^d) (x) Tr_d[rho]."""
    if p <= 0:
        return rho
    d = len(qubits)
    in_idx = list(range(2 * n))
    for q in qubits:
        in_idx[n + q] = in_idx[q]
    rest = [i for i in range(2 * n) if i not in [q for q in qubits] + [n + q for q in qubits]]
    traced = np.einsum(rho, in_idx + [...], rest + [...])
    eyes = []
    for q in qubits:
        eyes.extend([np.eye(2), [q, n + q]])
    mixed = np.einsum(*eyes, traced, rest + [...], list(range(2 * n)) + [...]) / 2.0**d
    return (1.0 - p) * rho + p * mixed


def apply_gate_noise(rho: np.ndarray, gate: Gate, noise: NoiseModel, n: int):
    """Noise block after one gate: per-qubit relaxation, then depolarizing."""
    if len(gate.qubits) == 1:
        sop = noise.relaxation_superop(gate.qubits[0], noise.gate_time_1q_us, noise.p1)
        return _apply_superop_1q(rho, sop, gate.qubits[0], n)
    for q in gate.qubits:
        sop = noise.relaxation_superop(q, noise.gate_time_2q_us, 0.0)
        rho = _apply_superop_1q(rho, sop, q, n)
    return _depolarize(rho, gate.qubits, noise.p2, n)


def adjoint_superop_1q(sop: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint of a (2, 2, 2, 2) one-qubit superoperator."""
    return sop.conj().transpose(2, 3, 0, 1)


def apply_gate_noise_adjoint(op: np.ndarray, gate: Gate, noise: NoiseModel, n: int):
    """Adjoint of :func:`apply_gate_noise`: its channels in reverse order, each
    replaced by its adjoint (local depolarizing is self-adjoint)."""
    if len(gate.qubits) == 1:
        sop = noise.relaxation_superop(gate.qubits[0], noise.gate_time_1q_us, noise.p1)
        return _apply_superop_1q(op, adjoint_superop_1q(sop), gate.qubits[0], n)
    op = _depolarize(op, gate.qubits, noise.p2, n)
    for q in reversed(gate.qubits):
        sop = noise.relaxation_superop(q, noise.gate_time_2q_us, 0.0)
        op = _apply_superop_1q(op, adjoint_superop_1q(sop), q, n)
    return op


def apply_noise_channels(rho: np.ndarray, gate: Gate, noise: NoiseModel) -> np.ndarray:
    """Public entry point operating on a flat (2^n x 2^n) density matrix."""
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if rho.shape != (dim, dim) or 2**n != dim:
        raise ValueError(f"bad density matrix shape {rho.shape}")
    validate_density_matrix(rho)
    tensor = rho.reshape((2,) * (2 * n))
    tensor = apply_gate_noise(tensor, gate, noise, n)
    return tensor.reshape(dim, dim)


def validate_density_matrix(rho: np.ndarray, tol: float = 1e-9) -> None:
    if abs(np.trace(rho) - 1.0) > 1e-6:
        raise ValueError(f"density matrix trace {np.trace(rho):.6f} != 1")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-8:
        raise ValueError("density matrix is not Hermitian")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -tol:
        raise ValueError("density matrix is not positive semidefinite")


def _check_profile(circuit: Circuit, noise: NoiseModel | None) -> None:
    if noise is not None and noise.n_qubits < circuit.n_qubits:
        raise ValueError(
            f"noise profile covers {noise.n_qubits} qubits, "
            f"circuit needs {circuit.n_qubits}"
        )


def density_matrix(circuit: Circuit, noise: NoiseModel | None = None) -> np.ndarray:
    """Evolve |0..0><0..0| through the circuit; flat (2^n x 2^n) output.

    With a noise model, every gate is followed by its noise block; the
    profile must cover at least the circuit's qubit count.
    """
    _check_profile(circuit, noise)
    n = circuit.n_qubits
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    for gate in circuit.gates:
        if gate.kind == "measure":
            continue
        rho = _apply_unitary_rho(rho, gate_matrix(gate), gate.qubits, n)
        if noise is not None:
            rho = apply_gate_noise(rho, gate, noise, n)
    return rho.reshape(2**n, 2**n)


def adjoint_density_matrix(
    circuit: Circuit, operator: np.ndarray, noise: NoiseModel | None = None
) -> np.ndarray:
    """Heisenberg picture of :func:`density_matrix`: E^dag(O) for the circuit's
    channel E, so that Tr(O E(rho)) = Tr(E^dag(O) rho) for every rho.

    Walks the gates in reverse; for each, the adjoint of its noise block,
    then U^dag O U.  ``operator`` is flat (2^n x 2^n), or a stack of such
    operators (k, 2^n, 2^n) taken back together; the output has its shape.
    """
    _check_profile(circuit, noise)
    n = circuit.n_qubits
    shape = np.shape(operator)
    op = np.asarray(operator, dtype=complex).reshape((-1,) + (2,) * (2 * n))
    op = np.moveaxis(op, 0, -1)
    for gate in reversed(circuit.gates):
        if gate.kind == "measure":
            continue
        if noise is not None:
            op = apply_gate_noise_adjoint(op, gate, noise, n)
        op = _apply_unitary_rho(op, gate_matrix(gate).conj().T, gate.qubits, n)
    return np.moveaxis(op, -1, 0).reshape(shape)


def effective_povm(
    circuit: Circuit, noise: NoiseModel, measured: tuple[int, ...] | None = None
) -> np.ndarray:
    """Operators M[y] with P(y) = Tr(M[y] rho) for the noisy circuit run on rho.

    y runs over the big-endian outcomes of the measured qubits (all by
    default), seen through the readout confusion: M[y] is the adjoint of the
    circuit's channel applied to sum_x R(x -> y) |x><x|, whose weights are
    :func:`outcome_probabilities` of each basis state.  Shape (2^m, 2^n, 2^n).
    """
    n = circuit.n_qubits
    weights = np.array(
        [outcome_probabilities(basis, n, measured, noise) for basis in np.eye(2**n)]
    )
    projectors = np.array([np.diag(w) for w in weights.T])
    return adjoint_density_matrix(circuit, projectors, noise)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    """Shot histogram over big-endian outcomes of the measured qubits."""

    shots: int
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if int(self.counts.sum()) != self.shots:
            raise ValueError("histogram total must equal the shot count")

    def empirical(self) -> np.ndarray:
        return self.counts / self.shots


def outcome_probabilities(
    state: np.ndarray,
    n_qubits: int,
    measured: tuple[int, ...] | None = None,
    readout: NoiseModel | None = None,
) -> np.ndarray:
    """Outcome distribution over the measured qubits (all by default).

    ``state`` is a flat statevector or a flat density matrix; with a noise
    model the per-qubit readout confusion is applied.
    """
    if state.ndim == 1:
        probs = np.abs(state) ** 2
    else:
        probs = np.real(np.diag(state)).copy()
    probs = probs.reshape((2,) * n_qubits)
    if measured is None:
        measured = tuple(range(n_qubits))
    drop = [q for q in range(n_qubits) if q not in measured]
    if drop:
        probs = probs.sum(axis=tuple(drop))
        kept = [q for q in range(n_qubits) if q in measured]
        order = [kept.index(q) for q in measured]
        probs = np.transpose(probs, order)
    if readout is not None:
        for axis, q in enumerate(measured):
            probs = np.moveaxis(
                np.tensordot(probs, readout.confusion(q), axes=([axis], [0])),
                -1,
                axis,
            )
    probs = probs.reshape(-1)
    return np.clip(probs, 0.0, None)


def sample_shots(probabilities: np.ndarray, n: int, rng) -> Measurement:
    """Multinomial draw of n shots; reproducible for a fixed generator state."""
    probabilities = np.asarray(probabilities, dtype=float)
    if np.any(probabilities < -1e-12):
        raise ValueError("negative probabilities")
    probabilities = np.clip(probabilities, 0.0, None)
    total = probabilities.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total:.12f}, expected 1")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    counts = rng.multinomial(n, probabilities / total)
    return Measurement(shots=n, counts=counts)
