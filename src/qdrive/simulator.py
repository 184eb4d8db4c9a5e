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
and permuted back.  Generic circuits (measurement rotations, final states)
run gate by gate.  On the exact and shot tiers the ansatz runs by blocks:
block b of :func:`~qdrive.circuits.ansatz_layout` (its CX chain, RY column
and RZ column) is one 2^q x 2^q matrix M_b = D_z (RY (x) ... (x) RY) P_cx,
so a preparation is one matrix-vector product per block.

On the noisy tier's density matrices a k-qubit gate and the noise block
after it are one superoperator S = N (U (x) U*), a 4^k x 4^k matrix on the
gate's ket axes and then its bra axes (the Liouville form of the channel),
applied by the gate kernel; the adjoint evolution applies S^dag.  The noise
block N is thermal relaxation on each of the gate's qubits (generalized
amplitude damping composed with pure dephasing such that the total
off-diagonal decay over the gate duration is exp(-t/T2)), then local
depolarizing on the same qubits.  At the odd fold scale lam each gate G runs
as if folded to G (G^dag G)^((lam-1)/2), still in one product, with
S_lam = S (S' S)^((lam-1)/2) for S' the S of G^dag.  :func:`density_matrix`
evolves several fold scales as one stack of states, each gate one product
with its stack of S_lam.  The :class:`NoiseModel` caches N per qubit tuple
and a fixed gate's stack per kind, qubit tuple and scales.

:func:`statevector` and :func:`density_matrix` run a circuit, each gate one
(matrix, permutations) step of one loop.  :class:`Checkpoints` is the one
preparation of the ansatz from its angles: a statevector, or the noisy
tier's stack of density matrices.  It forms the step of each position (a
block on a statevector, a gate on a density matrix) whose angles changed
since its last preparation alone and resumes at the first of them, so a
one-angle step forms one new matrix (or stack).  The same products run on
the same arrays in the same order, so the output is bitwise a fresh
preparation's.

Density matrices stay small by design: at most a six-qubit ansatz is ever
simulated, i.e. a 64 x 64 matrix (32 x 32 under the bundled five-qubit
noise profile).
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .circuits import Circuit, Gate, ansatz_angles, ansatz_layout

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
def _contraction(ndim: int, axes: tuple[int, ...], lead: int) -> tuple[tuple, tuple]:
    """Permutations (front, back) around a matrix acting on ``axes``.

    ``front`` keeps the ``lead`` leading axes first, then brings ``axes``
    (counted after them) in their order, and keeps the other axes in theirs;
    ``back`` is its inverse.
    """
    axes = tuple(range(lead)) + tuple(a + lead for a in axes)
    front = axes + tuple(i for i in range(ndim) if i not in axes)
    back = tuple(sorted(range(ndim), key=front.__getitem__))
    return front, back


def _apply_matrix(t: np.ndarray, mat: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``mat`` (2^k x 2^k, big-endian over ``axes``) applied to the k axes of t,
    or a stack of S such matrices, the s-th to ``t[s]`` (``axes`` then count
    from t's second axis)."""
    return _evolve(t, ((mat, _contraction(t.ndim, axes, mat.ndim - 2)),))


def _evolve(state: np.ndarray, steps, states: list | None = None) -> np.ndarray:
    """``state`` through each (matrix, permutations) pair of ``steps``, each
    state on the way appended to ``states`` if given.  A step is one product
    on the permuted tensor (one ``np.matmul`` for a stack), bitwise
    ``np.tensordot``'s, then ``moveaxis``; a trailing stack axis of the
    state, beside its axes of size 2, is carried along."""
    for mat, perms in steps:
        if perms is None:  # a matrix on the whole of a flat state
            state = np.dot(mat, state)
        else:
            flat = state.transpose(perms[0]).reshape(mat.shape[:-1] + (-1,))
            product = np.matmul if mat.ndim > 2 else np.dot
            state = product(mat, flat).reshape(state.shape).transpose(perms[1])
        if states is not None:
            states.append(state)
    return state


@functools.lru_cache(maxsize=None)
def _blocks(q: int) -> tuple:
    """Per block of the ansatz: the range (lo, hi) of its angles, each entry
    of its RY column's Kronecker product, columns permuted by its CX chain, as
    flat indices into the rotations' (c, -s, s, c), and the +-1 sign of each
    RZ angle in each basis state's phase."""
    bits = (np.arange(2**q)[:, None] >> np.arange(q - 1, -1, -1)) & 1
    cols, blocks = bits.copy(), []
    for kind, qubits, a in ansatz_layout(q):
        if kind == "cx":  # the basis state |j> the chain sends to column j
            cols[:, qubits[1]] ^= cols[:, qubits[0]]
        elif a % (2 * q) == 2 * q - 1:  # the block's last angle
            index = (2 * bits[:, None] + cols) * q + np.arange(q)
            blocks.append(((a + 1 - 2 * q, a + 1), index, 1.0 - 2 * bits))
            cols = bits.copy()
    return tuple(blocks)


def _block_matrix(q: int, b: int, angles: np.ndarray) -> np.ndarray:
    """M_b = D_z (RY_0 (x) ... (x) RY_{q-1}) P_cx, block b of the ansatz at
    its ``angles`` (RY then RZ) as one 2^q x 2^q matrix."""
    _, index, signs = _blocks(q)[b]
    half = 0.5 * angles
    c, s = np.cos(half[:q]), np.sin(half[:q])
    ry = np.concatenate([c, -s, s, c])[index].prod(axis=-1)
    return np.exp(-1j * (signs @ half[q:]))[:, None] * ry


def ansatz_unitary(params, q: int) -> np.ndarray:
    """U(params), the ansatz on q qubits as one 2^q x 2^q matrix: the product
    of its block matrices."""
    params, u = ansatz_angles(params, q), np.eye(2**q)
    for b, ((lo, hi), _, _) in enumerate(_blocks(q)):
        u = _block_matrix(q, b, params[lo:hi]) @ u
    return u


def statevector(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Exact amplitudes of the circuit output, big-endian flat vector.

    The circuit acts on |0..0>, or on the flat state ``initial`` if given.
    """
    n = circuit.n_qubits
    if initial is None:
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = 1.0
    else:
        psi = np.asarray(initial)
    steps = [(gate_matrix(g), _contraction(n, g.qubits, 0)) for g in circuit.gates]
    return _evolve(psi.reshape((2,) * n), steps).reshape(-1)


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

    ``readout[q]`` rows are (true state -> measured state) probabilities, each
    row summing to 1 within 1e-9: the one form of the readout confusion, which
    the simulator applies and readout mitigation inverts.
    """

    t1_us: np.ndarray
    t2_us: np.ndarray
    excited_population: np.ndarray
    gate_time_1q_us: float
    gate_time_2q_us: float
    p1: float
    p2: float
    readout: np.ndarray  # (n, 2, 2)
    name: str = "custom"
    # N per qubit tuple, a fixed gate's S_lam stack per (kind, qubits, scales); POVMs.
    # Not init fields, so every new model (scale_noise's too) starts empty.
    _superop_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _povm_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.t1_us = np.asarray(self.t1_us, dtype=float)
        self.t2_us = np.asarray(self.t2_us, dtype=float)
        self.excited_population = np.asarray(self.excited_population, dtype=float)
        self.readout = np.asarray(self.readout, dtype=float)
        n = len(self.t1_us)
        if self.readout.shape != (n, 2, 2):
            raise ValueError(f"readout must have shape ({n}, 2, 2)")
        if not (np.all(self.t1_us > 0) and np.all(self.t2_us > 0)):
            raise ValueError("T1 and T2 must be positive")
        if not all(0 <= t < math.inf for t in (self.gate_time_1q_us, self.gate_time_2q_us)):
            raise ValueError("gate times must be finite and nonnegative")
        if np.any(self.t2_us > 2.0 * self.t1_us + 1e-12):
            raise ValueError("T2 must not exceed 2*T1")
        for arr, label in [
            (self.excited_population, "excited_population"),
            (self.readout, "readout"),
            (np.array([self.p1, self.p2]), "depolarizing probabilities"),
        ]:
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError(f"{label} outside [0, 1]")
        if not np.all(np.abs(self.readout.sum(axis=2) - 1.0) <= 1e-9):  # NaN fails too
            raise ValueError("readout confusion rows must sum to 1")

    @property
    def n_qubits(self) -> int:
        return len(self.t1_us)

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
        g1, g2p = self.gammas(qubit, t_us)
        sop = kraus_to_superop(
            amplitude_damping_kraus(g1, float(self.excited_population[qubit]))
        )
        sop = kraus_to_superop(phase_damping_kraus(g2p)) @ sop
        if depol > 0:
            sop = _depolarizing_superop_1q(depol) @ sop
        return sop.reshape(2, 2, 2, 2)

    def _noise_block(self, qubits: tuple[int, ...]) -> np.ndarray:
        """N, the noise block after a gate on ``qubits``, as a 4^k x 4^k matrix
        on their ket axes, then their bra axes: each qubit's relaxation (with
        depolarizing p1 on one qubit), then, on two, R -> (1 - p2) R +
        p2 (I/4 (x) Tr) R for their joint relaxation R."""
        block = self._superop_cache.get(qubits)
        if block is None:
            if len(qubits) == 1:
                block = self.relaxation_superop(qubits[0], self.gate_time_1q_us, self.p1)
            else:
                r0, r1 = (self.relaxation_superop(q, self.gate_time_2q_us, 0.0) for q in qubits)
                block = np.einsum("ABCD,abcd->AaBbCcDd", r0, r1).reshape(16, 16)
                if self.p2 > 0:
                    mixed = np.eye(4).reshape(16, 1) * block[::5].sum(axis=0) / 4.0
                    block = (1.0 - self.p2) * block + self.p2 * mixed
            block = self._superop_cache[qubits] = block.reshape(4 ** len(qubits), -1)
        return block

    def restricted(self, qubits: tuple[int, ...]) -> "NoiseModel":
        """The model of ``qubits`` alone, renumbered from 0, with empty caches."""
        sub = list(qubits)
        return replace(self, t1_us=self.t1_us[sub], t2_us=self.t2_us[sub],
                       excited_population=self.excited_population[sub],
                       readout=self.readout[sub])

    def povm(self, key, build) -> np.ndarray:
        """Effective POVM operators under ``key``, from ``build()`` on first use.

        The operators depend on this model's noise, so they live on the model:
        every estimator sharing it shares them, and :func:`scale_noise` starts
        a new model with none.
        """
        cached = self._povm_cache.get(key)
        if cached is None:
            cached = self._povm_cache[key] = build()
        return cached


def scale_noise(
    noise: NoiseModel, reduction: float = 1.0, longevity: float | None = None
) -> NoiseModel:
    """The model of a hypothetical better processor.

    Depolarizing probabilities are divided by the gate-noise ``reduction``
    factor.  The qubit ``longevity`` factor, if given, sets T1 to (leading
    digit of baseline T1) times the factor, preserving the T2/T1 ratio; an
    infinite factor removes thermal relaxation entirely.
    """
    if reduction <= 0:
        raise ValueError("gate noise reduction factor must be positive")
    p1 = noise.p1 / reduction
    p2 = noise.p2 / reduction
    t1, t2 = noise.t1_us.copy(), noise.t2_us.copy()
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


# ---------------------------------------------------------------------------
# density-matrix evolution
# ---------------------------------------------------------------------------


# The kernels below act on a density tensor of 2n axes (n ket, then n bra),
# followed by any number of stack axes that they carry along unchanged.


def apply_gate_noise(rho: np.ndarray, gate: Gate, noise: NoiseModel, n: int):
    """The noise block N after one gate, on a density tensor of n qubits."""
    axes = gate.qubits + tuple(n + q for q in gate.qubits)
    return _apply_matrix(rho, noise._noise_block(gate.qubits), axes)


def _gate_superops(gate: Gate, noise: NoiseModel | None, scales: tuple[int, ...]) -> np.ndarray:
    """The stack of S_lam = S (S' S)^((lam-1)/2), the gate folded to each scale
    lam in ``scales``, as 4^k x 4^k matrices on the gate's ket axes, then its bra
    axes: S = N (U (x) U*) is the gate, then its noise block N (none without a
    model), and S' the S of its inverse.  S, S' and S' S are formed once."""
    key = (gate.kind, gate.qubits, scales)
    stack = None if noise is None else noise._superop_cache.get(key)
    if stack is None:
        u = gate_matrix(gate)
        sop = (u[:, None, :, None] * u.conj()[:, None, :]).reshape(len(u) ** 2, -1)
        if noise is not None:
            sop = noise._noise_block(gate.qubits) @ sop
        if max(scales) > 1:
            pair = _gate_superops(gate.inverse(), noise, (1,))[0] @ sop
        stack = np.array([
            sop if lam == 1 else sop @ np.linalg.matrix_power(pair, (lam - 1) // 2)
            for lam in scales
        ])
        if noise is not None and gate.kind in _FIXED:
            noise._superop_cache[key] = stack
    return stack


def _check_evolution(n: int, noise: NoiseModel | None, scales: tuple) -> None:
    for lam in scales:
        if lam < 1 or lam % 2 == 0:
            raise ValueError(f"fold scale must be an odd positive integer, got {lam}")
    if noise is not None and noise.n_qubits < n:
        raise ValueError(
            f"noise profile covers {noise.n_qubits} qubits, circuit needs {n}"
        )


def _density_step(sop: np.ndarray, gate: Gate, n: int) -> tuple:
    """The (matrix, permutations) step applying ``sop`` to the gate's ket axes,
    then its bra axes, of n-qubit density tensors stacked along one axis: the
    first for a stack of matrices (the s-th to the s-th tensor), else the last."""
    axes = gate.qubits + tuple(n + q for q in gate.qubits)
    return sop, _contraction(2 * n + 1, axes, sop.ndim - 2)


def density_matrix(circuit: Circuit, noise: NoiseModel | None = None, lam: int = 1) -> np.ndarray:
    """Evolve |0..0><0..0| through the circuit at fold scale lam, flat (2^n x 2^n).

    Each gate is one product with its S_lam; the noise profile, if any, must
    cover the circuit's qubits.
    """
    n = circuit.n_qubits
    _check_evolution(n, noise, (lam,))
    rho = np.zeros((1,) + (2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n + 1)] = 1.0
    steps = [_density_step(_gate_superops(g, noise, (lam,)), g, n) for g in circuit.gates]
    return _evolve(rho, steps).reshape(2**n, 2**n)


def adjoint_density_matrix(
    circuit: Circuit, operator: np.ndarray, noise: NoiseModel | None = None, lam: int = 1
) -> np.ndarray:
    """Heisenberg picture of :func:`density_matrix`: E^dag(O) for the circuit's
    channel E at fold scale lam, so that Tr(O E(rho)) = Tr(E^dag(O) rho) for all rho.

    Walks the gates in reverse, applying each gate's S_lam^dag.  ``operator`` is
    flat (2^n x 2^n), or a stack of such operators (k, 2^n, 2^n) taken back
    together; the output has its shape.
    """
    n = circuit.n_qubits
    _check_evolution(n, noise, (lam,))
    shape = np.shape(operator)
    op = np.asarray(operator, dtype=complex).reshape((-1,) + (2,) * (2 * n))
    steps = [
        _density_step(_gate_superops(g, noise, (lam,))[0].conj().T, g, n)
        for g in reversed(circuit.gates)
    ]
    return np.moveaxis(_evolve(np.moveaxis(op, 0, -1), steps), -1, 0).reshape(shape)


def effective_povm(circuit: Circuit, noise: NoiseModel | None, lam: int = 1) -> np.ndarray:
    """Operators M[y] with P(y) = Tr(M[y] rho) for the noisy circuit, folded
    to scale lam, run on rho.

    y runs over the big-endian outcomes of all qubits, seen through the
    readout confusion: M[y] is the adjoint of the circuit's channel applied
    to sum_x R(x -> y) |x><x|, whose weights are :func:`outcome_probabilities`
    of each basis state.  Shape (2^n, 2^n, 2^n).
    """
    n = circuit.n_qubits
    readout = None if noise is None else noise.readout
    weights = np.array([outcome_probabilities(basis, n, readout) for basis in np.eye(2**n)])
    projectors = np.array([np.diag(w) for w in weights.T])
    return adjoint_density_matrix(circuit, projectors, noise, lam)


# ---------------------------------------------------------------------------
# ansatz preparation
# ---------------------------------------------------------------------------


class Checkpoints:
    """The ansatz on ``q`` qubits prepared from |0..0> by resuming its last
    preparation: a statevector, or with a ``noise`` model the stack of
    density matrices at the fold ``scales``, which are checked here.

    The record holds the last preparation's angles' ``bits``, ``steps[k]``
    the (matrix, permutations) pair of position k and ``states[k]`` the state
    after the first k + 1 positions.  A position is a block of the ansatz on
    a statevector (its 2^q x 2^q matrix, 16 * 4^q bytes, 64 KiB at q = 6,
    with no permutations) and a gate on density matrices (its stack of
    S_lam, 16 * 16^k bytes per scale for a k-qubit gate).  So each list holds
    one entry per position, whatever the number of preparations.  A
    statevector checkpoint takes 16 * 2^q bytes, a density one 16 * 4^q
    bytes per scale.
    """

    def __init__(self, q: int, noise: NoiseModel | None = None, scales: tuple[int, ...] = (1,)):
        # _step(k, angles): position k's (matrix, permutations) pair
        if noise is None:
            self._step = lambda k, angles: (_block_matrix(q, k, angles), None)
            self._ranges = [r for r, _, _ in _blocks(q)]
            self._origin, self._shape = np.zeros(2**q, dtype=complex), (1, 2**q)
            self._origin[0] = 1.0
        else:
            _check_evolution(q, noise, scales)

            def gate_step(k: int, angles: np.ndarray) -> tuple:
                gate = Gate(*ansatz_layout(q)[k][:2], *angles)
                return _density_step(_gate_superops(gate, noise, scales), gate, q)

            self._step = gate_step
            self._ranges = [(0, 0) if a is None else (a, a + 1) for _, _, a in ansatz_layout(q)]
            self._origin = np.zeros((len(scales),) + (2,) * (2 * q), dtype=complex)
            self._origin[(slice(None),) + (0,) * (2 * q)] = 1.0
            self._shape = (len(scales), 2**q, 2**q)
        self.q = q
        self.bits: list | None = None
        self.steps: list = [None] * len(self._ranges)
        self.states: list = []

    def prepare(self, params) -> np.ndarray:
        """The ansatz states of ``params`` as a read-only stack, one per fold
        scale: (1, 2^q) amplitudes or (scales, 2^q, 2^q) density matrices.

        Only the positions whose angles changed bit for bit since the last
        preparation (so -0.0 != 0.0) form their step, and the evolution
        resumes at the first of them.
        """
        params = ansatz_angles(params, self.q)
        bits = params.view(np.int64).tolist()
        start = len(self._ranges)
        for k, (lo, hi) in enumerate(self._ranges):
            if self.bits is None or bits[lo:hi] != self.bits[lo:hi]:
                self.steps[k], start = self._step(k, params[lo:hi]), min(start, k)
        self.bits = bits
        del self.states[start:]
        state = self.states[-1] if start else self._origin
        stack = _evolve(state, self.steps[start:], self.states).reshape(self._shape)
        stack.setflags(write=False)
        return stack


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    """Shot histogram over big-endian outcomes of the measured qubits, or a
    stack of them, one per row, each of ``shots`` shots."""

    shots: int
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if np.any(self.counts.sum(axis=-1) != self.shots):
            raise ValueError("histogram total must equal the shot count")

    def empirical(self) -> np.ndarray:
        return self.counts / self.shots


def outcome_probabilities(
    state: np.ndarray, n_qubits: int, readout: np.ndarray | None = None
) -> np.ndarray:
    """Outcome distribution over all qubits, big-endian.

    ``state`` is a flat statevector or a flat density matrix; ``readout``,
    confusion rows per qubit as in :attr:`NoiseModel.readout`, is applied.
    """
    if state.ndim == 1:
        probs = np.abs(state) ** 2
    else:
        probs = np.real(np.diag(state)).copy()
    probs = probs.reshape((2,) * n_qubits)
    if readout is not None:
        for q in range(n_qubits):
            probs = np.moveaxis(
                np.tensordot(probs, readout[q], axes=([q], [0])), -1, q
            )
    return np.clip(probs.reshape(-1), 0.0, None)


def sample_shots(probabilities: np.ndarray, n: int, rng) -> Measurement:
    """Multinomial draw of n shots from a distribution, or from each row of a
    stack of them; reproducible for a fixed generator state.

    A stack is drawn by one ``rng.multinomial``, row after row, so its counts
    and the generator's state after it are those of one draw per row in order.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if np.any(probabilities < -1e-12):
        raise ValueError("negative probabilities")
    probabilities = np.clip(probabilities, 0.0, None)
    total = probabilities.sum(axis=-1, keepdims=True)
    off = total[np.abs(total - 1.0) > 1e-9]
    if off.size:
        raise ValueError(f"probabilities sum to {off[0]:.12f}, expected 1")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    counts = rng.multinomial(n, probabilities / total)
    return Measurement(shots=n, counts=counts)
