import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrive import simulator
from qdrive.circuits import Circuit, Gate, ansatz_parameter_count, build_ansatz
from qdrive.config import bundled_profile_path
from qdrive.mitigation import fold_circuit
from qdrive.simulator import (
    Checkpoints,
    Measurement,
    NoiseModel,
    adjoint_density_matrix,
    ansatz_unitary,
    apply_gate_noise,
    density_matrix,
    effective_povm,
    kraus_to_superop,
    load_noise_profile,
    outcome_probabilities,
    sample_shots,
    scale_noise,
    statevector,
)
from tests.reference import noiseless

RNG = np.random.default_rng


def torino_like(n=5, **overrides) -> NoiseModel:
    kwargs = dict(
        t1_us=np.full(n, 70.0),
        t2_us=np.full(n, 50.0),
        excited_population=np.zeros(n),
        gate_time_1q_us=0.05,
        gate_time_2q_us=0.07,
        p1=3e-4,
        p2=3e-3,
        readout=np.tile([[0.98, 0.02], [0.02, 0.98]], (n, 1, 1)),
    )
    kwargs.update(overrides)
    return NoiseModel(**kwargs)


def random_circuit(n, rng, depth=12):
    gates = []
    for _ in range(depth):
        kind = rng.choice(["ry", "rz", "h", "cx"])
        if kind == "cx" and n > 1:
            pair = rng.choice(n, size=2, replace=False)
            gates.append(Gate("cx", (int(pair[0]), int(pair[1]))))
        elif kind in ("ry", "rz"):
            gates.append(Gate(kind, (int(rng.integers(n)),), float(rng.uniform(-np.pi, np.pi))))
        else:
            gates.append(Gate("h", (int(rng.integers(n)),)))
    return Circuit(n, tuple(gates))


def random_density(dim, rng) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim, rng) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


@functools.cache
def noise_models() -> dict[str, NoiseModel]:
    """The bundled profile, a 10^4-reduced copy of it, and no noise."""
    profile = load_noise_profile(bundled_profile_path())
    return {
        "profile": profile,
        "scaled": scale_noise(profile, reduction=1e4, longevity=10.0),
        "noiseless": noiseless(3),
    }


_KINDS_1Q = ("ry", "rz", "h", "x", "s", "sdg")
_KINDS_2Q = ("cx", "cy", "cz")


@st.composite
def circuits(draw) -> Circuit:
    """1-3 qubits, 1-8 gates of every kind."""
    n = draw(st.integers(1, 3), label="qubits")
    kinds = _KINDS_1Q + (_KINDS_2Q if n > 1 else ())
    gates = []
    for _ in range(draw(st.integers(1, 8), label="depth")):
        kind = draw(st.sampled_from(kinds))
        if kind in _KINDS_2Q:
            pair = draw(st.permutations(range(n)))[:2]
            gates.append(Gate(kind, tuple(pair)))
        elif kind in ("ry", "rz"):
            angle = draw(st.floats(-math.pi, math.pi))
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),), angle))
        else:
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),)))
    return Circuit(n, tuple(gates))


class TestStatevector:
    def test_hadamard(self):
        psi = statevector(Circuit(1, (Gate("h", (0,)),)))
        assert np.allclose(psi, [1 / math.sqrt(2)] * 2)

    def test_cx_on_10(self):
        circuit = Circuit(2, (Gate("x", (0,)), Gate("cx", (0, 1))))
        psi = statevector(circuit)
        assert abs(psi[0b11]) == pytest.approx(1.0)

    def test_norm_preserved(self):
        psi = statevector(random_circuit(3, RNG(2)))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


class TestBlocks:
    """The ansatz prepared one block matrix at a time is the gate-by-gate
    state up to rounding."""

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), q=st.integers(1, 6))
    def test_block_preparation_is_the_gate_by_gate_state(self, data, q):
        angle = st.sampled_from([0.0, -0.0, math.pi, -math.pi]) | st.floats(-math.pi, math.pi)
        m = ansatz_parameter_count(q)
        params = np.array(data.draw(st.lists(angle, min_size=m, max_size=m), label="angles"))
        got = Checkpoints(q).prepare(params)[0]
        expected = statevector(build_ansatz(params, q))
        assert np.max(np.abs(got - expected)) < 1e-12
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12
        # the dense unitary: the same state in its first column, and unitary
        u = ansatz_unitary(params, q)
        assert np.max(np.abs(u[:, 0] - expected)) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(2**q))) < 1e-12


def tensordot_kernel(t, mat, axes):
    """Reference gate kernel: ``np.tensordot`` on the axes, then ``moveaxis``."""
    k = len(axes)
    mt = mat.reshape((2,) * (2 * k))
    t = np.tensordot(mt, t, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(t, tuple(range(k)), axes)


class TestGateKernel:
    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_bitwise_equal_to_tensordot(self, data):
        n = data.draw(st.integers(1, 5), label="qubits")
        k = data.draw(st.integers(1, min(2, n)), label="gate width")
        axes = tuple(data.draw(st.permutations(range(n)), label="order")[:k])
        stack = data.draw(st.sampled_from([(), (1,), (3,)]), label="stack")
        rng = RNG(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shape = (2,) * n + stack
        t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mat = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        if data.draw(st.booleans(), label="adjoint view"):
            mat = mat.conj().T
        got = simulator._apply_matrix(t, mat, axes)
        assert got.shape == shape
        assert np.array_equal(got, tensordot_kernel(t, mat, axes))


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


def reference_gate_noise(rho: np.ndarray, gate: Gate, noise: NoiseModel, n: int):
    """Reference noise block after one gate, qubit by qubit on a density
    tensor: per-qubit relaxation, then depolarizing."""
    if len(gate.qubits) == 1:
        sop = noise.relaxation_superop(gate.qubits[0], noise.gate_time_1q_us, noise.p1)
        return _apply_superop_1q(rho, sop, gate.qubits[0], n)
    for q in gate.qubits:
        sop = noise.relaxation_superop(q, noise.gate_time_2q_us, 0.0)
        rho = _apply_superop_1q(rho, sop, q, n)
    return _depolarize(rho, gate.qubits, noise.p2, n)


class TestNoiseBlock:
    @pytest.mark.parametrize("reduction", [1.0, 3.0, 1e4])
    @pytest.mark.parametrize("qubits", [(0,), (1,), (2,), (0, 1), (1, 2), (2, 3), (3, 4)])
    def test_block_is_the_reference_run_on_its_basis(self, reduction, qubits):
        # N, built directly, is bitwise the reference run on the gate's own
        # k-qubit basis, on the bundled profile
        noise = scale_noise(noise_models()["profile"], reduction=reduction)
        k = len(qubits)
        basis = np.eye(4**k, dtype=complex).reshape((2,) * (2 * k) + (4**k,))
        gate, alone = Gate("", tuple(range(k))), noise.restricted(qubits)
        expected = reference_gate_noise(basis, gate, alone, k)
        assert noise._noise_block(qubits).tobytes() == expected.reshape(4**k, 4**k).tobytes()


def apply_noise(rho: np.ndarray, gate: Gate, noise: NoiseModel) -> np.ndarray:
    """The gate's noise block on a flat (2^n x 2^n) density matrix."""
    n = rho.shape[0].bit_length() - 1
    return apply_gate_noise(rho.reshape((2,) * (2 * n)), gate, noise, n).reshape(rho.shape)


def apply_superop(rho: np.ndarray, gate: Gate, noise: NoiseModel | None) -> np.ndarray:
    """The gate and its noise block, fused into S, on a flat density matrix."""
    n = rho.shape[0].bit_length() - 1
    axes = gate.qubits + tuple(n + q for q in gate.qubits)
    sop = simulator._gate_superops(gate, noise, (1,))[0]
    return simulator._apply_matrix(rho.reshape((2,) * (2 * n)), sop, axes).reshape(rho.shape)


class TestNoiseChannels:
    def test_full_depolarization_gives_maximally_mixed(self):
        noise = torino_like(1, p1=1.0)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        out = apply_noise(rho, Gate("ry", (0,), 0.0), noise)
        # the RY(0) noise block includes depolarizing at p=1
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_amplitude_damping_fixed_point(self):
        # t >> T1 with zero equilibrium excitation relaxes anything to |0><0|
        noise = torino_like(1, gate_time_1q_us=1e6, p1=0.0)
        rho = np.array([[0.2, 0.3], [0.3, 0.8]], dtype=complex)
        out = apply_noise(rho, Gate("ry", (0,), 0.1), noise)
        assert np.allclose(out, [[1, 0], [0, 0]], atol=1e-8)

    def test_zero_time_zero_depol_is_identity(self):
        noise = torino_like(1, gate_time_1q_us=0.0, p1=0.0)
        rng = RNG(3)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = np.outer(v, v.conj())
        rho /= np.trace(rho).real
        out = apply_noise(rho, Gate("rz", (0,), 0.3), noise)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_off_diagonal_decay_matches_t2(self):
        t = 13.0
        noise = torino_like(1, gate_time_1q_us=t, p1=0.0)
        rho = 0.5 * np.ones((2, 2), dtype=complex)
        out = apply_noise(rho, Gate("ry", (0,), 0.0), noise)
        assert out[0, 1].real == pytest.approx(0.5 * math.exp(-t / 50.0), abs=1e-12)

    def test_population_decay_matches_t1(self):
        t = 13.0
        noise = torino_like(1, gate_time_1q_us=t, p1=0.0)
        rho = np.array([[0, 0], [0, 1]], dtype=complex)
        out = apply_noise(rho, Gate("ry", (0,), 0.0), noise)
        assert out[1, 1].real == pytest.approx(math.exp(-t / 70.0), abs=1e-12)

    def test_t2_cap_enforced(self):
        with pytest.raises(ValueError, match="T2"):
            torino_like(1, t2_us=np.full(1, 150.0))

    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"t1_us": np.full(1, -70.0), "t2_us": np.full(1, -140.0)}, "T1 and T2"),
            ({"t1_us": np.zeros(1)}, "T1 and T2"),
            ({"t2_us": np.full(1, np.nan)}, "T1 and T2"),
            ({"gate_time_1q_us": -0.05}, "gate times"),
            ({"gate_time_2q_us": math.inf}, "gate times"),
            ({"gate_time_2q_us": math.nan}, "gate times"),
            # a row sum is checked to 1e-9 absolute, not np.allclose's relative 1e-5
            ({"readout": np.array([[[0.98 + 1e-7, 0.02], [0.03, 0.97]]])}, "sum to 1"),
            ({"readout": np.array([[[math.nan, 0.02], [0.03, 0.97]]])}, "sum to 1"),
        ],
    )
    def test_bad_times_rejected(self, overrides, match):
        # a negative gate time would make the relaxation block gain trace
        with pytest.raises(ValueError, match=match):
            torino_like(1, **overrides)

    def test_infinite_t1_and_t2_allowed(self):
        noise = torino_like(1, t1_us=np.full(1, math.inf), t2_us=np.full(1, math.inf))
        assert noise.gammas(0, 1e3) == (0.0, 0.0)

    def test_trace_preserved_through_noisy_circuit(self):
        noise = torino_like(3)
        rho = density_matrix(random_circuit(3, RNG(4)), noise)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


@st.composite
def relaxing_models(draw) -> NoiseModel:
    """Two-qubit models with random T1, T2 <= 2 T1, excited population,
    gate times and depolarizing probabilities, and no readout error."""
    t1 = np.array([draw(st.floats(1.0, 500.0)) for _ in range(2)])
    t2 = t1 * [2.0 * draw(st.floats(0.01, 1.0)) for _ in range(2)]
    return NoiseModel(
        t1_us=t1,
        t2_us=t2,
        excited_population=[draw(st.floats(0.0, 1.0)) for _ in range(2)],
        gate_time_1q_us=draw(st.floats(0.0, 1e3)),
        gate_time_2q_us=draw(st.floats(0.0, 1e3)),
        p1=draw(st.floats(0.0, 1.0)),
        p2=draw(st.floats(0.0, 1.0)),
        readout=np.tile(np.eye(2), (2, 1, 1)),
    )


def choi(channel, n: int) -> np.ndarray:
    """Choi matrix sum_cd |c><d| (x) channel(|c><d|), input factor first."""
    dim = 2**n
    out = np.zeros((dim, dim, dim, dim), dtype=complex)
    for c in range(dim):
        for d in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[c, d] = 1.0
            out[c, :, d, :] = channel(unit)
    return out.reshape(dim * dim, dim * dim)


class TestCompletePositivity:
    """Every noise block is CPTP: its Choi matrix is PSD, and tracing out
    its output leaves the identity on its input."""

    def check_cptp(self, j: np.ndarray, dim: int):
        assert np.min(np.linalg.eigvalsh(j)) > -1e-12
        partial = np.einsum("cada->cd", j.reshape(dim, dim, dim, dim))
        assert np.max(np.abs(partial - np.eye(dim))) < 1e-12

    @settings(deadline=None, max_examples=100)
    @given(
        noise=relaxing_models(),
        qubit=st.integers(0, 1),
        t_us=st.floats(0.0, 1e3),
        depol=st.floats(0.0, 1.0),
    )
    def test_relaxation_superop(self, noise, qubit, t_us, depol):
        sop = noise.relaxation_superop(qubit, t_us, depol)
        self.check_cptp(choi(lambda unit: np.einsum("abcd,cd->ab", sop, unit), 1), 2)

    @settings(deadline=None, max_examples=100)
    @given(noise=relaxing_models(), reversed_pair=st.booleans())
    def test_two_qubit_block_of_a_cz(self, noise, reversed_pair):
        gate = Gate("cz", (1, 0) if reversed_pair else (0, 1))
        self.check_cptp(choi(lambda unit: apply_noise(unit, gate, noise), 2), 4)


class TestAdjointChannel:
    """Heisenberg-picture evolution against the forward density matrix."""

    @settings(deadline=None, max_examples=60)
    @given(
        circuit=circuits(),
        model=st.sampled_from(["profile", "scaled", "noiseless"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trace_identity(self, circuit, model, seed):
        # Tr(M E(rho)) = Tr(E^dag(M) rho), rho prepared by a noisy circuit
        noise, rng, n = noise_models()[model], RNG(seed), circuit.n_qubits
        prep = random_circuit(n, rng, depth=6)
        rho = density_matrix(prep, noise)
        evolved = density_matrix(Circuit(n, prep.gates + circuit.gates), noise)
        m = random_hermitian(2**n, rng)
        back = adjoint_density_matrix(circuit, m, noise)
        assert abs(np.trace(m @ evolved) - np.trace(back @ rho)) < 1e-12

    @settings(deadline=None, max_examples=30)
    @given(
        circuit=circuits(),
        model=st.sampled_from(["profile", "scaled", "noiseless"]),
        data=st.data(),
    )
    def test_effective_povm_gives_the_forward_distribution(self, circuit, model, data):
        noise, n = noise_models()[model], circuit.n_qubits
        prep = random_circuit(n, RNG(data.draw(st.integers(0, 2**32 - 1))), depth=6)
        evolved = density_matrix(Circuit(n, prep.gates + circuit.gates), noise)
        forward = outcome_probabilities(evolved, n, readout=noise.readout)
        povm = effective_povm(circuit, noise)
        assert povm.shape == (2**n, 2**n, 2**n)
        backward = np.einsum("yab,ba->y", povm, density_matrix(prep, noise)).real
        assert np.max(np.abs(forward - backward)) < 1e-12

    @settings(deadline=None, max_examples=30)
    @given(
        model=st.sampled_from(["profile", "scaled", "noiseless"]),
        n=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noise_blocks_unital_backward_trace_preserving_forward(self, model, n, seed):
        # S^dag(I) = U^dag N^dag(I) U is I exactly when N^dag is unital
        noise, rng = noise_models()[model], RNG(seed)
        a, b = (int(q) for q in rng.permutation(n)[:2])
        eye = np.eye(2**n, dtype=complex)
        for gate in (Gate("ry", (a,), 0.3), Gate("cz", (a, b))):
            out = adjoint_density_matrix(Circuit(n, (gate,)), eye, noise)
            assert np.max(np.abs(out - eye)) < 1e-12
            rho = apply_superop(random_density(2**n, rng), gate, noise)
            assert abs(np.trace(rho) - 1.0) < 1e-12

    @settings(deadline=None, max_examples=30)
    @given(qubit=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_adjoint_superop_of_a_complex_channel(self, qubit, seed):
        # the profile's noise blocks are real; a complex one checks the
        # conjugation in S^dag as well as the index order
        rng = RNG(seed)
        kraus = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        w, v = np.linalg.eigh(sum(k.conj().T @ k for k in kraus))
        kraus = [k @ v @ np.diag(w**-0.5) @ v.conj().T for k in kraus]
        noise = noiseless(2)
        noise._superop_cache[(qubit,)] = kraus_to_superop(kraus)
        gate = Gate("ry", (qubit,), 0.7)
        rho, m = random_density(4, rng), random_hermitian(4, rng)
        forward = apply_superop(rho, gate, noise)
        back = adjoint_density_matrix(Circuit(2, (gate,)), m, noise)
        assert abs(np.trace(forward) - 1.0) < 1e-12
        assert abs(np.trace(m @ forward) - np.trace(back @ rho)) < 1e-12


class TestFoldScale:
    """An evolution at fold scale lam, each gate one product with S_lam, is
    the evolution of the circuit folded to lam."""

    @settings(deadline=None, max_examples=150)
    @given(
        circuit=circuits(),
        lam=st.sampled_from([1, 3, 5]),
        model=st.sampled_from(["profile", "scaled", "none"]),
    )
    def test_equals_the_folded_circuit(self, circuit, lam, model):
        noise = None if model == "none" else noise_models()[model]
        folded = fold_circuit(circuit, lam)
        got, expected = density_matrix(circuit, noise, lam=lam), density_matrix(folded, noise)
        assert np.max(np.abs(got - expected)) < 1e-14
        got, expected = effective_povm(circuit, noise, lam), effective_povm(folded, noise)
        assert np.max(np.abs(got - expected)) < 1e-14


def gate_then_noise(t: np.ndarray, gate: Gate, noise: NoiseModel | None, n: int) -> np.ndarray:
    """U t U^dag by the reference kernel, then the reference noise block, on
    a density tensor of n qubits with any trailing stack axes."""
    u = simulator.gate_matrix(gate)
    t = tensordot_kernel(t, u, gate.qubits)
    t = tensordot_kernel(t, u.conj(), tuple(n + q for q in gate.qubits))
    return t if noise is None else reference_gate_noise(t, gate, noise, n)


class TestFusedGate:
    """One product with S = N (U (x) U*) is the gate followed by its noise
    block, and S^dag is that channel's Hilbert-Schmidt adjoint."""

    @settings(deadline=None, max_examples=300)
    @given(
        data=st.data(),
        model=st.sampled_from(["profile", "scaled", "noiseless", "relaxing", "none"]),
    )
    def test_equals_the_gate_then_its_noise_block(self, data, model):
        if model == "relaxing":
            noise = data.draw(relaxing_models(), label="relaxing model")
        else:
            noise = None if model == "none" else noise_models()[model]
        n = data.draw(st.integers(1, 4 if noise is None else min(4, noise.n_qubits)), label="qubits")
        kind = data.draw(st.sampled_from(_KINDS_1Q + (_KINDS_2Q if n > 1 else ())), label="kind")
        order = data.draw(st.permutations(range(n)), label="order")
        qubits = tuple(order[: 2 if kind in _KINDS_2Q else 1])
        angle = data.draw(st.floats(-math.pi, math.pi), label="angle")
        gate = Gate(kind, qubits, angle if kind in ("ry", "rz") else None)
        stack = data.draw(st.sampled_from([(), (3,)]), label="stack")
        rng = RNG(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shape = (2,) * (2 * n) + stack
        t = rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(-1, 1, size=shape)
        axes = qubits + tuple(n + q for q in qubits)
        fused = simulator._apply_matrix(t, simulator._gate_superops(gate, noise, (1,))[0], axes)
        assert np.max(np.abs(fused - gate_then_noise(t, gate, noise, n))) < 1e-14
        # the reference channel as a 4^n x 4^n matrix: its adjoint is C^dag
        dim = 4**n
        basis = np.eye(dim, dtype=complex).reshape((2,) * (2 * n) + (dim,))
        channel = gate_then_noise(basis, gate, noise, n).reshape(dim, dim)
        ops = np.moveaxis(t, range(2 * n), range(-2 * n, 0)).reshape(stack + (2**n, 2**n))
        back = adjoint_density_matrix(Circuit(n, (gate,)), ops, noise)
        expected = (ops.reshape(-1, dim) @ channel.conj()).reshape(ops.shape)
        assert np.max(np.abs(back - expected)) < 1e-14


class TestStatevectorDensityAgreement:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zero_noise_distributions_match(self, n):
        circuit = random_circuit(n, RNG(5 + n))
        psi = statevector(circuit)
        rho = density_matrix(circuit, noiseless(n))
        p_sv = outcome_probabilities(psi, n)
        p_dm = outcome_probabilities(rho, n)
        assert np.max(np.abs(p_sv - p_dm)) < 1e-10

    def test_density_without_noise_model(self):
        circuit = random_circuit(2, RNG(9))
        psi = statevector(circuit)
        rho = density_matrix(circuit)
        assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-12


class TestScaleNoise:
    def test_longevity_100_sets_t1_700(self):
        scaled = scale_noise(torino_like(2), longevity=100.0)
        assert np.allclose(scaled.t1_us, 700.0)
        assert np.allclose(scaled.t2_us, 500.0)

    def test_neutral_factors_leave_noise_unchanged(self):
        noise = torino_like(2)
        # longevity 10 is the baseline order of magnitude
        scaled = scale_noise(noise, reduction=1.0, longevity=10.0)
        assert np.allclose(scaled.t1_us, 70.0)
        assert np.allclose(scaled.t2_us, 50.0)
        assert scaled.p1 == noise.p1 and scaled.p2 == noise.p2

    def test_infinite_longevity_disables_relaxation(self):
        scaled = scale_noise(torino_like(2), longevity=math.inf)
        for q in range(2):
            g1, g2 = scaled.gammas(q, 1000.0)
            assert g1 == 0.0 and g2 == 0.0

    def test_reduction_divides_gate_errors(self):
        scaled = scale_noise(torino_like(2), reduction=100.0)
        assert scaled.p1 == pytest.approx(3e-6)
        assert scaled.p2 == pytest.approx(3e-5)

    @pytest.mark.parametrize("factors", [{"reduction": 0.0}, {"longevity": -1.0}])
    def test_nonpositive_factors_rejected(self, factors):
        with pytest.raises(ValueError, match="must be positive"):
            scale_noise(torino_like(2), **factors)


class TestSampling:
    def test_deterministic_distribution(self):
        meas = sample_shots(np.array([1.0, 0.0]), 1000, RNG(0))
        assert meas.counts[0] == 1000

    def test_uniform_binomial_bound(self):
        n = 10**5
        meas = sample_shots(np.array([0.5, 0.5]), n, RNG(1))
        assert abs(meas.counts[0] - n / 2) <= 5 * math.sqrt(n / 4)

    def test_seed_reproducibility(self):
        p = np.array([0.3, 0.2, 0.5])
        a = sample_shots(p, 5000, RNG(42))
        b = sample_shots(p, 5000, RNG(42))
        assert np.array_equal(a.counts, b.counts)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            sample_shots(np.array([1.1, -0.1]), 10, RNG(0))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            sample_shots(np.array([0.5, 0.4]), 10, RNG(0))

    def test_histogram_total_invariant(self):
        meas = Measurement(shots=10, counts=np.array([4, 6]))
        assert meas.empirical().sum() == pytest.approx(1.0)
        with pytest.raises(ValueError, match="total"):
            Measurement(shots=10, counts=np.array([4, 5]))


class TestReadoutApplication:
    def test_confusion_mixes_probabilities(self):
        noise = torino_like(1)
        psi = np.array([1.0, 0.0], dtype=complex)
        probs = outcome_probabilities(psi, 1, readout=noise.readout)
        assert probs[0] == pytest.approx(0.98)
        assert probs[1] == pytest.approx(0.02)

    def test_outcomes_are_big_endian(self):
        # |10>: qubit 0 reads 1, qubit 1 reads 0, outcome index 2
        circuit = Circuit(2, (Gate("x", (0,)),))
        probs = outcome_probabilities(statevector(circuit), 2)
        assert probs[2] == pytest.approx(1.0)
        # readout confusion on qubit 1 only moves weight to |11>
        noise = torino_like(2, readout=np.array([np.eye(2), [[0.9, 0.1], [0.2, 0.8]]]))
        probs = outcome_probabilities(statevector(circuit), 2, readout=noise.readout)
        assert probs == pytest.approx([0.0, 0.0, 0.9, 0.1])

    def test_marginalization_selects_qubit(self):
        # |10>: qubit 0 reads 1, qubit 1 reads 0 (big-endian)
        circuit = Circuit(2, (Gate("x", (0,)),))
        probs = outcome_probabilities(statevector(circuit), 2).reshape(2, 2)
        assert probs.sum(axis=1)[1] == pytest.approx(1.0)
        assert probs.sum(axis=0)[0] == pytest.approx(1.0)


class TestProfileIO:
    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="missing key"):
            load_noise_profile(path)
