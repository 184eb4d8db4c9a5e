import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrive import simulator
from qdrive.circuits import Circuit, Gate, build_ansatz
from qdrive.config import bundled_profile_path
from qdrive.simulator import (
    Measurement,
    NoiseModel,
    adjoint_density_matrix,
    adjoint_superop_1q,
    apply_gate_noise_adjoint,
    apply_noise_channels,
    density_matrix,
    effective_povm,
    gate_matrix,
    kraus_to_superop,
    load_noise_profile,
    outcome_probabilities,
    sample_shots,
    scale_noise,
    statevector,
)

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
    reduced = load_noise_profile(bundled_profile_path())
    reduced.gate_noise_reduction_factor = 1e4
    reduced.qubit_longevity_factor = 10.0
    return {
        "profile": load_noise_profile(bundled_profile_path()),
        "scaled": scale_noise(reduced),
        "noiseless": NoiseModel.noiseless(3),
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

    def test_measure_gate_rejected(self):
        with pytest.raises(ValueError, match="measure"):
            statevector(Circuit(1, (Gate("measure", (0,)),)))


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


class TestNoiseChannels:
    def test_full_depolarization_gives_maximally_mixed(self):
        noise = torino_like(1, p1=1.0)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        out = apply_noise_channels(rho, Gate("ry", (0,), 0.0), noise)
        # the RY(0) noise block includes depolarizing at p=1
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_amplitude_damping_fixed_point(self):
        # t >> T1 with zero equilibrium excitation relaxes anything to |0><0|
        noise = torino_like(1, gate_time_1q_us=1e6, p1=0.0)
        rho = np.array([[0.2, 0.3], [0.3, 0.8]], dtype=complex)
        out = apply_noise_channels(rho, Gate("ry", (0,), 0.1), noise)
        assert np.allclose(out, [[1, 0], [0, 0]], atol=1e-8)

    def test_zero_time_zero_depol_is_identity(self):
        noise = torino_like(1, gate_time_1q_us=0.0, p1=0.0)
        rng = RNG(3)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = np.outer(v, v.conj())
        rho /= np.trace(rho).real
        out = apply_noise_channels(rho, Gate("rz", (0,), 0.3), noise)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_invalid_density_matrix_rejected(self):
        noise = torino_like(1)
        with pytest.raises(ValueError, match="trace"):
            apply_noise_channels(np.eye(2, dtype=complex), Gate("h", (0,)), noise)

    def test_off_diagonal_decay_matches_t2(self):
        t = 13.0
        noise = torino_like(1, gate_time_1q_us=t, p1=0.0)
        rho = 0.5 * np.ones((2, 2), dtype=complex)
        out = apply_noise_channels(rho, Gate("ry", (0,), 0.0), noise)
        assert out[0, 1].real == pytest.approx(0.5 * math.exp(-t / 50.0), abs=1e-12)

    def test_population_decay_matches_t1(self):
        t = 13.0
        noise = torino_like(1, gate_time_1q_us=t, p1=0.0)
        rho = np.array([[0, 0], [0, 1]], dtype=complex)
        out = apply_noise_channels(rho, Gate("ry", (0,), 0.0), noise)
        assert out[1, 1].real == pytest.approx(math.exp(-t / 70.0), abs=1e-12)

    def test_t2_cap_enforced(self):
        with pytest.raises(ValueError, match="T2"):
            torino_like(1, t2_us=np.full(1, 150.0))

    def test_trace_preserved_through_noisy_circuit(self):
        noise = torino_like(3)
        rho = density_matrix(random_circuit(3, RNG(4)), noise)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


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
        order = data.draw(st.permutations(range(n)), label="order")
        measured = tuple(order[: data.draw(st.integers(1, n), label="measured")])
        prep = random_circuit(n, RNG(data.draw(st.integers(0, 2**32 - 1))), depth=6)
        evolved = density_matrix(Circuit(n, prep.gates + circuit.gates), noise)
        forward = outcome_probabilities(evolved, n, measured, noise)
        povm = effective_povm(circuit, noise, measured)
        assert povm.shape == (2 ** len(measured), 2**n, 2**n)
        backward = np.einsum("yab,ba->y", povm, density_matrix(prep, noise)).real
        assert np.max(np.abs(forward - backward)) < 1e-12

    @settings(deadline=None, max_examples=30)
    @given(
        model=st.sampled_from(["profile", "scaled", "noiseless"]),
        n=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noise_blocks_unital_backward_trace_preserving_forward(self, model, n, seed):
        noise, rng = noise_models()[model], RNG(seed)
        a, b = (int(q) for q in rng.permutation(n)[:2])
        eye = np.eye(2**n, dtype=complex)
        for gate in (Gate("ry", (a,), 0.3), Gate("cz", (a, b))):
            out = apply_gate_noise_adjoint(eye.reshape((2,) * (2 * n)), gate, noise, n)
            assert np.max(np.abs(out.reshape(2**n, 2**n) - eye)) < 1e-12
            rho = apply_noise_channels(random_density(2**n, rng), gate, noise)
            assert abs(np.trace(rho) - 1.0) < 1e-12

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_adjoint_superop_of_a_complex_channel(self, seed):
        # the profile's superoperators are real; a complex channel checks
        # the conjugation as well as the index order
        rng = RNG(seed)
        kraus = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        w, v = np.linalg.eigh(sum(k.conj().T @ k for k in kraus))
        kraus = [k @ v @ np.diag(w**-0.5) @ v.conj().T for k in kraus]
        sop = kraus_to_superop(kraus).reshape(2, 2, 2, 2)
        rho, m = random_density(2, rng), random_hermitian(2, rng)
        forward = np.einsum("abcd,cd->ab", sop, rho)
        back = np.einsum("abcd,cd->ab", adjoint_superop_1q(sop), m)
        assert abs(np.trace(forward) - 1.0) < 1e-12
        assert abs(np.trace(m @ forward) - np.trace(back @ rho)) < 1e-12


class TestStatevectorDensityAgreement:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zero_noise_distributions_match(self, n):
        circuit = random_circuit(n, RNG(5 + n))
        psi = statevector(circuit)
        rho = density_matrix(circuit, NoiseModel.noiseless(n))
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
        noise = torino_like(2)
        noise.qubit_longevity_factor = 100.0
        scaled = scale_noise(noise)
        assert np.allclose(scaled.t1_us, 700.0)
        assert np.allclose(scaled.t2_us, 500.0)

    def test_neutral_factors_leave_noise_unchanged(self):
        noise = torino_like(2)
        noise.gate_noise_reduction_factor = 1.0
        noise.qubit_longevity_factor = 10.0  # baseline order of magnitude
        scaled = scale_noise(noise)
        assert np.allclose(scaled.t1_us, 70.0)
        assert np.allclose(scaled.t2_us, 50.0)
        assert scaled.p1 == noise.p1 and scaled.p2 == noise.p2

    def test_infinite_longevity_disables_relaxation(self):
        noise = torino_like(2)
        noise.qubit_longevity_factor = math.inf
        scaled = scale_noise(noise)
        for q in range(2):
            g1, g2 = scaled.gammas(q, 1000.0)
            assert g1 == 0.0 and g2 == 0.0

    def test_reduction_divides_gate_errors(self):
        noise = torino_like(2)
        noise.gate_noise_reduction_factor = 100.0
        scaled = scale_noise(noise)
        assert scaled.p1 == pytest.approx(3e-6)
        assert scaled.p2 == pytest.approx(3e-5)


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
        probs = outcome_probabilities(psi, 1, readout=noise)
        assert probs[0] == pytest.approx(0.98)
        assert probs[1] == pytest.approx(0.02)

    def test_marginalization_selects_qubit(self):
        # |10>: qubit 0 reads 1, qubit 1 reads 0 (big-endian)
        circuit = Circuit(2, (Gate("x", (0,)),))
        psi = statevector(circuit)
        probs = outcome_probabilities(psi, 2, measured=(0,))
        assert probs[1] == pytest.approx(1.0)
        probs = outcome_probabilities(psi, 2, measured=(1,))
        assert probs[0] == pytest.approx(1.0)


class TestProfileIO:
    def test_roundtrip(self, tmp_path):
        from qdrive.simulator import save_noise_profile

        noise = torino_like(3)
        path = tmp_path / "profile.json"
        save_noise_profile(noise, path)
        back = load_noise_profile(path)
        assert np.allclose(back.t1_us, noise.t1_us)
        assert np.allclose(back.readout, noise.readout)

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="missing key"):
            load_noise_profile(path)
