import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdrive.circuits import Circuit, Gate, build_ansatz
from qdrive.mitigation import (
    BRANCHES,
    fold_circuit,
    invert_distribution,
    readout_invert,
    readout_inverse,
    z_score,
    zne_extrapolate,
)
from qdrive.simulator import (
    adjoint_density_matrix,
    density_matrix,
    effective_povm,
    statevector,
)
from tests.reference import noiseless

N = 10**5

# one worked triple per branch: (x1, x3, x5) -> (x0, branch)
WORKED_TRIPLES = [
    ((1.0, 1.0, 1.0), 1.0, "constant"),
    ((0.8, 0.6, 0.8), 0.8, "undefined-averaged"),
    ((0.5, 0.4, 0.7), 0.45, "outlier-x5"),
    ((0.5, 0.9, 0.7), 0.3, "linear-order"),
    ((0.8, 0.6, 0.6), 0.9, "linear-ztest"),
    ((0.9, 0.7, 0.5), 1.0, "exponential"),
]


def rows(p00: float, p01: float, p10: float, p11: float) -> np.ndarray:
    """One qubit's confusion rows, true state -> measured state."""
    return np.array([[p00, p01], [p10, p11]])


class TestReadoutInvert:
    def test_identity_matrix_passthrough(self):
        t0, t1, clamped = readout_invert(0.6, np.eye(2))
        assert t0 == pytest.approx(0.6)
        assert t1 == pytest.approx(0.4)
        assert not clamped

    def test_worked_example(self):
        cm = rows(p00=0.98, p01=0.02, p10=0.03, p11=0.97)
        t0, t1, clamped = readout_invert(0.6, cm)
        assert t0 == pytest.approx(0.6)
        assert not clamped

    def test_clamping_fires_below_floor(self):
        cm = rows(p00=0.98, p01=0.02, p10=0.03, p11=0.97)
        t0, t1, clamped = readout_invert(0.02, cm)
        assert t0 == 0.0
        assert t1 == 1.0
        assert clamped

    def test_roundtrip_of_forward_model(self):
        cm = rows(p00=0.97, p01=0.03, p10=0.05, p11=0.95)
        for t in np.linspace(0.0, 1.0, 101):
            n0 = t * cm[0, 0] + (1.0 - t) * cm[1, 0]  # noisy P(measure 0)
            t0, t1, clamped = readout_invert(n0, cm)
            assert abs(t0 - t) < 1e-12
            assert abs(t0 + t1 - 1.0) < 1e-12
            assert not clamped

    def test_degenerate_matrix_rejected(self):
        # the inverse of every measured qubit is checked, and the qubit named
        degenerate = rows(p00=0.5, p01=0.5, p10=0.5, p11=0.5)
        with pytest.raises(ValueError, match="readout of qubit 1: degenerate"):
            readout_inverse(np.array([np.eye(2), degenerate]))

    def test_normalization_is_exact_without_clamping(self):
        cm = rows(p00=0.9, p01=0.1, p10=0.2, p11=0.8)
        t0, t1, _ = readout_invert(0.47, cm)
        assert t0 + t1 == pytest.approx(1.0, abs=1e-14)


class TestInvertDistribution:
    def test_two_qubit_roundtrip(self):
        rng = np.random.default_rng(0)
        readout = np.array([
            rows(p00=0.98, p01=0.02, p10=0.03, p11=0.97),
            rows(p00=0.95, p01=0.05, p10=0.04, p11=0.96),
        ])
        p_true = rng.dirichlet(np.ones(4))
        fwd = np.kron(
            np.array([[0.98, 0.02], [0.03, 0.97]]),
            np.array([[0.95, 0.05], [0.04, 0.96]]),
        )
        noisy = p_true @ fwd
        recovered, clamped = invert_distribution(noisy, readout_inverse(readout))
        assert np.max(np.abs(recovered - p_true)) < 1e-12
        assert not clamped

    def test_identity_matrices_noop(self):
        p = np.array([0.25, 0.25, 0.25, 0.25])
        out, clamped = invert_distribution(p, readout_inverse(np.array([np.eye(2)] * 2)))
        assert np.allclose(out, p)
        assert not clamped

    def test_a_stack_inverts_row_by_row(self):
        rng = np.random.default_rng(1)
        inverse = readout_inverse(np.array([rows(0.9, 0.1, 0.3, 0.7)] * 2))
        stack = rng.dirichlet(np.full(4, 0.3), size=6)
        stack[2] = [0.0, 0.0, 0.0, 1.0]  # clamped: its inverse has negative entries
        out, clamped = invert_distribution(stack, inverse)
        singles = [invert_distribution(row, inverse) for row in stack]
        assert out.tobytes() == np.array([dist for dist, _ in singles]).tobytes()
        assert clamped and singles[2][1]
        # a row that clamps to nothing becomes uniform, on its own
        out, clamped = invert_distribution(stack[:2], -np.eye(4))
        assert clamped and np.array_equal(out, np.full((2, 4), 0.25))


# well-conditioned single-qubit confusion: P(read correctly) in [0.6, 1]
_fidelity = st.floats(0.6, 1.0)
confusions = st.builds(lambda p00, p11: rows(p00, 1.0 - p00, 1.0 - p11, p11), _fidelity, _fidelity)


class TestInversionProperties:
    @settings(deadline=None)
    @given(cm=confusions, t=st.floats(0.0, 1.0))
    def test_one_qubit_inversions_agree(self, cm, t):
        n0 = t * cm[0, 0] + (1.0 - t) * cm[1, 0]
        t0, _, clamped = readout_invert(n0, cm)
        inverse = readout_inverse(cm[None])
        dist, clamped_dist = invert_distribution(np.array([n0, 1.0 - n0]), inverse)
        assume(not clamped and not clamped_dist)
        assert abs(t0 - dist[0]) <= 1e-12

    @settings(deadline=None)
    @given(data=st.data())
    def test_undoes_forward_confusion(self, data):
        m = data.draw(st.integers(1, 3), label="qubits")
        readout = np.array(
            data.draw(st.lists(confusions, min_size=m, max_size=m), label="confusions")
        )
        weights = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=2**m, max_size=2**m), label="weights"
        )
        assume(sum(weights) > 1e-3)
        p_true = np.array(weights) / sum(weights)
        forward_map = functools.reduce(np.kron, readout)
        recovered, _ = invert_distribution(p_true @ forward_map, readout_inverse(readout))
        assert np.max(np.abs(recovered - p_true)) < 1e-9


class TestZScore:
    def test_identical_proportions(self):
        assert z_score(0.5, 0.5, N) == 0.0

    def test_worked_value(self):
        # direct evaluation: 0.2 / sqrt((0.21 + 0.25) / 1e5)
        expected = 0.2 / math.sqrt(0.46 / N)
        assert z_score(0.7, 0.5, N) == pytest.approx(expected)
        assert expected == pytest.approx(93.25, abs=0.01)

    def test_zero_variance_equal_is_insignificant(self):
        assert z_score(1.0, 1.0, N) == 0.0

    def test_zero_variance_unequal_is_infinite(self):
        assert z_score(1.0, 0.0, N) == math.inf


class TestZneBranches:
    @pytest.mark.parametrize("triple,expected,branch", WORKED_TRIPLES)
    def test_worked_triples(self, triple, expected, branch):
        result = zne_extrapolate(*triple, N, "probability")
        assert result.branch == branch
        assert result.x0 == pytest.approx(expected, abs=1e-12)

    def test_branch_labels_complete(self):
        assert {b for _, _, b in WORKED_TRIPLES} == set(BRANCHES)

    def test_constant_under_tiny_scatter(self):
        assert zne_extrapolate(0.5001, 0.5000, 0.5002, 1000, "probability").branch == "constant"

    def test_expectation_mode_maps_to_proportions(self):
        result = zne_extrapolate(0.8, 0.4, 0.0, N, "expectation")
        # monotone significant decay with beta = 1
        assert result.branch == "exponential"
        assert result.x0 == pytest.approx(0.8 + 0.4 / 2.0)

    def test_exponential_recovers_synthetic_decay(self):
        # x_lam = A + B exp(C lam) with C < 0, fed exact points
        a, b, c = 0.3, 0.5, -0.7
        xs = [a + b * math.exp(c * lam) for lam in (1, 3, 5)]
        result = zne_extrapolate(*xs, 10**9, "probability")
        assert result.branch == "exponential"
        assert result.x0 == pytest.approx(a + b, abs=1e-9)

    def test_fuzz_totality(self):
        rng = np.random.default_rng(123)
        labels = set()
        for _ in range(10**5):
            xs = rng.uniform(0.0, 1.0, size=3)
            n = int(rng.integers(1, 10**6))
            result = zne_extrapolate(*xs, n, "probability")
            assert result.branch in BRANCHES
            assert math.isfinite(result.x0)
            labels.add(result.branch)
        assert labels == set(BRANCHES)

    def test_telemetry_record_fields(self):
        # the inputs and the result's fields make up the record zne-demo prints
        result = zne_extrapolate(0.9, 0.7, 0.5, N, "probability")
        record = {"x1": 0.9, "x3": 0.7, "x5": 0.5, **dataclasses.asdict(result)}
        assert {"x1", "x3", "x5", "z", "branch", "x0"} == set(record)
        assert math.isfinite(record["z"]) and record["branch"] in BRANCHES


class TestFoldCircuit:
    def test_identity_at_scale_one(self):
        circuit = Circuit(1, (Gate("h", (0,)),))
        assert fold_circuit(circuit, 1) is circuit

    def test_gate_count_at_scale_three(self):
        circuit = Circuit(1, (Gate("h", (0,)),))
        assert len(fold_circuit(circuit, 3).gates) == 3

    def test_even_scale_rejected(self):
        # non-positive ones too, and by the evolutions at a fold scale as well
        circuit = Circuit(1, (Gate("h", (0,)),))
        for lam in (2, 4, 0, -1):
            for fold in (
                lambda: fold_circuit(circuit, lam),
                lambda: density_matrix(circuit, lam=lam),
                lambda: adjoint_density_matrix(circuit, np.eye(2), lam=lam),
                lambda: effective_povm(circuit, noiseless(1), lam),
            ):
                with pytest.raises(ValueError, match="odd"):
                    fold()

    @pytest.mark.parametrize("lam", [3, 5])
    def test_unitary_equivalence(self, lam):
        rng = np.random.default_rng(7)
        circuit = build_ansatz(rng.uniform(-np.pi, np.pi, 16), 2)
        psi = statevector(circuit)
        psi_folded = statevector(fold_circuit(circuit, lam))
        assert np.max(np.abs(psi - psi_folded)) < 1e-10
