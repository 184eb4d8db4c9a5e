import numpy as np
import pytest

from qdrive.circuits import (
    Circuit,
    Gate,
    ansatz_parameter_count,
    build_ansatz,
)
from qdrive.simulator import statevector


class TestAnsatz:
    def test_parameter_count(self):
        assert ansatz_parameter_count(3) == 24

    def test_q3_gate_budget(self):
        circuit = build_ansatz(np.zeros(24), 3)
        cx = [g for g in circuit.gates if g.kind == "cx"]
        rotations = [g for g in circuit.gates if g.kind in ("ry", "rz")]
        assert len(cx) == 6
        assert len(rotations) == 24

    def test_zero_angles_prepare_vacuum(self):
        psi = statevector(build_ansatz(np.zeros(8), 1))
        assert abs(psi[0]) == pytest.approx(1.0)

    def test_pi_rotation_flips_qubit(self):
        params = np.zeros(8)
        params[0] = np.pi
        psi = statevector(build_ansatz(params, 1))
        assert abs(psi[1]) ** 2 == pytest.approx(1.0)

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(ValueError, match="parameters"):
            build_ansatz(np.zeros(7), 1)

    def test_nonfinite_rejected(self):
        params = np.zeros(8)
        params[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            build_ansatz(params, 1)


class TestCircuit:
    def test_target_range_validated(self):
        with pytest.raises(ValueError, match="outside"):
            Circuit(1, (Gate("h", (1,)),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gate"):
            Circuit(1, (Gate("t", (0,)),))

    def test_inverse_reverses_and_inverts(self):
        rng = np.random.default_rng(0)
        circuit = build_ansatz(rng.uniform(-np.pi, np.pi, 16), 2)
        identity = Circuit(2, circuit.gates + circuit.inverse().gates)
        psi = statevector(identity)
        assert abs(psi[0]) == pytest.approx(1.0, abs=1e-12)

    def test_measure_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gate kind 'measure'"):
            Circuit(1, (Gate("measure", (0,)),))
