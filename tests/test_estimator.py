import math
import sys
import threading

import numpy as np
import pytest

from qdrive import estimator as estimator_module
from qdrive.circuits import Circuit, Gate, ansatz_parameter_count
from qdrive.config import bundled_profile_path
from qdrive.estimator import Estimator
from qdrive.optimize import pseudovariance_objective, vqd_objective
from qdrive.pauli import PauliSum, decompose
from qdrive.simulator import NoiseModel, effective_povm, load_noise_profile, scale_noise
from tests.test_simulator import torino_like

RNG = np.random.default_rng


def random_observable(q, rng, hermitian=True):
    dim = 2**q
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if hermitian:
        m = 0.5 * (m + m.conj().T)
    return decompose(m), m


class TestStatevectorTier:
    def test_identity_only_observable(self):
        est = Estimator(q=2, tier="statevector")
        obs = PauliSum(2, {"II": 0.75 + 0.1j})
        params = RNG(0).uniform(-np.pi, np.pi, 16)
        assert est.expectation(obs, params) == 0.75 + 0.1j

    def test_z_on_excited_state(self):
        est = Estimator(q=1, tier="statevector")
        params = np.zeros(8)
        params[0] = np.pi
        obs = PauliSum(1, {"Z": 1.0})
        assert est.expectation(obs, params).real == pytest.approx(-1.0)

    def test_matches_dense_contraction(self):
        rng = RNG(1)
        est = Estimator(q=2, tier="statevector")
        obs, dense = random_observable(2, rng)
        for _ in range(5):
            params = rng.uniform(-np.pi, np.pi, 16)
            psi = est.ansatz_state(params)
            expected = np.vdot(psi, dense @ psi)
            got = est.expectation(obs, params)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_size_mismatch_rejected(self):
        est = Estimator(q=2, tier="statevector")
        with pytest.raises(ValueError, match="qubits"):
            est.expectation(PauliSum(1, {"Z": 1.0}), np.zeros(16))


class TestHadamardTest:
    def test_identity_word_analytic(self):
        est = Estimator(q=2, tier="statevector")
        assert est.expectation_hadamard_test(np.zeros(16), "II") == 1.0

    def test_z_on_vacuum(self):
        est = Estimator(q=1, tier="statevector")
        assert est.expectation_hadamard_test(np.zeros(8), "Z") == pytest.approx(1.0)

    def test_imag_part_of_hermitian_word_is_zero(self):
        est = Estimator(q=1, tier="statevector")
        params = RNG(2).uniform(-np.pi, np.pi, 8)
        assert est.expectation_hadamard_test(params, "Y", part="imag") == pytest.approx(
            0.0, abs=1e-10
        )

    @pytest.mark.parametrize("word", ["XZ", "YI", "ZZ"])
    def test_statevector_matches_contraction(self, word):
        rng = RNG(3)
        est = Estimator(q=2, tier="statevector")
        from qdrive.pauli import word_to_dense

        for _ in range(3):
            params = rng.uniform(-np.pi, np.pi, 16)
            psi = est.ansatz_state(params)
            expected = np.vdot(psi, word_to_dense(word) @ psi).real
            assert est.expectation_hadamard_test(params, word) == pytest.approx(
                expected, abs=1e-10
            )

    def test_shots_within_binomial_bound(self):
        n = 10**5
        rng = RNG(4)
        from qdrive.pauli import word_to_dense

        exact_est = Estimator(q=2, tier="statevector")
        shot_est = Estimator(q=2, tier="shots", shots=n, seed=5)
        params = rng.uniform(-np.pi, np.pi, 16)
        psi = exact_est.ansatz_state(params)
        expected = np.vdot(psi, word_to_dense("XZ") @ psi).real
        got = shot_est.expectation_hadamard_test(params, "XZ")
        # x = 2 p0 - 1: sd of x is 2 sqrt(p(1-p)/n) <= 1/sqrt(n)
        assert abs(got - expected) < 5.0 / math.sqrt(n)


class TestOverlap:
    def test_self_overlap(self):
        est = Estimator(q=2, tier="statevector")
        params = RNG(6).uniform(-np.pi, np.pi, 16)
        assert est.overlap_lowdepth(params, params) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_states(self):
        est = Estimator(q=1, tier="statevector")
        a = np.zeros(8)
        b = np.zeros(8)
        b[0] = np.pi
        assert est.overlap_lowdepth(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_inner_product(self):
        rng = RNG(7)
        est = Estimator(q=2, tier="statevector")
        for _ in range(5):
            a = rng.uniform(-np.pi, np.pi, 16)
            b = rng.uniform(-np.pi, np.pi, 16)
            expected = abs(np.vdot(est.ansatz_state(b), est.ansatz_state(a))) ** 2
            assert est.overlap_lowdepth(a, b) == pytest.approx(expected, abs=1e-10)


class TestShotTier:
    def test_direct_estimate_within_bound(self):
        rng = RNG(8)
        n = 10**5
        obs, dense = random_observable(2, rng)
        exact = Estimator(q=2, tier="statevector")
        shots = Estimator(q=2, tier="shots", shots=n, seed=9)
        params = rng.uniform(-np.pi, np.pi, 16)
        expected = exact.expectation(obs, params).real
        got = shots.expectation(obs, params).real
        sigma = sum(abs(c) for w, c in obs.terms.items() if set(w) != {"I"}) / math.sqrt(n)
        assert abs(got - expected) < 5 * sigma

    def test_determinism_under_seed(self):
        rng = RNG(10)
        obs, _ = random_observable(2, rng)
        params = rng.uniform(-np.pi, np.pi, 16)
        a = Estimator(q=2, tier="shots", shots=4096, seed=11).expectation(obs, params)
        b = Estimator(q=2, tier="shots", shots=4096, seed=11).expectation(obs, params)
        assert a == b


class TestNoisyTier:
    def test_requires_noise_model(self):
        with pytest.raises(ValueError, match="noise"):
            Estimator(q=2, tier="noisy")

    def test_expectation_near_truth_under_mild_noise(self):
        noise = torino_like(3, p1=1e-5, p2=1e-4)
        rng = RNG(12)
        obs, dense = random_observable(2, rng)
        exact = Estimator(q=2, tier="statevector")
        noisy = Estimator(q=2, tier="noisy", noise=noise, shots=10**5, seed=13)
        params = rng.uniform(-np.pi, np.pi, 16)
        expected = exact.expectation(obs, params).real
        got = noisy.expectation(obs, params).real
        scale = sum(abs(c) for c in obs.terms.values())
        assert abs(got - expected) < 0.05 * max(1.0, scale)

    def test_identity_word_never_estimated(self):
        noise = torino_like(3)
        telemetry = []
        est = Estimator(q=2, tier="noisy", noise=noise, shots=2048, seed=14, telemetry=telemetry)
        obs = PauliSum(2, {"II": 2.5, "ZZ": 0.5, "XI": 0.25})
        est.expectation(obs, RNG(15).uniform(-np.pi, np.pi, 16))
        words = [e.get("word") for e in telemetry if e["purpose"] != "zne"]
        assert words and all(w != "II" for w in words)

    def test_hadamard_test_is_the_expectation_path(self):
        # both primitives share bases, tail, sampling, inversion and ZNE
        noise = torino_like(3)
        params = RNG(21).uniform(-np.pi, np.pi, 16)
        a = Estimator(q=2, tier="noisy", noise=noise, shots=2048, seed=22)
        b = Estimator(q=2, tier="noisy", noise=noise, shots=2048, seed=22)
        expected = a.expectation(PauliSum(2, {"XZ": 1.0}), params).real
        assert b.expectation_hadamard_test(params, "XZ") == expected
        assert a.circuits_run == b.circuits_run == 3

    def test_zne_branch_telemetry_logged(self):
        noise = torino_like(3)
        telemetry = []
        est = Estimator(q=2, tier="noisy", noise=noise, shots=2048, seed=16, telemetry=telemetry)
        est.expectation(PauliSum(2, {"ZZ": 1.0}), RNG(17).uniform(-np.pi, np.pi, 16))
        zne_records = [e for e in telemetry if e["purpose"] == "zne"]
        assert zne_records
        assert {"x1", "x3", "x5", "z", "branch", "x0"} <= set(zne_records[0])

    def test_overlap_bounded(self):
        noise = torino_like(2)
        est = Estimator(q=2, tier="noisy", noise=noise, shots=2048, seed=18)
        rng = RNG(19)
        value = est.overlap_lowdepth(
            rng.uniform(-np.pi, np.pi, 16), rng.uniform(-np.pi, np.pi, 16)
        )
        assert 0.0 <= value <= 1.0

    def test_overlaps_with_one_state_prepare_it_once(self, monkeypatch):
        # a VQD evaluation with k priors evolves its state at 3 scales, not 3k
        rng = RNG(21)
        a, b1, b2 = (rng.uniform(-np.pi, np.pi, 16) for _ in range(3))
        reference = Estimator(q=2, tier="noisy", noise=torino_like(2), shots=2048, seed=22)
        expected = []
        for b in (b1, b2):
            reference._heads.clear()  # prepare afresh for every overlap
            expected.append(reference.overlap_lowdepth(a, b))
        evolved = []
        real = estimator_module.density_matrix

        def counted(*args, **kwargs):
            evolved.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(estimator_module, "density_matrix", counted)
        est = Estimator(q=2, tier="noisy", noise=torino_like(2), shots=2048, seed=22)
        assert [est.overlap_lowdepth(a, b) for b in (b1, b2)] == expected
        assert len(evolved) == 3

    def test_energy_assembly_matches_split_paths(self):
        grid_rng = RNG(20)
        h = grid_rng.normal(size=(4, 4))
        v = -np.abs(grid_rng.normal(size=(4, 4)))
        h, v = 0.5 * (h + h.T), 0.5 * (v + v.T)
        h_sum, v_sum = decompose(h.astype(complex)), decompose(v.astype(complex))
        est = Estimator(q=2, tier="statevector")
        params = grid_rng.uniform(-np.pi, np.pi, 16)
        psi = est.ansatz_state(params)
        expected = np.vdot(psi, (h + 1j * v) @ psi)
        got = est.energy(params, h_sum, v_sum)
        assert got == pytest.approx(expected, abs=1e-10)


class PreparedAfresh(Estimator):
    """Forgets every prepared state before each estimate."""

    def expectation(self, *args):
        self._heads.clear()
        return super().expectation(*args)

    def overlap_lowdepth(self, *args):
        self._heads.clear()
        return super().overlap_lowdepth(*args)


class TestSharedAnsatzState:
    """The exact and shot tiers prepare the ansatz once per evaluation."""

    @staticmethod
    def problem(rng):
        h_n, m = random_observable(2, rng, hermitian=False)
        return h_n, decompose(m.conj().T @ m)

    @staticmethod
    def count_statevectors(monkeypatch) -> list:
        calls = []
        real = estimator_module.statevector

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(estimator_module, "statevector", counted)
        return calls

    def test_pseudovariance_prepares_the_ansatz_once(self, monkeypatch):
        rng = RNG(50)
        h_n, h_dag_h = self.problem(rng)
        est = Estimator(q=2, tier="statevector")
        calls = self.count_statevectors(monkeypatch)
        pseudovariance_objective(rng.uniform(-np.pi, np.pi, 16), h_n, h_dag_h, est)
        assert len(calls) == 1
        (state,) = est._heads["ansatz"][1].values()
        with pytest.raises(ValueError, match="read-only"):
            state[0] = 0.0

    def test_vqd_prepares_one_head_and_one_tail_per_prior(self, monkeypatch):
        rng = RNG(51)
        h_h, _ = random_observable(2, rng)
        params, *priors = (rng.uniform(-np.pi, np.pi, 16) for _ in range(3))
        est = Estimator(q=2, tier="statevector")
        calls = self.count_statevectors(monkeypatch)
        vqd_objective(params, h_h, priors, 10.0, est)
        assert len(calls) == 1 + 2

    @pytest.mark.parametrize("tier", ["statevector", "shots"])
    def test_sharing_leaves_every_estimate_unchanged(self, tier):
        rng = RNG(52)
        h_n, h_dag_h = self.problem(rng)
        h_h, _ = h_n.hermitian_split()
        priors = [rng.uniform(-np.pi, np.pi, 16) for _ in range(2)]
        values = []
        for cls in (Estimator, PreparedAfresh):
            est = cls(q=2, tier=tier, shots=4096, seed=53)
            evals = np.random.default_rng(54)
            values.append([
                objective(evals.uniform(-np.pi, np.pi, 16))
                for _ in range(3)
                for objective in (
                    lambda x: pseudovariance_objective(x, h_n, h_dag_h, est),
                    lambda x: vqd_objective(x, h_h, priors, 10.0, est),
                )
            ])
        assert values[0] == values[1]


class TestTierConsistency:
    """Noiseless noisy tier, mitigation off, against the statevector tier."""

    SHOTS = 10**4

    @pytest.mark.parametrize("q", [2, 3])
    def test_expectation_and_overlap_match_statevector(self, q):
        rng = RNG(40 + q)
        obs, _ = random_observable(q, rng)
        exact = Estimator(q=q, tier="statevector")
        noisy = Estimator(
            q=q, tier="noisy", noise=NoiseModel.noiseless(q + 1), shots=self.SHOTS,
            seed=41 + q, mitigate_readout=False, mitigate_zne=False,
        )
        a, b = (rng.uniform(-np.pi, np.pi, ansatz_parameter_count(q)) for _ in range(2))
        sigma = noisy.statistical_sigma(obs)
        got, expected = noisy.expectation(obs, a).real, exact.expectation(obs, a).real
        assert abs(got - expected) < 5 * sigma
        sigma = 0.5 / math.sqrt(self.SHOTS)  # binomial bound for P(all zeros)
        for x, y in [(a, b), (a, a)]:
            got, expected = noisy.overlap_lowdepth(x, y), exact.overlap_lowdepth(x, y)
            assert abs(got - expected) < 5 * sigma


class TestPovmCache:
    """The effective-POVM cache lives on one noise model and no other."""

    TAIL = Circuit(3, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("h", (0,))))

    def profile_and_reduced(self):
        profile = load_noise_profile(bundled_profile_path())
        reduced = load_noise_profile(bundled_profile_path())
        reduced.gate_noise_reduction_factor = 1e4
        return scale_noise(profile), scale_noise(reduced)

    def test_scale_noise_starts_an_empty_cache(self):
        profile, _ = self.profile_and_reduced()
        profile.povm("key", lambda: np.zeros(1))
        scaled = scale_noise(profile)
        assert scaled._povm_cache == {}
        assert "key" in profile._povm_cache

    def test_reduced_noise_changes_the_operators(self):
        profile, reduced = self.profile_and_reduced()
        m_profile = effective_povm(self.TAIL, profile, (0,))
        m_reduced = effective_povm(self.TAIL, reduced, (0,))
        assert np.max(np.abs(m_profile - m_reduced)) > 1e-4

    def test_estimator_never_reads_another_models_entries(self):
        profile, reduced = self.profile_and_reduced()
        obs = PauliSum(2, {"ZX": 0.7, "YY": -0.4})
        params = RNG(30).uniform(-np.pi, np.pi, 16)
        overlap_with = RNG(31).uniform(-np.pi, np.pi, 16)

        def run(noise):
            est = Estimator(q=2, tier="noisy", noise=noise, shots=2048, seed=32)
            return est.expectation(obs, params), est.overlap_lowdepth(params, overlap_with)

        run(profile)
        assert profile._povm_cache
        for key in profile._povm_cache:  # poison every entry of the base model
            profile._povm_cache[key] = np.full_like(profile._povm_cache[key], np.nan)
        _, fresh = self.profile_and_reduced()
        assert run(reduced) == run(fresh)
        assert all(np.all(np.isfinite(m)) for m in reduced._povm_cache.values())
        assert reduced._povm_cache.keys() == profile._povm_cache.keys()

    def test_threads_sharing_a_cold_cache_agree_with_one_thread(self):
        # more threads than cores race to build the same operators
        noise, _ = self.profile_and_reduced()
        obs = PauliSum(2, {"ZX": 0.7, "YY": -0.4, "XI": 0.2})
        params = RNG(33).uniform(-np.pi, np.pi, 16)

        def estimate(model):
            est = Estimator(q=2, tier="noisy", noise=model, shots=512, seed=34)
            return est.expectation(obs, params)

        expected = estimate(self.profile_and_reduced()[0])
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(estimate(noise)))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4
