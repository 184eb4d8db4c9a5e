import functools
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrive import estimator as estimator_module
from qdrive import simulator
from qdrive.circuits import (
    ANSATZ_LAYERS,
    Circuit,
    Gate,
    ansatz_layout,
    ansatz_parameter_count,
    build_ansatz,
)
from qdrive.config import bundled_profile_path
from qdrive.estimator import TIERS, ZNE_SCALES, Estimator, measurement_rotation
from qdrive.mitigation import fold_circuit
from qdrive.optimize import pseudovariance_objective, vqd_objective
from qdrive.model import Grid, PotentialModel
from qdrive.pauli import PauliSum, decompose, qwc_groups
from qdrive.pipeline import build_problem
from qdrive.simulator import (
    Checkpoints,
    density_matrix,
    effective_povm,
    load_noise_profile,
    outcome_probabilities,
    scale_noise,
    statevector,
)
from tests.reference import noiseless
from tests.test_simulator import torino_like

RNG = np.random.default_rng
# the ansatz's blocks: a rotation column, then each layer's CX chain and columns
BLOCKS = ANSATZ_LAYERS + 1


def random_observable(q, rng):
    """A random Hermitian operator as a Pauli sum and a dense matrix."""
    dim = 2**q
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
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
            psi = statevector(build_ansatz(params, est.q))
            expected = np.vdot(psi, dense @ psi)
            got = est.expectation(obs, params)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_size_mismatch_rejected(self):
        est = Estimator(q=2, tier="statevector")
        with pytest.raises(ValueError, match="qubits"):
            est.expectation(PauliSum(1, {"Z": 1.0}), np.zeros(16))


class TestHadamardTest:
    """One word's estimate, the figure the ancilla Hadamard test gave per
    word; each word is now read from its qubit-wise-commuting group."""

    def test_identity_word_analytic(self):
        est = Estimator(q=2, tier="shots", seed=1)
        assert est.expectation(PauliSum(2, {"II": 1.0}), np.zeros(16)) == 1.0
        assert est.circuits_run == 0

    def test_z_on_vacuum(self):
        est = Estimator(q=1, tier="shots", shots=100, seed=1)
        assert est.expectation(PauliSum(1, {"Z": 1.0}), np.zeros(8)) == pytest.approx(1.0)

    @pytest.mark.parametrize("word", ["XZ", "YI", "ZZ"])
    def test_statevector_matches_contraction(self, word):
        rng = RNG(3)
        est = Estimator(q=2, tier="shots")
        from qdrive.pauli import word_to_dense

        signs = estimator_module._parity_signs(word)
        for _ in range(3):
            params = rng.uniform(-np.pi, np.pi, 16)
            psi = statevector(build_ansatz(params, est.q))
            expected = np.vdot(psi, word_to_dense(word) @ psi).real
            got = est._group_reads(psi[None], [word])[0] @ signs
            assert got == pytest.approx(expected, abs=1e-10)

    def test_shots_within_binomial_bound(self):
        n = 10**5
        rng = RNG(4)
        from qdrive.pauli import word_to_dense

        exact_est = Estimator(q=2, tier="statevector")
        shot_est = Estimator(q=2, tier="shots", shots=n, seed=5)
        params = rng.uniform(-np.pi, np.pi, 16)
        psi = statevector(build_ansatz(params, exact_est.q))
        expected = np.vdot(psi, word_to_dense("XZ") @ psi).real
        got = shot_est.expectation(PauliSum(2, {"XZ": 1.0}), params).real
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
            psi_a = statevector(build_ansatz(a, est.q))
            psi_b = statevector(build_ansatz(b, est.q))
            expected = abs(np.vdot(psi_b, psi_a)) ** 2
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

    @pytest.mark.parametrize("build", [
        lambda noise: Estimator(q=3, tier="noisy", noise=noise),
        lambda noise: Estimator(q=3, tier="noisy", noise=noise, mitigate_readout=False),
        lambda noise: Estimator(q=3, tier="noisy", noise=noise, mitigate_zne=False),
        lambda noise: Checkpoints(3, noise),
        lambda noise: Checkpoints(3, noise, ZNE_SCALES),
    ], ids=["estimator", "no-readout", "no-zne", "checkpoints", "checkpoints-zne"])
    def test_a_profile_short_of_the_qubits_fails_when_built(self, build):
        # not at the first estimate: the readout inverse of the profile's 2
        # qubits would build without error
        with pytest.raises(ValueError, match="noise profile covers 2 qubits, circuit needs 3"):
            build(torino_like(2))

    @pytest.mark.parametrize("scales", [(2,), (1, 3, 4), (0,), (-1,), (1, -3)])
    def test_an_even_or_nonpositive_fold_scale_fails_when_built(self, scales):
        with pytest.raises(ValueError, match="fold scale must be an odd positive integer"):
            Checkpoints(2, torino_like(2), scales)

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
        est = Estimator(q=2, tier="noisy", noise=noise, shots=2048, seed=14)
        obs = PauliSum(2, {"II": 2.5, "ZZ": 0.5, "XI": 0.25})
        est.expectation(obs, RNG(15).uniform(-np.pi, np.pi, 16))
        # the record's distributions, by the bases of the groups read, and its word values
        assert sorted(est._last[2]) == ["XI", "ZZ"]
        assert sorted(est._last[3]) == ["XI", "ZZ"]

    def test_overlap_bounded(self):
        noise = torino_like(2)
        est = Estimator(q=2, tier="noisy", noise=noise, shots=2048, seed=18)
        rng = RNG(19)
        value = est.overlap_lowdepth(
            rng.uniform(-np.pi, np.pi, 16), rng.uniform(-np.pi, np.pi, 16)
        )
        assert 0.0 <= value <= 1.0

    def test_overlaps_with_one_state_prepare_it_once(self, monkeypatch):
        # a VQD evaluation with k priors evolves its states once, the 3 scales
        # as one stack, not 3k times
        rng = RNG(21)
        a, b1, b2 = (rng.uniform(-np.pi, np.pi, 16) for _ in range(3))
        # one model, whose tails' effective POVMs the reference builds
        noise = torino_like(2)
        reference = PreparedAfresh(q=2, tier="noisy", noise=noise, shots=2048, seed=22)
        expected = [reference.overlap_lowdepth(a, b) for b in (b1, b2)]
        evolved = []
        real = simulator.Checkpoints.prepare

        def counted(checkpoints, params):
            evolved.append(params)
            return real(checkpoints, params)

        monkeypatch.setattr(simulator.Checkpoints, "prepare", counted)
        applied = count_gate_applications(monkeypatch)
        est = Estimator(q=2, tier="noisy", noise=noise, shots=2048, seed=22)
        assert [est.overlap_lowdepth(a, b) for b in (b1, b2)] == expected
        assert len(evolved) == 1
        # every ansatz gate once, one product for all scales: a fold scale
        # costs no extra product
        assert len(applied) == len(build_ansatz(a, 2).gates)

    def test_energy_assembly_matches_split_paths(self):
        grid_rng = RNG(20)
        h = grid_rng.normal(size=(4, 4))
        v = -np.abs(grid_rng.normal(size=(4, 4)))
        h, v = 0.5 * (h + h.T), 0.5 * (v + v.T)
        h_sum, v_sum = decompose(h.astype(complex)), decompose(v.astype(complex))
        est = Estimator(q=2, tier="statevector")
        params = grid_rng.uniform(-np.pi, np.pi, 16)
        psi = statevector(build_ansatz(params, est.q))
        expected = np.vdot(psi, (h + 1j * v) @ psi)
        got = est.energy(params, h_sum, v_sum)
        assert got == pytest.approx(expected, abs=1e-10)


def count_gate_applications(monkeypatch) -> list:
    """The products that evolutions apply from now on, one entry each: the
    permutations of each gate's product, None for a block's (the adjoint
    evolutions that build effective POVMs apply them too)."""
    applied = []
    real = simulator._evolve

    def counted(state, steps, states=None):
        steps = list(steps)
        applied.extend(perm for _, perm in steps)
        return real(state, steps, states)

    monkeypatch.setattr(simulator, "_evolve", counted)
    return applied


class PreparedAfresh(Estimator):
    """Forgets every prepared state and checkpoint before each estimate, so
    each one evolves its states from |0..0>; the record keeps the last
    parameters' draws, as the estimator does, with their states prepared
    afresh too."""

    def _fresh(self) -> Checkpoints:
        noise = self.noise if self.tier == "noisy" else None
        return Checkpoints(self.q, noise, self._scales())

    def _forget(self):
        if self._last is not None:
            key, _, dists, values = self._last
            self._last = (key, self._fresh().prepare(np.frombuffer(key)), dists, values)
        self._checkpoints = self._fresh()

    def expectation(self, *args):
        self._forget()
        return super().expectation(*args)

    def overlap_lowdepth(self, *args):
        self._forget()
        return super().overlap_lowdepth(*args)


class TestSharedAnsatzState:
    """The exact and shot tiers prepare the ansatz once per evaluation."""

    @staticmethod
    def problem(rng):
        """H_N = H_H + i V_cap from two random Hermitian sums, with H_N^dag H_N."""
        (h_h, a), (v_cap, b) = random_observable(2, rng), random_observable(2, rng)
        m = a + 1j * b
        return h_h, v_cap, decompose(m.conj().T @ m)

    @staticmethod
    def count_preparations(monkeypatch) -> tuple[list, list, list]:
        """The angle vectors handed to ``Checkpoints.prepare``, the blocks
        whose matrices are formed and the gates whose matrices are formed."""
        calls, blocks, gates = [], [], []
        real, real_block = simulator.Checkpoints.prepare, simulator._block_matrix
        real_matrix = simulator.gate_matrix

        def counted(checkpoints, params):
            calls.append(params)
            return real(checkpoints, params)

        def counted_block(q, b, angles):
            blocks.append(b)
            return real_block(q, b, angles)

        def counted_matrix(gate):
            gates.append(gate)
            return real_matrix(gate)

        monkeypatch.setattr(simulator.Checkpoints, "prepare", counted)
        monkeypatch.setattr(simulator, "_block_matrix", counted_block)
        monkeypatch.setattr(simulator, "gate_matrix", counted_matrix)
        return calls, blocks, gates

    def test_pseudovariance_prepares_the_ansatz_once(self, monkeypatch):
        rng = RNG(50)
        h_h, v_cap, h_dag_h = self.problem(rng)
        est = Estimator(q=2, tier="statevector")
        calls, blocks, gates = self.count_preparations(monkeypatch)
        params = rng.uniform(-np.pi, np.pi, 16)
        applied = count_gate_applications(monkeypatch)
        pseudovariance_objective(params, h_h, v_cap, h_dag_h, est)
        assert len(calls) == 1
        # one matrix and one product per block, no gate by gate
        assert blocks == list(range(BLOCKS)) and len(applied) == BLOCKS
        assert gates == []
        (state,) = est._last[1]
        with pytest.raises(ValueError, match="read-only"):
            state[0] = 0.0
        # a step in the last angle forms and applies the last block only
        params[-1] += 0.5
        pseudovariance_objective(params, h_h, v_cap, h_dag_h, est)
        assert len(calls) == 2
        assert blocks == list(range(BLOCKS)) + [BLOCKS - 1]
        assert len(applied) == BLOCKS + 1

    def test_vqd_prepares_one_head_and_one_tail_per_prior(self, monkeypatch):
        rng = RNG(51)
        h_h, _ = random_observable(2, rng)
        params, *priors = (rng.uniform(-np.pi, np.pi, 16) for _ in range(3))
        est = Estimator(q=2, tier="statevector")
        calls, blocks, gates = self.count_preparations(monkeypatch)
        vqd_objective(params, h_h, priors, 10.0, est)
        # the head is prepared; each prior's tail is its dense U^dag, formed
        # from its block matrices once
        assert len(calls) == 1
        assert blocks == list(range(BLOCKS)) * (1 + 2)
        assert gates == []
        assert len(est._tails) == 2
        # a step in one angle forms its block's matrix alone: each prior's
        # tail is kept, and applied once per evaluation
        params[3] += 0.5
        vqd_objective(params, h_h, priors, 10.0, est)
        assert len(calls) == 2
        assert blocks == list(range(BLOCKS)) * (1 + 2) + [0]
        assert gates == []

    @pytest.mark.parametrize("tier", ["statevector", "shots"])
    def test_sharing_leaves_every_estimate_unchanged(self, tier):
        rng = RNG(52)
        h_h, v_cap, h_dag_h = self.problem(rng)
        priors = [rng.uniform(-np.pi, np.pi, 16) for _ in range(2)]
        values = []
        for cls in (Estimator, PreparedAfresh):
            est = cls(q=2, tier=tier, shots=4096, seed=53)
            evals = np.random.default_rng(54)
            values.append([
                objective(evals.uniform(-np.pi, np.pi, 16))
                for _ in range(3)
                for objective in (
                    lambda x: pseudovariance_objective(x, h_h, v_cap, h_dag_h, est),
                    lambda x: vqd_objective(x, h_h, priors, 10.0, est),
                )
            ])
        assert values[0] == values[1]


class TestPauliGroups:
    """Every word is read from one distribution per qubit-wise-commuting
    group and fold scale."""

    NOISE = load_noise_profile(bundled_profile_path())

    @staticmethod
    @functools.cache
    def problem():
        return build_problem(PotentialModel(lam=0.1, j=0.8, x0=8.0), Grid(), "even", 2)

    def estimator(self, tier="noisy", seed=72, **kwargs):
        return Estimator(q=2, tier=tier, noise=self.NOISE, shots=2000, seed=seed,
                         groups=self.problem().groups, **kwargs)

    @pytest.mark.parametrize("q", [2, 3])
    def test_group_povm_gives_the_forward_distribution(self, q):
        rng = RNG(70 + q)
        noise = torino_like(q, readout=np.array([[[0.97, 0.03], [0.05, 0.95]]] * q))
        est = Estimator(q=q, tier="noisy", noise=noise)
        params = rng.uniform(-np.pi, np.pi, ansatz_parameter_count(q))
        ansatz = build_ansatz(params, q)
        bases = ["".join(rng.choice(list("IXYZ"), q)) for _ in range(6)]
        states = est._checkpoints.prepare(params)
        rows = est._group_reads(states, bases).reshape(6, len(ZNE_SCALES), -1)
        for basis, per_scale in zip(bases, rows):
            rotation = measurement_rotation(basis).gates
            for lam, got in zip(ZNE_SCALES, per_scale):
                circuit = fold_circuit(Circuit(q, ansatz.gates + rotation), lam)
                rho = density_matrix(circuit, noise)
                expected = outcome_probabilities(rho, q, readout=noise.readout)
                assert np.max(np.abs(got - expected)) < 1e-12

    def test_one_distribution_per_group_and_scale(self):
        problem = self.problem()
        assert len(set(problem.groups.values())) == 9
        x, *priors = (RNG(71).uniform(-np.pi, np.pi, (3, 16)))
        est = self.estimator()
        sigma2 = pseudovariance_objective(x, problem.h_h, problem.v_cap, problem.h_dag_h, est)
        assert est.circuits_run == 27
        # the energy and the second moment came from those draws
        energy = est.energy(x, problem.h_h, problem.v_cap)
        assert sigma2 == est.expectation(problem.h_dag_h, x).real - abs(energy) ** 2
        assert est.circuits_run == 27
        # the h_h words span 5 groups; each prior adds one overlap per scale
        for k in range(3):
            est = self.estimator()
            vqd_objective(x, problem.h_h, priors[:k], 10.0, est)
            assert est.circuits_run == 15 + 3 * k

    def test_new_parameters_draw_again(self):
        problem = self.problem()
        x = RNG(73).uniform(-np.pi, np.pi, 16)
        est = self.estimator(tier="shots")
        first = est.expectation(problem.h_h, x)
        assert est.expectation(problem.h_h, x) == first
        assert est.expectation(problem.h_h, x + 0.0) == first
        est.expectation(problem.h_h, x + 1e-3)
        assert est.expectation(problem.h_h, x) != first
        assert est.circuits_run == 3 * 5

    @pytest.mark.parametrize("tier", ["shots", "noisy"])
    def test_statistical_sigma_bounds_the_spread(self, tier):
        # the words of a group share their shots: their errors correlate
        problem = self.problem()
        x = RNG(8).uniform(-np.pi, np.pi, 16)
        for obs in (problem.h_h, problem.v_cap, problem.h_dag_h):
            values = [
                self.estimator(tier, seed=seed).expectation(obs, x).real
                for seed in range(200)
            ]
            assert np.std(values, ddof=1) <= self.estimator(tier).statistical_sigma(obs)

    @pytest.mark.parametrize("tier", ["shots", "noisy"])
    def test_overlap_sigma_bounds_the_spread(self, tier):
        # an overlap near 0.4, where the binomial spread is close to its
        # largest; the noisy estimator inverts the readout and extrapolates
        x, prior = RNG(11).uniform(-np.pi, np.pi, (2, 16))
        values = [
            self.estimator(tier, seed=seed).overlap_lowdepth(x, prior)
            for seed in range(200)
        ]
        assert np.std(values, ddof=1) <= self.estimator(tier).overlap_sigma()

    def test_overlap_sigma_is_zero_on_the_statevector_tier(self):
        assert self.estimator("statevector").overlap_sigma() == 0.0

    def test_words_outside_the_groups_form_new_groups(self):
        est = Estimator(q=2, tier="shots", seed=74)
        est.expectation(PauliSum(2, {"XX": 0.5, "XI": 0.2, "IZ": -0.3, "YI": 0.1}), np.zeros(16))
        assert list(dict.fromkeys(est.groups.values())) == ["XX", "YZ"]
        est.expectation(PauliSum(2, {"ZZ": 0.5, "XI": 0.2}), np.zeros(16))
        assert list(dict.fromkeys(est.groups.values())) == ["XX", "YZ", "ZZ"]
        assert est.circuits_run == 3


def group_probabilities(est: Estimator, state, basis: str, lam: int) -> np.ndarray:
    """The reference for the batched group read: one (basis, scale) row on its
    own, on the noisy tier contracted one qubit at a time with each qubit's
    2 x 4 POVM factor, as the estimator read each row before."""
    if est.tier != "noisy":
        return est._probabilities(state, measurement_rotation(basis), lam)
    pairs = [i for k in range(est.q) for i in (k, est.q + k)]
    t = state.reshape((2,) * (2 * est.q)).transpose(pairs)
    for k, letter in enumerate(basis):
        tail = measurement_rotation(letter)
        factor = est.noise.povm((k, tail, lam), lambda: effective_povm(
            tail, est.noise.restricted((k,)), lam
        ).transpose(0, 2, 1).reshape(2, 4))
        # contract the leading pair; the outcome axis goes last
        t = (factor @ t.reshape(4, -1)).T
    return t.real.reshape(-1)


class PerHistogram(Estimator):
    """The reference for the batched draws: the estimator as it sampled one
    histogram per call, in the order the estimates needed them, each read
    by :func:`group_probabilities`.  Its ``_distribution`` spells out
    ``sample_shots`` and ``invert_distribution`` as they were for one
    distribution."""

    def _distribution(self, probs):
        if self.tier == "statevector":
            return probs
        probs = np.clip(probs, 0.0, None)
        probs = np.clip(probs / probs.sum(), 0.0, None)  # then sample_shots's own
        dist = self.rng.multinomial(self.shots, probs / probs.sum()) / self.shots
        self.circuits_run += 1
        if self._inverse is None:
            return dist
        flat = np.clip(self._inverse @ dist, 0.0, None)
        total = flat.sum()
        return np.full_like(flat, 1.0 / flat.size) if total <= 0 else flat / total

    def _read(self, params, words):
        states, dists, values = self._record(params)
        missing = [w for w in words if w not in values]
        self._group(missing)
        for word in missing:
            basis = self.groups[word]
            if basis not in dists:
                dists[basis] = [
                    self._distribution(group_probabilities(self, state, basis, lam))
                    for lam, state in zip(self._scales(), states)
                ]
            signs = estimator_module._parity_signs(word)
            values[word] = self._maybe_extrapolate(
                [float(d @ signs) for d in dists[basis]], mode="expectation"
            )
        return [values[w] for w in words]

    def overlap_lowdepth(self, params_a, params_b):
        heads = self._record(params_a)[0]
        key = np.asarray(params_b, dtype=float).tobytes()
        tail = self._tails.get(key)
        if tail is None:
            tail = self._tails[key] = build_ansatz(params_b, self.q).inverse()
        xs = [
            float(self._distribution(self._probabilities(head, tail, lam))[0])
            for lam, head in zip(self._scales(), heads)
        ]
        return self._maybe_extrapolate(xs, mode="probability")


def words_on(q: int):
    letters = st.text("IXYZ", min_size=q, max_size=q).filter(lambda w: w != "I" * q)
    return st.lists(letters, min_size=1, max_size=8, unique=True)


class TestBatchedSampling:
    """One evaluation's histograms, drawn in one batch, are bitwise the ones
    drawn one at a time: the same rows in the same order from the same
    generator, each clipped, normalized and inverted as it was."""

    NOISE = torino_like(4, readout=np.array([[[0.97, 0.03], [0.06, 0.94]]] * 4))

    @settings(deadline=None, max_examples=60)
    @given(
        data=st.data(),
        tier=st.sampled_from(["shots", "noisy"]),
        readout=st.booleans(),
        zne=st.booleans(),
        q=st.integers(1, 3),
    )
    def test_batched_draws_equal_one_draw_per_histogram(self, data, tier, readout, zne, q):
        words = data.draw(words_on(q), label="words")
        # the groups open in one order and the terms reach them in another
        grouped = data.draw(st.permutations(words), label="group order")
        first, second = (
            PauliSum(q, {w: 1.0 + 0.25 * k for k, w in enumerate(order)})
            for order in (words, data.draw(st.permutations(words), label="term order"))
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        runs = []
        for cls in (Estimator, PerHistogram):
            est = cls(q=q, tier=tier, noise=self.NOISE, shots=997, seed=seed,
                      mitigate_readout=readout, mitigate_zne=zne, groups=qwc_groups(grouped))
            rng = RNG(seed)
            x, prior = rng.uniform(-np.pi, np.pi, (2, ansatz_parameter_count(q)))
            values = []
            for step in range(3):
                x[step] += 0.5  # an optimizer's coordinate step
                values += [est.expectation(first, x), est.expectation(second, x),
                           est.overlap_lowdepth(x, prior), est.overlap_lowdepth(x, x)]
            runs.append((values, est.circuits_run, est.rng.bit_generator.state))
        assert runs[0] == runs[1]


class TestTierConsistency:
    """Noiseless noisy tier, mitigation off, against the statevector tier."""

    SHOTS = 10**4

    @pytest.mark.parametrize("q", [2, 3])
    def test_expectation_and_overlap_match_statevector(self, q):
        rng = RNG(40 + q)
        obs, _ = random_observable(q, rng)
        exact = Estimator(q=q, tier="statevector")
        noisy = Estimator(
            q=q, tier="noisy", noise=noiseless(q + 1), shots=self.SHOTS,
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
        return scale_noise(profile), scale_noise(profile, reduction=1e4)

    def test_scale_noise_starts_an_empty_cache(self):
        profile, _ = self.profile_and_reduced()
        profile.povm("key", lambda: np.zeros(1))
        scaled = scale_noise(profile)
        assert scaled._povm_cache == {}
        assert "key" in profile._povm_cache

    def test_reduced_noise_changes_the_operators(self):
        profile, reduced = self.profile_and_reduced()
        m_profile = effective_povm(self.TAIL, profile)
        m_reduced = effective_povm(self.TAIL, reduced)
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


ANGLES = st.sampled_from([0.0, -0.0, math.pi, -math.pi]) | st.floats(-math.pi, math.pi)


def angle_vectors(q: int):
    m = ansatz_parameter_count(q)
    return st.lists(ANGLES, min_size=m, max_size=m).map(np.array)


def fresh_steps(params, q: int, est: Estimator) -> list[bytes]:
    """Each position's matrix on ``est``'s tier at ``params``, formed afresh:
    a block's on a statevector, a gate's stack of S_lam on the noisy tier."""
    if est.tier != "noisy":
        blocks = enumerate(simulator._blocks(q))
        return [simulator._block_matrix(q, b, params[lo:hi]).tobytes() for b, ((lo, hi), *_) in blocks]
    gates = build_ansatz(params, q).gates
    return [simulator._gate_superops(g, est.noise, est._scales()).tobytes() for g in gates]


def fresh_blocks(params, q: int) -> np.ndarray:
    """The ansatz state of ``params`` prepared by blocks from |0..0>."""
    return Checkpoints(q).prepare(params)[0]


def circuit_overlap(params_a, params_b, q: int) -> np.ndarray:
    """The outcome distribution of the prior's inverted ansatz run on the
    state: the circuit path that each overlap reads P(all zeros) from."""
    psi_a = statevector(build_ansatz(params_a, q))
    return outcome_probabilities(statevector(build_ansatz(params_b, q).inverse(), psi_a), q)


class TestResumedPreparation:
    """A preparation that resumes from the last one's checkpoints gives,
    read-only, bitwise the state prepared from |0..0> (by blocks on a
    statevector, by gates on the noisy tier), and each prior's dense overlap
    tail gives the circuit's distribution."""

    NOISE = torino_like(4)

    @settings(deadline=None, max_examples=80)
    @given(data=st.data(), tier=st.sampled_from(TIERS), zne=st.booleans())
    def test_resumed_state_is_the_fresh_one(self, data, tier, zne):
        q = data.draw(st.integers(1, 4 if tier == "noisy" else 6), label="qubits")
        est = Estimator(q=q, tier=tier, noise=self.NOISE, mitigate_zne=zne)
        params = data.draw(angle_vectors(q), label="start")
        priors = data.draw(st.lists(angle_vectors(q), max_size=2), label="priors")
        for _ in range(data.draw(st.integers(1, 6), label="preparations")):
            move = data.draw(st.sampled_from(["point", "step", "sign", "repeat"]), label="move")
            k = data.draw(st.integers(0, len(params) - 1), label="angle")
            if move == "point":
                params = data.draw(angle_vectors(q), label="point")
            elif move == "step":
                params[k] = data.draw(ANGLES, label="value")
            elif move == "sign":  # flips the sign bit of a zero too
                params[k] = -params[k]
            stack = est._checkpoints.prepare(params)
            assert len(stack) == len(est._scales())
            for lam, got in zip(est._scales(), stack):
                # each scale's slice is the state evolved at that scale alone
                if tier == "noisy":
                    fresh = density_matrix(build_ansatz(params, q), self.NOISE, lam=lam)
                else:
                    fresh = fresh_blocks(params, q)
                    gate_by_gate = statevector(build_ansatz(params, q))
                    assert np.max(np.abs(got - gate_by_gate)) < 1e-12
                    assert abs(np.linalg.norm(got) - 1.0) < 1e-12
                assert np.array_equal(got, fresh)
                assert got.tobytes() == fresh.tobytes()  # signed zeros too
                assert not got.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    got.flat[0] = 0.0
            # every kept matrix is the one its gate forms now
            kept = [m.tobytes() for m, _ in est._checkpoints.steps]
            assert kept == fresh_steps(params, q, est)
            if tier == "noisy":
                continue
            for prior in priors:
                value = est.overlap_lowdepth(params, prior)
                tail = est._tails[prior.tobytes()]
                expected = circuit_overlap(params, prior, q)
                assert np.max(np.abs(est._probabilities(stack[0], tail, 1) - expected)) < 1e-12
                if tier == "statevector":
                    phi_a, phi_b = (statevector(build_ansatz(x, q)) for x in (params, prior))
                    assert abs(value - abs(np.vdot(phi_b, phi_a)) ** 2) < 1e-12

    def test_signed_zero_angles_are_different_gates(self):
        # the sign of a zero RY angle reaches its block's matrix; angle 5 is
        # in block 1, after the first block's four
        est = Estimator(q=2, tier="statevector")
        params = RNG(1).uniform(-np.pi, np.pi, 16)
        kept = []
        for zero in (0.0, -0.0):
            params[5] = zero
            est._checkpoints.prepare(params)
            kept.append(est._checkpoints.steps[1][0].tobytes())
            assert kept[-1] == simulator._block_matrix(2, 1, params[4:8]).tobytes()
        assert kept[0] != kept[1]

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), q=st.integers(1, 6), steps=st.integers(1, 8))
    def test_a_one_angle_step_forms_one_block_matrix(self, data, q, steps):
        # one-angle steps, as an optimizer takes them: a changed angle forms
        # the matrix of its block alone, and the state evolves from it on
        params = data.draw(angle_vectors(q), label="start")
        checkpoints = Checkpoints(q)
        checkpoints.prepare(params)
        formed = []
        real = simulator._block_matrix

        def counted(q, b, angles):
            formed.append(b)
            return real(q, b, angles)

        for _ in range(steps):
            k = data.draw(st.integers(0, len(params) - 1), label="angle")
            last, params = params, params.copy()
            params[k] = data.draw(ANGLES | st.sampled_from(list(params)), label="value")
            formed.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(simulator, "_block_matrix", counted)
                applied = count_gate_applications(patch)
                got = checkpoints.prepare(params)[0]
            b = k // (2 * q)
            changed = last[k].tobytes() != params[k].tobytes()
            assert formed == ([b] if changed else [])
            assert len(applied) == (BLOCKS - b if changed else 0)
            assert got.tobytes() == fresh_blocks(params, q).tobytes()

    @pytest.mark.parametrize("lam", ZNE_SCALES)
    def test_a_coordinate_step_evolves_from_its_gate_on(self, lam, monkeypatch):
        # the scales up to lam, evolved as one stack: one product per gate
        # whatever the number of scales
        scales = tuple(s for s in ZNE_SCALES if s <= lam)
        checkpoints = Checkpoints(2, self.NOISE, scales)
        params = RNG(60).uniform(-np.pi, np.pi, 16)
        checkpoints.prepare(params)
        applied = count_gate_applications(monkeypatch)
        params[-3] = -0.0 if params[-3] == 0.0 else 0.0  # the third-last gate
        stack = checkpoints.prepare(params)
        assert len(applied) == 3
        assert stack.shape == (len(scales), 4, 4)

    @settings(deadline=None, max_examples=40)
    @given(
        data=st.data(),
        zne=st.booleans(),
        q=st.integers(1, 3),
        steps=st.integers(1, 12),
    )
    def test_reused_superoperators_give_the_fresh_state(self, data, zne, q, steps):
        # one-angle steps, as an optimizer takes them: each builds the stack
        # of S_lam for the gate it changes only, and reuses every other gate's
        params = RNG(q).uniform(-np.pi, np.pi, ansatz_parameter_count(q))
        est = Estimator(q=q, tier="noisy", noise=self.NOISE, mitigate_zne=zne)
        est._checkpoints.prepare(params)
        built = []
        real = simulator._gate_superops

        def counted(gate, *args):
            built.append(gate)
            return real(gate, *args)

        for _ in range(steps):
            k = data.draw(st.integers(0, len(params) - 1), label="angle")
            last, params = params, params.copy()
            params[k] = data.draw(ANGLES | st.sampled_from(list(params)), label="value")
            built.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(simulator, "_gate_superops", counted)
                stack = est._checkpoints.prepare(params)
            for lam, got in zip(est._scales(), stack):
                fresh = density_matrix(build_ansatz(params, q), self.NOISE, lam=lam)
                assert np.array_equal(got, fresh)
                assert got.tobytes() == fresh.tobytes()
            changed = [
                Gate(kind, qubits, float(params[a])) for kind, qubits, a in ansatz_layout(q)
                if a is not None and last[a].tobytes() != params[a].tobytes()
            ]
            assert len(changed) <= 1
            # S and, above scale 1, the S' of the gate's inverse are formed
            # once for all the scales, not once per scale
            pairs = [(gate, gate.inverse()) if zne else (gate,) for gate in changed]
            assert built == [g for pair in pairs for g in pair]

    def test_the_reused_superoperators_stay_one_per_gate(self):
        est = Estimator(q=2, tier="noisy", noise=self.NOISE)
        rng = RNG(61)
        params = rng.uniform(-np.pi, np.pi, 16)
        for _ in range(2000):
            params[rng.integers(16)] = rng.uniform(-np.pi, np.pi)
            est._record(params)
        n_gates = len(build_ansatz(params, 2).gates)
        assert len(est._checkpoints.steps) == n_gates
        assert len(est._checkpoints.states) == n_gates
        # one stack per gate, one S_lam per scale
        assert {m.shape[0] for m, _ in est._checkpoints.steps} == {len(ZNE_SCALES)}


class TestBatchedRead:
    """The rows of one read, every (group, scale) pair contracted together,
    are bitwise the rows read one at a time."""

    @settings(deadline=None, max_examples=40)
    @given(
        data=st.data(),
        tier=st.sampled_from(["shots", "noisy"]),
        zne=st.booleans(),
        q=st.integers(1, 3),
    )
    def test_batched_read_equals_the_row_by_row_read(self, data, tier, zne, q):
        noise = torino_like(q, readout=np.array([[[0.96, 0.04], [0.07, 0.93]]] * q))
        est = Estimator(q=q, tier=tier, noise=noise, mitigate_zne=zne)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        states, _, _ = est._record(RNG(seed).uniform(-np.pi, np.pi, ansatz_parameter_count(q)))
        # every basis, in a drawn order, and a drawn few on their own
        every = ["".join(letters) for letters in itertools.product("IXYZ", repeat=q)]
        few = data.draw(st.lists(st.sampled_from(every), min_size=1, max_size=4, unique=True))
        for bases in (data.draw(st.permutations(every), label="order"), few):
            got = est._group_reads(states, bases)
            expected = np.array([
                group_probabilities(est, state, basis, lam)
                for basis in bases for lam, state in zip(est._scales(), states)
            ])
            assert got.shape == expected.shape == (len(bases) * len(est._scales()), 2**q)
            assert got.tobytes() == expected.tobytes()
