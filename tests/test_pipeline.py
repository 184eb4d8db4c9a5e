import functools
import json

import numpy as np
import pytest

from qdrive import estimator as estimator_module
from qdrive import pauli
from qdrive.circuits import ansatz_parameter_count, build_ansatz
from qdrive.config import build_plan, load_config
from qdrive.estimator import Estimator
from qdrive.model import (
    Grid,
    PotentialModel,
    exact_diagonalize,
)
from qdrive.pipeline import (
    ResonanceRecord,
    RunPlan,
    build_problem,
    compute_fidelity_error,
    deduplicate,
    filter_spurious,
    match_targets,
    pool_batches,
    run_hermitian_stage,
    run_nonhermitian_stage,
)
from qdrive.simulator import statevector

BENCHMARK = PotentialModel(lam=0.1, j=0.8, x0=8.0)


@pytest.fixture(scope="module")
def grid():
    return Grid()


@functools.cache
def problem(parity: str, q: int):
    return build_problem(BENCHMARK, Grid(), parity, q)


@pytest.fixture(scope="module")
def q2_even():
    return problem("even", 2)


@pytest.fixture(scope="module")
def sv_plan():
    return make_plan(q=2, n_even=4, batch_size=2, seed=77)


def make_plan(q, n_even, batch_size, seed):
    return build_plan(load_config(None, {
        "q": q, "parities": ["even"], "n_states": {"even": n_even},
        "batch_size": batch_size, "tier": "statevector", "seed": seed,
    }))


def make_record(index=1, run_id=0, sigma2=0.1, energy=(1.0, -0.01), params=None,
                parity="even", q=2):
    if params is None:
        params = list(np.zeros(8 * q))
    return ResonanceRecord(
        parity=parity,
        index=index,
        run_id=run_id,
        batch_id="batch0",
        params=list(params),
        energy_re=energy[0],
        energy_im=energy[1],
        sigma2=sigma2,
        warm_start_value=1.0,
        converged=True,
        evaluations=10,
    )


class TestBuildProblem:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_h_dag_h_is_the_dense_product(self, q, parity):
        pair = problem(parity, q).pair
        m = pair.h_h + 1j * pair.v_cap
        h_dag_h = problem(parity, q).h_dag_h
        tol = 1e-10 * np.linalg.norm(m, 2) ** 2
        assert len(h_dag_h.terms) == 4**q
        assert max(abs(c.imag) for c in h_dag_h.terms.values()) <= tol
        assert np.abs(h_dag_h.to_dense() - m.conj().T @ m).max() <= tol

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("q, n_groups, n_h_h_groups", [(2, 9, 5), (3, 27, 11), (4, 81, 23)])
    def test_group_counts(self, q, parity, n_groups, n_h_h_groups):
        # these counts pin the shot and noisy draws
        channel = problem(parity, q)
        words = set(channel.h_h.terms) | set(channel.v_cap.terms) | set(channel.h_dag_h.terms)
        assert set(channel.groups) == words - {"I" * q}
        assert len(set(channel.groups.values())) == n_groups
        h_h_words = set(channel.h_h.terms) - {"I" * q}
        assert len({channel.groups[w] for w in h_h_words}) == n_h_h_groups

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_penalty_is_above_the_spectral_width(self, q, parity):
        # a penalty above E_max - E_min of H_H makes every deflated stage's
        # minimum the next eigenstate (Higgott, Wang & Brierley)
        channel = problem(parity, q)
        eigenvalues = np.linalg.eigvalsh(channel.pair.h_h)
        assert channel.penalty >= eigenvalues[-1] - eigenvalues[0]

    def test_penalty_does_not_depend_on_term_order(self, monkeypatch):
        # a plain sum of these 32 coefficients rounds differently in other orders
        reference = problem("even", 3).penalty
        decompose = pauli.decompose
        for seed in range(5):
            order = np.random.default_rng(seed).permutation

            def shuffled(matrix):
                terms = list(decompose(matrix).terms.items())
                return pauli.PauliSum(3, dict(terms[i] for i in order(len(terms))))

            monkeypatch.setattr(pauli, "decompose", shuffled)
            assert build_problem(BENCHMARK, Grid(), "even", 3).penalty == reference

    def test_estimator_reads_every_word_from_the_problem_groups(self, monkeypatch):
        channel = problem("even", 5)
        assert (len(channel.h_dag_h.terms), len(set(channel.groups.values()))) == (1024, 243)

        def regroup(words):
            raise AssertionError(f"regrouped {list(words)[:3]}")

        monkeypatch.setattr(estimator_module, "qwc_groups", regroup)
        est = Estimator(q=5, tier="shots", shots=100, seed=1, groups=channel.groups)
        x = np.random.default_rng(2).uniform(-np.pi, np.pi, ansatz_parameter_count(5))
        est.expectation(channel.h_dag_h, x)
        assert est.groups == channel.groups
        assert est.circuits_run == 243


class TestHermitianStage:
    def test_ground_state_energy(self, q2_even, sv_plan):
        exact = np.sort(np.linalg.eigvalsh(q2_even.pair.h_h))[0]
        stage = run_hermitian_stage(1, [], q2_even, sv_plan, run_id=0)
        assert abs(stage["energy"] - exact) / abs(exact) < 0.005

    def test_deflation_pushes_second_state_off_first(self, q2_even, sv_plan):
        first = run_hermitian_stage(1, [], q2_even, sv_plan, run_id=0)
        theta1 = np.asarray(first["theta"])
        second = run_hermitian_stage(2, [theta1], q2_even, sv_plan, run_id=0)
        assert second["overlaps"][0] < 0.01

    def test_empty_priors_is_plain_vqe(self, q2_even, sv_plan):
        stage = run_hermitian_stage(1, [], q2_even, sv_plan, run_id=1)
        assert stage["overlaps"] == []
        assert stage["converged"]
        # NFT stops once a sweep no longer lowers the energy, at the ground state
        assert stage["evaluations"] < sv_plan.hermitian_cfg.f_max
        assert abs(stage["energy"] - np.linalg.eigvalsh(q2_even.pair.h_h)[0]) < 1e-10

    def test_null_penalty_is_the_channel_penalty(self, q2_even):
        # penalty_c: null deflates with the channel's derived penalty; a number fixes it
        prior = np.random.default_rng(5).uniform(-np.pi, np.pi, 16)

        def deflated(penalty_c):
            plan = build_plan(load_config(None, {
                "q": 2, "parities": ["even"], "tier": "statevector", "seed": 5,
                "optimizer": {"penalty_c": penalty_c, "hermitian_f_max": 100},
            }))
            return run_hermitian_stage(2, [prior], q2_even, plan, run_id=0)

        assert q2_even.penalty == pytest.approx(3.278, abs=1e-3)
        assert deflated(None) == deflated(q2_even.penalty) != deflated(100)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_deflated_noisy_stage_keeps_nft(self, q2_even, seed):
        # the NFT fit check allows for the shot noise of the penalized
        # overlap, not of <H_H> alone (sizes of the noisy_chain benchmark)
        plan = build_plan(load_config(None, {
            "q": 2, "parities": ["even"], "n_states": {"even": 2}, "batch_size": 1,
            "tier": "noisy", "seed": seed, "shots": 10000,
            "mitigation": {"readout": True, "zne": True},
            "optimizer": {"hermitian_f_max": 40},
        }))
        first = run_hermitian_stage(1, [], q2_even, plan, run_id=0)
        second = run_hermitian_stage(2, [np.asarray(first["theta"])], q2_even, plan, run_id=0)
        assert second["optimizer"] == "nft"


class TestNonHermitianStage:
    def test_capless_problem_keeps_warm_start(self, grid):
        # with the absorber onset beyond the box the warm start is optimal
        capless = PotentialModel(lam=0.1, j=0.8, x0=100.0)
        problem = build_problem(capless, grid, "even", 1)
        plan = make_plan(q=1, n_even=1, batch_size=1, seed=3)
        stage = run_hermitian_stage(1, [], problem, plan, run_id=0)
        record = run_nonhermitian_stage(1, np.asarray(stage["theta"]), problem, plan, 0)
        assert record.sigma2 < 1e-6
        assert abs(record.energy_im) < 1e-9
        assert record.converged

    def test_q3_bound_state_energy(self, grid):
        problem = build_problem(BENCHMARK, grid, "even", 3)
        plan = make_plan(q=3, n_even=1, batch_size=1, seed=11)
        stage = run_hermitian_stage(1, [], problem, plan, run_id=0)
        record = run_nonhermitian_stage(1, np.asarray(stage["theta"]), problem, plan, 0)
        reference = 0.504 - 2.48e-5j
        assert abs(record.energy - reference) / abs(reference) < 0.01
        assert record.sigma2 <= record.warm_start_value + 1e-12

    def test_final_energy_and_sigma2_share_one_draw(self, q2_even, monkeypatch):
        plan = build_plan(load_config(None, {
            "q": 2, "parities": ["even"], "n_states": {"even": 1}, "batch_size": 1,
            "tier": "noisy", "seed": 81, "shots": 1000, "final_shots_factor": 2,
            "optimizer": {"nonhermitian_f_max": 4},
        }))
        made = []
        make = RunPlan.make_estimator

        def spy(self, *args, **kwargs):
            made.append(make(self, *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(RunPlan, "make_estimator", spy)
        theta = np.random.default_rng(82).uniform(-np.pi, np.pi, 16)
        record = run_nonhermitian_stage(1, theta, q2_even, plan, run_id=0)
        # ZNE on: one distribution per group and fold scale, for both figures
        assert made[-1].circuits_run == len(set(q2_even.groups.values())) * 3 == 27
        fresh = make(plan, "even", 0, "nonhermitian", 1 + 1000, shots=plan.final_shots,
                     groups=q2_even.groups)
        params = np.asarray(record.params)
        energy = fresh.energy(params, q2_even.h_h, q2_even.v_cap)
        second = fresh.expectation(q2_even.h_dag_h, params).real
        assert fresh.circuits_run == 27
        assert (record.energy_re, record.energy_im) == (energy.real, energy.imag)
        assert record.sigma2 == second - abs(energy) ** 2

    def test_record_serialization(self):
        record = make_record()
        text = json.dumps([record.to_dict()])
        back = ResonanceRecord.from_dict(json.loads(text)[0])
        assert back == record


class TestDeduplicate:
    def test_identical_records_collapse(self, sv_plan):
        est = Estimator(q=2, tier="statevector")
        rng = np.random.default_rng(0)
        params = rng.uniform(-np.pi, np.pi, 16)
        a = make_record(index=1, sigma2=0.2, params=params)
        b = make_record(index=2, sigma2=0.1, params=params)
        survivors = deduplicate([a, b], est, overlap_tol=0.5)
        assert len(survivors) == 1
        assert survivors[0].sigma2 == 0.1

    def test_orthogonal_records_survive(self):
        est = Estimator(q=1, tier="statevector")
        zero = np.zeros(8)
        one = np.zeros(8)
        one[0] = np.pi
        a = make_record(index=1, sigma2=0.2, params=zero, q=1)
        b = make_record(index=2, sigma2=0.1, params=one, q=1)
        survivors = deduplicate([a, b], est, overlap_tol=0.5)
        assert len(survivors) == 2

    def test_three_way_overlap_keeps_minimum(self):
        # all three mutually overlapping: brute force over keep-sets says the
        # unique maximal valid set is the single lowest-sigma2 record
        est = Estimator(q=1, tier="statevector")
        rng = np.random.default_rng(1)
        base = rng.uniform(-np.pi, np.pi, 8)
        records = [
            make_record(index=i + 1, sigma2=s, params=base + rng.normal(scale=1e-3, size=8), q=1)
            for i, s in enumerate([0.3, 0.05, 0.2])
        ]
        overlaps = {
            (i, j): est.overlap_lowdepth(
                np.asarray(records[i].params), np.asarray(records[j].params)
            )
            for i in range(3)
            for j in range(i + 1, 3)
        }
        assert all(v > 0.5 for v in overlaps.values())
        valid_sets = [
            keep
            for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
            if all(overlaps[min(i, j), max(i, j)] <= 0.5 for i in keep for j in keep if i < j)
        ]
        best_single = min(valid_sets, key=lambda k: min(records[i].sigma2 for i in k))
        survivors = deduplicate(records, est, overlap_tol=0.5)
        assert len(survivors) == 1
        assert survivors[0].sigma2 == min(r.sigma2 for r in records)
        assert records.index(survivors[0]) in best_single


class TestPoolBatches:
    def test_single_run_passthrough(self):
        records = [make_record(index=1, run_id=0), make_record(index=2, run_id=0)]
        assert pool_batches(records) == records

    def test_argmin_sigma(self):
        a = make_record(index=1, run_id=0, sigma2=0.3)
        b = make_record(index=1, run_id=1, sigma2=0.1)
        assert pool_batches([a, b]) == [b]

    def test_tie_breaks_on_width_then_run(self):
        a = make_record(index=1, run_id=0, sigma2=0.1, energy=(1.0, -0.2))
        b = make_record(index=1, run_id=1, sigma2=0.1, energy=(1.0, -0.01))
        assert pool_batches([a, b]) == [b]
        c = make_record(index=1, run_id=2, sigma2=0.1, energy=(1.0, -0.01))
        assert pool_batches([b, c]) == [b]

    def test_missing_state_not_fabricated(self):
        records = [make_record(index=2, run_id=0)]
        winners = pool_batches(records)
        assert [w.index for w in winners] == [2]


class TestFilterSpurious:
    def test_oracle_like_bound_record(self, grid):
        problem = build_problem(BENCHMARK, grid, "even", 3)
        plan = make_plan(q=3, n_even=1, batch_size=1, seed=5)
        stage = run_hermitian_stage(1, [], problem, plan, run_id=0)
        record = run_nonhermitian_stage(1, np.asarray(stage["theta"]), problem, plan, 0)
        filter_spurious([record], problem)
        assert record.classification == "bound"

    def test_unconverged_record_flagged(self, q2_even):
        record = make_record(sigma2=5.0, energy=(1.5, -0.01))
        filter_spurious([record], q2_even)
        assert record.classification == "spurious:indifferent"

    def test_gain_record_flagged(self, q2_even):
        record = make_record(sigma2=0.0, energy=(1.5, +0.1))
        filter_spurious([record], q2_even)
        assert record.classification == "spurious:gain"


class TestFidelity:
    def test_identical_state(self):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        assert compute_fidelity_error(v, v) == pytest.approx(0.0)

    def test_orthogonal_state(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert compute_fidelity_error(a, b) == pytest.approx(1.0)

    def test_phase_free(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert compute_fidelity_error(v, np.exp(0.7j) * v) == pytest.approx(0.0, abs=1e-12)

    def test_q3_bound_state_against_oracle(self, grid):
        problem = build_problem(BENCHMARK, grid, "even", 3)
        plan = make_plan(q=3, n_even=1, batch_size=1, seed=21)
        stage = run_hermitian_stage(1, [], problem, plan, run_id=0)
        record = run_nonhermitian_stage(1, np.asarray(stage["theta"]), problem, plan, 0)
        spectrum = exact_diagonalize(problem.pair)
        error = compute_fidelity_error(
            record.state_coefficients(3), spectrum.eigenvectors[:, 0]
        )
        assert error < 0.05


class TestMatchTargets:
    def test_assignment_by_parity_and_proximity(self):
        winners = [
            make_record(index=1, energy=(0.62, -0.003), parity="even"),
            make_record(index=4, energy=(2.36, -0.006), parity="even"),
            make_record(index=2, energy=(1.62, -0.04), parity="odd"),
        ]
        winners[0].classification = "bound"
        winners[1].classification = "resonance"
        winners[2].classification = "resonance"
        targets = {
            ("even", "bound"): 0.623 - 2.6e-3j,
            ("even", "resonance"): 2.357 - 5.8e-3j,
            ("odd", "resonance"): 1.614 - 4.2e-2j,
        }
        matched = match_targets(winners, targets)
        assert matched["bound"] is winners[0]
        assert matched["resonance_2"] is winners[1]
        assert matched["resonance_1"] is winners[2]

    def test_absent_target_reported_none(self):
        matched = match_targets([], {("even", "bound"): 0.5 + 0j})
        assert matched["bound"] is None
        assert matched["resonance_1"] is None


class TestParitySeparation:
    def test_even_channel_states_have_even_densities(self, q2_even, sv_plan):
        stage = run_hermitian_stage(1, [], q2_even, sv_plan, run_id=0)
        coeffs = statevector(build_ansatz(np.asarray(stage["theta"]), 2))
        psi = coeffs @ q2_even.pair.basis.functions
        dens = np.abs(psi)
        assert np.max(np.abs(dens - dens[::-1])) < 1e-6
