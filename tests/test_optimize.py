import warnings

import numpy as np
import pytest

from qdrive.circuits import build_ansatz
from qdrive.estimator import Estimator
from qdrive.model import Grid, PotentialModel, build_basis, project_hamiltonians
from qdrive.optimize import (
    OptimizerConfig,
    minimize,
    pseudovariance_objective,
    vqd_objective,
    wrap_angles,
)
from qdrive.pauli import PauliSum, decompose
from qdrive.simulator import statevector

BENCHMARK = PotentialModel(lam=0.1, j=0.8, x0=8.0)


def second_moment(h_h: PauliSum, v_cap: PauliSum) -> PauliSum:
    """H_N^dag H_N of H_N = H_H + i V_cap, from the dense product."""
    m = (h_h + v_cap.scaled(1j)).to_dense()
    return decompose(m.conj().T @ m)


@pytest.fixture(scope="module")
def q2_even_problem():
    grid = Grid()
    basis = build_basis("even", 2, grid)
    pair = project_hamiltonians(BENCHMARK, basis, grid)
    h_h = decompose(pair.h_h)
    v_cap = decompose(pair.v_cap)
    return pair, h_h, v_cap, second_moment(h_h, v_cap)


class TestNft:
    def test_single_sinusoid_exact_in_four_evaluations(self):
        calls = []

        def fun(x):
            calls.append(x.copy())
            return 2.0 + 1.5 * np.cos(x[0])

        cfg = OptimizerConfig(kind="nft", max_iterations=1, f_max=16)
        result = minimize(fun, cfg, np.array([0.3]))
        assert len(calls) <= 4
        assert abs(wrap_angles(result.params)[0]) == pytest.approx(np.pi, abs=1e-8)
        assert result.value == pytest.approx(0.5, abs=1e-8)

    def test_multiparameter_trig_objective(self):
        def fun(x):
            return np.cos(x[0]) + 0.5 * np.cos(x[1] - 1.0) + 2.0

        cfg = OptimizerConfig(kind="nft", max_iterations=4, f_max=200)
        result = minimize(fun, cfg, np.array([0.1, 0.2]))
        assert result.value == pytest.approx(0.5, abs=1e-6)

    def test_budget_exhaustion_returns_flagged_best(self):
        def fun(x):
            return float(np.sum(np.cos(x)))

        cfg = OptimizerConfig(kind="nft", max_iterations=100, f_max=7)
        result = minimize(fun, cfg, np.zeros(5))
        assert result.exhausted
        assert result.nfev <= 7

    def test_downgrade_on_non_sinusoidal_objective(self):
        def fun(x):
            return float((x[0] - 1.0) ** 2 + 0.3 * x[0] ** 4)

        cfg = OptimizerConfig(kind="nft", max_iterations=8, f_max=300)
        result = minimize(fun, cfg, np.array([0.2]))
        assert result.kind == "nft->trust_region"

    @pytest.mark.parametrize("f_max", [4, 8])
    def test_downgrade_without_budget_keeps_nft_best(self, f_max):
        # trust_region needs 2m+1 = 25 evaluations to start; 4 are spent
        values = []

        def fun(x):
            values.append(float(np.sum((x - 1.0) ** 2 + 0.3 * x**4)))
            return values[-1]

        cfg = OptimizerConfig(kind="nft", f_max=f_max)
        result = minimize(fun, cfg, np.full(12, 0.2))
        assert result.kind == "nft->trust_region"
        assert result.exhausted and not result.converged
        assert result.nfev == len(values) <= f_max
        assert result.value == min(values)
        assert fun(result.params) == result.value

    def test_downgraded_run_reports_its_best_evaluation(self):
        # m = 2: NFT spends 4, then the trust region its 2m + 1 = 5 starting
        # points; the run's best may be among NFT's
        downgraded = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            centre = rng.uniform(-2.0, 2.0, 2)
            scale = rng.uniform(0.5, 2.0, 2)
            values = []

            def fun(x):
                values.append(float(np.sum(scale * (x - centre) ** 2)))
                return values[-1]

            cfg = OptimizerConfig(kind="nft", f_max=9)
            result = minimize(fun, cfg, rng.uniform(-np.pi, np.pi, 2))
            if result.kind != "nft->trust_region":
                continue
            downgraded += 1
            assert result.nfev == len(values) == 9
            assert result.value == min(values), seed
            assert fun(result.params) == result.value
        assert downgraded > 150

    def test_monotone_best_bookkeeping(self):
        values = []

        def fun(x):
            v = np.cos(x[0]) + np.cos(2 * x[1] + 0.3)
            values.append(v)
            return float(v)

        telemetry = []
        cfg = OptimizerConfig(kind="nft", max_iterations=6, f_max=120, reset_interval=3)
        result = minimize(fun, cfg, np.array([0.5, -0.4]), telemetry=telemetry)
        assert result.value <= min(values) + 1e-12


class TestTrustRegion:
    def test_quadratic_argmin(self):
        def fun(x):
            return float((x[0] - 1.0) ** 2)

        cfg = OptimizerConfig(kind="trust_region", f_max=200, f_tol=1e-10)
        result = minimize(fun, cfg, np.array([0.0]))
        assert result.params[0] == pytest.approx(1.0, abs=1e-4)

    def test_retry_loop_reaches_tolerance(self):
        calls = {"n": 0}

        def fun(x):
            calls["n"] += 1
            return float(np.sum((x - 0.7) ** 2))

        cfg = OptimizerConfig(kind="trust_region", f_max=500, f_tol=1e-6, retries=3)
        result = minimize(fun, cfg, np.array([2.0, -2.0]))
        assert result.converged
        assert result.nfev == calls["n"] <= 500

    def test_budget_cap_respected(self):
        def fun(x):
            return float(np.sum(x**2))

        cfg = OptimizerConfig(kind="trust_region", f_max=30, f_tol=0.0, retries=5)
        result = minimize(fun, cfg, np.full(4, 2.0))
        assert result.nfev <= 30


class TestSimplex:
    def test_quadratic(self):
        def fun(x):
            return float((x[0] + 0.5) ** 2 + (x[1] - 0.25) ** 2)

        cfg = OptimizerConfig(kind="simplex", max_iterations=400, f_max=500)
        result = minimize(fun, cfg, np.array([1.0, 1.0]))
        assert result.value < 1e-6

    def test_budget_below_cobyla_minimum_does_not_warn(self):
        # q=2 has 16 parameters, so COBYLA needs 18 evaluations to start
        cfg = OptimizerConfig(kind="simplex", f_max=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = minimize(lambda x: float(np.sum(x**2)), cfg, np.ones(16))
        assert result.nfev == 6
        assert result.exhausted


def bowl(x):
    """Not sinusoidal in any angle, so NFT downgrades at its first check."""
    return float(np.sum((x - 0.7) ** 2 + 0.3 * x**4))


def waves(x):
    """Sinusoidal in every angle: NFT fits it exactly and never downgrades."""
    return float(np.sum(np.cos(x - np.array([0.4, -1.1, 2.0]))))


# (optimizer config, objective, exhausted) from three zero angles: each kind
# once with budget left and once exhausted
CONTRACT_CASES = {
    "nft-left": (OptimizerConfig(kind="nft", max_iterations=2, f_max=100), waves, False),
    "nft-spent": (OptimizerConfig(kind="nft", max_iterations=2, f_max=8), waves, True),
    # NFT spends 4, then the trust region takes the rest
    "downgrade-left": (OptimizerConfig(kind="nft", f_max=500, f_tol=0.5), bowl, False),
    "downgrade-spent": (OptimizerConfig(kind="nft", f_max=20, f_tol=0.0), bowl, True),
    # too few left for the trust region to start after NFT's 4
    "downgrade-idle": (OptimizerConfig(kind="nft", f_max=8), bowl, True),
    "trust_region-left": (OptimizerConfig(kind="trust_region", f_max=500, f_tol=0.5), bowl, False),
    "trust_region-spent": (OptimizerConfig(kind="trust_region", f_max=20, f_tol=0.0), bowl, True),
    "trust_region-idle": (OptimizerConfig(kind="trust_region", f_max=4), bowl, True),
    "simplex-left": (OptimizerConfig(kind="simplex", f_max=500), bowl, False),
    # below the m + 2 evaluations COBYLA needs to start
    "simplex-spent": (OptimizerConfig(kind="simplex", f_max=3), bowl, True),
    # COBYLA stops by itself at maxiter = f_max, having spent the budget
    "simplex-spent-at-cobyla-cap": (OptimizerConfig(kind="simplex", f_max=10), bowl, True),
}


class TestResultContract:
    """Every kind reports its outcome the same way."""

    @pytest.mark.parametrize(
        "cfg,fun,exhausted", CONTRACT_CASES.values(), ids=CONTRACT_CASES.keys()
    )
    def test_flags_counts_and_best_point(self, cfg, fun, exhausted):
        evaluated = []

        def counted(x):
            evaluated.append(fun(x))
            return evaluated[-1]

        x0 = np.zeros(3)
        result = minimize(counted, cfg, x0)
        downgraded = cfg.kind == "nft" and fun is bowl
        assert result.kind == ("nft->trust_region" if downgraded else cfg.kind)
        assert result.exhausted == exhausted
        if result.kind in ("trust_region", "nft->trust_region"):
            assert result.converged == (result.value <= cfg.f_tol)
        # NFT converges when every sweep ran and COBYLA when it stopped with
        # budget left; each trust-region case here with budget left reaches f_tol
        assert result.converged == (not exhausted)
        assert result.nfev == len(evaluated) <= cfg.f_max
        # plain NFT records predicted minima, which it never evaluated
        if result.kind != "nft":
            assert result.value == min(evaluated, default=np.inf)
            if evaluated:
                assert fun(result.params) == result.value
            else:
                assert np.array_equal(result.params, x0)


class TestVqdObjective:
    def test_no_priors_is_plain_energy(self, q2_even_problem):
        _, h_h, _, _ = q2_even_problem
        est = Estimator(q=2, tier="statevector")
        params = np.random.default_rng(0).uniform(-np.pi, np.pi, 16)
        expected = est.expectation(h_h, params).real
        assert vqd_objective(params, h_h, [], 100.0, est) == pytest.approx(expected)

    def test_self_prior_penalty(self, q2_even_problem):
        _, h_h, _, _ = q2_even_problem
        est = Estimator(q=2, tier="statevector")
        params = np.random.default_rng(1).uniform(-np.pi, np.pi, 16)
        energy = est.expectation(h_h, params).real
        value = vqd_objective(params, h_h, [params], 100.0, est)
        assert value >= energy + 100.0 * (1.0 - 1e-9)

    def test_matches_dense_evaluation(self, q2_even_problem):
        pair, h_h, _, _ = q2_even_problem
        est = Estimator(q=2, tier="statevector")
        rng = np.random.default_rng(2)
        params = rng.uniform(-np.pi, np.pi, 16)
        prior = rng.uniform(-np.pi, np.pi, 16)
        psi = statevector(build_ansatz(params, est.q))
        chi = statevector(build_ansatz(prior, est.q))
        expected = np.vdot(psi, pair.h_h @ psi).real + 100.0 * abs(np.vdot(chi, psi)) ** 2
        got = vqd_objective(params, h_h, [prior], 100.0, est)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_penalty_invariant_under_global_phase(self, q2_even_problem):
        # a 2*pi shift of one RZ angle flips the state's global sign only
        _, h_h, _, _ = q2_even_problem
        est = Estimator(q=2, tier="statevector")
        rng = np.random.default_rng(3)
        params = rng.uniform(-np.pi, np.pi, 16)
        prior = rng.uniform(-np.pi, np.pi, 16)
        shifted = prior.copy()
        shifted[4] += 2.0 * np.pi
        a = vqd_objective(params, h_h, [prior], 100.0, est)
        b = vqd_objective(params, h_h, [shifted], 100.0, est)
        assert a == pytest.approx(b, abs=1e-10)

    def test_q2_benchmark_ground_energy(self, q2_even_problem):
        pair, h_h, _, _ = q2_even_problem
        exact_ground = np.sort(np.linalg.eigvalsh(pair.h_h))[0]
        best = np.inf
        cfg = OptimizerConfig(kind="simplex", max_iterations=512, f_max=2048)
        for restart in range(8):
            est = Estimator(q=2, tier="statevector")
            rng = np.random.default_rng(1000 + restart)
            x0 = rng.uniform(-np.pi, np.pi, 16)
            result = minimize(lambda x: vqd_objective(x, h_h, [], 100.0, est), cfg, x0)
            best = min(best, result.value)
        assert abs(best - exact_ground) / abs(exact_ground) < 0.005


class TestPseudovariance:
    def test_exact_eigenstate_of_diagonal_toy(self):
        # diag(0.3, 1.7): zero angles prepare |0>, an exact eigenstate
        h_h, v_cap = PauliSum(1, {"I": 1.0, "Z": -0.7}), PauliSum(1)
        h_dag_h = second_moment(h_h, v_cap)
        est = Estimator(q=1, tier="statevector")
        value = pseudovariance_objective(np.zeros(8), h_h, v_cap, h_dag_h, est)
        assert abs(value) < 1e-9

    def test_complex_diagonal_toy(self):
        # H = diag(1, 0) + i diag(0, 1) = diag(1, i), state (|0> + |1>)/sqrt(2):
        # <H^dag H> = 1, |<H>|^2 = 1/2
        h_h, v_cap = decompose(np.diag([1.0, 0.0])), decompose(np.diag([0.0, 1.0]))
        h_dag_h = second_moment(h_h, v_cap)
        est = Estimator(q=1, tier="statevector")
        params = np.zeros(8)
        params[0] = np.pi / 2.0  # RY(pi/2)|0> = (|0> + |1>)/sqrt(2)
        value = pseudovariance_objective(params, h_h, v_cap, h_dag_h, est)
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_hermitian_two_level_variance(self):
        # spectrum {0, 2}, equal superposition: variance 1
        h_h, v_cap = decompose(np.diag([0.0, 2.0]).astype(complex)), PauliSum(1)
        h_dag_h = second_moment(h_h, v_cap)
        est = Estimator(q=1, tier="statevector")
        params = np.zeros(8)
        params[0] = np.pi / 2.0
        value = pseudovariance_objective(params, h_h, v_cap, h_dag_h, est)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_oracle_on_benchmark(self, q2_even_problem):
        pair, h_h, v_cap, h_dag_h = q2_even_problem
        est = Estimator(q=2, tier="statevector")
        rng = np.random.default_rng(4)
        params = rng.uniform(-np.pi, np.pi, 16)
        psi = statevector(build_ansatz(params, est.q))
        dense = pair.h_n
        expected = np.vdot(psi, dense.conj().T @ dense @ psi).real - abs(
            np.vdot(psi, dense @ psi)
        ) ** 2
        got = pseudovariance_objective(params, h_h, v_cap, h_dag_h, est)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_nonnegative_on_statevector(self, q2_even_problem):
        _, h_h, v_cap, h_dag_h = q2_even_problem
        est = Estimator(q=2, tier="statevector")
        rng = np.random.default_rng(5)
        for _ in range(25):
            params = rng.uniform(-np.pi, np.pi, 16)
            assert pseudovariance_objective(params, h_h, v_cap, h_dag_h, est) > -1e-10
