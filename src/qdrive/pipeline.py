"""Deflation-chained resonance search over one or two parity channels.

Per run and parity channel, Hermitian eigenstates are found in energy order
with the deflated objective, penalized by ``ChannelProblem.penalty`` unless
the plan fixes one; each converged parameter vector warm-starts a
pseudovariance minimization against the CAP-augmented operator.  Runs are
batched: duplicates are removed within a run, and across the batch each
state index keeps the record with the lowest pseudovariance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import pauli
from .circuits import build_ansatz, random_initial_params
from .estimator import Estimator
from .model import (
    ClassifierThresholds,
    Grid,
    HamiltonianPair,
    PotentialModel,
    SpectrumRecord,
    build_basis,
    classify_state,
    exact_diagonalize,
    project_hamiltonians,
)
from .optimize import OptimizerConfig, minimize, pseudovariance_objective, vqd_objective, vqd_sigma
from .simulator import NoiseModel, statevector

PARITY_CODE = {"even": 0, "odd": 1}
# report label -> (parity, oracle kind) of the three target states
TARGET_LABELS = {
    "bound": ("even", "bound"),
    "resonance_1": ("odd", "resonance"),
    "resonance_2": ("even", "resonance"),
}
KIND_CODE = {"hermitian": 0, "nonhermitian": 1, "pool": 2, "sort": 3, "init": 4}


@dataclass
class ChannelProblem:
    """Pauli-space operators of one parity channel, its projected pair and
    the pair's exact spectrum, the channel's oracle.

    H_N = H_H + i V_cap is held as its Hermitian parts ``h_h`` and ``v_cap``;
    ``h_dag_h`` is H_N^dag H_N.  ``groups`` maps every word of the three to
    the basis of the qubit-wise-commuting group the estimators read it from.
    The sort node's fidelity errors and ``run``'s report both read ``spectrum``.
    ``penalty``, 2 * ||c||_1 of h_h's traceless Pauli coefficients, exceeds its
    spectral width, so each deflated minimum is the next eigenstate (Higgott,
    Wang & Brierley, arXiv:1805.08138).
    """

    parity: str
    q: int
    h_h: pauli.PauliSum
    v_cap: pauli.PauliSum
    h_dag_h: pauli.PauliSum
    pair: HamiltonianPair
    spectrum: SpectrumRecord
    groups: dict[str, str]
    penalty: float


def build_problem(
    model: PotentialModel, grid: Grid, parity: str, q: int,
    thresholds: ClassifierThresholds | None = None,
) -> ChannelProblem:
    """The channel's operators, and its oracle classified under ``thresholds``."""
    basis = build_basis(parity, q, grid)
    pair = project_hamiltonians(model, basis, grid)
    h_h = pauli.decompose(pair.h_h)
    v_cap = pauli.decompose(pair.v_cap)
    m = (h_h + v_cap.scaled(1j)).to_dense()
    h_dag_h = pauli.decompose(m.conj().T @ m)
    # the h_h words first: a VQD evaluation, which reads only them, then
    # measures as few groups as grouping them alone would give
    identity = h_h.identity_word
    first = sorted(set(h_h.terms) - {identity})
    rest = sorted((set(v_cap.terms) | set(h_dag_h.terms)) - set(first) - {identity})
    return ChannelProblem(
        parity=parity,
        q=q,
        h_h=h_h,
        v_cap=v_cap,
        h_dag_h=h_dag_h,
        pair=pair,
        spectrum=exact_diagonalize(pair, thresholds),
        groups=pauli.qwc_groups(first + rest),
        # fsum rounds once, so the term order cannot change the value
        penalty=2.0 * math.fsum(abs(c) for w, c in h_h.terms.items() if w != identity),
    )


@dataclass
class RunPlan:
    """Everything one batch needs: problem sizes, tier, budgets, and seeds.

    Built from a config document by ``config.build_plan``, which owns the
    defaults.
    """

    q: int
    parities: tuple[str, ...]
    n_states: dict
    batch_size: int
    tier: str
    shots: int
    final_shots: int
    seed: int
    noise: NoiseModel | None
    penalty: float | None  # None: each channel's ChannelProblem.penalty
    overlap_tol: float
    thresholds: ClassifierThresholds
    hermitian_cfg: OptimizerConfig
    nonhermitian_cfg: OptimizerConfig
    mitigate_readout: bool
    mitigate_zne: bool

    def task_seed(self, parity: str, run: int, kind: str, index: int = 0) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            [self.seed, PARITY_CODE[parity], run, KIND_CODE[kind], index]
        )

    def make_estimator(
        self, parity: str, run: int, kind: str, index: int = 0,
        shots: int | None = None, groups: dict[str, str] | None = None,
    ) -> Estimator:
        return Estimator(
            q=self.q,
            tier=self.tier,
            noise=self.noise,
            shots=self.shots if shots is None else shots,
            seed=np.random.default_rng(self.task_seed(parity, run, kind, index)),
            mitigate_readout=self.mitigate_readout,
            mitigate_zne=self.mitigate_zne,
            groups=groups,
        )


@dataclass
class ResonanceRecord:
    """One candidate state with its provenance and diagnostics."""

    parity: str
    index: int
    run_id: int
    batch_id: str
    params: list
    energy_re: float
    energy_im: float
    sigma2: float
    warm_start_value: float
    converged: bool
    evaluations: int
    classification: str | None = None
    fidelity_error: float | None = None

    @property
    def energy(self) -> complex:
        return complex(self.energy_re, self.energy_im)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ResonanceRecord":
        return cls(**doc)

    def state_coefficients(self, q: int) -> np.ndarray:
        """Basis coefficients of the record's state on the exact simulator."""
        return statevector(build_ansatz(np.asarray(self.params), q))


def run_hermitian_stage(
    index: int,
    priors: list[np.ndarray],
    problem: ChannelProblem,
    plan: RunPlan,
    run_id: int,
) -> dict:
    """Find the index-th Hermitian eigenstate by deflated minimization."""
    est = plan.make_estimator(problem.parity, run_id, "hermitian", index, groups=problem.groups)
    rng = np.random.default_rng(plan.task_seed(problem.parity, run_id, "init", index))
    x0 = random_initial_params(plan.q, rng)
    cfg = plan.hermitian_cfg
    penalty = problem.penalty if plan.penalty is None else plan.penalty

    def objective(x):
        return vqd_objective(x, problem.h_h, priors, penalty, est)

    sigma = vqd_sigma(problem.h_h, len(priors), penalty, est)
    result = minimize(objective, cfg, x0, sigma_hint=sigma)
    energy = est.expectation(problem.h_h, result.params).real
    overlaps = [est.overlap_lowdepth(result.params, prior) for prior in priors]
    return {
        "index": index,
        "theta": [float(v) for v in result.params],
        "energy": float(energy),
        "objective": float(result.value),
        "overlaps": [float(v) for v in overlaps],
        "evaluations": result.nfev,
        "converged": bool(result.converged),
        "optimizer": result.kind,
    }


def run_nonhermitian_stage(
    index: int,
    theta: np.ndarray,
    problem: ChannelProblem,
    plan: RunPlan,
    run_id: int,
) -> ResonanceRecord:
    """Pseudovariance minimization warm-started at the Hermitian eigenstate."""
    est = plan.make_estimator(
        problem.parity, run_id, "nonhermitian", index, groups=problem.groups
    )
    cfg = plan.nonhermitian_cfg

    def objective(x):
        return pseudovariance_objective(x, problem.h_h, problem.v_cap, problem.h_dag_h, est)

    theta = np.asarray(theta, dtype=float)
    warm = float(objective(theta))
    result = minimize(objective, cfg, theta)
    if warm < result.value:
        # the stage never reports a value above its warm start
        result = replace(result, params=theta, value=warm, converged=warm <= cfg.f_tol)
    # final comparison estimates use an extra order of magnitude of shots;
    # the estimator keeps the word values of the last parameters, so the
    # energy and sigma2 come from the same draws
    final_est = plan.make_estimator(
        problem.parity, run_id, "nonhermitian", index + 1000, shots=plan.final_shots,
        groups=problem.groups,
    )
    energy = final_est.energy(result.params, problem.h_h, problem.v_cap)
    sigma2 = pseudovariance_objective(
        result.params, problem.h_h, problem.v_cap, problem.h_dag_h, final_est
    )
    return ResonanceRecord(
        parity=problem.parity,
        index=index,
        run_id=run_id,
        batch_id="batch0",
        params=[float(v) for v in result.params],
        energy_re=float(energy.real),
        energy_im=float(energy.imag),
        sigma2=float(sigma2),
        warm_start_value=warm,
        converged=bool(result.converged),
        evaluations=result.nfev,
    )


def deduplicate(
    records: list[ResonanceRecord], est: Estimator, overlap_tol: float = 0.5
) -> list[ResonanceRecord]:
    """Greedy keep-lowest-pseudovariance filter on pairwise overlaps."""
    survivors: list[ResonanceRecord] = []
    for record in sorted(records, key=lambda r: r.sigma2):
        duplicate = False
        for kept in survivors:
            overlap = est.overlap_lowdepth(
                np.asarray(record.params), np.asarray(kept.params)
            )
            if overlap > overlap_tol:
                duplicate = True
                break
        if not duplicate:
            survivors.append(record)
    survivors.sort(key=lambda r: r.index)
    return survivors


def pool_batches(records: list[ResonanceRecord]) -> list[ResonanceRecord]:
    """Per (parity, state index), keep the lowest-pseudovariance record.

    Ties break toward lower |Im E|, then lower run id.
    """
    groups: dict[tuple[str, int], list[ResonanceRecord]] = {}
    for record in records:
        groups.setdefault((record.parity, record.index), []).append(record)
    winners = []
    for key in sorted(groups):
        winners.append(
            min(
                groups[key],
                key=lambda r: (r.sigma2, abs(r.energy_im), r.run_id),
            )
        )
    return winners


def filter_spurious(
    records: list[ResonanceRecord],
    problem: ChannelProblem,
    thresholds: ClassifierThresholds | None = None,
) -> list[ResonanceRecord]:
    """Attach a classification to every record (records are kept, not dropped)."""
    for record in records:
        coeffs = record.state_coefficients(problem.q)
        record.classification = classify_state(
            record.energy,
            coeffs,
            problem.pair.basis,
            problem.pair.model,
            sigma2=record.sigma2,
            thresholds=thresholds,
        )
    return records


def compute_fidelity_error(state_coeffs: np.ndarray, oracle_vector: np.ndarray) -> float:
    """1 - |<sim|exact>|^2, phase-free."""
    a = np.asarray(state_coeffs) / np.linalg.norm(state_coeffs)
    b = np.asarray(oracle_vector) / np.linalg.norm(oracle_vector)
    return float(1.0 - abs(np.vdot(b, a)) ** 2)


def attach_fidelity(
    records: list[ResonanceRecord], problem: ChannelProblem
) -> list[ResonanceRecord]:
    """Diagnostics: fidelity error against the closest oracle eigenvector."""
    vectors = problem.spectrum.eigenvectors.T  # one oracle eigenvector per row
    for record in records:
        coeffs = record.state_coefficients(problem.q)
        record.fidelity_error = min(compute_fidelity_error(coeffs, v) for v in vectors)
    return records


def match_targets(
    winners: list[ResonanceRecord],
    targets: dict[tuple[str, str], complex],
) -> dict[str, ResonanceRecord | None]:
    """Assign non-spurious winners to the oracle target states.

    ``targets`` maps (parity, kind) to the oracle energy, with kinds "bound"
    and "resonance"; the reported states are those of ``TARGET_LABELS``.
    Each target takes the winner of matching parity and classification with
    the closest real energy.
    """
    out: dict[str, ResonanceRecord | None] = {}
    for label, key in TARGET_LABELS.items():
        if key not in targets:
            out[label] = None
            continue
        target = targets[key]
        candidates = [
            w for w in winners
            if w.parity == key[0] and w.classification == key[1]
        ]
        if not candidates:
            out[label] = None
            continue
        out[label] = min(candidates, key=lambda w: abs(w.energy_re - target.real))
    return out
