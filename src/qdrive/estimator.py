"""Expectation-value and overlap estimation across the three simulator tiers.

An :class:`Estimator` bundles the tier, shot budget, RNG stream, noise model,
mitigation switches and the measurement groups of the words it reads.
Every estimate goes through one pipeline:

1. *prepare* (:meth:`~qdrive.simulator.Checkpoints.prepare`): the ansatz
   states of an angle vector as a stack, one statevector on the exact and
   shot tiers, each block of the ansatz one product with its 2^q x 2^q
   matrix, or, on the noisy tier, the density matrix at each ZNE fold
   scale, evolved together, each gate one product with its stack of
   superoperators.  New parameters resume at the first block (gate) whose
   angles changed, compared bit for bit, so a step in one angle forms the
   matrix (or stack of superoperators) of its own block (gate) alone and
   evolves from there on.  One record of the last parameters keeps their
   states, group distributions and word values for every estimate of one
   objective evaluation;
2. *measure, sample and mitigate* (:meth:`Estimator._sample`): the
   distribution of the q qubits after a measured tail, sampled into a shot
   histogram and, with readout mitigation, taken through one Kronecker
   inverse of the confusion built per estimator.  An estimate draws the
   histograms it newly needs by one multinomial over their stacked rows:
   each group its words need, in the order of the first word in term order
   that needs it, at scales 1, 3, 5 each; or an overlap's scales.  The
   noisy tier reads each probability as
   Tr(M_y rho) from the effective POVM M of the noisy tail at the same fold
   scale (:func:`~qdrive.simulator.effective_povm`), cached on the noise
   model, all the rows of a draw in one contraction.  The tail is either
   * a Pauli group's rotation: the words fall into qubit-wise-commuting
     groups (:func:`~qdrive.pauli.qwc_groups`, decided once per channel by
     :func:`~qdrive.pipeline.build_problem`), the tail rotates each qubit
     into the eigenbasis of the letter the group's words share there, and
     one distribution gives every word of the group as the mean of its
     parity signs.  The tail, its noise and the readout act on each qubit
     alone, so M is a product of one-qubit POVMs; or
   * an overlap's inverted ansatz U(b)^dag, whose value is P(all zeros): on
     the exact and shot tiers a dense matrix, the conjugate transpose of the
     product of the prior's block matrices, formed once per prior;
3. *extrapolate* (:meth:`Estimator._maybe_extrapolate`): with ZNE, each
   word's or overlap's values at fold scales 1, 3, 5 become one estimate.

For an expectation the statevector tier replaces step 2 with one exact
contraction of the observable's cached traceless operator D - c_I,
c_I + psi^dag (D - c_I) psi.  On the other tiers the observables of one
evaluation share the record's draws, so a group is measured at most once per
parameters.  On every tier the identity word is never estimated: its
coefficient c_I is added analytically.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .circuits import Circuit, Gate, build_ansatz
from .mitigation import (
    ZnePoints,
    invert_distribution,
    readout_inverse,
    zne_extrapolate,
)
from .pauli import PauliSum, qwc_groups
from .simulator import (
    Checkpoints,
    NoiseModel,
    ansatz_unitary,
    effective_povm,
    outcome_probabilities,
    sample_shots,
    statevector,
)

TIERS = ("statevector", "shots", "noisy")
ZNE_SCALES = (1, 3, 5)


@functools.lru_cache(maxsize=None)
def _parity_signs(word: str) -> np.ndarray:
    """(-1)^(bit parity on the word's non-identity positions), big-endian."""
    q = len(word)
    signs = np.ones(2**q)
    for k, letter in enumerate(word):
        if letter == "I":
            continue
        bit = (np.arange(2**q) >> (q - 1 - k)) & 1
        signs *= 1.0 - 2.0 * bit
    return signs


@functools.lru_cache(maxsize=None)
def measurement_rotation(basis: str) -> Circuit:
    """The tail that maps each letter's eigenbasis onto the computational basis."""
    gates = []
    for k, letter in enumerate(basis):
        if letter == "Y":
            gates.append(Gate("sdg", (k,)))
        if letter in "XY":
            gates.append(Gate("h", (k,)))
    return Circuit(len(basis), tuple(gates))


class Estimator:
    """Stateful estimation context for one task (one RNG stream).

    ``groups`` maps each word to the basis of the qubit-wise-commuting group
    it is read from (a channel's
    :attr:`~qdrive.pipeline.ChannelProblem.groups`); words outside the map
    are grouped among themselves on first use and added to it.
    """

    def __init__(
        self,
        q: int,
        tier: str = "statevector",
        noise: NoiseModel | None = None,
        shots: int = 10**5,
        seed=0,
        mitigate_readout: bool = True,
        mitigate_zne: bool = True,
        groups: dict[str, str] | None = None,
    ):
        if tier not in TIERS:
            raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
        if tier == "noisy" and noise is None:
            raise ValueError("the noisy tier requires a noise model")
        self.q = q
        self.tier = tier
        self.noise = noise
        self.shots = int(shots)
        self.rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        # mitigation applies to the noisy tier only, and is on there by default
        noisy = tier == "noisy"
        self.mitigate_readout = noisy and mitigate_readout
        self.mitigate_zne = noisy and mitigate_zne
        self._zne_gain = math.sqrt(10.0) / 2.0 if self.mitigate_zne else 1.0
        # the ansatz's preparation, built first: it rejects a profile short of q qubits
        self._checkpoints = Checkpoints(q, noise, self._scales()) if noisy else Checkpoints(q)
        self._inverse = readout_inverse(noise.readout[:q]) if self.mitigate_readout else None
        self.circuits_run = 0
        self.groups = dict(groups or {})
        # the last parameters' bytes, their ansatz states (one per scale),
        # their groups' distributions per scale and the word values read
        self._last: tuple[bytes, np.ndarray, dict[str, np.ndarray], dict[str, float]] | None = None
        # per prior's parameter bytes, its inverted ansatz: an overlap's tail,
        # the dense U(b)^dag on the statevector and shot tiers
        self._tails: dict[bytes, Circuit | np.ndarray] = {}

    # -- bookkeeping --------------------------------------------------------

    def _scales(self) -> tuple[int, ...]:
        return ZNE_SCALES if self.mitigate_zne else (1,)

    def _group(self, words: list[str]) -> None:
        """Group the words outside the map among themselves and add them."""
        new = [w for w in words if w not in self.groups]
        if new:
            self.groups.update(qwc_groups(new))

    def statistical_sigma(self, observable: PauliSum) -> float:
        """Upper bound on the shot-noise s.d. of one expectation estimate.

        A word's value is the shot mean of its parity signs (through the
        readout inverse, if any), so its s.d. is at most a / sqrt(shots), a
        the largest sign in magnitude.  A group's words share their shots,
        so their errors add up to at most sum |c| a / sqrt(shots); groups
        are independent.  ZNE's linear extrapolation (3 x1 - x3) / 2 scales
        the s.d. by sqrt(10) / 2; its exponential branch is not covered.
        """
        if self.tier == "statevector":
            return 0.0
        words = [w for w in observable.terms if w != observable.identity_word]
        self._group(words)
        per_group: dict[str, float] = {}
        for word in words:
            signs = _parity_signs(word)
            if self._inverse is not None:
                signs = self._inverse.T @ signs
            bound = abs(observable.terms[word]) * np.max(np.abs(signs))
            per_group[self.groups[word]] = per_group.get(self.groups[word], 0.0) + bound
        return self._zne_gain * math.sqrt(sum(s * s for s in per_group.values()) / self.shots)

    def overlap_sigma(self) -> float:
        """Upper bound on the shot-noise s.d. of one overlap estimate: the shot
        mean of w = inverse.T @ e_0 (e_0 without readout mitigation), so at
        most (max w - min w) / 2 / sqrt(shots) (Popoviciu), times ZNE's gain."""
        if self.tier == "statevector":
            return 0.0
        spread = 1.0 if self._inverse is None else np.ptp(self._inverse[0])
        return self._zne_gain * spread / 2.0 / math.sqrt(self.shots)

    # -- the pipeline: prepare, measure the tail, sample, extrapolate ------

    def _record(self, params) -> tuple[np.ndarray, dict[str, np.ndarray], dict[str, float]]:
        """The record of ``params``: their read-only ansatz states, one per
        fold scale, their groups' distributions and their word values.  New
        parameters start a new record, prepared by resuming the last."""
        key = np.asarray(params, dtype=float).tobytes()
        if self._last is None or self._last[0] != key:
            self._last = (key, self._checkpoints.prepare(params), {}, {})
        return self._last[1:]

    def _probabilities(self, state: np.ndarray, tail: Circuit | np.ndarray, lam: int) -> np.ndarray:
        """Outcome probabilities of the q qubits after ``tail`` (a circuit or a
        dense unitary) acts on the prepared ``state``: run forward on a vector,
        or read as Tr(M_y rho) from the effective POVM of the tail at scale lam."""
        if self.tier != "noisy":
            psi = tail @ state if isinstance(tail, np.ndarray) else statevector(tail, state)
            return outcome_probabilities(psi, self.q)
        povm = self.noise.povm((tail, lam), lambda: effective_povm(tail, self.noise, lam))
        return np.einsum("yab,ba->y", povm, state).real

    def _factors(self, basis: str, lam: int) -> np.ndarray:
        """Per qubit, its letter's POVM M^k[y, c, r] at fold scale lam, read as
        a 2 x 4 matrix on the qubit's (row, column) pair: shape (q, 2, 4)."""
        return self.noise.povm((basis, lam), lambda: np.array([
            self.noise.povm((k, tail, lam), lambda: effective_povm(
                tail, self.noise.restricted((k,)), lam
            ).transpose(0, 2, 1).reshape(2, 4))
            for k, tail in enumerate(map(measurement_rotation, basis))
        ]))

    def _group_reads(self, states: np.ndarray, bases: list[str]) -> np.ndarray:
        """Outcome probabilities after each group's rotation, one row per basis
        and fold scale, in that order; on the noisy tier each qubit's factors
        of all the rows are applied to their states by one ``np.matmul``."""
        scales = self._scales()
        if self.tier != "noisy":
            return np.array([
                self._probabilities(state, measurement_rotation(basis), lam)
                for basis in bases for lam, state in zip(scales, states)
            ])
        q = self.q
        pairs = [0, 1] + [2 + i for k in range(q) for i in (k, q + k)]
        t = states.reshape((1, len(scales)) + (2,) * (2 * q)).transpose(pairs)
        factors = np.array([[self._factors(basis, lam) for lam in scales] for basis in bases])
        for k in range(q):
            # contract the leading pair; the outcome axis goes last
            t = np.matmul(factors[:, :, k], t.reshape(t.shape[:2] + (4, -1))).swapaxes(-1, -2)
        return t.real.reshape(-1, 2**q)

    def _sample(self, probs: np.ndarray) -> np.ndarray:
        """The outcome distributions of a stack of probability rows, in row
        order: the probabilities themselves on the statevector tier,
        otherwise shot histograms drawn by one multinomial over the stack,
        each counted in ``circuits_run``, with the readout confusion
        inverted row by row when readout mitigation is on."""
        if self.tier == "statevector":
            return probs
        probs = np.clip(probs, 0.0, None)
        dists = sample_shots(
            probs / probs.sum(axis=1, keepdims=True), self.shots, self.rng
        ).empirical()
        self.circuits_run += len(probs)
        if self._inverse is None:
            return dists
        return invert_distribution(dists, self._inverse)[0]

    def _maybe_extrapolate(self, xs: list[float], mode: str) -> float:
        """Zero-noise estimate from the values at the fold scales."""
        if len(xs) == 1:
            return xs[0]
        pts = ZnePoints(x1=xs[0], x3=xs[1], x5=xs[2], n=self.shots, mode=mode)
        result = zne_extrapolate(pts)
        if mode == "probability":
            return float(np.clip(result.x0, 0.0, 1.0))
        return result.x0

    # -- primitives -----------------------------------------------------------

    def _read(self, params, words: list[str]) -> list[float]:
        """<word> on the ansatz state of ``params`` for each word, each read
        once per parameters: the groups the words newly need are read and
        sampled in one batch, in the order of the first word that needs
        each, every group at each fold scale."""
        states, dists, values = self._record(params)
        missing = [w for w in words if w not in values]
        self._group(missing)
        new = [b for b in dict.fromkeys(self.groups[w] for w in missing) if b not in dists]
        if new:
            drawn = self._sample(self._group_reads(states, new))
            dists.update(zip(new, drawn.reshape(len(new), -1, drawn.shape[-1])))
        for word in missing:
            signs = _parity_signs(word)
            values[word] = self._maybe_extrapolate(
                [float(d @ signs) for d in dists[self.groups[word]]], mode="expectation"
            )
        return [values[w] for w in words]

    def overlap_lowdepth(self, params_a, params_b) -> float:
        """|<psi(b)|psi(a)>|^2 as the all-zeros probability of U(a) U(b)^dag.

        U(a) prepares the state and U(b)^dag is the measured tail; folding
        acts gate by gate, so each part is evolved at the same fold scale, and
        the scales are sampled in one batch.  The states of the last
        ``params_a`` are kept, so overlaps of one state with several priors
        prepare it once, and each prior's tail is built once: as one dense
        unitary on the statevector and shot tiers.
        """
        heads = self._record(params_a)[0]
        key = np.asarray(params_b, dtype=float).tobytes()
        tail = self._tails.get(key)
        if tail is None:
            tail = self._tails[key] = (
                build_ansatz(params_b, self.q).inverse() if self.tier == "noisy"
                else ansatz_unitary(params_b, self.q).conj().T
            )
        dists = self._sample(
            np.array([self._probabilities(h, tail, lam) for lam, h in zip(self._scales(), heads)])
        )
        return self._maybe_extrapolate([float(d[0]) for d in dists], mode="probability")

    # -- assembled estimates ---------------------------------------------------

    def expectation(self, observable: PauliSum, params) -> complex:
        """Tier-appropriate estimate of sum_P C_P <P>."""
        if observable.n_qubits != self.q:
            raise ValueError(
                f"observable acts on {observable.n_qubits} qubits, ansatz has {self.q}"
            )
        identity = observable.identity_word
        acc = complex(observable.terms.get(identity, 0.0))
        if self.tier == "statevector":
            psi = self._record(params)[0][0]
            return acc + np.vdot(psi, observable.traceless_dense() @ psi)
        words = [w for w in observable.terms if w != identity]
        for word, value in zip(words, self._read(params, words)):
            acc += observable.terms[word] * value
        return acc

    def energy(self, params, h_h: PauliSum, v_cap: PauliSum) -> complex:
        """<H_N> assembled from the two Hermitian parts: <H_H> + i <V_cap>."""
        re = self.expectation(h_h, params).real
        im = self.expectation(v_cap, params).real
        return complex(re, im)
