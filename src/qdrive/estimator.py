"""Expectation-value and overlap estimation across the three simulator tiers.

An :class:`Estimator` bundles the tier, shot budget, RNG stream, noise model
and mitigation switches.  Every estimate splits its circuit into a prepared
state and a measured tail, and goes through one pipeline:

1. *prepare* (:meth:`Estimator._prepare`): evolve the head of the circuit
   from |0..0>, as a statevector on the exact and shot tiers, or as the
   noisy density matrix rho of the head folded to a ZNE scale on the noisy
   tier.  Prepared heads are kept for the last parameters, so the estimates
   of one objective evaluation share them: on the exact and shot tiers every
   word of every observable and every overlap reads the one ansatz state;
2. *measure, sample and mitigate* (:meth:`Estimator._distribution`): the
   outcome distribution of the measured qubits after the tail.  The exact
   and shot tiers run the tail forward on the statevector.  The noisy tier
   reads every outcome probability as Tr(M_y rho), where M_y is the
   effective POVM element of outcome y (readout confusion included) taken
   back through the folded noisy tail
   (:func:`~qdrive.simulator.effective_povm`).  M depends only on the tail,
   the fold scale and the noise model, so it is built once per noise model
   and cached there, and an objective evaluation evolves only its states.
   Every tier but the statevector one replaces the distribution by a shot
   histogram, and readout mitigation inverts the confusion;
3. *extrapolate* (:meth:`Estimator._maybe_extrapolate`): with ZNE, the
   values at fold scales 1, 3, 5 become one zero-noise estimate.

The primitives differ only in their split and in the functional applied to
the distribution:

* the ancilla Hadamard test, used per code word on the noisy tier: the
  ancilla|0> (x) ansatz base is prepared once per fold scale (and kept for
  the next call with the same parameters), each word's test is the tail,
  and the value is 2 P(ancilla=0) - 1;
* the low-depth overlap: U(a) is prepared once per fold scale (and kept
  for the next call with the same a), U(b) inverted is the tail, and the
  value is P(all zeros);
* direct word measurement on the exact and shot tiers: the statevector
  tier contracts the word exactly, the shot tier's tail rotates into the
  word's eigenbasis and the value averages bit parities.

The identity code word is never estimated: its expectation is unity for any
normalized state, so it contributes its coefficient analytically and no
circuit for it ever appears in the telemetry.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .circuits import Circuit, Gate, build_ansatz, hadamard_test_circuit
from .mitigation import (
    ConfusionMatrix,
    ZnePoints,
    fold_circuit,
    invert_distribution,
    readout_invert,
    zne_extrapolate,
)
from .pauli import PauliSum, word_to_dense
from .simulator import (
    NoiseModel,
    density_matrix,
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
def _hadamard_tail(q: int, word: str, part: str) -> Circuit:
    """The word's Hadamard test without a state preparation: its measured tail."""
    return hadamard_test_circuit(Circuit(q, ()), word, part)


def measurement_rotation_gates(word: str) -> list[Gate]:
    """Map each non-identity letter's eigenbasis onto the computational basis."""
    gates = []
    for k, letter in enumerate(word):
        if letter == "X":
            gates.append(Gate("h", (k,)))
        elif letter == "Y":
            gates.append(Gate("sdg", (k,)))
            gates.append(Gate("h", (k,)))
    return gates


class Estimator:
    """Stateful estimation context for one task (one RNG stream)."""

    def __init__(
        self,
        q: int,
        tier: str = "statevector",
        noise: NoiseModel | None = None,
        shots: int = 10**5,
        seed=0,
        mitigate_readout: bool = True,
        mitigate_zne: bool = True,
        telemetry: list | None = None,
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
        self._confusion = (
            [ConfusionMatrix.from_rows(noise.confusion(k)) for k in range(q)]
            if self.mitigate_readout
            else []
        )
        self.telemetry = telemetry
        self.circuits_run = 0
        # per head kind, the last parameters' bytes and their states per scale
        self._heads: dict[str, tuple[bytes, dict[int, np.ndarray]]] = {}
        # per prior's parameter bytes, its inverted ansatz: an overlap's tail
        self._tails: dict[bytes, Circuit] = {}

    # -- bookkeeping --------------------------------------------------------

    def _log(self, purpose: str, **extra) -> None:
        self.circuits_run += 1
        if self.telemetry is not None:
            self.telemetry.append({"purpose": purpose, "shots": self.shots, **extra})

    def _scales(self) -> tuple[int, ...]:
        return ZNE_SCALES if self.mitigate_zne else (1,)

    def statistical_sigma(self, observable: PauliSum) -> float:
        """Upper bound on the shot-noise s.d. of one expectation estimate."""
        if self.tier == "statevector":
            return 0.0
        ss = sum(
            abs(c) ** 2
            for w, c in observable.terms.items()
            if w != observable.identity_word
        )
        return math.sqrt(ss / self.shots)

    def ansatz_state(self, params) -> np.ndarray:
        """Exact statevector of the ansatz (diagnostics and exact tiers)."""
        return statevector(build_ansatz(params, self.q))

    # -- the pipeline: prepare, measure the tail, sample, extrapolate ------

    def _prepare(self, circuit: Circuit, lam: int = 1) -> np.ndarray:
        """The circuit's output state on this tier, folded to scale lam if noisy."""
        if self.tier == "noisy":
            return density_matrix(fold_circuit(circuit, lam), self.noise)
        return statevector(circuit)

    def _distribution(
        self, state: np.ndarray, tail: Circuit, lam: int, measured, purpose: str, **log
    ) -> np.ndarray:
        """Outcome distribution over ``measured`` (all qubits if None) after
        ``tail`` acts on the prepared ``state``.

        The noisy tier reads it as Tr(M_y rho) from the effective POVM of the
        tail folded to scale lam, built once per noise model; the other tiers
        run the tail forward.  Exact on the statevector tier; otherwise a shot
        histogram, with the readout confusion inverted when readout
        mitigation is on.
        """
        if self.tier == "noisy":
            povm = self.noise.povm(
                (tail, lam, measured),
                lambda: effective_povm(fold_circuit(tail, lam), self.noise, measured),
            )
            probs = np.clip(np.einsum("yab,ba->y", povm, state).real, 0.0, None)
        else:
            probs = outcome_probabilities(statevector(tail, state), tail.n_qubits, measured)
        if self.tier == "statevector":
            return probs
        dist = sample_shots(probs / probs.sum(), self.shots, self.rng).empirical()
        self._log(purpose, lam=lam, **log)
        if not self.mitigate_readout:
            return dist
        if measured is not None:  # the one-qubit ancilla
            t0, t1, _ = readout_invert(float(dist[0]), self._confusion[measured[0]])
            return np.array([t0, t1])
        return invert_distribution(dist, self._confusion[: tail.n_qubits])[0]

    def _maybe_extrapolate(self, xs: list[float], mode: str) -> float:
        """Zero-noise estimate from the values at the fold scales."""
        if len(xs) == 1:
            return xs[0]
        pts = ZnePoints(x1=xs[0], x3=xs[1], x5=xs[2], n=self.shots, mode=mode)
        result = zne_extrapolate(pts)
        if self.telemetry is not None:
            self.telemetry.append({"purpose": "zne", **result.telemetry(pts)})
        if mode == "probability":
            return float(np.clip(result.x0, 0.0, 1.0))
        return result.x0

    # -- primitives -----------------------------------------------------------

    def _heads_for(self, kind: str, params, head) -> dict[int, np.ndarray]:
        """Per fold scale, the prepared state of ``head(ansatz(params))``.

        The states of the last parameters are kept per ``kind``, so the
        several estimates of one objective evaluation that share a head
        prepare it once.  They are read-only: every estimate shares them.
        """
        key = np.asarray(params, dtype=float).tobytes()
        cached = self._heads.get(kind)
        if cached is None or cached[0] != key:
            circuit = head(build_ansatz(params, self.q))
            states = {lam: self._prepare(circuit, lam) for lam in self._scales()}
            for state in states.values():
                state.setflags(write=False)
            cached = self._heads[kind] = (key, states)
        return cached[1]

    def _ansatz_states(self, params) -> dict[int, np.ndarray]:
        """Per fold scale, the ansatz state itself, shared by every estimate
        of the exact and shot tiers and by every tier's overlaps."""
        return self._heads_for("ansatz", params, lambda c: c)

    def _hadamard_bases(self, params) -> dict[int, np.ndarray]:
        """Per fold scale, ancilla|0> (x) ansatz state, shared by every word."""
        return self._heads_for("hadamard", params, lambda c: c.shifted(1, self.q + 1))

    def _hadamard(self, bases: dict[int, np.ndarray], word: str, part: str) -> float:
        """2 P(ancilla=0) - 1 after the word's test tail on each base."""
        tail = _hadamard_tail(self.q, word, part)
        xs = []
        for lam, base in bases.items():
            dist = self._distribution(
                base, tail, lam, (0,), "hadamard-test", word=word, part=part
            )
            xs.append(2.0 * float(dist[0]) - 1.0)
        return self._maybe_extrapolate(xs, mode="expectation")

    def _word(self, psi: np.ndarray, word: str) -> float:
        """<word> on the ansatz state psi by direct measurement."""
        if self.tier == "statevector":
            return np.vdot(psi, word_to_dense(word) @ psi).real
        rotation = Circuit(self.q, tuple(measurement_rotation_gates(word)))
        dist = self._distribution(psi, rotation, 1, None, "pauli-word", word=word)
        return float(dist @ _parity_signs(word))

    def expectation_hadamard_test(self, params, word: str, part: str = "real") -> float:
        """Re or Im of <psi|P|psi> from ancilla statistics 2 P(0) - 1."""
        if word == "I" * len(word):
            return 1.0 if part == "real" else 0.0
        return self._hadamard(self._hadamard_bases(params), word, part)

    def overlap_lowdepth(self, params_a, params_b) -> float:
        """|<psi(b)|psi(a)>|^2 as the all-zeros probability of U(a) U(b)^dag.

        U(a) prepares the state and U(b)^dag is the measured tail; folding
        acts gate by gate, so the folded circuit splits the same way.  The
        states of the last ``params_a`` are kept, so overlaps of one state
        with several priors prepare it once, and each prior's tail is built
        once.
        """
        heads = self._ansatz_states(params_a)
        key = np.asarray(params_b, dtype=float).tobytes()
        tail = self._tails.get(key)
        if tail is None:
            tail = self._tails[key] = build_ansatz(params_b, self.q).inverse()
        xs = []
        for lam, head in heads.items():
            dist = self._distribution(head, tail, lam, None, "overlap")
            xs.append(float(dist[0]))
        return self._maybe_extrapolate(xs, mode="probability")

    # -- assembled estimates ---------------------------------------------------

    def expectation(self, observable: PauliSum, params) -> complex:
        """Tier-appropriate estimate of sum_P C_P <P>.

        The noisy tier estimates every non-identity word with the Hadamard
        test; the exact and shot tiers measure each word directly.
        """
        if observable.n_qubits != self.q:
            raise ValueError(
                f"observable acts on {observable.n_qubits} qubits, ansatz has {self.q}"
            )
        identity = observable.identity_word
        acc = complex(observable.terms.get(identity, 0.0))
        words = [w for w in observable.terms if w != identity]
        if not words:
            return acc
        if self.tier == "noisy":
            bases = self._hadamard_bases(params)
            values = (self._hadamard(bases, word, "real") for word in words)
        else:
            psi = self._ansatz_states(params)[1]
            values = (self._word(psi, word) for word in words)
        for word, value in zip(words, values):
            acc += observable.terms[word] * value
        return acc

    def energy(self, params, h_h: PauliSum, v_cap: PauliSum) -> complex:
        """<H_N> assembled from the two Hermitian parts: <H_H> + i <V_cap>."""
        re = self.expectation(h_h, params).real
        im = self.expectation(v_cap, params).real
        return complex(re, im)
