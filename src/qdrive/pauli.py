"""Sparse weighted sums of tensor-product Pauli operators.

Every operator handed to the quantum estimators is represented as a
``PauliSum``: a map from Pauli code words (strings over ``IXYZ``, one letter
per qubit) to complex coefficients.  Dense matrices are decomposed with the
normalized trace inner product so that reconstruction is exact:

    coeff(P) = Tr(M P) / 2**q,    M = sum_P coeff(P) * P
"""
from __future__ import annotations

from itertools import product

import numpy as np

LETTERS = "IXYZ"

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

PRUNE_TOL = 1e-14

_word_dense_cache: dict[str, np.ndarray] = {}


def word_to_dense(word: str) -> np.ndarray:
    """Dense matrix of a Pauli code word.  Words of up to four letters are
    cached; a longer word is the Kronecker product of its first four letters
    and its rest.  Each entry is one product of 0, ±1 and ±i, so only the
    sign of a zero entry can differ from the letter-by-letter product."""
    if len(word) > 4:
        return np.kron(word_to_dense(word[:4]), word_to_dense(word[4:]))
    cached = _word_dense_cache.get(word)
    if cached is None:
        cached = PAULI_1Q[word[0]]
        for letter in word[1:]:
            cached = np.kron(cached, PAULI_1Q[letter])
        _word_dense_cache[word] = cached
    return cached


class PauliSum:
    """Weighted sum of Pauli code words on a fixed number of qubits."""

    __slots__ = ("n_qubits", "terms", "_dense", "_traceless")

    def __init__(self, n_qubits: int, terms: dict[str, complex] | None = None):
        self.n_qubits = int(n_qubits)
        self.terms: dict[str, complex] = {}
        self._dense = self._traceless = None
        if terms:
            for word, coeff in terms.items():
                if len(word) != self.n_qubits:
                    raise ValueError(
                        f"word {word!r} has length {len(word)}, expected {self.n_qubits}"
                    )
                if any(letter not in LETTERS for letter in word):
                    raise ValueError(f"invalid letters in word {word!r}")
                if abs(coeff) >= PRUNE_TOL:
                    self.terms[word] = complex(coeff)

    @property
    def identity_word(self) -> str:
        return "I" * self.n_qubits

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            out[word] = out.get(word, 0.0) + coeff
        return PauliSum(self.n_qubits, out)

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum(self.n_qubits, {w: factor * c for w, c in self.terms.items()})

    def to_dense(self) -> np.ndarray:
        if self._dense is None:
            dim = 2**self.n_qubits
            mat = np.zeros((dim, dim), dtype=complex)
            for word, coeff in self.terms.items():
                mat += coeff * word_to_dense(word)
            self._dense = mat
        return self._dense

    def traceless_dense(self) -> np.ndarray:
        """The dense operator less its identity term, D - c_I I."""
        if self._traceless is None:
            c_i = complex(self.terms.get(self.identity_word, 0.0))
            self._traceless = self.to_dense() - c_i * np.eye(2**self.n_qubits)
        return self._traceless


def decompose(matrix: np.ndarray) -> PauliSum:
    """Decompose a dense 2**q x 2**q matrix into a PauliSum.

    Coefficients carry the 1/2**q trace normalization required for the
    reconstruction sum_P coeff(P)*P to reproduce the input exactly.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dim = matrix.shape[0]
    q = dim.bit_length() - 1
    if 2**q != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    terms: dict[str, complex] = {}
    mt = matrix.T.copy()
    for letters in product(LETTERS, repeat=q):
        word = "".join(letters)
        # Tr(M P) = sum_ij M_ij P_ji
        coeff = np.sum(mt * word_to_dense(word)) / dim
        if abs(coeff) >= PRUNE_TOL:
            terms[word] = complex(coeff)
    return PauliSum(q, terms)


def qwc_groups(words) -> dict[str, str]:
    """Greedy first-fit cover of ``words`` by qubit-wise-commuting groups:
    each word mapped to the measurement basis of its group.

    A group's basis is, per qubit, the letter its members share there, or I
    where none of them acts.  A word joins the first group whose members it
    commutes with qubit by qubit, i.e. whose basis it agrees with wherever
    both act.  Merging only fills I letters, so a word's group is the first
    basis that covers it, and the map's distinct values, in order, are the
    groups in the order they were opened.
    """
    bases: list[str] = []
    group: dict[str, int] = {}
    for word in words:
        for i, basis in enumerate(bases):
            if all(a == "I" or b == "I" or a == b for a, b in zip(word, basis)):
                bases[i] = "".join(b if a == "I" else a for a, b in zip(word, basis))
                break
        else:
            i = len(bases)
            bases.append(word)
        group[word] = i
    return {word: bases[i] for word, i in group.items()}
