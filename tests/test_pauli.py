import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrive import pauli
from qdrive.pauli import (
    LETTERS,
    PRUNE_TOL,
    PauliSum,
    decompose,
    qwc_groups,
    word_to_dense,
)


def real_coefficients(s: PauliSum) -> bool:
    """Whether every coefficient is real, i.e. the sum is Hermitian."""
    return all(abs(c.imag) < 1e-12 for c in s.terms.values())


def random_pauli_sum(q, rng, n_terms=5):
    words = ["".join(rng.choice(list("IXYZ"), size=q)) for _ in range(n_terms)]
    terms = {}
    for w in words:
        c = rng.normal() + 1j * rng.normal()
        terms[w] = terms.get(w, 0.0) + c
    return PauliSum(q, terms)


class TestDecompose:
    def test_single_letter_basis_element(self):
        out = decompose(np.diag([1.0, -1.0]).astype(complex))
        assert out.terms == {"Z": 1.0 + 0.0j}

    def test_raising_operator(self):
        # [[0,1],[0,0]] = (X + iY)/2, checked by dense reconstruction
        out = decompose(np.array([[0, 1], [0, 0]], dtype=complex))
        assert out.terms["X"] == pytest.approx(0.5)
        assert out.terms["Y"] == pytest.approx(0.5j)
        assert np.allclose(out.to_dense(), [[0, 1], [0, 0]], atol=1e-14)

    def test_hermitian_input_gives_real_coefficients(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4))
        m = m + m.T
        out = decompose(m.astype(complex))
        assert real_coefficients(out)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            decompose(np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            decompose(np.ones((2, 4)))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_roundtrip_random_matrices(self, q):
        rng = np.random.default_rng(100 + q)
        dim = 2**q
        for _ in range(20):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            out = decompose(m)
            assert np.max(np.abs(out.to_dense() - m)) < 1e-12

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_roundtrip_from_pruned_sum(self, q):
        rng = np.random.default_rng(200 + q)
        for _ in range(10):
            s = random_pauli_sum(q, rng)
            back = decompose(s.to_dense())
            assert set(back.terms) == set(s.terms)
            for w in s.terms:
                assert back.terms[w] == pytest.approx(s.terms[w], abs=1e-12)

    def test_identity_coefficient_is_normalized_trace(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        out = decompose(m)
        assert out.terms["III"] == pytest.approx(np.trace(m) / 8.0, abs=1e-12)


class TestPauliSum:
    def test_prunes_small_coefficients(self):
        s = PauliSum(1, {"X": 1e-16, "Z": 1.0})
        assert set(s.terms) == {"Z"}

    def test_rejects_bad_word_length(self):
        with pytest.raises(ValueError, match="length"):
            PauliSum(2, {"X": 1.0})

    def test_word_dense_consistency(self):
        xz = word_to_dense("XZ")
        assert np.allclose(xz, np.kron(pauli.PAULI_1Q["X"], pauli.PAULI_1Q["Z"]))

    def test_traceless_dense_is_formed_once(self):
        s = PauliSum(2, {"II": 0.75 - 0.5j, "XZ": 1.5, "YY": -0.25})
        traceless = s.traceless_dense()
        expected = s.to_dense() - complex(0.75 - 0.5j) * np.eye(4)
        assert traceless.tobytes() == expected.tobytes()
        assert s.traceless_dense() is traceless


class TestRoundTripProperty:
    """decompose and to_dense invert each other up to rounding at q = 1-4."""

    EPS = np.finfo(float).eps
    coefficients = st.complex_numbers(
        max_magnitude=10.0, allow_nan=False, allow_infinity=False
    )

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), q=st.integers(1, 4))
    def test_sum_to_dense_and_back(self, data, q):
        words = data.draw(st.lists(st.text(LETTERS, min_size=q, max_size=q), max_size=12))
        s = PauliSum(q, {w: data.draw(self.coefficients) for w in words})
        back = decompose(s.to_dense())
        # every coefficient is an average of 4^q products of dense entries
        tol = PRUNE_TOL + 64 * self.EPS * (1.0 + sum(abs(c) for c in s.terms.values()))
        for word in set(s.terms) | set(back.terms):
            assert abs(back.terms.get(word, 0.0) - s.terms.get(word, 0.0)) <= tol, word

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), q=st.integers(1, 4))
    def test_dense_to_sum_and_back(self, data, q):
        dim = 2**q
        m = np.array(data.draw(st.lists(self.coefficients, min_size=dim * dim, max_size=dim * dim)))
        m = m.reshape(dim, dim)
        # each of the 4^q words may lose a pruned coefficient below PRUNE_TOL
        tol = 4**q * PRUNE_TOL + 64 * dim * self.EPS * (1.0 + np.abs(m).max())
        assert np.abs(decompose(m).to_dense() - m).max() <= tol


def covers(basis: str, word: str) -> bool:
    """Whether ``word`` acts only where ``basis`` does, with the same letter."""
    return all(a == "I" or a == b for a, b in zip(word, basis))


class TestQwcGroups:
    """Greedy qubit-wise-commuting grouping maps each word to its basis."""

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), q=st.integers(1, 4))
    def test_each_word_is_read_from_the_first_basis_that_covers_it(self, data, q):
        words = data.draw(st.lists(st.text(LETTERS, min_size=q, max_size=q), max_size=20))
        groups = qwc_groups(words)
        assert list(groups) == list(dict.fromkeys(words))
        bases = list(dict.fromkeys(groups.values()))
        for word, basis in groups.items():
            assert covers(basis, word)
            assert next(b for b in bases if covers(b, word)) == basis
        # members of one group commute qubit by qubit
        for a in groups:
            for b in groups:
                if groups[a] == groups[b]:
                    assert all("I" in (x, y) or x == y for x, y in zip(a, b))


@settings(deadline=None, max_examples=100)
@given(word=st.text(LETTERS, min_size=5, max_size=6))
def test_long_word_is_the_letter_by_letter_product(word):
    """A word of more than four letters, built from two cached halves, is
    the chain of one-letter Kronecker products bit for bit, but for the sign
    of zero entries (adding +0.0 clears it), and is not cached."""
    chain = pauli.PAULI_1Q[word[0]]
    for letter in word[1:]:
        chain = np.kron(chain, pauli.PAULI_1Q[letter])
    assert (word_to_dense(word) + 0.0).tobytes() == (chain + 0.0).tobytes()
    assert all(len(w) <= 4 for w in pauli._word_dense_cache)
