"""Dense references for tests: the dense ket of a word, the chained-outer
builder that ``product_ket``'s tables must reproduce bit for bit, and the
Gram-matrix linear inversion that ``projectors.linear_inversion``'s mode
products must reproduce."""

import numpy as np

from tqst.core import STATE_VECTORS, product_ket, validate_word
from tqst.projectors import build_projector_table, gram_matrix

_V_BITS = str.maketrans("HVDARL", "010000")


def dense_ket(word: str) -> np.ndarray:
    """The 2**n vector of ``word``: ``product_ket``'s amplitudes at its support."""
    support, amplitudes = product_ket(word)
    ket = np.zeros(2 ** len(word), dtype=complex)
    ket[support] = amplitudes
    return ket


def reference_ket(word: str) -> tuple[np.ndarray, np.ndarray]:
    """``product_ket``'s nonzeros built word by word, with no table: the support
    doubled once per D/A/R/L letter, lowest bit first, and one chained
    ``np.multiply.outer`` per D/A/R/L letter after the first."""
    validate_word(word)
    support = [int(word.translate(_V_BITS), 2)]
    for q, c in enumerate(reversed(word)):  # bit q, lowest first: the support stays increasing
        if c in "DARL":
            support += [k | 1 << q for k in support]
    letters = word.replace("H", "").replace("V", "")
    amplitudes = STATE_VECTORS[letters[0]] if letters else np.ones(1, dtype=complex)
    for c in letters[1:]:  # the products of np.kron, over the D/A/R/L letters
        amplitudes = np.multiply.outer(amplitudes, STATE_VECTORS[c]).ravel()
    return np.array(support, dtype=np.int64), amplitudes


def reference_linear_inversion(records) -> np.ndarray:
    """``linear_inversion`` through the dense 4**n x 4**n Gram matrix of the
    full set: its least-squares solution for the expansion coefficients, and
    the matrix assembled from the 4**n x 2**n dense kets."""
    n = len(records[0].projector)
    by_word = {rec.projector: rec for rec in records}
    words = build_projector_table(n).words()
    freq = np.array([by_word[w].observed / by_word[w].shots for w in words])
    coeff, _, rank, _ = np.linalg.lstsq(gram_matrix(words), freq, rcond=None)
    assert rank == len(words), f"Gram matrix is rank deficient ({rank} < {len(words)})"
    kets = np.array([dense_ket(w) for w in words])
    rho = (kets.T * coeff) @ kets.conj()
    return (rho + rho.conj().T) / 2.0
