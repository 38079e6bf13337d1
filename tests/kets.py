"""Product kets for tests: the dense ket of a word, for comparisons with dense
references, and the chained-outer builder that ``product_ket``'s tables must
reproduce bit for bit."""

import numpy as np

from tqst.core import STATE_VECTORS, product_ket, validate_word

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
