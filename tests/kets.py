"""The dense product ket of a word, for tests that compare with dense references."""

import numpy as np

from tqst.core import product_ket


def dense_ket(word: str) -> np.ndarray:
    """The 2**n vector of ``word``: ``product_ket``'s amplitudes at its support."""
    support, amplitudes = product_ket(word)
    ket = np.zeros(2 ** len(word), dtype=complex)
    ket[support] = amplitudes
    return ket
