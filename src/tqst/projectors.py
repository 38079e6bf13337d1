"""Tomographically complete separable projector sets.

Every element of an n-qubit density matrix is assigned a product projector
over the letters {H, V, D, R}: diagonal element k gets its computational
basis word, and each off-diagonal element (i, j) with j > i gets one word for
its real part and one for its imaginary part.  Two equivalent constructions
are provided:

* :func:`build_projector_table` materializes all 4**n words as one
  2**n x 2**n word grid by a quadrant recursion, and
* :func:`projector_for` computes a single word on demand by walking the
  nested 2x2 quadrant subdivision of the matrix, one qubit per level.

The resulting 4**n words are exactly the product words over {H, V, D, R}, so
their Gram matrix of squared overlaps factorizes over qubits and is always
invertible; :func:`linear_inversion` uses it to reconstruct a matrix from
exact or sampled expectation values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ElementIndex,
    NumericalFailureError,
    ResourceLimitError,
    STATE_LABELS,
    STATE_VECTORS,
    basis_word,
    product_ket,
    validate_word,
)

TABLE_CAP = 8
GRAM_CAP = 6
MIN_SINGULAR_VALUE = 1e-10  # completeness: smallest Gram singular value
HERMITIAN_TOL = 1e-9  # psd_projection input checks
TRACE_TOL = 1e-6


def quadrant_walk(n: int, idx: ElementIndex) -> list[str]:
    """Quadrant labels visited when locating element (i, j) in the n-qubit table.

    At each level the current block is split into quadrants 1 (upper left),
    2 (upper right), 3 (lower left), and 4 (lower right).  Quadrants 2 and 3
    additionally carry ``u`` or ``l`` for the position inside the sub-block:
    strictly above its diagonal is ``u``, strictly below is ``l``, and a
    position exactly on it resolves by the requested part (re -> u, im -> l).
    Once on a sub-block diagonal the walk stays on it, so that resolution
    happens at most once.
    """
    _check_index(n, idx)
    labels = []
    for k in reversed(range(n)):
        bi = (idx.i >> k) & 1
        bj = (idx.j >> k) & 1
        if bi == bj:
            labels.append("1" if bi == 0 else "4")
            continue
        quad = "2" if bi == 0 else "3"
        mask = (1 << k) - 1
        si = idx.i & mask
        sj = idx.j & mask
        if si == sj:
            upper = idx.part == "re"
        else:
            upper = si < sj
        labels.append(quad + ("u" if upper else "l"))
    return labels


def projector_for(n: int, idx: ElementIndex) -> str:
    """Product-projector word measuring one density-matrix element.

    Diagonal elements map to their computational-basis word.  Off-diagonal
    elements emit one letter per quadrant-walk step: quadrant 1 -> H,
    quadrant 4 -> V, and quadrants 2/3 emit D on the upper portion and R on
    the lower one, with D and R swapped whenever the most recent quadrant-2/3
    step landed in a lower portion.  Quadrant 1/4 steps keep that context:
    walking through an H or V level stays inside the same (mirrored or not)
    sub-table, so only u/l steps may toggle it.
    """
    _check_index(n, idx)
    if idx.part == "diag":
        return basis_word(idx.i, n)
    letters = []
    # True while the walk is inside the mirrored companion table, i.e. after a
    # lower (2l/3l) step; H/V steps stay within the current table.
    prev_lower = False
    for label in quadrant_walk(n, idx):
        if label == "1":
            letters.append("H")
        elif label == "4":
            letters.append("V")
        else:
            upper = label.endswith("u")
            if upper:
                letters.append("R" if prev_lower else "D")
            else:
                letters.append("D" if prev_lower else "R")
            prev_lower = not upper
    return "".join(letters)


def _check_index(n: int, idx: ElementIndex) -> None:
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    if idx.j >= 2**n:
        raise ValueError(f"element ({idx.i}, {idx.j}) out of range for {n} qubits")


@dataclass(frozen=True)
class ProjectorTable:
    """All projector words of an n-qubit set as one 2**n x 2**n word grid.

    ``grid[k][k]`` is the word for diagonal element k.  For i < j,
    ``grid[i][j]`` measures the real part of element (i, j) and
    ``grid[j][i]`` its imaginary part.
    """

    n: int
    grid: tuple[tuple[str, ...], ...] = field(repr=False)

    def elements(self) -> list[tuple[ElementIndex, str]]:
        """All (element, word) pairs in row-major upper-triangle order."""
        g = self.grid
        out = []
        for i in range(len(g)):
            out.append((ElementIndex(i, i, "diag"), g[i][i]))
            for j in range(i + 1, len(g)):
                out += [(ElementIndex(i, j, "re"), g[i][j]), (ElementIndex(i, j, "im"), g[j][i])]
        return out

    def words(self) -> list[str]:
        return [w for _, w in self.elements()]


def build_projector_table(n: int) -> ProjectorTable:
    """Materialize the full n-qubit projector table by the quadrant recursion.

    The 1-qubit grid is [[H, D], [R, V]].  Doubling from k-1 to k qubits
    prefixes the previous grid G with H in the upper-left quadrant and V in
    the lower-right one.  The upper-right quadrant prefixes D on and above
    G's diagonal and R below it; the lower-left quadrant does the opposite.
    """
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    if n > TABLE_CAP:
        raise ResourceLimitError(
            f"table for n={n} has 4**{n} projectors; the limit is n <= {TABLE_CAP}"
        )
    grid = [["H", "D"], ["R", "V"]]
    for _ in range(n - 1):
        upper = [
            ["H" + w for w in row] + [("D" if a <= b else "R") + w for b, w in enumerate(row)]
            for a, row in enumerate(grid)
        ]
        lower = [
            [("R" if a <= b else "D") + w for b, w in enumerate(row)] + ["V" + w for w in row]
            for a, row in enumerate(grid)
        ]
        grid = upper + lower
    return ProjectorTable(n=n, grid=tuple(map(tuple, grid)))


def _letter_overlap_sq() -> np.ndarray:
    """6x6 table of |<a|b>|**2 between single-qubit states."""
    table = np.empty((6, 6))
    for p, a in enumerate(STATE_LABELS):
        for q, b in enumerate(STATE_LABELS):
            table[p, q] = abs(np.vdot(STATE_VECTORS[a], STATE_VECTORS[b])) ** 2
    return table


def gram_matrix(projectors: list[str]) -> np.ndarray:
    """Matrix of squared overlaps |<psi_a|psi_b>|**2 between projector kets.

    Overlaps of product states factorize over qubits, so the matrix is built
    from the 6x6 single-qubit table without forming any 2**n kets.
    """
    if not projectors:
        raise ValueError("need at least one projector")
    n = len(projectors[0])
    for w in projectors:
        validate_word(w)
        if len(w) != n:
            raise ValueError(f"mixed word lengths: {w!r} vs length {n}")
    letters = np.array([[STATE_LABELS.index(c) for c in w] for w in projectors])
    base = _letter_overlap_sq()
    m = np.ones((len(projectors), len(projectors)))
    for q in range(n):
        col = letters[:, q]
        m *= base[col[:, None], col[None, :]]
    return m


@dataclass(frozen=True)
class CompletenessReport:
    n: int
    order: int
    min_singular_value: float
    invertible: bool


def completeness_check(n: int) -> CompletenessReport:
    """Invertibility of the full 4**n Gram matrix via its smallest singular value."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    if n > GRAM_CAP:
        raise ResourceLimitError(
            f"Gram matrix for n={n} has order 4**{n}; the limit is n <= {GRAM_CAP}"
        )
    words = build_projector_table(n).words()
    m = gram_matrix(words)
    # symmetric matrix: singular values are the absolute eigenvalues
    smin = float(np.min(np.abs(np.linalg.eigvalsh(m))))
    return CompletenessReport(
        n=n, order=len(words), min_singular_value=smin, invertible=smin > MIN_SINGULAR_VALUE
    )


def linear_inversion(records) -> np.ndarray:
    """Reconstruct a matrix from one count record per projector of the full set.

    Solves the Gram system for the expansion coefficients of the measured
    state over the 4**n projectors (least-squares with a rank check rather
    than an explicit inverse) and assembles the matrix from them.  The output
    is Hermitized but may fail positivity on noisy data; follow with
    :func:`psd_projection`.
    """
    if not records:
        raise ValueError("no records given")
    n = len(records[0].projector)
    by_word = {}
    for rec in records:
        if len(rec.projector) != n:
            raise ValueError("records mix qubit counts")
        if rec.projector in by_word:
            raise ValueError(f"duplicate record for projector {rec.projector!r}")
        by_word[rec.projector] = rec
    words = build_projector_table(n).words()
    missing = [w for w in words if w not in by_word]
    if missing:
        raise ValueError(f"records do not cover the full set; missing {missing[:4]}...")
    extra = set(by_word) - set(words)
    if extra:
        raise ValueError(f"records for projectors outside the set: {sorted(extra)[:4]}")

    freq = np.array([by_word[w].observed / by_word[w].shots for w in words])
    m = gram_matrix(words)
    coeff, _, rank, _ = np.linalg.lstsq(m, freq, rcond=None)
    if rank < len(words):
        raise NumericalFailureError(f"Gram matrix is rank deficient ({rank} < {len(words)})")

    kets = np.zeros((len(words), 2**n), dtype=complex)
    for ket, w in zip(kets, words):
        support, amplitudes = product_ket(w)
        ket[support] = amplitudes
    rho = (kets.T * coeff) @ kets.conj()
    return (rho + rho.conj().T) / 2.0


def psd_projection(m: np.ndarray) -> np.ndarray:
    """Closest unit-trace positive semi-definite matrix in Frobenius norm.

    Eigendecomposes the input and zeroes negative eigenvalues in ascending
    order while spreading their mass uniformly over the survivors, which for
    a trace-1 Hermitian input is the Euclidean projection of the spectrum
    onto the probability simplex.
    """
    m = np.asarray(m, dtype=complex)
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > HERMITIAN_TOL:
        raise ValueError(f"input is not Hermitian (violation {herm:.3g})")
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"input trace {tr:.9f} is not 1 within {TRACE_TOL}")

    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    lam = vals.copy()
    carried = 0.0
    for k in range(lam.size):
        remaining = lam.size - k
        if lam[k] + carried / remaining < 0.0:
            carried += lam[k]
            lam[k] = 0.0
        else:
            lam[k:] += carried / remaining
            break
    rho = (vecs * lam) @ vecs.conj().T
    return (rho + rho.conj().T) / 2.0
