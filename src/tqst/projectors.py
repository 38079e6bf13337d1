"""Tomographically complete separable projector sets.

Every element of an n-qubit density matrix is assigned a product projector
over the letters {H, V, D, R}, and every projector has its place, its cell,
in one 2**n x 2**n table: diagonal element k gets its computational basis
word at cell (k, k), and each off-diagonal element (i, j) with i < j gets
its real-part word at cell (i, j) and its imaginary-part word at (j, i).
Two equivalent constructions are provided:

* :func:`build_projector_table` materializes the whole table by a quadrant
  recursion, and
* :func:`projector_for` computes the word at one cell on demand by walking
  the nested 2x2 quadrant subdivision of the matrix, one qubit per level.

The resulting 4**n words are exactly the product words over {H, V, D, R},
the cells of one 4**n word grid.  Probabilities and sums over that grid are
n mode products, one 4 x 4 matrix per qubit, the kernel that the fit's grid
model, :func:`linear_inversion` and :func:`completeness_check` share: in
cell order the Gram matrix of squared overlaps is the n-fold Kronecker power
of the one-qubit one, and so always invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ResourceLimitError, STATE_LABELS, STATE_VECTORS, validate_word

TABLE_CAP = 8
MIN_SINGULAR_VALUE = 1e-10  # completeness: smallest Gram singular value
HERMITIAN_TOL = 1e-9  # psd_projection input checks
TRACE_TOL = 1e-6


def projector_for(n: int, row: int, col: int) -> str:
    """The word at cell (``row``, ``col``) of the n-qubit table, by walking
    the nested 2x2 quadrant subdivision of the matrix, one qubit per level.

    The walk locates element (i, j), i = min(row, col) and j = max(row, col),
    first qubit first.  At each level the current block splits into
    quadrants 1 (upper left), 2 (upper right), 3 (lower left) and 4 (lower
    right).  Quadrant 1 emits H and quadrant 4 emits V: i and j share the
    bit.  Where they differ, the walk enters quadrant 2 or 3 and lands on
    its upper portion when the rest of i is below the rest of j, on its
    lower portion when it is above; on the sub-block's diagonal it lands on
    the upper portion exactly for the real part, row < col.  The upper
    portion emits D and the lower one R, swapped whenever the most recent
    quadrant-2/3 step landed in a lower portion: walking through an H or V
    level stays inside the same (mirrored or not) sub-table.  A diagonal
    cell walks quadrants 1 and 4 only and gives its basis word.
    """
    if n < 1 or not (0 <= row < 2**n and 0 <= col < 2**n):
        raise ValueError(f"cell ({row}, {col}) is outside the {n}-qubit table")
    i, j = min(row, col), max(row, col)
    letters = []
    lower = False  # after a lower step: inside the mirrored companion table
    for k in reversed(range(n)):
        bit = 1 << k
        if not (i ^ j) & bit:
            letters.append("V" if i & bit else "H")
            continue
        rest_i, rest_j = i & (bit - 1), j & (bit - 1)
        upper = row < col if rest_i == rest_j else rest_i < rest_j
        letters.append("R" if upper == lower else "D")
        lower = not upper
    return "".join(letters)


@dataclass(frozen=True)
class ProjectorTable:
    """All projector words of an n-qubit set as one 2**n x 2**n word grid.

    ``grid[k][k]`` is the word for diagonal element k.  For i < j,
    ``grid[i][j]`` measures the real part of element (i, j) and
    ``grid[j][i]`` its imaginary part.
    """

    n: int
    grid: tuple[tuple[str, ...], ...] = field(repr=False)

    def words(self) -> list[str]:
        """Each diagonal word, then the re and im words of the later pairs in its row."""
        g = self.grid
        out = []
        for i, row in enumerate(g):
            out.append(row[i])
            for j in range(i + 1, len(g)):
                out += [row[j], g[j][i]]
        return out


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


_GRID_LETTERS = "HVDR"
#: T[l, 2a + b] = v_l[a] conj(v_l[b]) for the grid letters l = H, V, D, R:
#: the one-qubit factor of |psi_w><psi_w| over a pair (a, b) of rho's bits
_GRID_PAIRS = np.array([np.outer(STATE_VECTORS[c], STATE_VECTORS[c].conj()).ravel()
                        for c in _GRID_LETTERS])
_GRID_DIGITS = np.full(128, -1, dtype=np.int64)  # a letter's base-4 digit, -1 off the grid
_GRID_DIGITS[[ord(c) for c in _GRID_LETTERS]] = np.arange(4)


def _letter_codes(words, n: int) -> np.ndarray:
    """The ``n``-letter ``words`` as one m x ``n`` array of their letters' code points."""
    return np.frombuffer("".join(words).encode(), dtype=np.uint8).reshape(-1, n)


def _grid_cells(words, n: int) -> np.ndarray | None:
    """The cells of the ``n``-letter ``words`` in the 4**n word grid
    {H, V, D, R}**n: the letters as base-4 digits, H = 0, V = 1, D = 2,
    R = 3, first letter most significant; None if a word has an A or L."""
    digits = _GRID_DIGITS[_letter_codes(words, n)]
    if (digits < 0).any():
        return None
    return digits @ 4 ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _mode_products(x: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """``x``, 4**n entries over n base-4 digits, first most significant, with
    the 4 x 4 matrix ``m`` applied along every digit."""
    mt = m.T
    for _ in range(n):
        # contracts the leading digit and puts the new one last: after n
        # steps the digits are back in order
        x = x.reshape(4, -1).T @ mt
    return x.reshape(-1)


def _grid_probabilities(f: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    """||F psi_w||^2 of the grid words at ``cells``: X = F^T conj(F), its
    row and column bits paired as (a_1, b_1, ..., a_n, b_n), through T
    along each pair."""
    x = (f.T @ f.conj()).reshape((2,) * 2 * n).transpose(np.arange(2 * n).reshape(2, n).T.ravel())
    return _mode_products(x, _GRID_PAIRS, n)[cells].real


def _grid_adjoint(alpha: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    """H = sum_w alpha_w psi_w psi_w^dag, the adjoint of
    :func:`_grid_probabilities` at X, as a 2**n x 2**n matrix: the
    per-cell sums of ``alpha`` through T^T along each pair."""
    g = _mode_products(np.bincount(cells, alpha, minlength=4**n), _GRID_PAIRS.T, n)
    pairs = g.reshape((2,) * 2 * n).transpose(np.arange(2 * n).reshape(n, 2).T.ravel())
    return pairs.reshape(2**n, 2**n)


def _grid_gram() -> np.ndarray:
    """G_1 = T T^dag, the squared overlaps |<l|l'>|^2 of the grid letters:
    in cell order, the Gram matrix of the 4**n grid words is its n-fold
    Kronecker power."""
    return (_GRID_PAIRS @ _GRID_PAIRS.conj().T).real


def gram_matrix(projectors: list[str]) -> np.ndarray:
    """Matrix of squared overlaps |<psi_a|psi_b>|**2 between projector kets,
    by brute force over every pair of words.

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
    vectors = np.array([STATE_VECTORS[c] for c in STATE_LABELS])
    base = np.abs(vectors.conj() @ vectors.T) ** 2  # |<a|b>|**2 between single-qubit states
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
    """Invertibility of the full set's Gram matrix, from its smallest
    singular value: sigma_min(G_1)**n when the table's words fill each cell
    of the word grid once (:func:`_grid_gram`), and 0 when they do not, as
    with a repeated word, whose two equal rows make the matrix singular."""
    words = build_projector_table(n).words()
    cells = _grid_cells(words, n)
    filled = cells is not None and np.array_equal(np.sort(cells), np.arange(4**n))
    smin = float(np.linalg.eigvalsh(_grid_gram())[0]) ** n if filled else 0.0
    return CompletenessReport(
        n=n, order=len(words), min_singular_value=smin, invertible=smin > MIN_SINGULAR_VALUE
    )


def linear_inversion(records) -> np.ndarray:
    """Reconstruct a matrix from one count record per projector of the full set.

    The frequencies f satisfy f = G c for the expansion coefficients c of the
    measured state over the 4**n projectors, rho = sum_w c_w psi_w psi_w^dag.
    In cell order G is the Kronecker power of G_1, so c is n mode products
    of f with G_1's inverse and rho their :func:`_grid_adjoint`.  The output
    is Hermitized but may fail positivity on noisy data; follow with
    :func:`psd_projection`.
    """
    if not records:
        raise ValueError("no records given")
    n = len(records[0].projector)
    if n > TABLE_CAP:
        raise ResourceLimitError(
            f"the full set for n={n} has 4**{n} projectors; the limit is n <= {TABLE_CAP}"
        )
    by_word = {}
    for rec in records:
        if len(rec.projector) != n:
            raise ValueError("records mix qubit counts")
        if rec.projector in by_word:
            raise ValueError(f"duplicate record for projector {rec.projector!r}")
        by_word[rec.projector] = rec
    cells = _grid_cells(by_word, n)
    if cells is None:
        extra = sorted(w for w in by_word if set(w) - set(_GRID_LETTERS))
        raise ValueError(f"records for projectors outside the set: {extra[:4]}")
    if cells.size < 4**n:  # distinct grid words fill distinct cells
        missing = [w for w in build_projector_table(n).words() if w not in by_word]
        raise ValueError(f"records do not cover the full set; missing {missing[:4]}...")

    freq = np.array([rec.observed / rec.shots for rec in by_word.values()])
    coeff = _mode_products(np.bincount(cells, freq, minlength=4**n), np.linalg.inv(_grid_gram()), n)
    rho = _grid_adjoint(coeff, np.arange(4**n), n)
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
