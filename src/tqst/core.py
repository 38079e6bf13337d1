"""Qubit measurement states, tensor products, and density-matrix validity checks.

Conventions used across the package:

* single-qubit states are named with the polarization letters H, V, D, A, R, L;
* a product projector is written as a word over those letters, e.g. ``"RDV"``;
* the first letter of a word is the most significant bit of the computational
  index, so the all-``H`` word is basis state 0 and the all-``V`` word is
  basis state ``2**n - 1``;
* all matrix indices are 0-based.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Amplitudes of the six single-qubit measurement states in the computational
#: basis (H = |0>, V = |1>).  Read-only: ``product_ket`` of a one-letter word
#: returns the table entry itself.
STATE_VECTORS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "R": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "L": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}
for _amplitudes in STATE_VECTORS.values():
    _amplitudes.setflags(write=False)

STATE_LABELS = "HVDARL"

PARTS = ("re", "im", "diag")


class TomographyError(Exception):
    """Base class for tomography-specific failures."""


class ResourceLimitError(TomographyError):
    """A computation was requested above its configured size cap."""


class NumericalFailureError(TomographyError):
    """A numerical step failed (singular system, non-convergent factorization)."""


@dataclass(frozen=True)
class ElementIndex:
    """Targeted density-matrix element: row ``i``, column ``j``, and which real
    degree of freedom (``re``/``im`` for off-diagonal, ``diag`` on the diagonal).
    """

    i: int
    j: int
    part: str

    def __post_init__(self):
        if self.part not in PARTS:
            raise ValueError(f"part must be one of {PARTS}, got {self.part!r}")
        if self.i < 0 or self.j < self.i:
            raise ValueError(f"need 0 <= i <= j, got i={self.i}, j={self.j}")
        if (self.part == "diag") != (self.i == self.j):
            raise ValueError("part='diag' exactly when i == j")


def validate_word(word: str) -> str:
    """Check a projector word and return it unchanged."""
    if not word:
        raise ValueError("projector word must not be empty")
    bad = set(word) - set(STATE_LABELS)
    if bad:
        raise ValueError(f"unknown state letters {sorted(bad)} in {word!r}")
    return word


_BITS_TO_HV = str.maketrans("01", "HV")
_HV_TO_BITS = str.maketrans("HV", "01")


def basis_word(index: int, n: int) -> str:
    """Computational-basis word for ``index``: bit 0 -> H, bit 1 -> V."""
    if not 0 <= index < 2**n:
        raise ValueError(f"index {index} out of range for {n} qubits")
    return format(index, f"0{n}b").translate(_BITS_TO_HV)


def product_ket(word: str) -> np.ndarray:
    """Tensor product of single-qubit amplitudes, first letter most significant.

    Returns a unit-norm complex vector of dimension ``2**len(word)``.
    """
    validate_word(word)
    if len(word) > 1 and not word.strip("HV"):
        # a basis word is one-hot, with the same bytes as the chain: its zeros are all +0.0
        ket = np.zeros(2 ** len(word), dtype=complex)
        ket[int(word.translate(_HV_TO_BITS), 2)] = 1.0
        return ket
    # the chain of outer products forms the same products as np.kron
    ket = STATE_VECTORS[word[0]]
    for c in word[1:]:
        ket = np.multiply.outer(ket, STATE_VECTORS[c]).ravel()
    return ket


def expectation(factor: np.ndarray, word: str) -> float:
    """Expectation <psi|rho|psi> of the projector |psi><psi| described by
    ``word`` in rho = F^H F, computed from the r x 2**n factor F as ||F psi||**2."""
    psi = product_ket(word)
    if factor.shape[1:] != psi.shape:
        raise ValueError(f"dimension mismatch: factor is {factor.shape}, "
                         f"word {word!r} needs r x {psi.size}")
    a = factor @ psi
    return float(np.vdot(a, a).real)


#: Largest qubit count of a state: its basis indices are int64.
MAX_QUBITS = 62


@dataclass(frozen=True, eq=False)
class BlockState:
    """The state rho = F^H F on the basis states ``columns``, plus the
    ``populations`` of the basis states ``isolated`` on its diagonal, and zero
    elsewhere: (F^H F) ⊕ diag(populations), in n qubits.

    ``columns`` and ``isolated`` are disjoint, strictly increasing int64
    indices below 2**n; ``factor`` is r x len(columns) with r >= 1, and the
    populations are finite and non-negative.  Any fault raises ValueError.
    A factor over all 2**n columns, with no isolated state, is the plain
    factored state of :meth:`of_factor`.
    """

    n: int
    columns: np.ndarray
    factor: np.ndarray
    isolated: np.ndarray = field(default_factory=lambda: np.arange(0))
    populations: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if type(self.n) is not int or not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be an integer in 1..{MAX_QUBITS}, got {self.n!r}")
        for name in ("columns", "isolated"):
            index = np.asarray(getattr(self, name), dtype=np.int64)
            if index.ndim != 1 or (index.size and (index[0] < 0 or index[-1] >= 2**self.n)):
                raise ValueError(f"{name} must be a list of basis indices below 2**{self.n}")
            if (np.diff(index) <= 0).any():
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, index)
        factor = np.asarray(self.factor, dtype=complex)
        populations = np.asarray(self.populations, dtype=float)
        if factor.ndim != 2 or factor.shape[0] < 1 or factor.shape[1] != self.columns.size:
            raise ValueError(f"factor of shape {factor.shape} is not r x {self.columns.size} "
                             f"(one column per entry of columns) with r >= 1")
        if not np.isfinite(factor).all():
            raise ValueError("factor has non-finite entries")
        if populations.shape != self.isolated.shape:
            raise ValueError(f"{populations.size} populations for {self.isolated.size} isolated states")
        if not (np.isfinite(populations) & (populations >= 0.0)).all():
            raise ValueError("populations must be finite and non-negative")
        if np.intersect1d(self.columns, self.isolated).size:
            raise ValueError("an isolated state is also a column of the factor")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "populations", populations)

    @classmethod
    def of_factor(cls, factor: np.ndarray) -> "BlockState":
        """The state F^H F of an r x 2**n factor F over all columns."""
        factor = np.asarray(factor, dtype=complex)
        n = _factor_qubits(factor.shape)
        if n is None:
            raise ValueError(f"factor shape {factor.shape} is not r x 2**n with r >= 1, n >= 1")
        return cls(n, np.arange(2**n), factor)

    @property
    def all_columns(self) -> bool:
        """Whether the factor covers all 2**n columns, as in a plain factored state."""
        return self.columns.size == 2**self.n


def density(state) -> np.ndarray:
    """The density matrix of a :class:`BlockState`, or F^H F of a factor F:
    the one function that forms it."""
    if not isinstance(state, BlockState):
        return state.conj().T @ state
    if state.all_columns:
        return density(state.factor)
    rho = np.zeros((2**state.n, 2**state.n), dtype=complex)
    rho[np.ix_(state.columns, state.columns)] = density(state.factor)
    rho[state.isolated, state.isolated] = state.populations
    return rho


@dataclass(frozen=True)
class ValidityReport:
    """Per-invariant violation magnitudes for a candidate density matrix.

    Each violation is how far the matrix exceeds the corresponding bound; a
    check passes when its violation does not exceed ``tolerance``.
    """

    tolerance: float
    hermitian_violation: float
    trace_violation: float
    psd_violation: float
    offdiag_violation: float

    @property
    def ok(self) -> bool:
        violations = (self.hermitian_violation, self.trace_violation, self.psd_violation,
                      self.offdiag_violation)
        return all(v <= self.tolerance for v in violations)


def validate_density(m: np.ndarray, tolerance: float = 1e-9) -> ValidityReport:
    """Check Hermiticity, unit trace, positivity, and the off-diagonal bound.

    The off-diagonal bound |m_ij| <= sqrt(m_ii * m_jj) is a consequence of
    positivity but is reported separately because it is the inequality the
    thresholding step relies on.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")

    herm = float(np.max(np.abs(m - m.conj().T)))
    trace = float(abs(np.trace(m) - 1.0))

    hermitized = (m + m.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(hermitized)
    psd = float(max(0.0, -eigs.min()))

    diag = np.clip(np.real(np.diag(m)), 0.0, None)
    ceiling = np.sqrt(np.outer(diag, diag))
    excess = np.abs(m) - ceiling
    np.fill_diagonal(excess, -np.inf)
    offdiag = float(max(0.0, excess.max())) if m.shape[0] > 1 else 0.0

    return ValidityReport(
        tolerance=float(tolerance),
        hermitian_violation=herm,
        trace_violation=trace,
        psd_violation=psd,
        offdiag_violation=offdiag,
    )


def save_density(path: str | Path, state) -> None:
    """Write a :class:`BlockState`, or the state F^H F of a factor F, at full
    precision: {"n_qubits", "factor_re", "factor_im"} for a factor over all
    2**n columns, and otherwise {"n_qubits", "columns", "factor_re",
    "factor_im", "isolated", "populations"}."""
    if not isinstance(state, BlockState):
        state = BlockState.of_factor(state)
    payload = {"n_qubits": state.n}
    if not state.all_columns:
        payload["columns"] = state.columns.tolist()
    payload["factor_re"] = state.factor.real.tolist()
    payload["factor_im"] = state.factor.imag.tolist()
    if not state.all_columns:
        payload["isolated"] = state.isolated.tolist()
        payload["populations"] = state.populations.tolist()
    Path(path).write_text(json.dumps(payload, allow_nan=False))


BLOCK_KEYS = ("columns", "isolated", "populations")


def load_state(path: str | Path) -> BlockState:
    """Read the state written by :func:`save_density`.  The factor arrays must
    be r x 2**n_qubits, or r x len(columns) when the file has the block keys
    ``columns``, ``isolated`` and ``populations`` (all three or none), with
    r >= 1 and finite numeric entries; indices must be integers.  A file
    without the factor keys, such as a dense ``{"re", "im"}`` matrix, is
    rejected, and so is any fault :class:`BlockState` rejects."""
    try:
        payload = json.loads(Path(path).read_text())
        n = payload["n_qubits"]
        if type(n) is not int:  # neither 1.9 nor true is read as 1
            raise TypeError(f"n_qubits {n!r} is not an integer")
        re, im = _json_numbers(payload["factor_re"]), _json_numbers(payload["factor_im"])
        block = [key in payload for key in BLOCK_KEYS]
        if any(block) and not all(block):
            raise KeyError(f"{BLOCK_KEYS} must be given together")
        if all(block):
            columns, isolated = (_json_indices(payload[key]) for key in ("columns", "isolated"))
            populations = _json_numbers(payload["populations"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a factored density-matrix JSON file with keys "
                         f"n_qubits, factor_re, factor_im ({exc!r})") from exc
    if re.shape != im.shape:
        raise ValueError(f"{path}: factor_re and factor_im have shapes {re.shape} and {im.shape}")
    try:
        if all(block):
            return BlockState(n, columns, re + 1j * im, isolated, populations)
        # n comes from the arrays' shape, so n_qubits is never exponentiated unchecked
        if _factor_qubits(re.shape) != n:
            raise ValueError(f"n_qubits={n} does not match arrays of shape {re.shape}, "
                             "which must be r x 2**n_qubits with r >= 1")
        return BlockState.of_factor(re + 1j * im)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_density(path: str | Path) -> np.ndarray:
    """The density matrix of the state in a :func:`save_density` file."""
    return density(load_state(path))


def _json_indices(value) -> np.ndarray:
    """A JSON list of integers as int64; anything else raises."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise TypeError("indices must be a list of integers")
    if any(not 0 <= x < 2**MAX_QUBITS for x in value):
        raise ValueError(f"indices must lie in [0, 2**{MAX_QUBITS})")
    return np.array(value, dtype=np.int64)


def _json_numbers(value) -> np.ndarray:
    """Nested JSON lists as floats; ``null`` becomes NaN, a string or a boolean raises."""
    entries = np.array(value, dtype=object)
    if any(isinstance(x, (str, bool)) for x in entries.flat):
        raise TypeError("factor entries must be numbers, not strings or booleans")
    return entries.astype(float)


def _factor_qubits(shape: tuple) -> int | None:
    """n for a factor of shape r x 2**n with r >= 1 and n >= 1, else None."""
    if len(shape) != 2 or shape[0] < 1:
        return None
    n = shape[1].bit_length() - 1
    return n if n >= 1 and shape[1] == 2**n else None


def write_table(path: str | Path, columns, rows, comment: dict | None = None) -> None:
    """Write a CSV table: an optional ``# key=value ...`` comment line, the
    header row ``columns``, then ``rows``."""
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in comment.items()) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def read_table(path: str | Path, columns) -> tuple[dict, list]:
    """Read a :func:`write_table` file whose header row is ``columns``.

    Returns the comment's fields (as strings) and the data rows as
    ``(line number, fields)`` pairs.  A malformed comment, a repeated comment
    key, a missing or different header, no data rows, or a row with the
    wrong field count raises ``ValueError`` naming the file and the line.
    """
    lines = Path(path).read_text().splitlines()
    header = 2 if lines and lines[0].startswith("#") else 1  # its line number
    try:
        items = [item.split("=", 1) for item in lines[0][1:].split()] if header == 2 else []
        fields = dict(items)
    except ValueError:
        raise ValueError(f"{path}:1: comment is not '# key=value ...'") from None
    if len(fields) != len(items):
        raise ValueError(f"{path}:1: comment {lines[0]!r} repeats a key")
    rows = list(enumerate(csv.reader(lines[header - 1:]), header))
    if len(rows) < 2 or rows[0][1] != list(columns):
        raise ValueError(f"{path}:{header}: expected header {','.join(columns)!r} and data rows")
    for line, row in rows[1:]:
        if len(row) != len(columns):
            raise ValueError(f"{path}:{line}: expected {len(columns)} fields, got {len(row)}")
    return fields, rows[1:]


def written(kind, text: str, invalid=None):
    """``kind(text)`` when a writer writes that value as ``text``; otherwise
    ``invalid``, or ValueError if ``invalid`` is None.  A sign, a ``_``, a
    space, a leading zero or another spelling of the number is rejected."""
    try:
        value = kind(text)
        if str(value) == text:
            return value
    except ValueError:
        pass
    if invalid is None:
        raise ValueError(f"{text!r} is not a plain {kind.__name__}")
    return invalid
