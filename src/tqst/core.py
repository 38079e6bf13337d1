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
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

#: Amplitudes of the six single-qubit measurement states in the computational
#: basis (H = |0>, V = |1>).
STATE_VECTORS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "R": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "L": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}

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


def basis_word(index: int, n: int) -> str:
    """Computational-basis word for ``index``: bit 0 -> H, bit 1 -> V."""
    if not 0 <= index < 2**n:
        raise ValueError(f"index {index} out of range for {n} qubits")
    return "".join("HV"[int(b)] for b in format(index, f"0{n}b"))


def word_to_index(word: str) -> int:
    """Inverse of :func:`basis_word`; only valid for words over H and V."""
    if set(word) - {"H", "V"}:
        raise ValueError(f"{word!r} is not a computational-basis word")
    return int("".join("01"[c == "V"] for c in word), 2)


def product_ket(word: str) -> np.ndarray:
    """Tensor product of single-qubit amplitudes, first letter most significant.

    Returns a unit-norm complex vector of dimension ``2**len(word)``.
    """
    validate_word(word)
    return reduce(np.kron, (STATE_VECTORS[c] for c in word))


def expectation(rho: np.ndarray, word: str) -> float:
    """Expectation value <psi|rho|psi> of the projector described by ``word``.

    The tiny imaginary residue of the quadratic form (present for any Hermitian
    ``rho`` only through round-off) is discarded.
    """
    psi = product_ket(word)
    if rho.shape != (psi.size, psi.size):
        raise ValueError(
            f"dimension mismatch: rho is {rho.shape}, word {word!r} needs {psi.size}"
        )
    return float(np.real(psi.conj() @ rho @ psi))


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
    def hermitian_ok(self) -> bool:
        return self.hermitian_violation <= self.tolerance

    @property
    def trace_ok(self) -> bool:
        return self.trace_violation <= self.tolerance

    @property
    def psd_ok(self) -> bool:
        return self.psd_violation <= self.tolerance

    @property
    def offdiag_ok(self) -> bool:
        return self.offdiag_violation <= self.tolerance

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.psd_ok and self.offdiag_ok

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "hermitian": {"ok": self.hermitian_ok, "violation": self.hermitian_violation},
            "trace": {"ok": self.trace_ok, "violation": self.trace_violation},
            "positive_semidefinite": {"ok": self.psd_ok, "violation": self.psd_violation},
            "offdiagonal_bound": {"ok": self.offdiag_ok, "violation": self.offdiag_violation},
        }


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


def n_qubits_of(rho: np.ndarray) -> int:
    """Number of qubits for a 2**n x 2**n matrix (n >= 1)."""
    dim = rho.shape[0] if rho.ndim == 2 else 0
    n = max(int(round(np.log2(dim))), 1) if dim > 1 else 1
    if rho.ndim != 2 or rho.shape != (dim, dim) or 2**n != dim:
        raise ValueError(f"matrix shape {rho.shape} is not 2**n x 2**n")
    return n


def save_density(path: str | Path, factor: np.ndarray) -> None:
    """Write the state rho = F^H F as its factor F, r x 2**n with r >= 1:
    {"n_qubits", "factor_re", "factor_im"} at full precision."""
    factor = np.asarray(factor, dtype=complex)
    n = _factor_qubits(factor.shape)
    if n is None:
        raise ValueError(f"factor shape {factor.shape} is not r x 2**n with r >= 1, n >= 1")
    payload = {
        "n_qubits": n,
        "factor_re": factor.real.tolist(),
        "factor_im": factor.imag.tolist(),
    }
    Path(path).write_text(json.dumps(payload, allow_nan=False))


def load_factor(path: str | Path) -> np.ndarray:
    """Read the factor F written by :func:`save_density`.  Both arrays must
    be r x 2**n_qubits with r >= 1 and finite entries; a file without the
    factor keys, such as a dense ``{"re", "im"}`` matrix, is rejected."""
    try:
        payload = json.loads(Path(path).read_text())
        n = payload["n_qubits"]
        if type(n) is not int:  # neither 1.9 nor true is read as 1
            raise TypeError(f"n_qubits {n!r} is not an integer")
        re = np.array(payload["factor_re"], dtype=float)
        im = np.array(payload["factor_im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a factored density-matrix JSON file with keys "
                         f"n_qubits, factor_re, factor_im ({exc!r})") from exc
    # n comes from the arrays' shape, so n_qubits is never exponentiated unchecked
    if re.shape != im.shape or _factor_qubits(re.shape) != n:
        raise ValueError(f"{path}: n_qubits={n} does not match arrays of shape "
                         f"{re.shape}/{im.shape}, which must be r x 2**n_qubits with r >= 1")
    factor = re + 1j * im
    if not np.isfinite(factor).all():
        raise ValueError(f"{path}: factor has non-finite entries")
    return factor


def load_density(path: str | Path) -> np.ndarray:
    """The density matrix F^H F of the factor in a :func:`save_density` file."""
    factor = load_factor(path)
    return factor.conj().T @ factor


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
    ``(line number, fields)`` pairs.  A malformed comment, a missing or
    different header, no data rows, or a row with the wrong field count
    raises ``ValueError`` naming the file and the line.
    """
    lines = Path(path).read_text().splitlines()
    header = 2 if lines and lines[0].startswith("#") else 1  # its line number
    try:
        fields = dict(item.split("=", 1) for item in lines[0][1:].split()) if header == 2 else {}
    except ValueError:
        raise ValueError(f"{path}:1: comment is not '# key=value ...'") from None
    rows = list(enumerate(csv.reader(lines[header - 1:]), header))
    if len(rows) < 2 or rows[0][1] != list(columns):
        raise ValueError(f"{path}:{header}: expected header {','.join(columns)!r} and data rows")
    for line, row in rows[1:]:
        if len(row) != len(columns):
            raise ValueError(f"{path}:{line}: expected {len(columns)} fields, got {len(row)}")
    return fields, rows[1:]


def read_index_counts(path: str | Path, columns) -> tuple[dict, np.ndarray]:
    """Read an ``index,count`` table whose indices run 0..N-1, each once and
    in order; returns the comment fields and the non-negative counts."""
    fields, rows = read_table(path, columns)
    for k, (line, (index, count)) in enumerate(rows):
        if index != str(k) or not count.isdecimal():
            raise ValueError(f"{path}:{line}: expected '{k},<count >= 0>' (indices run "
                             f"0..N-1, each once and in order), got '{index},{count}'")
    return fields, np.array([int(count) for _, (_, count) in rows], dtype=np.int64)
