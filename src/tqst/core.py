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

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path

import numpy as np

#: Amplitudes of the six single-qubit measurement states in the computational
#: basis (H = |0>, V = |1>), read-only.  ``product_ket`` reads H and V as
#: fixed bits and multiplies the entries of the D, A, R and L letters, one
#: table entry per letter string (:func:`_letter_amplitudes`).
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
_NOT_LETTERS = str.maketrans("", "", STATE_LABELS)  # deletes the letters: what a word keeps is bad

#: Largest qubit count of a state: its basis indices are int64.
MAX_QUBITS = 62

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
    if word.translate(_NOT_LETTERS):
        bad = set(word) - set(STATE_LABELS)
        raise ValueError(f"unknown state letters {sorted(bad)} in {word!r}")
    if len(word) > MAX_QUBITS:
        raise ValueError(f"{len(word)}-letter word: at most {MAX_QUBITS} qubits")
    return word


_BITS_TO_HV = str.maketrans("01", "HV")


def basis_word(index: int, n: int) -> str:
    """Computational-basis word for ``index``: bit 0 -> H, bit 1 -> V."""
    if not 0 <= index < 2**n:
        raise ValueError(f"index {index} out of range for {n} qubits")
    return format(index, f"0{n}b").translate(_BITS_TO_HV)


def basis_words(n: int) -> np.ndarray:
    """The words of all 2**n basis states in basis order, as :func:`basis_word`
    spells them: a unicode array whose characters are filled in place."""
    letters = np.empty((2**n, n), dtype=np.uint32)  # the code points of the U{n} entries
    for q in range(n):  # bit q is the letter n - 1 - q: runs of 2**q H, then 2**q V
        runs = letters[:, n - 1 - q].reshape(-1, 2, 2**q)
        runs[:, 0], runs[:, 1] = ord("H"), ord("V")
    return letters.view(f"U{n}").ravel()


#: Kets of at most this many nonzeros (8 D/A/R/L letters) have their parts
#: kept in the two ket tables; larger ones are built anew at each call.
KET_TABLE_NONZEROS = 2**8
#: Entries of each ket table, least recently used evicted first: at most
#: 1024 x 2 KiB of offsets and 1024 x 4 KiB of amplitudes, 6 MiB in all.
KET_TABLE_ENTRIES = 1024

_V_BYTES = bytes.maketrans(b"HVDARL", b"010000")
_SUPERPOSITION_BYTES = bytes.maketrans(b"HVDARL", b"001111")


@lru_cache(maxsize=KET_TABLE_ENTRIES)
def _support_offsets(mask: int) -> np.ndarray:
    """The increasing sums of the subsets of the bits of ``mask``, read-only
    int64: a ket's support above its H/V base index, for the D/A/R/L letters
    at the set bits (bit q is the letter q places from the end)."""
    offsets = [0]
    for q in range(mask.bit_length()):  # bit q, lowest first: the offsets stay increasing
        if mask >> q & 1:
            offsets += [k | 1 << q for k in offsets]
    offsets = np.array(offsets, dtype=np.int64)
    offsets.setflags(write=False)
    return offsets


@lru_cache(maxsize=KET_TABLE_ENTRIES)
def _letter_amplitudes(letters: str) -> np.ndarray:
    """The products of np.kron over the D/A/R/L ``letters``, read-only: one
    chained ``np.multiply.outer`` per letter after the first."""
    amplitudes = STATE_VECTORS[letters[0]] if letters else np.ones(1, dtype=complex)
    for c in letters[1:]:
        amplitudes = np.multiply.outer(amplitudes, STATE_VECTORS[c]).ravel()
    amplitudes.setflags(write=False)
    return amplitudes


def product_ket(word: str) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of the tensor product of single-qubit amplitudes, first
    letter most significant: increasing int64 basis indices ``support`` and
    their ``amplitudes``.  H and V fix a bit; each D/A/R/L letter doubles both.

    The support is the word's H/V base index plus offsets that depend only on
    its D/A/R/L bit mask; the amplitudes depend only on its D/A/R/L letters.
    Both are kept in a table, :func:`_support_offsets` by the mask and
    :func:`_letter_amplitudes` by the letter string, of at most
    ``KET_TABLE_ENTRIES`` entries each, for kets of at most
    ``KET_TABLE_NONZEROS`` nonzeros; a larger ket is built by the same
    functions without a table.  The amplitudes returned are read-only and may
    be shared between calls; the support is a new array."""
    validate_word(word)
    code = word.encode()
    base = int(code.translate(_V_BYTES), 2)
    mask = int(code.translate(_SUPERPOSITION_BYTES), 2)
    letters = word.replace("H", "").replace("V", "")
    if 2 ** len(letters) > KET_TABLE_NONZEROS:
        return base + _support_offsets.__wrapped__(mask), _letter_amplitudes.__wrapped__(letters)
    return base + _support_offsets(mask), _letter_amplitudes(letters)


def expectation(factor: np.ndarray, word: str) -> float:
    """Expectation <psi|rho|psi> of the projector |psi><psi| described by
    ``word`` in rho = F^H F: ||F psi||**2 over the r x 2**n factor F's
    columns at the support of psi."""
    support, amplitudes = product_ket(word)
    if factor.shape[1:] != (2 ** len(word),):
        raise ValueError(f"dimension mismatch: factor is {factor.shape}, "
                         f"word {word!r} needs r x {2 ** len(word)}")
    a = factor[:, support] @ amplitudes
    return float(np.vdot(a, a).real)


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


def row_format(width: int) -> str:
    """The ``%`` format of a row of ``width`` fields in every CSV table: each
    field as ``str`` gives it, joined by ``,`` and never quoted."""
    return ",".join(["%s"] * width)


def write_table(path: str | Path, columns, rows, comment: dict | None = None) -> None:
    """Write a CSV table: an optional ``# key=value ...`` comment line ending in
    ``\\n``, then the header ``columns`` and the ``rows``, tuples written in
    :func:`row_format` and each ending in ``\\r\\n``."""
    lines = map((row_format(len(columns)) + "\r\n").__mod__, chain([columns], rows))
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in comment.items()) + "\n")
        while chunk := "".join(islice(lines, 1 << 16)):  # in bounded pieces at any size
            fh.write(chunk)


def read_head(path: str | Path, columns, keys=()) -> tuple[dict, int, str]:
    """The comment's fields (as strings), the header's line number and the data
    text of a :func:`write_table` file whose comment holds exactly ``keys``
    and whose header is ``columns``.  Any fault, or no data, raises
    ``ValueError`` naming the file and the line."""
    with open(path) as fh:  # universal newlines: a "\r\n" is read as "\n"
        first, _, rest = fh.read().partition("\n")
    header = 2 if first.startswith("#") else 1  # its line number
    try:
        items = [item.split("=", 1) for item in first[1:].split()] if header == 2 else []
        fields = dict(items)
    except ValueError:
        raise ValueError(f"{path}:1: comment is not '# key=value ...'") from None
    if len(fields) != len(items):
        raise ValueError(f"{path}:1: comment {first!r} repeats a key")
    if sorted(fields) != sorted(keys):
        raise ValueError(f"{path}:1: expected comment keys {sorted(keys)}, got {sorted(fields)}")
    line, _, data = rest.partition("\n") if header == 2 else (first, "", rest)
    if line != ",".join(columns) or not data:
        raise ValueError(f"{path}:{header}: expected header {','.join(columns)!r} and data rows")
    return fields, header, data


def decimal_rows(text: str, width: int) -> tuple[np.ndarray, int | None]:
    """The leading lines of ``text`` that hold ``width`` numbers each, joined by ``,``, as an
    m x ``width`` int64 array, and the index of the first other line, or None.  A number is
    1 to 19 digits below 2**63, spelled as :func:`written` spells an int.  Array reductions
    accept a well-formed text; only one that fails them is scanned for its first bad line."""
    text = text if text.endswith("\n") else text + "\n"
    chars = np.frombuffer(text.encode(), dtype=np.uint8)
    ends = np.flatnonzero(chars - ord("0") > 9)  # the separator after each field: any non-digit
    starts = np.concatenate(([0], ends[:-1] + 1))
    digits = ends - starts
    bad = (digits == 0) | (digits > 19) | ((chars[starts] == ord("0")) & (digits > 1))
    longest = np.flatnonzero(digits == 19)
    if longest.size:  # 19 digits are below 2**63 when they are at most str(2**63 - 1)
        spelled = chars[starts[longest, None] + np.arange(19)].view("S19").ravel()
        bad[longest] |= spelled > b"9223372036854775807"
    separators = chars[ends]
    pattern = np.array([ord(",")] * (width - 1) + [ord("\n")], dtype=np.uint8)
    if ends.size % width == 0 and (separators.reshape(-1, width) == pattern).all():
        first = int(bad.argmax()) // width if bad.any() else None  # the line of the first bad field
    else:  # some line has the wrong separators: find each separator's position in its line
        newline = separators == ord("\n")
        line = np.cumsum(newline) - newline
        position = np.arange(ends.size) - np.flatnonzero(np.concatenate(([True], newline[:-1])))[line]
        bad |= separators != pattern[np.minimum(position, width - 1)]
        first = int(line[bad.argmax()])
    # each line before the first bad one holds width fields, in ASCII
    good = text if first is None else text[: starts[first * width]]
    return np.fromstring(good.replace(",", " "), dtype=np.int64, sep=" ").reshape(-1, width), first


def written(kind, text: str):
    """A comment value ``kind(text)`` when a writer writes it as ``text``, else ValueError:
    a sign, a ``_``, a space, a leading zero or another spelling of the number is
    rejected.  A row's numbers, 0 to 2**63 - 1, follow it in :func:`decimal_rows`."""
    try:
        value = kind(text)
        if str(value) == text:
            return value
    except ValueError:
        pass
    raise ValueError(f"{text!r} is not a plain {kind.__name__}")
