"""Measurement planning from diagonal counts and a threshold.

Measuring the computational-basis (diagonal) distribution first bounds every
off-diagonal element through |rho_ij| <= sqrt(rho_ii * rho_jj).  A plan then
keeps only the pairs (i, j) whose bound reaches the threshold, measuring the
real and the imaginary part of each; at t = 0 it keeps every pair with a
nonvanishing bound, the conventional 4**n measurements.  The rule is written
once, in :func:`candidate_rows`, for the plan, the fidelity bound and the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import ElementIndex, basis_word, read_table, write_table, written
from .projectors import projector_for

EXPECTED_ZERO = 1e-12


@dataclass(frozen=True)
class DiagonalRecord:
    """Counts of one computational-basis measurement round."""

    counts: np.ndarray
    shots: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if self.shots <= 0:
            raise ValueError("shots must be positive")
        if counts.ndim != 1 or counts.size < 2 or counts.size & (counts.size - 1):
            raise ValueError(f"counts length {counts.size} is not a power of two >= 2")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        if counts.sum() != self.shots:
            raise ValueError(f"counts sum to {counts.sum()}, expected shots={self.shots}")

    @property
    def n(self) -> int:
        return int(self.counts.size).bit_length() - 1

    def probabilities(self) -> np.ndarray:
        return self.counts / self.shots


@dataclass(frozen=True, eq=False)
class MeasurementPlan:
    """The threshold's choice: ``pairs``, the k x 2 int64 array of the kept (i, j) with
    i < j, and ``words``, formed once: each pair's re word, then its im word.  Every
    plan measures the 2**n basis states first, in the diagonal round; ``size`` counts them."""

    n: int
    threshold: float
    pairs: np.ndarray
    words: tuple = field(init=False)

    def __post_init__(self):
        pairs = np.array(self.pairs, dtype=np.int64).reshape(-1, 2)
        pairs.setflags(write=False)
        words = (projector_for(self.n, ElementIndex(i, j, part))
                 for i, j in pairs.tolist() for part in ("re", "im"))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "words", tuple(words))

    @property
    def size(self) -> int:
        return 2**self.n + 2 * len(self.pairs)

    def offdiagonal_pairs(self) -> np.ndarray:
        return self.pairs


def diagonal_plan(n: int) -> MeasurementPlan:
    """The plan with no pairs: only the 2**n computational-basis measurements."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    return MeasurementPlan(n=n, threshold=1.0, pairs=())


def check_threshold(t: float) -> float:
    """``t`` as a float when it lies in [0, 1]; NaN or anything outside raises."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {t}")
    return float(t)


def candidate_rows(p: np.ndarray, t: float):
    """The threshold rule, scanned over its candidates only.

    A pair (i, j) is kept when its positivity bound sqrt(p_i * p_j) is
    nonzero and reaches ``t``: a vanishing diagonal estimate pins its whole
    row and column to zero, so those pairs are dropped even at t = 0.  A
    kept pair joins two candidates, the i with p_i > 0 and
    sqrt(p_i * max p) >= t: rounding is monotone, so the computed
    sqrt(p_i * p_j) never exceeds the computed sqrt(p_i * max p).  On a
    diagonal that sums to at most 1 there are at most 1 / t**2 candidates,
    whatever its length.

    Returns the boolean mask of the candidates and a generator that yields,
    for each candidate i in order, ``(i, later, keep)``: the later
    candidates and the mask of the pairs (i, later) kept.  ``t`` is checked
    before anything is returned.
    """
    t = check_threshold(t)
    p = np.asarray(p, dtype=float)
    candidate = (p > 0.0) & (np.sqrt(p * p.max(initial=0.0)) >= t)
    indices = np.flatnonzero(candidate)

    def rows():
        for k, i in enumerate(indices[:-1].tolist()):
            later = indices[k + 1 :]
            bound = np.sqrt(p[i] * p[later])
            yield i, later, (bound > 0.0) & (bound >= t)

    return candidate, rows()


def kept_pairs(p: np.ndarray, t: float) -> np.ndarray:
    """The k x 2 int64 array of the pairs (i, j), i < j, that
    :func:`candidate_rows` keeps, in row-major order."""
    _, rows = candidate_rows(p, t)
    pairs = [np.column_stack((np.full(keep.sum(), i), later[keep])) for i, later, keep in rows]
    return np.concatenate([np.empty((0, 2), dtype=np.int64), *pairs])


def select_offdiagonal(diag: DiagonalRecord, t: float) -> MeasurementPlan:
    """Build the measurement plan for threshold ``t`` from diagonal counts:
    every pair that :func:`kept_pairs` keeps, in row-major order."""
    return MeasurementPlan(n=diag.n, threshold=float(t), pairs=kept_pairs(diag.probabilities(), t))


@dataclass(frozen=True)
class ThresholdEstimate:
    """Noise/signal count levels and the normalized threshold derived from them.

    ``favorable`` records whether the signal level cleared the noise level;
    when it does not, the diagonal distribution offers no usable separation
    between populated and unpopulated entries.
    """

    noise_threshold: float
    signal_threshold: float
    threshold: float
    favorable: bool


def estimate_threshold(
    ideal_diag: np.ndarray,
    noisy_runs: list[DiagonalRecord],
    n: int,
) -> ThresholdEstimate:
    """Estimate a circuit-specific threshold from replicated noisy diagonals.

    The ideal distribution splits indices into expected-zero and
    expected-nonzero.  Across all runs, ``c0`` is the largest count seen on
    an expected-zero index and ``c1`` the smallest count seen at the weakest
    expected-nonzero index.  The noise level is c0 + f*sqrt(c0) and the
    signal level c1 - f*sqrt(c1); the threshold is their maximum divided by
    the shots, with ``f`` the qubit count ``n``.  A noise level above the
    shots raises: no threshold in [0, 1] separates such replicas.
    """
    ideal = np.asarray(ideal_diag, dtype=float)
    if ideal.size != 2**n:
        raise ValueError(f"ideal diagonal has {ideal.size} entries, "
                         f"a {n}-qubit diagonal has {2**n}")
    if abs(ideal.sum() - 1.0) > 1e-9:
        raise ValueError(f"ideal diagonal sums to {ideal.sum()}, expected 1")
    if len(noisy_runs) < 2:
        raise ValueError("need at least two noisy runs")
    shots = noisy_runs[0].shots
    for run in noisy_runs:
        if run.shots != shots:
            raise ValueError("noisy runs must share the same shot count")
        if run.counts.size != ideal.size:
            raise ValueError("noisy run length does not match the ideal diagonal")

    nonzero = np.flatnonzero(ideal >= EXPECTED_ZERO)
    if nonzero.size == 0:
        raise ValueError("ideal diagonal has no expected-nonzero entries")
    zero = np.flatnonzero(ideal < EXPECTED_ZERO)

    counts = np.stack([run.counts for run in noisy_runs])
    c0 = float(counts[:, zero].max()) if zero.size else 0.0
    weakest = nonzero[np.argmin(ideal[nonzero])]
    c1 = float(counts[:, weakest].min())

    noise_level = c0 + n * math.sqrt(c0)
    if noise_level > shots:
        raise ValueError(f"noise level c0 + {n}*sqrt(c0) = {noise_level:g} exceeds the {shots} "
                         f"shots, with c0 = {c0:g} counts on a state the ideal expects empty")
    signal_level = c1 - n * math.sqrt(c1)
    return ThresholdEstimate(
        noise_threshold=noise_level,
        signal_threshold=signal_level,
        threshold=max(noise_level, signal_level) / shots,
        favorable=signal_level > noise_level,
    )


# ---------------------------------------------------------------------------
# file formats


DIAGONAL_COLUMNS = ("basis_index", "count")
PLAN_COLUMNS = ("i", "j", "part", "projector_word")


def write_diagonal_csv(path: str | Path, record: DiagonalRecord) -> None:
    """Diagonal counts CSV: a ``# n_s=<shots>`` comment, then one
    ``basis_index,count`` row per computational-basis state."""
    write_table(path, DIAGONAL_COLUMNS, enumerate(record.counts.tolist()), {"n_s": record.shots})


def read_diagonal_csv(path: str | Path) -> DiagonalRecord:
    """Read a diagonal CSV, requiring the basis indices to run 0..N-1, each
    once and in order, with non-negative counts."""
    fields, rows = read_table(path, DIAGONAL_COLUMNS)
    counts = []
    for k, (line, (index, count)) in enumerate(rows):
        value = written(int, count, -1)
        if value < 0 or index != str(k):
            raise ValueError(f"{path}:{line}: expected '{k},<count >= 0>' (indices run "
                             f"0..N-1, each once and in order), got '{index},{count}'")
        counts.append(value)
    try:
        return DiagonalRecord(counts=counts, shots=written(int, fields["n_s"]))
    except (KeyError, ValueError, OverflowError) as exc:  # OverflowError: a count over int64
        raise ValueError(f"{path}: not a '# n_s=<shots>' diagonal record ({exc!r})") from None


def _plan_rows(plan: MeasurementPlan):
    """A plan's rows: the 2**n diagonal rows in basis order, then each pair's re and im row."""
    for k in range(2**plan.n):
        yield k, k, "diag", basis_word(k, plan.n)
    for (i, j), re, im in zip(plan.pairs.tolist(), plan.words[::2], plan.words[1::2]):
        yield i, j, "re", re
        yield i, j, "im", im


def write_plan_csv(path: str | Path, plan: MeasurementPlan) -> None:
    """Plan CSV: a ``# n_qubits=<n> threshold=<t>`` comment, then the rows
    of :func:`_plan_rows`."""
    write_table(path, PLAN_COLUMNS, _plan_rows(plan), {"n_qubits": plan.n, "threshold": plan.threshold})


def read_plan_csv(path: str | Path) -> MeasurementPlan:
    """Read a plan: its pairs are the plain decimal ``i,j`` of every other row after the
    2**n diagonal rows, each new and with i < j < 2**n, in file order, and the file must
    hold exactly the rows that :func:`write_plan_csv` writes for them."""
    fields, rows = read_table(path, PLAN_COLUMNS)
    try:
        n, t = written(int, fields["n_qubits"]), written(float, fields["threshold"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}:1: need '# n_qubits=<n> threshold=<t>' ({exc!r})") from None
    # 1 <= n and 2**n <= len(rows), without computing 2**n for a huge n
    if not (1 <= n < len(rows).bit_length() and 0.0 <= t <= 1.0):
        raise ValueError(f"{path}:1: n_qubits={n} threshold={t} out of range for {len(rows)} rows")
    pairs = {}  # in file order
    for line, (i, j, _, _) in rows[2**n::2]:
        pair = (written(int, i, -1), written(int, j, -1))
        if not 0 <= pair[0] < pair[1] < 2**n or pair in pairs:
            raise ValueError(f"{path}:{line}: '{i},{j}' is not a new pair i < j < {2**n} in plain decimals")
        pairs[pair] = None
    plan = MeasurementPlan(n=n, threshold=t, pairs=list(pairs))
    expected = _plan_rows(plan)
    for (line, row), want in zip(rows, expected):
        if row != list(map(str, want)):
            raise ValueError(f"{path}:{line}: expected '{','.join(map(str, want))}', got '{','.join(row)}'")
    if next(expected, None):  # the last row is a pair's re row
        raise ValueError(f"{path}:{line}: '{','.join(row)}' has no 'im' row after it")
    return plan
