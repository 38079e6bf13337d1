"""Measurement planning from diagonal counts and a threshold.

Measuring the computational-basis (diagonal) distribution first bounds every
off-diagonal element through |rho_ij| <= sqrt(rho_ii * rho_jj).  A plan then
keeps only the off-diagonal elements whose bound reaches the threshold; at
t = 0 every element with a nonvanishing bound is kept and the plan grows to
the conventional 4**n measurements.  The rule is written once, in
:func:`pair_rows`, for the plan, the fidelity bound and the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .core import ElementIndex, basis_word, read_table, write_table
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


@dataclass(frozen=True)
class MeasurementPlan:
    """The threshold's choice: the ``(ElementIndex, word)`` re and im targets of
    the kept pairs j > i, in row-major order.  Every plan measures the 2**n
    basis states first, in the diagonal round; ``size`` counts them too."""

    n: int
    threshold: float
    targets: tuple

    @property
    def size(self) -> int:
        return 2**self.n + len(self.targets)

    def offdiagonal_pairs(self) -> list[tuple[int, int]]:
        return [(idx.i, idx.j) for idx, _ in self.targets if idx.part == "re"]


def diagonal_plan(n: int) -> MeasurementPlan:
    """The plan with no targets: only the 2**n computational-basis measurements."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    return MeasurementPlan(n=n, threshold=1.0, targets=())


def check_threshold(t: float) -> float:
    """``t`` as a float when it lies in [0, 1]; NaN or anything outside raises."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {t}")
    return float(t)


def pair_rows(p: np.ndarray, t: float):
    """The threshold rule, one row at a time: for each i, yield ``(i, keep)``
    with the mask of the pairs j > i kept.

    A pair is kept when its positivity bound sqrt(p_i * p_j) is nonzero and
    reaches ``t``: a vanishing diagonal estimate pins its whole row and
    column to zero, so those pairs are dropped even at t = 0.  ``t`` is
    checked before the first row.
    """
    t = check_threshold(t)
    p = np.asarray(p, dtype=float)
    for i in range(p.size - 1):
        bound = np.sqrt(p[i] * p[i + 1 :])
        yield i, (bound > 0.0) & (bound >= t)


def select_offdiagonal(diag: DiagonalRecord, t: float) -> MeasurementPlan:
    """Build the measurement plan for threshold ``t`` from diagonal counts:
    the (re, im) targets of every pair that :func:`pair_rows` keeps, in
    row-major order."""
    n = diag.n
    targets = tuple(
        (idx, projector_for(n, idx))
        for i, keep in pair_rows(diag.probabilities(), t)
        for j in (i + 1 + np.flatnonzero(keep)).tolist()
        for idx in (ElementIndex(i, j, "re"), ElementIndex(i, j, "im"))
    )
    return MeasurementPlan(n=n, threshold=float(t), targets=targets)


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
    for k, (line, (index, count)) in enumerate(rows):
        if index != str(k) or not count.isdecimal():
            raise ValueError(f"{path}:{line}: expected '{k},<count >= 0>' (indices run "
                             f"0..N-1, each once and in order), got '{index},{count}'")
    counts = np.array([int(count) for _, (_, count) in rows], dtype=np.int64)
    try:
        return DiagonalRecord(counts=counts, shots=int(fields["n_s"]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: not a '# n_s=<shots>' diagonal record ({exc!r})") from None


def write_plan_csv(path: str | Path, plan: MeasurementPlan) -> None:
    """Plan CSV: a ``# n_qubits=<n> threshold=<t>`` comment, then one
    ``i,j,part,projector_word`` row per measurement: the 2**n diagonal rows
    in basis order, then one per target."""
    diagonal = ((k, k, "diag", basis_word(k, plan.n)) for k in range(2**plan.n))
    rows = chain(diagonal, ((idx.i, idx.j, idx.part, word) for idx, word in plan.targets))
    write_table(path, PLAN_COLUMNS, rows, {"n_qubits": plan.n, "threshold": plan.threshold})


def read_plan_csv(path: str | Path) -> MeasurementPlan:
    """Read a plan, requiring the 2**n diagonal rows first and in order, no
    duplicate rows, both parts of every off-diagonal pair, and every word
    equal to ``projector_for`` its element.  The plan keeps the rows after
    the diagonal as its targets."""
    fields, rows = read_table(path, PLAN_COLUMNS)
    try:
        n, t = int(fields["n_qubits"]), float(fields["threshold"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}:1: need '# n_qubits=<n> threshold=<t>' ({exc!r})") from None
    # 1 <= n and 2**n <= len(rows), without computing 2**n for a huge n
    if not (1 <= n < len(rows).bit_length() and 0.0 <= t <= 1.0):
        raise ValueError(f"{path}:1: n_qubits={n} threshold={t} out of range for {len(rows)} rows")
    targets, lines = {}, {}
    try:
        for line, (i, j, part, word) in rows:
            idx = ElementIndex(int(i), int(j), part)
            if len(targets) < 2**n and idx != ElementIndex(len(targets), len(targets), "diag"):
                raise ValueError(f"{idx} where diagonal row {len(targets)} belongs")
            if idx in targets:
                raise ValueError(f"duplicate target {idx}")
            expected = projector_for(n, idx)
            if word != expected:
                raise ValueError(f"word {word!r} does not measure {idx}, {expected!r} does")
            targets[idx], lines[idx] = word, line
    except ValueError as exc:
        raise ValueError(f"{path}:{line}: {exc}") from None
    for idx, line in lines.items():
        other = {"re": "im", "im": "re"}.get(idx.part)
        if other and ElementIndex(idx.i, idx.j, other) not in targets:
            raise ValueError(f"{path}:{line}: {idx} has no {other!r} row; a pair needs both")
    return MeasurementPlan(n=n, threshold=t, targets=tuple(targets.items())[2**n:])
