"""Pauli-basis measurement settings and outcome-level statistics.

Every product projector lives inside exactly one Pauli basis setting (a word
over X/Y/Z): measuring all qubits in that setting yields the statistics of
all 2**n outcomes at once, one of which is the projector itself.  Plans
therefore need far fewer settings than measurements, and the parity-weighted
outcome distribution of a setting gives the corresponding Pauli correlator.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import STATE_VECTORS, n_qubits_of, read_index_counts, validate_word, write_table
from .threshold import MeasurementPlan

_BASIS_OF_LETTER = {"H": "Z", "V": "Z", "D": "X", "A": "X", "R": "Y", "L": "Y"}

#: (+1, -1) eigenvector letters of each Pauli basis; outcome bit 0 picks the
#: +1 eigenvector.
_EIGENVECTORS = {"X": ("D", "A"), "Y": ("R", "L"), "Z": ("H", "V")}


def setting_of(word: str) -> str:
    """Pauli setting containing a projector word: H/V -> Z, D/A -> X, R/L -> Y."""
    validate_word(word)
    return "".join(_BASIS_OF_LETTER[c] for c in word)


def settings_for_plan(plan: MeasurementPlan) -> list[str]:
    """Deduplicated settings of all plan targets, first occurrence first."""
    if not plan.targets:
        raise ValueError("plan has no targets")
    seen: dict[str, None] = {}
    for _, word in plan.targets:
        seen.setdefault(setting_of(word), None)
    return list(seen)


def _validate_setting(setting: str) -> None:
    if not setting or set(setting) - {"X", "Y", "Z"}:
        raise ValueError(f"setting must be a word over X/Y/Z, got {setting!r}")


def outcome_probabilities(rho: np.ndarray, setting: str) -> np.ndarray:
    """Probabilities of the 2**n outcomes of one setting, outcome k's bit b_q
    selecting the +1 (bit 0) or -1 (bit 1) eigenvector on qubit q."""
    _validate_setting(setting)
    n = n_qubits_of(rho)
    if n != len(setting):
        raise ValueError(f"setting {setting!r} does not match {n}-qubit state")
    change = np.ones((1, 1), dtype=complex)
    for basis in setting:
        plus, minus = _EIGENVECTORS[basis]
        rows = np.stack([STATE_VECTORS[plus].conj(), STATE_VECTORS[minus].conj()])
        change = np.kron(change, rows)
    return np.real(np.einsum("ki,ij,kj->k", change, rho, change.conj()))


def pauli_correlator(rho: np.ndarray, setting: str) -> float:
    """tr(rho S) via the parity-weighted sum of outcome probabilities."""
    probs = outcome_probabilities(rho, setting)
    k = np.arange(probs.size)
    parity = np.array([bin(v).count("1") & 1 for v in k])
    return float(np.sum(np.where(parity, -probs, probs)))


def sample_setting_counts(
    rho: np.ndarray, setting: str, shots: int, seed: int | None = None
) -> np.ndarray:
    """Multinomial histogram over the 2**n outcomes of one setting."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.clip(outcome_probabilities(rho, setting), 0.0, None)
    probs = probs / probs.sum()
    return np.random.default_rng(seed).multinomial(shots, probs)


def write_settings_csv(path: str | Path, settings: list[str]) -> None:
    """One setting word per line."""
    Path(path).write_text("".join(s + "\n" for s in settings))


def read_settings_csv(path: str | Path) -> list[str]:
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            _validate_setting(line)
            out.append(line)
    return out


HISTOGRAM_COLUMNS = ("outcome_index", "count")


def write_histogram_csv(path: str | Path, counts: np.ndarray) -> None:
    write_table(path, HISTOGRAM_COLUMNS, enumerate(np.asarray(counts).tolist()))


def read_histogram_csv(path: str | Path) -> np.ndarray:
    return read_index_counts(path, HISTOGRAM_COLUMNS)[1]
