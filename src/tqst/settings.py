"""Pauli-basis measurement settings of projector words and plans.

Every product projector lives inside exactly one Pauli basis setting (a word
over X/Y/Z): measuring all qubits in that setting yields the statistics of
all 2**n outcomes at once, one of which is the projector itself.  Plans
therefore need far fewer settings than measurements.
"""

from __future__ import annotations

from pathlib import Path

from .core import validate_word
from .threshold import MeasurementPlan

_BASIS_OF_LETTER = str.maketrans("HVDARL", "ZZXXYY")


def setting_of(word: str) -> str:
    """Pauli setting containing a projector word: H/V -> Z, D/A -> X, R/L -> Y."""
    validate_word(word)
    return word.translate(_BASIS_OF_LETTER)


def settings_for_plan(plan: MeasurementPlan) -> list[str]:
    """Deduplicated settings of a plan, first occurrence first: the diagonal's
    all-Z setting, then those of its words."""
    return list(dict.fromkeys(["Z" * plan.n, *map(setting_of, plan.words)]))


def write_settings_csv(path: str | Path, settings: list[str]) -> None:
    """One setting word per line."""
    Path(path).write_text("".join(s + "\n" for s in settings))

