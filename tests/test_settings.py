import itertools

import numpy as np
import pytest

from tqst.core import basis_word, expectation

from tqst.projectors import build_projector_table
from tqst.settings import setting_of, settings_for_plan, write_settings_csv
from tqst.simulator import color_code_state, ghz_state, populations
from tqst.threshold import DiagonalRecord, diagonal_plan, select_offdiagonal


def test_setting_of_letter_mapping():
    assert setting_of("HV") == "ZZ"
    assert setting_of("RDV") == "YXZ"
    assert setting_of("RRHD") == "YYZX"
    assert setting_of("AL") == "XY"


def test_correlator_ghz_zz():
    # <ZZ> is the parity-signed sum over the four projectors of setting ZZ
    psi = ghz_state(2)
    words = ["".join(w) for w in itertools.product("HV", repeat=2)]
    assert all(setting_of(w) == "ZZ" for w in words)
    correlator = sum((-1) ** w.count("V") * expectation(psi, w) for w in words)
    assert correlator == pytest.approx(1.0)


def test_settings_for_diagonal_plan():
    assert settings_for_plan(diagonal_plan(4)) == ["ZZZZ"]


def color_code_plan():
    counts = np.zeros(2**7, dtype=np.int64)
    counts[[85, 99, 45, 27, 78, 54, 120, 0]] = 1250
    return select_offdiagonal(DiagonalRecord(counts=counts, shots=10**4), 0.01)


def test_color_code_settings_count():
    plan = color_code_plan()
    assert plan.size == 184
    settings = settings_for_plan(plan)
    assert len(settings) == 57
    n_above = 8
    assert len(settings) <= 1 + n_above * (n_above - 1)


def test_color_code_settings_same_for_both_logical_states():
    def plan_for(logical):
        diag = populations(color_code_state(logical))
        counts = np.round(diag * 8).astype(np.int64) * 1250
        record = DiagonalRecord(counts=counts, shots=10**4)
        return select_offdiagonal(record, 0.01)

    s0 = set(settings_for_plan(plan_for(0)))
    s1 = set(settings_for_plan(plan_for(1)))
    assert len(s0) == len(s1) == 57


def test_full_two_qubit_plan_settings_match_brute_force():
    counts = np.full(4, 250, dtype=np.int64)
    plan = select_offdiagonal(DiagonalRecord(counts=counts, shots=1000), 0.0)
    deduped = settings_for_plan(plan)
    oracle = []
    for word in [basis_word(k, 2) for k in range(4)] + list(plan.words):
        s = setting_of(word)
        if s not in oracle:
            oracle.append(s)
    assert deduped == oracle
    assert len(deduped) == 9  # full set reaches all 3**2 settings


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_set_covers_at_most_3n_settings(n):
    words = build_projector_table(n).words()
    settings = {setting_of(w) for w in words}
    assert len(settings) <= 3**n
    if n == 1:
        assert settings == {"X", "Y", "Z"}


def test_settings_csv_roundtrip(tmp_path):
    settings = ["ZZZ", "XYZ", "YYX"]
    path = tmp_path / "settings.csv"
    write_settings_csv(path, settings)
    assert path.read_text().splitlines() == settings
