import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tqst.projectors import build_projector_table
from tqst.settings import (
    outcome_probabilities,
    pauli_correlator,
    read_histogram_csv,
    read_settings_csv,
    sample_setting_counts,
    setting_of,
    settings_for_plan,
    write_histogram_csv,
    write_settings_csv,
)
from tqst.simulator import (
    color_code_state,
    density,
    ghz_state,
    random_filled_state,
    w_state,
)
from tqst.threshold import DiagonalRecord, diagonal_plan, select_offdiagonal


def test_setting_of_letter_mapping():
    assert setting_of("HV") == "ZZ"
    assert setting_of("RDV") == "YXZ"
    assert setting_of("RRHD") == "YYZX"
    assert setting_of("AL") == "XY"


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
        diag = np.real(np.diag(density(color_code_state(logical))))
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
    for _, word in plan.targets:
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


def test_settings_for_plan_rejects_empty():
    from tqst.threshold import MeasurementPlan

    with pytest.raises(ValueError):
        settings_for_plan(MeasurementPlan(n=1, threshold=0.0, targets=()))


def test_correlator_ground_state():
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    assert pauli_correlator(rho, "ZZZ") == pytest.approx(1.0)


def test_correlator_maximally_mixed():
    for setting in ("XY", "ZZ", "YX"):
        assert pauli_correlator(np.eye(4) / 4, setting) == pytest.approx(0.0, abs=1e-12)


def test_correlator_ghz_zz():
    assert pauli_correlator(density(ghz_state(2)), "ZZ") == pytest.approx(1.0)


def test_correlator_dimension_mismatch():
    with pytest.raises(ValueError):
        pauli_correlator(np.eye(4) / 4, "ZZZ")


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        rho = density(random_filled_state(n, 0.7, seed=int(rng.integers(1000))))
        setting = "".join(rng.choice(list("XYZ"), size=n))
        probs = outcome_probabilities(rho, setting)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_sampling_ground_state_all_on_outcome_zero():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    counts = sample_setting_counts(rho, "ZZ", 1000, seed=0)
    assert counts[0] == 1000


def test_sampling_ghz_only_even_outcomes():
    counts = sample_setting_counts(density(ghz_state(2)), "ZZ", 10**4, seed=1)
    assert counts[1] == counts[2] == 0
    assert counts.sum() == 10**4


def test_sampling_deterministic():
    a = sample_setting_counts(density(w_state(2)), "XY", 5000, seed=3)
    b = sample_setting_counts(density(w_state(2)), "XY", 5000, seed=3)
    assert np.array_equal(a, b)


def test_histogram_frequencies_converge():
    rho = density(w_state(3))
    shots = 10**6
    for setting in ("ZZZ", "XXY", "YXZ"):
        probs = outcome_probabilities(rho, setting)
        counts = sample_setting_counts(rho, setting, shots, seed=5)
        se = np.sqrt(np.clip(probs * (1 - probs), 1e-12, None) / shots)
        assert (np.abs(counts / shots - probs) <= 5 * se + 1e-9).all()


def test_correlator_from_histogram_converges():
    rho = density(w_state(2))
    shots = 10**6
    for setting in ("XX", "ZZ", "XY"):
        counts = sample_setting_counts(rho, setting, shots, seed=6)
        parity = np.array([(-1) ** bin(k).count("1") for k in range(counts.size)])
        empirical = float(np.sum(parity * counts) / shots)
        assert empirical == pytest.approx(pauli_correlator(rho, setting), abs=5 / np.sqrt(shots))


def test_settings_csv_roundtrip(tmp_path):
    settings = ["ZZZ", "XYZ", "YYX"]
    path = tmp_path / "settings.csv"
    write_settings_csv(path, settings)
    assert read_settings_csv(path) == settings


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(counts=st.lists(st.integers(0, 10**9), min_size=1, max_size=64))
def test_histogram_csv_roundtrip(tmp_path, counts):
    path = tmp_path / "hist.csv"  # overwritten by every example
    write_histogram_csv(path, np.array(counts))
    assert np.array_equal(read_histogram_csv(path), counts)
