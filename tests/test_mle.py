import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.optimize import minimize

from tqst.core import basis_word, expectation, validate_density
from tqst.metrics import fidelity
from tqst.mle import (
    CountRecord,
    MleOptions,
    _param_count,
    gradient,
    likelihood,
    read_counts_csv,
    reconstruct,
    write_counts_csv,
)
from tqst.projectors import build_projector_table
from tqst.simulator import NoiseModel, density, sample_counts, w_state
from tqst.threshold import diagonal_plan, select_offdiagonal


def exact_records(rho, n, shots=10**8):
    words = build_projector_table(n).words()
    return [CountRecord(w, int(round(expectation(rho, w) * shots)), shots) for w in words]


def random_pure(rng, n):
    dim = 2**n
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    ket /= np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def identity_params(dim):
    """Parameters reproducing the maximally mixed state in the full layout."""
    params = np.zeros(dim * dim)
    params[:dim] = 1.0
    return params


def test_likelihood_zero_at_exact_fit():
    params = identity_params(2)
    records = [CountRecord("H", 5000, 10**4)]
    assert likelihood(params, records) == pytest.approx(0.0, abs=1e-20)


def test_likelihood_single_record_value():
    params = identity_params(2)
    records = [CountRecord("H", 6000, 10**4)]
    # (5000 - 6000)^2 / (4 * 5000)
    assert likelihood(params, records) == pytest.approx(50.0)


def test_likelihood_rejects_bad_parameters():
    records = [CountRecord("H", 5000, 10**4)]
    with pytest.raises(ValueError):
        likelihood(np.zeros(3), records)
    with pytest.raises(ValueError):
        likelihood(np.zeros(4), records)  # all-zero factor


def test_count_record_invariants():
    with pytest.raises(ValueError):
        CountRecord("H", -1, 10)
    with pytest.raises(ValueError):
        CountRecord("H", 11, 10)
    with pytest.raises(ValueError):
        CountRecord("H", 5, 0)


@pytest.mark.parametrize(
    "options",
    [MleOptions(), MleOptions(parametrization="low_rank", rank=2)],
)
def test_gradient_matches_finite_differences(options):
    rng = np.random.default_rng(12)
    words = build_projector_table(2).words()
    records = [CountRecord(w, int(rng.integers(100, 900)), 1000) for w in words]
    size = _param_count(4, options)
    for _ in range(5):
        x = rng.normal(size=size)
        analytic = gradient(x, records, options)
        fd = np.empty(size)
        for i in range(size):
            h = 1e-6 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (likelihood(xp, records, options) - likelihood(xm, records, options)) / (2 * h)
        assert np.linalg.norm(analytic - fd) <= 1e-5 * np.linalg.norm(fd)


def test_gradient_vanishes_at_exact_fit():
    # diagonal counts exactly reproduce the maximally mixed state
    records = [CountRecord("H", 5000, 10**4), CountRecord("V", 5000, 10**4)]
    g = gradient(identity_params(2), records)
    assert np.linalg.norm(g) <= 1e-8


def test_gradient_orthogonal_to_scaling_direction():
    rng = np.random.default_rng(13)
    words = build_projector_table(2).words()
    records = [CountRecord(w, int(rng.integers(100, 900)), 1000) for w in words]
    x = rng.normal(size=16)
    g = gradient(x, records)
    assert abs(np.dot(g, x)) <= 1e-8 * max(1.0, np.linalg.norm(g) * np.linalg.norm(x))


def test_objective_never_increases_along_descent():
    rng = np.random.default_rng(14)
    words = build_projector_table(2).words()
    records = [CountRecord(w, int(rng.integers(100, 900)), 1000) for w in words]
    values = []

    def track(xk):
        values.append(likelihood(xk, records))

    x0 = rng.normal(size=16)
    minimize(
        lambda x: likelihood(x, records),
        x0,
        jac=lambda x: gradient(x, records),
        method="L-BFGS-B",
        callback=track,
        options={"maxiter": 200},
    )
    diffs = np.diff(np.array(values))
    assert (diffs <= 1e-10).all()


def test_reconstruct_w4_threshold_plan():
    rho = density(w_state(4))
    exact = NoiseModel(sampling="exact")
    _, diag = sample_counts(rho, diagonal_plan(4), 10**6, exact)
    plan = select_offdiagonal(diag, 0.1)
    records, _ = sample_counts(rho, plan, 10**6, exact)
    result = reconstruct(records, MleOptions(seed=1))
    assert result.converged
    assert fidelity(result.rho, rho) >= 0.99


def test_reconstruct_basis_state_from_diagonal_only():
    n = 3
    shots = 10**6
    records = [
        CountRecord(basis_word(k, n), shots if k == 0 else 0, shots) for k in range(2**n)
    ]
    result = reconstruct(records, MleOptions(seed=0))
    target = np.zeros((8, 8), dtype=complex)
    target[0, 0] = 1.0
    assert np.max(np.abs(result.rho - target)) <= 1e-6


def test_reconstruct_sampled_w3_regression():
    rho = density(w_state(3))
    noise = NoiseModel(sampling="multinomial", seed=1)
    _, diag = sample_counts(rho, diagonal_plan(3), 10**4, noise)
    plan = select_offdiagonal(diag, 0.05)
    records, _ = sample_counts(rho, plan, 10**4, noise)
    result = reconstruct(records, MleOptions(seed=1))
    f = fidelity(result.rho, rho)
    assert f >= 0.98
    assert f == pytest.approx(0.9949842652977927, abs=1e-9)  # seeded regression: <psi|rho|psi>


def test_reconstruct_deterministic_given_seed():
    rho = density(w_state(2))
    records = exact_records(rho, 2, shots=10**4)
    a = reconstruct(records, MleOptions(seed=42))
    b = reconstruct(records, MleOptions(seed=42))
    assert np.array_equal(a.rho, b.rho)


@pytest.mark.parametrize("parametrization, rank, shape", [
    ("full", 1, (8, 8)), ("low_rank", 2, (2, 8)),
])
def test_result_factor_reproduces_rho(parametrization, rank, shape):
    rho = density(w_state(3))
    noise = NoiseModel(0.05, "multinomial", seed=2)
    _, diag = sample_counts(rho, diagonal_plan(3), 10**4, noise)
    records, _ = sample_counts(rho, select_offdiagonal(diag, 0.05), 10**4, noise)
    result = reconstruct(records, MleOptions(parametrization, rank, seed=2))
    f = result.factor
    assert f.shape == shape
    assert np.max(np.abs(f.conj().T @ f - result.rho)) <= 1e-12
    assert result.nfev >= result.iterations > 0
    assert isinstance(result.status, int) and result.message


def test_output_is_always_physical():
    rng = np.random.default_rng(15)
    words = build_projector_table(2).words()
    records = [CountRecord(w, int(rng.integers(0, 1001)), 1000) for w in words]
    result = reconstruct(records, MleOptions(seed=3))
    assert validate_density(result.rho, 1e-6).ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_data_consistency(n):
    rng = np.random.default_rng(30 + n)
    rho = random_pure(rng, n)
    records = exact_records(rho, n)
    result = reconstruct(
        records, MleOptions(seed=n, gradient_tolerance=1e-9, max_iterations=20000)
    )
    assert fidelity(result.rho, rho) >= 1 - 1e-6


def test_full_and_low_rank_agree_on_pure_data():
    rng = np.random.default_rng(44)
    rho = random_pure(rng, 2)
    records = exact_records(rho, 2)
    full = reconstruct(records, MleOptions(seed=7, gradient_tolerance=1e-9, max_iterations=20000))
    low = reconstruct(
        records,
        MleOptions(parametrization="low_rank", rank=1, seed=7, gradient_tolerance=1e-9,
                   max_iterations=20000),
    )
    assert fidelity(full.rho, low.rho) >= 1 - 1e-6


def test_reconstruct_requires_all_diagonal_projectors():
    records = exact_records(density(w_state(2)), 2)
    trimmed = [r for r in records if r.projector != "HV"]
    with pytest.raises(ValueError):
        reconstruct(trimmed)


def test_reconstruct_rejects_mixed_qubit_counts():
    with pytest.raises(ValueError):
        reconstruct([CountRecord("H", 1, 2), CountRecord("HH", 1, 2)])


def test_nonconvergence_is_flagged_not_raised():
    rho = density(w_state(3))
    records = exact_records(rho, 3, shots=10**4)
    result = reconstruct(records, MleOptions(seed=0, max_iterations=2))
    assert not result.converged
    assert validate_density(result.rho, 1e-6).ok


@st.composite
def count_records(draw):
    n = draw(st.integers(1, 4))
    words = draw(st.lists(st.text("HVDARL", min_size=n, max_size=n), min_size=1, unique=True))
    records = []
    for word in words:
        shots = draw(st.integers(1, 10**8))
        records.append(CountRecord(word, draw(st.integers(0, shots)), shots))
    return records


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=count_records())
def test_counts_csv_roundtrip(tmp_path, records):
    path = tmp_path / "counts.csv"  # overwritten by every example
    write_counts_csv(path, records)
    assert read_counts_csv(path) == records
