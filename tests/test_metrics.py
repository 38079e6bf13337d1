import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tqst import metrics
from tqst.core import BlockState
from tqst.metrics import (
    compare,
    fidelity,
    fidelity_bound,
    numerical_rank,
    purity,
    root_fidelity,
    trace_distance,
    truncate_below_threshold,
)
from tqst.projectors import psd_projection
from tqst.threshold import DiagonalRecord, select_offdiagonal

from kets import dense_ket


def pure(word):
    ket = dense_ket(word)
    return np.outer(ket, ket.conj())


def random_density(rng, dim, rank=None):
    g = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(size=(dim, rank or dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_root_fidelity_self():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 4)
    assert root_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_root_fidelity_orthogonal_pure_states():
    assert root_fidelity(pure("H"), pure("V")) == pytest.approx(0.0, abs=1e-10)


def test_root_fidelity_pure_against_mixed():
    assert root_fidelity(pure("H"), np.eye(2) / 2) == pytest.approx(1 / np.sqrt(2))


def test_root_fidelity_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b = random_density(rng, 4), random_density(rng, 4)
        assert root_fidelity(a, b) == pytest.approx(root_fidelity(b, a), abs=1e-8)


def test_fidelity_squares_root_fidelity():
    assert fidelity(pure("H"), np.eye(2) / 2) == pytest.approx(0.5)
    rng = np.random.default_rng(2)
    rho = random_density(rng, 8)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_equals_overlap_for_pure_second_argument():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 4)
    target = pure("DR")
    overlap = np.real(dense_ket("DR").conj() @ rho @ dense_ket("DR"))
    assert fidelity(rho, target) == pytest.approx(overlap, abs=1e-8)


def test_fidelity_stable_under_small_perturbation():
    rng = np.random.default_rng(4)
    base = np.eye(2) / 2
    noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    noise = (noise + noise.conj().T) / 2
    noise -= np.trace(noise).real * np.eye(2) / 2
    perturbed = psd_projection(base + 1e-3 * noise / np.linalg.norm(noise))
    assert fidelity(base, perturbed) >= 0.999


def test_trace_distance_extremes():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 4)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(pure("H"), pure("V")) == pytest.approx(1.0)


def test_fuchs_van_de_graaf_chain():
    rng = np.random.default_rng(6)
    for _ in range(50):
        dim = 2 ** rng.integers(1, 4)
        a = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        b = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        td = trace_distance(a, b)
        assert 1 - root_fidelity(a, b) <= td + 1e-8
        hs = np.linalg.norm(a - b)
        assert 2 * td <= 2 * np.sqrt(min(numerical_rank(a), numerical_rank(b))) * hs + 1e-8


def test_unitary_invariance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b = random_density(rng, 4), random_density(rng, 4)
        u = random_unitary(rng, 4)
        ua, ub = u @ a @ u.conj().T, u @ b @ u.conj().T
        assert root_fidelity(ua, ub) == pytest.approx(root_fidelity(a, b), abs=1e-8)
        assert trace_distance(ua, ub) == pytest.approx(trace_distance(a, b), abs=1e-8)


def test_numerical_rank():
    assert numerical_rank(pure("HH")) == 1
    assert numerical_rank(np.eye(8) / 8) == 8
    mixed = 0.9 * pure("HV") + 0.1 * np.eye(4) / 4
    assert numerical_rank(mixed) == 4


def test_purity():
    assert purity(pure("RL")) == pytest.approx(1.0)
    assert purity(np.eye(8) / 8) == pytest.approx(1 / 8)
    assert purity(np.diag([0.75, 0.25])) == pytest.approx(0.625)


def random_factor(rng, rows, dim):
    """A random complex rows x dim factor F with tr(F^H F) = 1."""
    f = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    return f / np.linalg.norm(f)


# n <= 8 and factor ranks 1-3; the example is a full-shaped 4 x 4 factor, where
# the two factors together have more rows (4 + 1) than the dimension
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), rank_a=st.integers(1, 3), rank_b=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, rank_a=4, rank_b=1, seed=0)
def test_compare_matches_dense_metrics(n, rank_a, rank_b, seed):
    rng = np.random.default_rng(seed)
    a, b = random_factor(rng, rank_a, 2**n), random_factor(rng, rank_b, 2**n)
    rho, sigma = a.conj().T @ a, b.conj().T @ b
    # the dense metrics, looked up in the module, see the compressed pair
    with mock.patch.object(metrics, "numerical_rank", wraps=numerical_rank) as rank:
        report = compare(BlockState.of_factor(a), BlockState.of_factor(b))
    assert [c.args[0].shape for c in rank.call_args_list] == [(min(rank_a + rank_b, 2**n),) * 2] * 2
    assert report["trace_distance"] == pytest.approx(trace_distance(rho, sigma), abs=1e-9)
    assert report["purity_reconstructed"] == pytest.approx(purity(rho), abs=1e-9)
    assert report["purity_target"] == pytest.approx(purity(sigma), abs=1e-9)
    assert report["rank_reconstructed"] == numerical_rank(rho)
    assert report["rank_target"] == numerical_rank(sigma)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), rank=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(n=2, rank=4, seed=0)
def test_compare_fidelity_against_pure_target(n, rank, seed):
    # the fit first, as `tqst run` does; the target first gives the same value
    rng = np.random.default_rng(seed)
    a = random_factor(rng, rank, 2**n)
    psi = random_factor(rng, 1, 2**n)[0]
    fit, target = BlockState.of_factor(a), BlockState.of_factor(psi.conj()[None, :])
    exact = np.sqrt(np.real(psi.conj() @ a.conj().T @ (a @ psi)))
    assert compare(fit, target)["root_fidelity"] == pytest.approx(exact, abs=1e-12)
    assert compare(target, fit)["root_fidelity"] == pytest.approx(exact, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), rank=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_dense_fidelity_against_pure_target(n, rank, seed):
    # round-off eigenvalues of the rank-deficient states must not enter the result
    rng = np.random.default_rng(seed)
    a = random_factor(rng, rank, 2**n)
    psi = random_factor(rng, 1, 2**n)[0]
    rho, target = a.conj().T @ a, np.outer(psi, psi.conj())
    exact = np.real(psi.conj() @ rho @ psi)
    assert fidelity(rho, target) == pytest.approx(exact, abs=1e-12)
    assert fidelity(target, rho) == pytest.approx(exact, abs=1e-12)


def test_fidelity_bound_trivial_threshold():
    assert fidelity_bound(np.array([0.5, 0.5]), 0.0, 1) == 1.0


def test_fidelity_bound_hand_fixture():
    value = fidelity_bound(np.array([0.5, 0.5]), 0.6, 1)
    assert value == pytest.approx((1 - np.sqrt(0.5)) ** 2)
    # cross-check against the estimator-matrix Frobenius norm: zeroing the
    # (0,1)/(1,0) pair removes at most sqrt(sum of products) in 2-norm
    removed = np.array([[0, 0.5], [0.5, 0]])
    assert np.linalg.norm(removed) == pytest.approx(np.sqrt(0.5))


def test_fidelity_bound_clamps_to_zero():
    assert fidelity_bound(np.full(16, 1 / 16), 1.0, 16) == 0.0


def test_fidelity_bound_input_validation():
    with pytest.raises(ValueError):
        fidelity_bound(np.array([0.5, 0.5]), 0.1, 0)
    with pytest.raises(ValueError):
        fidelity_bound(np.array([0.9, 0.3]), 0.1, 1)
    for t in (float("nan"), -0.1, 1.5):
        with pytest.raises(ValueError, match="threshold must be in"):
            fidelity_bound(np.array([0.5, 0.5]), t, 1)


def test_bound_is_a_lower_bound_on_truncated_reconstruction():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        dim = 2**n
        rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        t = float(rng.uniform(0, 0.8))
        truncated = truncate_below_threshold(rho, t)
        estimator = psd_projection((truncated + truncated.conj().T) / 2)
        bound = fidelity_bound(np.real(np.diag(rho)), t, numerical_rank(rho))
        assert fidelity(rho, estimator) >= bound - 1e-8


def test_truncate_below_threshold():
    rho = np.array(
        [
            [0.5, 0.2, 0.0],
            [0.2, 0.4, 0.01],
            [0.0, 0.01, 0.1],
        ],
        dtype=complex,
    )
    out = truncate_below_threshold(rho, 0.3)
    assert out[0, 1] == 0.2  # sqrt(0.5*0.4) ~ 0.45 >= 0.3
    assert out[1, 2] == 0.0  # sqrt(0.4*0.1) = 0.2 < 0.3
    assert out[2, 2] == 0.1  # diagonal untouched
    for t in (float("nan"), -0.1, 1.5):
        with pytest.raises(ValueError, match="threshold must be in"):
            truncate_below_threshold(rho, t)


def dense_fidelity_bound(p, t, rank):
    """The bound from the full outer products, the reference for the row-wise rule."""
    prod = np.outer(p, p)
    below = np.sqrt(prod) < t
    np.fill_diagonal(below, False)
    inner = min(max(1.0 - math.sqrt(rank * float(prod[below].sum())), 0.0), 1.0)
    return inner * inner


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), zeros=st.floats(0.0, 0.9), rank=st.integers(1, 3),
       pick=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
def test_threshold_rule_matches_dense_reference(n, zeros, rank, pick, seed):
    # random diagonals with zeros, and t exactly one of the bounds (or 0)
    rng = np.random.default_rng(seed)
    dim = 2**n
    counts = rng.integers(1, 1000, size=dim) * (rng.random(dim) >= zeros)
    counts[rng.integers(dim)] += 1
    record = DiagonalRecord(counts=counts, shots=int(counts.sum()))
    p = record.probabilities()
    geo = np.sqrt(np.outer(p, p))
    upper = np.triu_indices(dim, 1)
    t = float(np.append(geo[upper], 0.0)[pick % (upper[0].size + 1)])
    kept = [(i, j) for i, j in zip(*upper) if geo[i, j] > 0.0 and geo[i, j] >= t]
    assert select_offdiagonal(record, t).pairs.tolist() == [list(pair) for pair in kept]
    assert fidelity_bound(p, t, rank) == pytest.approx(dense_fidelity_bound(p, t, rank), abs=1e-12)
    assert fidelity_bound(p, 0.0, rank) == 1.0
    # the truncation drops exactly the pairs the plan does not measure
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = rho + rho.conj().T
    rho[np.diag_indices(dim)] = p
    keep = (geo > 0.0) & (geo >= t)
    np.fill_diagonal(keep, True)
    assert np.array_equal(truncate_below_threshold(rho, t), np.where(keep, rho, 0.0))


def test_metric_input_validation():
    with pytest.raises(ValueError):
        root_fidelity(np.eye(2) / 2, np.eye(4) / 4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        compare(BlockState.of_factor([[1.0, 0.0]]), BlockState.of_factor([[1.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        fidelity(np.diag([1.5, -0.5]).astype(complex), np.eye(2) / 2)
