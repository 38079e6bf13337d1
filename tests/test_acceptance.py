"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with the measured quantities once its
assertions hold (run with ``pytest -s`` to see them).  The n >= 11 noisy
runs are intentionally not part of this suite; see the README for the
long-running variant.
"""

import itertools
import time

import numpy as np
import pytest

from tqst.core import BlockState, STATE_LABELS, density, expectation
from tqst.metrics import (
    compare,
    fidelity,
    fidelity_bound,
    numerical_rank,
    truncate_below_threshold,
)
from tqst.mle import CountRecord, MleOptions, gradient, likelihood, reconstruct, _layout
from tqst.projectors import (
    build_projector_table,
    completeness_check,
    linear_inversion,
    projector_for,
    psd_projection,
)
from tqst.settings import settings_for_plan
from tqst.simulator import (
    NoiseModel,
    color_code_state,
    populations,
    sample_counts,
    sample_diagonal,
    w_state,
)
from tqst.threshold import (
    DiagonalRecord,
    estimate_threshold,
    select_offdiagonal,
)

from kets import dense_ket


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def random_density(rng, dim, rank=None):
    g = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(size=(dim, rank or dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_factor(rng, dim):
    """Factor F = g^H / ||g||_F of the random_density g g^H / tr(g g^H)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g.conj().T / np.linalg.norm(g)


def random_pure(rng, n):
    ket = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    ket /= np.linalg.norm(ket)
    return ket.conj()[None, :]


def test_criterion_1_projector_fixtures():
    start = time.perf_counter()
    assert projector_for(2, 1, 2) == "RR"
    assert projector_for(2, 2, 1) == "RD"
    assert projector_for(3, 5, 3) == "RDV"
    assert projector_for(4, 4, 9) == "RRHD"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"RR/RD, RDV, RRHD reproduced in {elapsed * 1e3:.1f} ms")


def test_criterion_2_completeness_to_n5():
    start = time.perf_counter()
    values = {}
    for n in range(1, 6):
        out = completeness_check(n)
        assert out.invertible, f"n={n} not invertible"
        assert out.min_singular_value > 1e-10
        values[n] = out.min_singular_value
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(2, "min singular values "
              + ", ".join(f"n={n}: {v:.3e}" for n, v in values.items())
              + f" in {elapsed:.1f} s")


def test_criterion_3_frobenius_minimizers():
    checked = 0
    for n in (1, 2):
        dim = 2**n
        candidates = {}
        for letters in itertools.product(STATE_LABELS, repeat=n):
            word = "".join(letters)
            ket = dense_ket(word)
            candidates[word] = np.outer(ket, ket.conj())
        grid = build_projector_table(n).grid
        for row, col in itertools.permutations(range(dim), 2):
            # the real part of element (row, col) above the diagonal; below it, the
            # imaginary part of (col, row), read with the words' sign flip
            target = np.zeros((dim, dim), dtype=complex)
            target[row, col], target[col, row] = (0.5, 0.5) if row < col else (0.5j, -0.5j)
            word = grid[row][col]
            distances = {w: np.linalg.norm(target - p) for w, p in candidates.items()}
            assert distances[word] <= min(distances.values()) + 1e-10, (row, col, word)
            checked += 1
    report(3, f"{checked} off-diagonal words attain the 6**n brute-force minimum")


def test_criterion_4_noiseless_w_state_replication():
    start = time.perf_counter()
    shots = 10**6
    exact = NoiseModel(sampling="exact")
    results = []
    for n, t in ((4, 0.1), (5, 0.01), (6, 0.001), (7, 0.0001)):
        psi = w_state(n)
        diag = sample_diagonal(psi, shots, exact)
        plan = select_offdiagonal(diag, t)
        assert plan.size == 2**n + n * (n - 1), (n, plan.size)
        records = sample_counts(psi, plan, diag, exact)
        result = reconstruct(records, MleOptions(seed=n), diag)
        f = compare(result.state, BlockState.of_factor(psi))["fidelity"]
        assert f >= 0.99, (n, f)
        results.append((n, plan.size, f))
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(4, "; ".join(f"n={n}: {m} measurements, fidelity {f:.4f}"
                        for n, m, f in results) + f" ({elapsed:.0f} s)")


def test_criterion_5_noisy_w_state_trend():
    start = time.perf_counter()
    shots = 10**4
    lam = 0.05
    results = []
    for n in (8, 9, 10):
        psi = w_state(n)
        ideal = populations(psi)
        runs = [
            sample_diagonal(psi, shots, NoiseModel(lam, "multinomial", 1000 + r))
            for r in range(20)
        ]
        estimate = estimate_threshold(ideal, runs, n)
        assert estimate.favorable
        noise = NoiseModel(lam, "multinomial", 42)
        diag = sample_diagonal(psi, shots, noise)
        plan = select_offdiagonal(diag, estimate.threshold)
        formula = 2**n + n * n - n
        assert abs(plan.size - formula) <= 0.01 * formula, (n, plan.size, formula)
        records = sample_counts(psi, plan, diag, noise)
        result = reconstruct(
            records,
            MleOptions(parametrization="low_rank", rank=2, seed=7,
                       gradient_tolerance=0.05),
            diag,
        )
        f = compare(result.state, BlockState.of_factor(psi))["fidelity"]
        assert 0.85 <= f <= 0.97, (n, f)
        results.append((n, estimate.threshold, plan.size, f))
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    report(5, "; ".join(f"n={n}: t={t:.3f}, {m} measurements, fidelity {f:.3f}"
                        for n, t, m, f in results) + f" ({elapsed:.0f} s)")


def test_criterion_6_fidelity_bound_validity():
    assert fidelity_bound(np.array([0.5, 0.5]), 0.0, 1) == 1.0
    rng = np.random.default_rng(606)
    worst_slack = np.inf
    for _ in range(100):
        n = int(rng.integers(1, 5))
        dim = 2**n
        rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        t = float(rng.uniform(0.0, 0.9))
        truncated = truncate_below_threshold(rho, t)
        estimator = psd_projection((truncated + truncated.conj().T) / 2)
        bound = fidelity_bound(np.real(np.diag(rho)), t, numerical_rank(rho))
        f = fidelity(rho, estimator)
        assert f >= bound - 1e-8, (n, t, f, bound)
        worst_slack = min(worst_slack, f - bound)
    report(6, f"bound held on 100 random states; minimum slack {worst_slack:.2e}")


def test_criterion_7_color_code_counts():
    start = time.perf_counter()
    diag = sample_diagonal(color_code_state(0), 10**4, NoiseModel(sampling="exact"))
    plan = select_offdiagonal(diag, 0.01)
    assert plan.size == 184
    settings = settings_for_plan(plan)
    n_above = int((diag.counts > 0).sum())
    assert n_above == 8
    assert len(settings) == 57
    assert len(settings) <= 1 + n_above * (n_above - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(7, f"184 measurements, 57 settings (bound {1 + 8 * 7}) in {elapsed:.2f} s")


def test_criterion_8_mle_numerics():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        dim = 2**n
        words = build_projector_table(n).words()
        records = [CountRecord(w, int(rng.integers(50, 950)), 1000) for w in words]
        options = MleOptions()
        x = rng.normal(size=_layout(dim, options).size)
        analytic = gradient(x, records, options)
        fd = np.empty_like(analytic)
        for i in range(x.size):
            h = 1e-6 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (likelihood(xp, records, options)
                     - likelihood(xm, records, options)) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
        assert rel <= 1e-5

    fidelities = []
    shots = 10**8
    for n in (1, 2, 3):
        psi = random_pure(rng, n)
        words = build_projector_table(n).words()
        records = [
            CountRecord(w, int(round(expectation(psi, w) * shots)), shots) for w in words
        ]
        result = reconstruct(
            records, MleOptions(seed=n, gradient_tolerance=1e-9, max_iterations=20000)
        )
        f = compare(result.state, BlockState.of_factor(psi))["fidelity"]
        assert f >= 1 - 1e-6, (n, f)
        fidelities.append(f)
    report(8, f"gradient max rel err {worst:.2e}; exact-data fidelities "
              + ", ".join(f"{f:.8f}" for f in fidelities))


def test_criterion_9_linear_inversion_and_psd():
    rng = np.random.default_rng(909)
    shots = 2**40
    worst = 0.0
    for n in (1, 2, 3, 7):
        factor = random_factor(rng, 2**n)
        rho = density(factor)
        words = build_projector_table(n).words()
        records = [
            CountRecord(w, int(round(expectation(factor, w) * shots)), shots) for w in words
        ]
        start = time.perf_counter()
        out = linear_inversion(records)
        elapsed = time.perf_counter() - start
        err = float(np.max(np.abs(out - rho)))
        worst = max(worst, err)
        assert err <= 1e-9, (n, err)
    assert np.allclose(psd_projection(np.diag([1.2, -0.2])), np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(
        psd_projection(np.diag([0.9, 0.4, -0.3])), np.diag([0.75, 0.25, 0.0]), atol=1e-12
    )
    report(9, f"linear inversion identity to {worst:.2e}, n=7 in {elapsed * 1e3:.1f} ms; "
              "rescaling fixtures exact")
