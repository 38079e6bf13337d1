import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tqst import simulator
from tqst.core import STATE_LABELS, density, expectation, validate_density
from tqst.metrics import purity
from tqst.mle import CountRecord, read_counts_csv, write_counts_csv
from tqst.simulator import (
    NoiseModel,
    apply_depolarizing,
    color_code_state,
    ghz_state,
    populations,
    random_filled_state,
    sample_counts,
    sample_diagonal,
    w_state,
)
from tqst.threshold import DiagonalRecord, diagonal_plan, select_offdiagonal

from kets import dense_ket


def test_w2_matrix_values():
    rho = density(w_state(2))
    expected = np.zeros((4, 4))
    expected[np.ix_([1, 2], [1, 2])] = 0.5
    assert np.allclose(rho, expected, atol=1e-12)


def test_w7_diagonal_support():
    diag = np.real(np.diag(density(w_state(7))))
    support = np.flatnonzero(diag > 1e-12)
    assert len(support) == 7
    assert np.allclose(diag[support], 1 / 7)
    assert set(support) == {1 << k for k in range(7)}


@pytest.mark.parametrize("n", range(1, 11))
def test_w_state_is_pure(n):
    assert purity(density(w_state(n))) == pytest.approx(1.0, abs=1e-12)


def test_ghz_structure():
    rho = density(ghz_state(2))
    assert np.allclose(np.diag(rho), [0.5, 0, 0, 0.5])
    assert rho[0, 3] == pytest.approx(0.5)
    assert rho[3, 0] == pytest.approx(0.5)


@pytest.mark.parametrize("n", [2, 4])
def test_ghz_all_z_correlator_for_even_n(n):
    # <Z...Z> is the parity-weighted sum of the computational-basis probabilities
    diag = np.real(np.diag(density(ghz_state(n))))
    parity = np.array([(-1) ** bin(k).count("1") for k in range(2**n)])
    assert parity @ diag == pytest.approx(1.0)


def test_color_code_supports():
    rho0 = density(color_code_state(0))
    diag = np.real(np.diag(rho0))
    support = set(np.flatnonzero(diag > 1e-12))
    assert support == {85, 99, 45, 27, 78, 54, 120, 0}
    assert np.allclose(diag[sorted(support)], 1 / 8)


def test_color_code_logical_states_are_orthogonal():
    rho0, rho1 = density(color_code_state(0)), density(color_code_state(1))
    assert abs(np.trace(rho0 @ rho1)) < 1e-12


def test_random_filled_minimal_support_is_basis_state():
    rho = density(random_filled_state(3, 1 / 8, seed=5))
    diag = np.real(np.diag(rho))
    assert np.isclose(diag.max(), 1.0)
    assert purity(rho) == pytest.approx(1.0)


def test_random_filled_full_support():
    rho = density(random_filled_state(3, 1.0, seed=6))
    assert (np.real(np.diag(rho)) > 0).all()


def test_random_filled_deterministic():
    a = random_filled_state(4, 0.4, seed=9)
    b = random_filled_state(4, 0.4, seed=9)
    assert np.array_equal(a, b)


def test_random_filled_support_size():
    for filling, expected in ((0.25, 4), (0.3, 5), (1.0, 16)):
        rho = density(random_filled_state(4, filling, seed=1))
        assert (np.real(np.diag(rho)) > 1e-12).sum() == expected


def test_depolarizing_limits():
    rho = density(w_state(2))
    assert np.array_equal(apply_depolarizing(rho, 0.0), rho)
    assert np.allclose(apply_depolarizing(rho, 1.0), np.eye(4) / 4)


def test_depolarizing_purity_fixture():
    rho = apply_depolarizing(density(ghz_state(2)), 0.1)
    assert purity(rho) == pytest.approx((0.9 + 0.1 / 4) ** 2 + 3 * (0.1 / 4) ** 2)
    assert purity(rho) == pytest.approx(0.8575)


@pytest.mark.parametrize(
    "make", [lambda: density(w_state(3)), lambda: density(ghz_state(4)),
             lambda: density(color_code_state(1)),
             lambda: density(random_filled_state(3, 0.6, seed=2))]
)
def test_generators_emit_valid_densities(make):
    assert validate_density(make(), 1e-12).ok


def test_exact_diagonal_sampling():
    factor = np.eye(2) / np.sqrt(2)
    diag = sample_diagonal(factor, 10**4, NoiseModel(sampling="exact"))
    assert diag.counts.tolist() == [5000, 5000]
    # the basis states stay in the round: a diagonal-only plan has no records
    assert sample_counts(factor, diagonal_plan(1), diag, NoiseModel(sampling="exact")) == []


def test_exact_diagonal_sampling_preserves_total():
    # probabilities of 1/3 cannot round independently without losing shots
    diag = sample_diagonal(w_state(3), 10**4, NoiseModel(sampling="exact"))
    assert diag.counts.sum() == 10**4


W3_DIAGONAL = DiagonalRecord(np.array([0, 3334, 3333, 0, 3333, 0, 0, 0]), 10**4)


def test_exact_offdiagonal_rounding():
    plan = select_offdiagonal(W3_DIAGONAL, 0.1)
    records = sample_counts(w_state(3), plan, W3_DIAGONAL, NoiseModel(sampling="exact"))
    by_word = {r.projector: r.observed for r in records}
    assert by_word["HRR"] == round(10**4 / 3)  # |<HRR|W>|**2 = 1/3


def test_exact_depolarized_counts_match_dense_mixture():
    # the per-probability noise must count like sampling the mixture itself,
    # given as the factor [sqrt(1 - lam) psi^H; sqrt(lam / d) I]
    psi = random_filled_state(4, 0.5, seed=5)
    mixture = np.vstack([np.sqrt(0.7) * psi, np.sqrt(0.3 / 16) * np.eye(16)])
    assert np.allclose(density(mixture), apply_depolarizing(density(psi), 0.3), atol=1e-15)
    plan = select_offdiagonal(DiagonalRecord(np.full(16, 100), 1600), 0.0)
    shots = 10**5
    diag = sample_diagonal(psi, shots, NoiseModel(0.3, "exact"))
    ref_diag = sample_diagonal(mixture, shots, NoiseModel(0.0, "exact"))
    assert np.array_equal(diag.counts, ref_diag.counts)
    records = sample_counts(psi, plan, diag, NoiseModel(0.3, "exact"))
    ref_records = sample_counts(mixture, plan, ref_diag, NoiseModel(0.0, "exact"))
    assert records == ref_records


def test_multinomial_seeded_fixture():
    plan = select_offdiagonal(DiagonalRecord(np.array([0, 500, 500, 0]), 1000), 0.1)
    noise = NoiseModel(0.0, "multinomial", 123)
    diag = sample_diagonal(w_state(2), 1000, noise)
    records = sample_counts(w_state(2), plan, diag, noise)
    assert diag.counts.tolist() == [0, 484, 516, 0]
    by_word = {r.projector: r.observed for r in records}
    assert by_word["RR"] == 507
    assert by_word["RD"] == 229
    assert all(set(r.projector) - {"H", "V"} for r in records)  # the basis states stay in diag


def test_multinomial_deterministic_per_seed():
    def draw():
        noise = NoiseModel(0.1, "multinomial", 7)
        diag = sample_diagonal(w_state(3), 5000, noise)
        return diag, sample_counts(w_state(3), select_offdiagonal(diag, 0.1), diag, noise)

    a, b = draw(), draw()
    assert a[1] == b[1]
    assert np.array_equal(a[0].counts, b[0].counts)


def test_sampled_frequencies_converge():
    psi = random_filled_state(4, 0.5, seed=20)
    shots = 10**6
    noise = NoiseModel(0, "multinomial", 21)
    diag = sample_diagonal(psi, shots, noise)
    plan = select_offdiagonal(diag, 0.02)
    records = sample_counts(psi, plan, diag, noise)
    for rec in records:
        p = expectation(psi, rec.projector)
        se = np.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(rec.observed / shots - p) <= 5 * se + 1e-9


def test_sample_counts_dimension_mismatch():
    diag2 = DiagonalRecord(np.full(4, 25), 100)
    diag3 = DiagonalRecord(np.full(8, 25), 200)
    with pytest.raises(ValueError, match="dimension mismatch"):
        sample_counts(w_state(2), diagonal_plan(3), diag3)
    for factor in (np.eye(3) / np.sqrt(3), np.eye(4)[:, :2] / np.sqrt(2)):  # not r x 2**n
        with pytest.raises(ValueError, match="dimension mismatch"):
            sample_counts(factor, diagonal_plan(2), diag2)
    with pytest.raises(ValueError, match=r"plan is for 3 qubits, factor is \(1, 4\)"):
        sample_counts(w_state(2), diagonal_plan(3), diag3)
    with pytest.raises(ValueError, match=r"plan is for 2 qubits, factor is \(4,\)"):
        sample_counts(w_state(2)[0], diagonal_plan(2), diag2)  # a ket is not a factor
    with pytest.raises(ValueError, match="plan is for 2 qubits.*diagonal record for 3"):
        sample_counts(w_state(2), diagonal_plan(2), diag3)


def test_sample_diagonal_needs_an_r_by_2n_factor_and_shots():
    for factor in (np.eye(3) / np.sqrt(3), w_state(2)[0], np.ones((1, 1))):
        with pytest.raises(ValueError, match=r"is not r x 2\*\*n"):
            sample_diagonal(factor, 100)
    with pytest.raises(ValueError, match="shots must be >= 1"):
        sample_diagonal(w_state(2), 0)


@pytest.mark.parametrize("scale", [2.0, 3.0])
def test_sample_counts_rejects_non_unit_trace(scale):
    # the diagonal would be renormalized, the off-diagonal probabilities not
    plan = select_offdiagonal(W3_DIAGONAL, 0.1)
    with pytest.raises(ValueError, match=r"trace \|\|F\|\|_F\*\*2 = (4|9)\.0"):
        sample_counts(scale * w_state(3), plan, W3_DIAGONAL, NoiseModel(sampling="exact"))
    with pytest.raises(ValueError, match=r"trace \|\|F\|\|_F\*\*2 = (4|9)\.0"):
        sample_diagonal(scale * w_state(3), 10**4, NoiseModel(sampling="exact"))


def test_sample_counts_rejects_mixed_density_as_factor():
    # a dense rho passed as a factor samples rho^2, whose trace is the purity
    mixed = apply_depolarizing(density(w_state(3)), 0.3)
    with pytest.raises(ValueError, match="trace"):
        sample_diagonal(mixed, 100)
    with pytest.raises(ValueError, match="trace"):
        sample_counts(mixed, diagonal_plan(3), W3_DIAGONAL)
    # a pure rho has rho^H rho = rho, so it samples the state itself
    exact = NoiseModel(sampling="exact")
    pure = density(w_state(3))
    assert np.array_equal(sample_diagonal(pure, 10**4, exact).counts,
                          sample_diagonal(w_state(3), 10**4, exact).counts)
    plan = select_offdiagonal(W3_DIAGONAL, 0.1)
    assert (sample_counts(pure, plan, W3_DIAGONAL, exact)
            == sample_counts(w_state(3), plan, W3_DIAGONAL, exact))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       words=st.data())
def test_factor_probabilities_match_dense_reference(n, r, seed, words):
    rng = np.random.default_rng(seed)
    factor = rng.normal(size=(r, 2**n)) + 1j * rng.normal(size=(r, 2**n))
    factor /= np.linalg.norm(factor)
    rho = density(factor)
    assert np.max(np.abs(populations(factor) - np.real(np.diag(rho)))) <= 1e-14
    for word in words.draw(st.lists(st.text(STATE_LABELS, min_size=n, max_size=n),
                                    min_size=1, max_size=20)):
        phi = dense_ket(word)
        assert abs(expectation(factor, word) - np.real(phi.conj() @ rho @ phi)) <= 1e-14


def dense_reference(monkeypatch, rho):
    """Make sample_counts read its probabilities off the dense ``rho``:
    the diagonal, and the quadratic forms phi^H rho phi."""
    monkeypatch.setattr(simulator, "populations", lambda factor: np.real(np.diag(rho)))

    def quadratic_form(factor, word):
        phi = dense_ket(word)
        return float(np.real(phi.conj() @ rho @ phi))

    monkeypatch.setattr(simulator, "expectation", quadratic_form)


@pytest.mark.parametrize("factor", [
    w_state(4), ghz_state(3), color_code_state(0), random_filled_state(4, 0.75, seed=3),
], ids=["w4", "ghz3", "color0", "random4"])
@pytest.mark.parametrize("sampling", ["exact", "multinomial"])
@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_sample_counts_ket_equals_density(monkeypatch, factor, sampling, lam):
    n = factor.shape[1].bit_length() - 1
    noise = NoiseModel(lam, sampling, seed=9)
    diag_factor = sample_diagonal(factor, 2000, noise)
    plan = select_offdiagonal(diag_factor, 0.01)
    assert plan.n == n and len(plan.pairs)
    from_factor = sample_counts(factor, plan, diag_factor, noise)
    dense_reference(monkeypatch, density(factor))
    diag_rho = sample_diagonal(factor, 2000, noise)
    from_rho = sample_counts(factor, plan, diag_rho, noise)
    assert from_factor == from_rho
    assert np.array_equal(diag_factor.counts, diag_rho.counts)


def test_sampling_from_ket_needs_no_dense_state():
    # the dense rho of n = 12 alone is 256 MiB; sampling from the 1 x 2**n
    # factor should stay linear in 2**n
    factor = w_state(12)
    noise = NoiseModel(0.05, "multinomial", seed=42)
    tracemalloc.start()
    try:
        diag = sample_diagonal(factor, 10000, noise)
        plan = select_offdiagonal(diag, 0.038)
        records = sample_counts(factor, plan, diag, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2**12 + len(records) == plan.size > 2**12
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(depolarizing=1.5)
    with pytest.raises(ValueError):
        NoiseModel(sampling="poisson")
    with pytest.raises(ValueError):
        NoiseModel(seed=-1)
    with pytest.raises(TypeError):
        NoiseModel(seed=[1, 2])


def test_resolve_seed_keeps_an_integer_and_draws_for_none():
    assert simulator.resolve_seed(7) == 7
    assert type(simulator.resolve_seed(np.int64(7))) is int
    fresh = simulator.resolve_seed(None)
    assert isinstance(fresh, int) and 0 <= fresh < 2**128
    for bad, error in ((-1, ValueError), (1.5, TypeError), ("3", TypeError), ([1, 2], TypeError)):
        with pytest.raises(error):
            simulator.resolve_seed(bad)


@settings(max_examples=100, deadline=None)
@given(entropy=st.integers(0, 2**128 - 1),
       keys=st.lists(st.integers(0, 2**64 - 1), max_size=20))
def test_stream_seeds_are_the_seed_sequence_words(entropy, keys):
    # every stream's seed words, derived in one pass, are SeedSequence's own,
    # and its generator draws what default_rng draws
    keys = [0, 2**32 - 1, 2**32, 2**62 + 5, *keys]
    seeds = simulator._stream_seeds(entropy, keys)
    assert seeds.shape == (len(keys), 4) and seeds.dtype == np.uint64
    for words, k in zip(seeds, keys):
        expected = np.random.SeedSequence(entropy, spawn_key=(k,)).generate_state(4, np.uint64)
        assert np.array_equal(words, expected), k
    assert simulator._stream_seeds(entropy, []).shape == (0, 4)
    noise = NoiseModel(seed=entropy)
    for rng, k in zip(simulator._streams(noise, keys[:4]), keys):
        reference = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(k,)))
        assert np.array_equal(rng.binomial(1000, 0.3, size=8), reference.binomial(1000, 0.3, size=8))
    with pytest.raises(ValueError, match="4 uint64"):
        rng.bit_generator.seed_seq.generate_state(8, np.uint32)


def test_one_unseeded_model_draws_one_set_of_streams():
    # the seed is resolved once per model; an integer seed stays itself
    assert NoiseModel(seed=7).seed == 7
    assert type(NoiseModel(seed=np.int64(7)).seed) is int
    noise = NoiseModel(0.05, "multinomial")
    assert isinstance(noise.seed, int) and noise.seed >= 0
    # two draws with one model see one diagonal and one set of plan records
    diag = sample_diagonal(w_state(3), 1000, noise)
    again = sample_diagonal(w_state(3), 1000, noise)
    assert np.array_equal(diag.counts, again.counts)
    plan = select_offdiagonal(diag, 0.05)
    assert sample_counts(w_state(3), plan, diag, noise) == sample_counts(w_state(3), plan, again, noise)
    # without a model, each call draws fresh entropy (equal with probability ~1e-6)
    first, second = (sample_diagonal(w_state(3), 10**6) for _ in range(2))
    assert not np.array_equal(first.counts, second.counts)


def test_diagonal_record_counts_match_records(tmp_path):
    # the basis rows of the counts file carry the counts of the diagonal record passed in
    noise = NoiseModel(0.05, "multinomial", 3)
    diag = sample_diagonal(w_state(2), 2000, noise)
    records = sample_counts(w_state(2), diagonal_plan(2), diag, noise)
    assert records == []
    write_counts_csv(tmp_path / "counts.csv", records, diag)
    assert [r.observed for r in read_counts_csv(tmp_path / "counts.csv")] == diag.counts.tolist()


def test_basis_records_come_from_the_given_diagonal_not_the_seed(tmp_path):
    # a diagonal measured under another seed and shot count is used as it is:
    # sample_counts never draws the diagonal itself
    noise = NoiseModel(0.05, "multinomial", 3)
    own = sample_diagonal(w_state(3), 2000, noise)
    other = sample_diagonal(w_state(3), 3000, NoiseModel(0.05, "multinomial", 4))
    plan = select_offdiagonal(own, 0.1)
    records = sample_counts(w_state(3), plan, other, noise)
    assert len(records) == plan.size - 8 == 6
    write_counts_csv(tmp_path / "counts.csv", records, other)
    written = read_counts_csv(tmp_path / "counts.csv")
    assert written[8:] == records
    basis = written[:8]
    assert [r.projector for r in basis] == ["HHH", "HHV", "HVH", "HVV", "VHH", "VHV", "VVH", "VVV"]
    assert [r.observed for r in basis] == other.counts.tolist() != own.counts.tolist()
    assert {r.shots for r in written} == {3000}


def test_no_plan_holds_a_diagonal_target():
    noise = NoiseModel(0.05, "multinomial", 5)
    diag = sample_diagonal(w_state(4), 1000, noise)
    for t in (0.0, 0.1, 1.0):
        plan = select_offdiagonal(diag, t)
        assert (plan.pairs[:, 0] < plan.pairs[:, 1]).all()
        assert plan.size == 16 + len(plan.words) == 16 + 2 * len(plan.pairs)
    assert diagonal_plan(4).words == () and diagonal_plan(4).size == 16


def test_count_records_are_well_formed():
    diag = sample_diagonal(ghz_state(2), 100, NoiseModel())
    records = sample_counts(ghz_state(2), select_offdiagonal(diag, 0.0), diag, NoiseModel())
    assert len(records) == 2
    for rec in records:
        assert isinstance(rec, CountRecord)
        assert 0 <= rec.observed <= rec.shots
