import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from scipy.optimize import minimize

from tqst import mle
from tqst.core import BlockState, basis_word, density, expectation, validate_density
from tqst.metrics import compare, trace_distance
from tqst.mle import (
    EPSILON,
    CountRecord,
    MleOptions,
    _Bundle,
    _build_factor,
    _evaluate,
    _factor_params,
    _initial_params,
    _layout,
    gradient,
    likelihood,
    read_counts_csv,
    reconstruct,
    write_counts_csv,
)
from tqst.projectors import TABLE_CAP, build_projector_table, projector_for
from tqst.simulator import NoiseModel, sample_counts, sample_diagonal, w_state
from tqst.threshold import DiagonalRecord, select_offdiagonal

from kets import dense_ket


def exact_records(factor, n, shots=10**8):
    words = build_projector_table(n).words()
    return [CountRecord(w, int(round(expectation(factor, w) * shots)), shots) for w in words]


def round_records(diag):
    """The diagonal round ``diag`` as explicit basis records, in basis order."""
    return [CountRecord(basis_word(k, diag.n), count, diag.shots)
            for k, count in enumerate(diag.counts.tolist())]


def random_pure(rng, n):
    """The 1 x 2**n factor of a random pure state."""
    dim = 2**n
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    ket /= np.linalg.norm(ket)
    return ket.conj()[None, :]


def identity_params(dim):
    """Parameters reproducing the maximally mixed state in the full layout."""
    params = np.zeros(dim * dim)
    params[:dim] = 1.0
    return params


def test_likelihood_zero_at_exact_fit():
    # the D record couples both basis states, so F covers every column
    params = identity_params(2)
    records = [CountRecord("H", 5000, 10**4), CountRecord("D", 5000, 10**4)]
    assert likelihood(params, records) == pytest.approx(0.0, abs=1e-20)


def test_likelihood_single_record_value():
    params = identity_params(2)
    records = [CountRecord("H", 6000, 10**4), CountRecord("D", 5000, 10**4)]
    # (5000 - 6000)^2 / (4 * 5000), and the D record fits exactly
    assert likelihood(params, records) == pytest.approx(50.0)


def test_likelihood_rejects_bad_parameters():
    records = [CountRecord("H", 5000, 10**4), CountRecord("D", 5000, 10**4)]
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
    size = _layout(4, options).size
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


def dense_evaluate(params, records, options):
    """The likelihood and gradient on the dense stack of product kets."""
    kets = np.array([dense_ket(rec.projector) for rec in records])
    observed = np.array([rec.observed for rec in records], dtype=float)
    shots = np.array([rec.shots for rec in records], dtype=float)
    dim = kets.shape[1]
    layout = _layout(dim, options)
    f = _build_factor(params, layout)
    tau = np.vdot(f, f).real
    w = kets @ f.T
    u = np.sum(np.abs(w) ** 2, axis=1)
    model = shots * u / tau
    floored = model < EPSILON * shots
    n_eff = np.where(floored, EPSILON * shots, model)
    value = np.sum((n_eff - observed) ** 2 / (4.0 * n_eff))
    dldn = np.where(floored, 0.0, 0.25 * (1.0 - (observed / n_eff) ** 2))
    alpha = dldn * shots / tau
    c = (w * alpha[:, None]).T @ kets.conj()
    grad = _factor_params(2.0 * (c - np.sum(alpha * u) / tau * f), layout)
    return value, grad, kets, int(floored.sum())


OFF_GRID = str.maketrans("DR", "AL")


@pytest.mark.parametrize("options", [MleOptions(), MleOptions(parametrization="low_rank", rank=2)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sparse_kernel_matches_dense_reference(n, options):
    # the table's words with A for D and L for R: every state is coupled, but
    # the words are off the grid {H, V, D, R}**n, so the fit reads the kets
    rng = np.random.default_rng(20 + n)
    dim = 2**n
    words = [w.translate(OFF_GRID) for w in build_projector_table(n).words()]
    observed = rng.integers(0, 900, size=len(words))
    observed[rng.random(len(words)) < 0.2] = 0
    records = [CountRecord(w, int(k), 1000) for w, k in zip(words, observed)]
    # a tiny column of F puts <P rho P> of basis state 1 under the floor
    layout = _layout(dim, options)
    f = _build_factor(rng.normal(size=layout.size), layout)
    f[:, 1] *= 1e-6
    params = _factor_params(f, layout)

    bundle = _Bundle(records)
    assert bundle.forward_model == "kets" and bundle.cells is None
    value, grad = _evaluate(params, bundle, layout)
    ref_value, ref_grad, kets, floored = dense_evaluate(params, records, options)
    assert floored > 0
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
    assert np.array_equal(bundle.kets.toarray(), kets)
    superposed = np.array([sum(w.count(c) for c in "DARL") for w in words])
    assert np.array_equal(np.diff(bundle.kets.indptr), 2**superposed)


GRID_DIGITS = str.maketrans("HVDR", "0123")


@pytest.mark.parametrize("options", [MleOptions(), MleOptions(parametrization="low_rank", rank=2)])
@pytest.mark.parametrize("n, dropped", [(3, 0.0), (4, 0.0), (3, 0.3), (4, 0.3)])
def test_grid_kernel_matches_dense_reference(n, dropped, options, monkeypatch):
    # a conventional plan's superposition words, all of them or a part that
    # still couples every state, after a diagonal round with zero counts; at
    # these sizes the kets cost less, so the grid is forced
    monkeypatch.setattr(mle, "_grid_pays", lambda *_: True)
    rng = np.random.default_rng(70 + n)
    dim = 2**n
    words = [w for w in build_projector_table(n).words() if w.strip("HV") and rng.random() >= dropped]
    observed = rng.integers(0, 900, size=len(words))
    observed[rng.random(len(words)) < 0.2] = 0
    records = [CountRecord(w, int(k), 1000) for w, k in zip(words, observed)]
    counts = rng.integers(0, 100, size=dim)
    counts[[0, dim - 1]] = 0
    diag = DiagonalRecord(counts, int(counts.sum()))
    layout = _layout(dim, options)
    f = _build_factor(rng.normal(size=layout.size), layout)
    f[:, 1] *= 1e-6  # puts <P rho P> of basis state 1 under the floor
    params = _factor_params(f, layout)

    bundle = _Bundle(records, diag)
    assert bundle.forward_model == "grid" and bundle.kets is None and bundle.kets_h is None
    explicit = with_round(records, diag)
    assert bundle.cells.tolist() == [int(rec.projector.translate(GRID_DIGITS), 4) for rec in explicit]
    value, grad = _evaluate(params, bundle, layout)
    ref_value, ref_grad, _, floored = dense_evaluate(params, explicit, options)
    assert floored > 0
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def test_forward_model_is_the_grid_only_on_a_coupled_grid(monkeypatch):
    monkeypatch.setattr(mle, "_grid_pays", lambda *_: True)  # whatever the cost

    def bundle(n, *words):
        basis = [CountRecord(basis_word(k, n), 10, 1000) for k in range(2**n)]
        return _Bundle(basis + [CountRecord(w, 500, 1000) for w in words])

    grid = bundle(3, "DDD", "RHV")
    assert grid.forward_model == "grid" and grid.kets is None
    assert grid.cells.tolist()[-2:] == [2 * 16 + 2 * 4 + 2, 3 * 16 + 0 * 4 + 1]
    # every state coupled, but an A or L word is off the grid
    for word in ("DDA", "LDD"):
        off = bundle(3, "DDD", word)
        assert off.forward_model == "kets" and off.cells is None
        assert off.kets.shape == (10, 8) and off.kets_h.shape == (8, 10)
    # DDH couples the states with a last bit 0: the other four are isolated
    isolated = bundle(3, "DDH")
    assert isolated.isolated.tolist() == [1, 3, 5, 7] and isolated.forward_model == "kets"
    # above projectors.TABLE_CAP the grid's 4**n cells are not formed
    assert bundle(TABLE_CAP, "D" * TABLE_CAP).forward_model == "grid"
    assert bundle(TABLE_CAP + 1, "D" * (TABLE_CAP + 1)).forward_model == "kets"


def test_bundle_on_the_kets_model_forms_no_basis_words(monkeypatch):
    # only the grid model reads the lacking basis states' words: a kets-model
    # fit with a diagonal round never spells out the 2**n basis words
    psi = w_state(4)
    noise = NoiseModel(0.2, "multinomial", seed=3)
    diag = sample_diagonal(psi, 10**4, noise)
    records = sample_counts(psi, select_offdiagonal(diag, 0.1), diag, noise)

    def refuse(n):
        raise AssertionError("basis_words called on the kets model")

    monkeypatch.setattr(mle, "basis_words", refuse)
    bundle = _Bundle(records, diag)
    assert bundle.forward_model == "kets" and (bundle.columns.size, bundle.isolated.size) == (11, 5)


def test_forward_model_is_the_grid_only_where_it_costs_less():
    # a conventional plan at n = 6: 4096 words whose kets have 6**6 nonzeros
    words = build_projector_table(6).words()
    conventional = [CountRecord(w, 500, 1000) for w in words]
    assert _Bundle(conventional, rows=2).forward_model == "grid"  # w6_conventional
    assert _Bundle(conventional).forward_model == "grid"  # full: 64 rows
    assert _Bundle(conventional, rows=1).forward_model == "kets"
    # a sparse plan at n = 8 that couples every state through the 255 pairs
    # (k, k + 1): 4352 nonzeros, where the grid has 65536 cells
    n = 8
    pairs = [projector_for(n, *cell) for k in range(2**n - 1) for cell in ((k, k + 1), (k + 1, k))]
    sparse = [CountRecord(w, 500, 1000) for w in [basis_word(k, n) for k in range(2**n)] + pairs]
    bundle = _Bundle(sparse, rows=2)
    assert bundle.columns.size == 2**n and bundle.forward_model == "kets"
    assert bundle.kets.nnz == 4352
    # reconstruct hands the bundle the factor's rows
    assert reconstruct(conventional, MleOptions(max_iterations=1)).forward_model == "grid"
    assert reconstruct(conventional, MleOptions("low_rank", 1, max_iterations=1)).forward_model == "kets"


@pytest.mark.parametrize("options", [MleOptions()] + [
    MleOptions(parametrization="low_rank", rank=r) for r in (1, 2, 3)
])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_layout_roundtrip(n, options):
    rng = np.random.default_rng(50 + n)
    dim = 2**n
    layout = _layout(dim, options)
    x = rng.normal(size=layout.size)
    f = _build_factor(x, layout)
    assert f.shape == ((dim, dim) if options.parametrization == "full" else (options.rank, dim))
    assert np.array_equal(_factor_params(f, layout), x)
    if options.parametrization == "full":
        assert np.array_equal(np.diag(f).imag, np.zeros(dim))
        assert np.array_equal(np.tril(f, -1), np.zeros((dim, dim)))


@pytest.mark.parametrize("options", [MleOptions(seed=4),
                                     MleOptions(parametrization="low_rank", rank=2, seed=4)])
def test_start_reads_diagonal_from_any_record_order(options):
    rng = np.random.default_rng(16)
    words = build_projector_table(3).words()
    records = [CountRecord(w, int(rng.integers(0, 1001)), 1000) for w in sorted(words)]
    shuffled = [records[k] for k in rng.permutation(len(records))]
    layout = _layout(8, options)
    start = _initial_params(_Bundle(records), layout, options)
    assert np.array_equal(_initial_params(_Bundle(shuffled), layout, options), start)
    trimmed = [r for r in shuffled if r.projector != "VHV"]
    with pytest.raises(ValueError, match="missing 'VHV'"):
        _initial_params(_Bundle(trimmed), layout, options)


def test_gradient_vanishes_at_exact_fit():
    # the counts exactly reproduce the maximally mixed state
    records = [CountRecord("H", 5000, 10**4), CountRecord("V", 5000, 10**4),
               CountRecord("D", 5000, 10**4)]
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
    psi = w_state(4)
    exact = NoiseModel(sampling="exact")
    diag = sample_diagonal(psi, 10**6, exact)
    plan = select_offdiagonal(diag, 0.1)
    records = sample_counts(psi, plan, diag, exact)
    result = reconstruct(records, MleOptions(seed=1), diag)
    assert result.converged
    assert compare(result.state, BlockState.of_factor(psi))["fidelity"] >= 0.99


def test_reconstruct_basis_state_from_diagonal_only():
    n = 3
    shots = 10**6
    records = [
        CountRecord(basis_word(k, n), shots if k == 0 else 0, shots) for k in range(2**n)
    ]
    result = reconstruct(records, MleOptions(seed=0))
    target = np.zeros((8, 8), dtype=complex)
    target[0, 0] = 1.0
    assert np.max(np.abs(density(result.state) - target)) <= 1e-6


def test_reconstruct_sampled_w3_regression():
    psi = w_state(3)
    noise = NoiseModel(sampling="multinomial", seed=1)
    diag = sample_diagonal(psi, 10**4, noise)
    plan = select_offdiagonal(diag, 0.05)
    records = sample_counts(psi, plan, diag, noise)
    result = reconstruct(records, MleOptions(seed=1), diag)
    f = compare(result.state, BlockState.of_factor(psi))["fidelity"]
    assert f >= 0.98
    assert f == pytest.approx(0.9900316437535431, abs=1e-9)  # seeded regression: <psi|rho|psi>


def test_reconstruct_fits_through_module_minimize(monkeypatch):
    # the hook a tracer patches: reconstruct looks up mle.minimize at each call
    calls = []
    original = mle.minimize

    def spy(fun, x0, *args, **kwargs):
        calls.append(x0.size)
        return original(fun, x0, *args, **kwargs)

    monkeypatch.setattr(mle, "minimize", spy)
    result = reconstruct(exact_records(w_state(2), 2, shots=10**4), MleOptions(seed=42))
    assert calls == [16]
    assert result.converged


def test_reconstruct_deterministic_given_seed():
    records = exact_records(w_state(2), 2, shots=10**4)
    a = reconstruct(records, MleOptions(seed=42))
    b = reconstruct(records, MleOptions(seed=42))
    assert np.array_equal(density(a.state), density(b.state))


@pytest.mark.parametrize("parametrization, rank, shape", [
    ("full", 1, (7, 7)), ("low_rank", 2, (2, 7)),
])
def test_result_factor_reproduces_rho(parametrization, rank, shape):
    # the plan couples the basis states 0-6; state 7 has counts and no coherence measured
    psi = w_state(3)
    noise = NoiseModel(0.05, "multinomial", seed=2)
    diag = sample_diagonal(psi, 10**4, noise)
    records = sample_counts(psi, select_offdiagonal(diag, 0.05), diag, noise)
    result = reconstruct(records, MleOptions(parametrization, rank, seed=2), diag)
    state = result.state
    f = state.factor
    assert f.shape == shape
    assert state.columns.tolist() == list(range(7)) and state.isolated.tolist() == [7]
    block = np.zeros((8, 8), dtype=complex)
    block[:7, :7] = f.conj().T @ f
    block[7, 7] = state.populations[0]
    assert np.max(np.abs(block - density(state))) <= 1e-12
    assert np.trace(block).real == pytest.approx(1.0, abs=1e-12)
    assert result.parameters == (49 if parametrization == "full" else 28) + 1
    assert result.nfev >= result.iterations > 0
    assert isinstance(result.status, int) and result.message


@pytest.mark.parametrize("options", [MleOptions(), MleOptions(parametrization="low_rank", rank=2)])
def test_block_kernel_matches_dense_reference(options):
    # noisy W n = 4 at t = 0.1: 11 coupled, 5 isolated; the block objective plus
    # the left-out constant is the objective of the dense block state, and the
    # gradient matches central differences
    psi = w_state(4)
    noise = NoiseModel(0.2, "multinomial", seed=3)
    diag = sample_diagonal(psi, 10**4, noise)
    records = sample_counts(psi, select_offdiagonal(diag, 0.1), diag, noise)
    bundle = _Bundle(records, diag)
    assert (bundle.columns.size, bundle.isolated.size) == (11, 5)
    layout = _layout(bundle.columns.size, options)
    rng = np.random.default_rng(9)
    x = rng.normal(size=layout.size + bundle.isolated.size)
    value, grad = _evaluate(x, bundle, layout)

    f, d = _build_factor(x[:layout.size], layout), x[layout.size:]
    rho = np.zeros((16, 16), dtype=complex)
    rho[np.ix_(bundle.columns, bundle.columns)] = f.conj().T @ f
    rho[bundle.isolated, bundle.isolated] = d**2
    rho /= np.trace(rho).real
    records = round_records(diag) + records
    kets = np.array([dense_ket(rec.projector) for rec in records])
    model = np.array([rec.shots for rec in records]) * np.einsum("ki,ij,kj->k", kets.conj(), rho, kets).real
    shots = np.array([rec.shots for rec in records], dtype=float)
    observed = np.array([rec.observed for rec in records], dtype=float)
    n_eff = np.maximum(model, EPSILON * shots)
    reference = np.sum((n_eff - observed) ** 2 / (4.0 * n_eff))
    assert value + bundle.constant == pytest.approx(reference, rel=1e-12)

    fd = np.empty_like(x)
    for i in range(x.size):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (_evaluate(xp, bundle, layout)[0] - _evaluate(xm, bundle, layout)[0]) / (2 * h)
    assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_block_fit_is_close_to_the_noisy_state():
    # noisy W at n = 8: the factor fits the 37 coupled states and each of the
    # 187 isolated states keeps its own population, so the fit is near the
    # true mixture; a rank-2 factor over all 256 columns reached 0.267
    n, lam = 8, 0.05
    psi = w_state(n)
    noise = NoiseModel(lam, "multinomial", 42)
    diag = sample_diagonal(psi, 10**4, noise)
    records = sample_counts(psi, select_offdiagonal(diag, 0.038), diag, noise)
    result = reconstruct(records, MleOptions("low_rank", 2, seed=42, gradient_tolerance=0.05), diag)
    assert result.converged
    assert (result.state.columns.size, result.state.isolated.size) == (37, 187)
    assert result.parameters == 2 * 2 * 37 + 187
    truth = (1 - lam) * density(psi) + lam * np.eye(2**n) / 2**n
    assert trace_distance(density(result.state), truth) < 0.2


def test_block_split_leaves_out_zero_count_states():
    # W n = 3 on a diagonal-only plan: no coupled state, the three populated
    # basis states are isolated, and the five zero-count records add a constant
    psi = w_state(3)
    exact = NoiseModel(sampling="exact")
    diag = sample_diagonal(psi, 3000, exact)
    records = sample_counts(psi, select_offdiagonal(diag, 1.0), diag, exact)
    assert records == []
    bundle = _Bundle(records, diag)
    assert bundle.columns.tolist() == [] and bundle.isolated.tolist() == [1, 2, 4]
    assert bundle.constant == pytest.approx(5 * EPSILON * 3000 / 4)
    for options in (MleOptions(seed=1), MleOptions("low_rank", 2, seed=1)):
        result = reconstruct(records, options, diag)
        assert result.converged and result.parameters == 3
        assert np.allclose(np.diag(density(result.state)).real, [0, 1 / 3, 1 / 3, 0, 1 / 3, 0, 0, 0])
        assert result.final_objective == pytest.approx(bundle.constant, rel=1e-6)


@pytest.mark.parametrize("options", [MleOptions(seed=1), MleOptions("low_rank", 2, seed=1)])
def test_likelihood_is_the_fitted_objective(options):
    # noisy W n = 5 at t = 0.1 from 1000 shots: 16 coupled, 8 isolated and 8
    # left-out states; the fitted state, packed, scores the fit's own objective
    psi = w_state(5)
    noise = NoiseModel(0.02, "multinomial", seed=1)
    diag = sample_diagonal(psi, 1000, noise)
    records = sample_counts(psi, select_offdiagonal(diag, 0.1), diag, noise)
    result = reconstruct(records, options, diag)
    state = result.state
    assert (state.columns.size, state.isolated.size) == (16, 8)
    assert _Bundle(records, diag).constant > 0
    params = np.concatenate((_factor_params(state.factor, _layout(state.columns.size, options)),
                             np.sqrt(state.populations)))
    assert params.size == result.parameters
    assert likelihood(params, records, options, diag) == pytest.approx(result.final_objective,
                                                                 rel=1e-9, abs=1e-12)


def test_output_is_always_physical():
    rng = np.random.default_rng(15)
    words = build_projector_table(2).words()
    records = [CountRecord(w, int(rng.integers(0, 1001)), 1000) for w in words]
    result = reconstruct(records, MleOptions(seed=3))
    assert validate_density(density(result.state), 1e-6).ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_data_consistency(n):
    rng = np.random.default_rng(30 + n)
    psi = random_pure(rng, n)
    records = exact_records(psi, n)
    result = reconstruct(
        records, MleOptions(seed=n, gradient_tolerance=1e-9, max_iterations=20000)
    )
    assert compare(result.state, BlockState.of_factor(psi))["fidelity"] >= 1 - 1e-6


def test_full_and_low_rank_agree_on_pure_data():
    rng = np.random.default_rng(44)
    records = exact_records(random_pure(rng, 2), 2)
    full = reconstruct(records, MleOptions(seed=7, gradient_tolerance=1e-9, max_iterations=20000))
    low = reconstruct(
        records,
        MleOptions(parametrization="low_rank", rank=1, seed=7, gradient_tolerance=1e-9,
                   max_iterations=20000),
    )
    assert compare(full.state, low.state)["fidelity"] >= 1 - 1e-6


def test_reconstruct_requires_all_diagonal_projectors():
    records = exact_records(w_state(2), 2)
    trimmed = [r for r in records if r.projector != "HV"]
    with pytest.raises(ValueError):
        reconstruct(trimmed)


def test_reconstruct_rejects_mixed_qubit_counts():
    with pytest.raises(ValueError):
        reconstruct([CountRecord("H", 1, 2), CountRecord("HH", 1, 2)])


def test_nonconvergence_is_flagged_not_raised():
    records = exact_records(w_state(3), 3, shots=10**4)
    result = reconstruct(records, MleOptions(seed=0, max_iterations=2))
    assert not result.converged
    assert validate_density(density(result.state), 1e-6).ok


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


@st.composite
def word_sets(draw):
    """Every basis word of n <= 4 qubits and some superposition words, with
    counts that are often zero."""
    n = draw(st.integers(1, 4))
    words = [basis_word(k, n) for k in range(2**n)]
    words += draw(st.lists(st.text("HVDARL", min_size=n, max_size=n).filter(
        lambda w: w.strip("HV")), max_size=6, unique=True))
    count = st.one_of(st.just(0), st.integers(0, 1000))
    return n, [CountRecord(w, draw(count), 1000) for w in words]


@settings(max_examples=200, deadline=None)
@given(case=word_sets(), low_rank=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_bundle_matches_the_brute_force_block_model(case, low_rank, seed):
    n, records = case
    dim = 2**n
    kets = np.array([dense_ket(rec.projector) for rec in records])
    observed = np.array([rec.observed for rec in records], dtype=float)
    superposed = np.array([rec.projector.strip("HV") != "" for rec in records])
    coupled = sorted(set(np.flatnonzero(kets[superposed].any(axis=0)).tolist()))
    isolated = [k for k in range(dim) if k not in coupled and observed[k] > 0]
    bundle = _Bundle(records)
    assert bundle.columns.tolist() == coupled and bundle.isolated.tolist() == isolated
    assert np.array_equal(bundle.diagonal, observed[:dim] / 1000)
    assume(coupled or isolated)

    options = MleOptions("low_rank", 2) if low_rank else MleOptions()
    layout = _layout(len(coupled), options)
    x = np.random.default_rng(seed).normal(size=layout.size + len(isolated))
    value, _ = _evaluate(x, bundle, layout)
    f, d = _build_factor(x[:layout.size], layout), x[layout.size:]
    rho = np.zeros((dim, dim), dtype=complex)
    rho[np.ix_(coupled, coupled)] = f.conj().T @ f
    rho[isolated, isolated] = d**2
    rho /= np.trace(rho).real
    model = 1000 * np.einsum("ki,ij,kj->k", kets.conj(), rho, kets).real
    n_eff = np.maximum(model, EPSILON * 1000)
    reference = np.sum((n_eff - observed) ** 2 / (4.0 * n_eff))
    assert value + bundle.constant == pytest.approx(reference, rel=1e-9, abs=1e-12)


def with_round(records, diag):
    """``records`` after the explicit basis records of the round ``diag`` that they lack."""
    present = {rec.projector for rec in records}
    return [rec for rec in round_records(diag) if rec.projector not in present] + records


@st.composite
def rounds_with_records(draw):
    """A diagonal round of n <= 4 qubits whose counts are often zero, and
    records of superposition words and some basis words, in any order."""
    n = draw(st.integers(1, 4))
    count = st.one_of(st.just(0), st.integers(0, 1000))
    counts = draw(st.lists(count, min_size=2**n, max_size=2**n))
    counts[draw(st.integers(0, 2**n - 1))] += 1  # shots >= 1
    words = draw(st.lists(st.text("HVDARL", min_size=n, max_size=n), max_size=8, unique=True))
    return DiagonalRecord(np.array(counts), sum(counts)), [CountRecord(w, draw(count), 1000) for w in words]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=rounds_with_records())
def test_bundle_of_a_round_equals_the_bundle_of_its_basis_records(tmp_path, case):
    diag, records = case
    explicit = with_round(records, diag)
    write_counts_csv(tmp_path / "counts.csv", records, diag)  # overwritten by every example
    assert read_counts_csv(tmp_path / "counts.csv") == explicit
    a, b = _Bundle(records, diag), _Bundle(explicit)
    for name in ("diagonal", "observed", "shots", "columns", "isolated", "iso"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert a.forward_model == b.forward_model
    if a.forward_model == "grid":
        assert np.array_equal(a.cells, b.cells)
    for name in ("kets", "kets_h") if a.forward_model == "kets" else ():
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape, name
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(x, part), getattr(y, part)), (name, part)
    assert (a.n, a.dim, a.records) == (b.n, b.dim, len(explicit))
    assert a.constant == b.constant


@pytest.mark.parametrize("options", [MleOptions(seed=5), MleOptions("low_rank", 2, seed=5)])
def test_reconstruct_from_a_round_is_bit_identical(options):
    # noisy W at n = 4, with one basis word among the records that overrides the round's count
    psi = w_state(4)
    noise = NoiseModel(0.05, "multinomial", 5)
    diag = sample_diagonal(psi, 10**4, noise)
    records = sample_counts(psi, select_offdiagonal(diag, 0.05), diag, noise)
    records.insert(2, CountRecord("HHVH", int(diag.counts[2]) + 3, 10**4))
    a, b = reconstruct(records, options, diag), reconstruct(with_round(records, diag), options)
    for name in ("columns", "factor", "isolated", "populations"):
        assert np.array_equal(getattr(a.state, name), getattr(b.state, name)), name
    assert (a.final_objective, a.iterations, a.records) == (b.final_objective, b.iterations, b.records)


def test_the_round_must_match_the_records_qubits():
    diag = DiagonalRecord(np.array([3, 1]), 4)
    with pytest.raises(ValueError, match="2-qubit record with a 1-qubit diagonal"):
        reconstruct([CountRecord("DH", 1, 4)], MleOptions(), diag)
    with pytest.raises(ValueError, match="no records given"):
        reconstruct([])
