import itertools

import numpy as np
import pytest

from tqst.core import ElementIndex, ResourceLimitError, STATE_LABELS, density
from tqst.mle import CountRecord
from tqst.projectors import (
    build_projector_table,
    completeness_check,
    gram_matrix,
    linear_inversion,
    projector_for,
    psd_projection,
    quadrant_walk,
)
from tqst.simulator import w_state

from kets import dense_ket


def test_two_qubit_offdiagonal_pair():
    assert projector_for(2, ElementIndex(1, 2, "re")) == "RR"
    assert projector_for(2, ElementIndex(1, 2, "im")) == "RD"


def test_three_qubit_imaginary_element():
    assert projector_for(3, ElementIndex(3, 5, "im")) == "RDV"


def test_four_qubit_real_element():
    assert projector_for(4, ElementIndex(4, 9, "re")) == "RRHD"


def test_diagonal_is_binary_word():
    assert projector_for(3, ElementIndex(5, 5, "diag")) == "VHV"


def test_quadrant_walk_labels():
    assert quadrant_walk(3, ElementIndex(3, 5, "im")) == ["2l", "3l", "4"]
    assert quadrant_walk(4, ElementIndex(4, 9, "re")) == ["2l", "3u", "1", "2u"]
    assert len(quadrant_walk(5, ElementIndex(3, 19, "re"))) == 5


def test_projector_for_rejects_bad_indices():
    with pytest.raises(ValueError):
        projector_for(2, ElementIndex(1, 4, "re"))
    with pytest.raises(ValueError):
        ElementIndex(1, 1, "im")  # im on the diagonal is not constructible


def test_single_qubit_table():
    table = build_projector_table(1)
    assert table.grid == (("H", "D"), ("R", "V"))


def test_two_qubit_table_layout():
    # diagonal words on the diagonal, the real-part word of (i, j) above it
    # and the imaginary-part word at (j, i)
    table = build_projector_table(2)
    assert table.grid == (
        ("HH", "HD", "DH", "DD"),
        ("HR", "HV", "RR", "DV"),
        ("RH", "RD", "VH", "VD"),
        ("DR", "RV", "VR", "VV"),
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_walk_equals_table(n):
    table = build_projector_table(n)
    for idx, word in table.elements():
        assert projector_for(n, idx) == word, f"mismatch at ({idx.i},{idx.j},{idx.part})"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_has_4n_unique_words(n):
    words = build_projector_table(n).words()
    assert len(words) == 4**n
    assert len(set(words)) == 4**n
    assert all(set(w) <= set("HVDR") for w in words)


def test_table_cap():
    with pytest.raises(ResourceLimitError, match="the limit is n <= 8"):
        build_projector_table(9)
    with pytest.raises(ValueError):
        build_projector_table(0)


def element_target(dim, i, j, part):
    """Operator whose trace against rho reads off one real degree of freedom.

    The imaginary-part operator carries -i/2 at (i, j): the construction's
    words measure the imaginary part with a sign flip, and this is the
    convention under which they are Frobenius minimizers.
    """
    op = np.zeros((dim, dim), dtype=complex)
    if part == "re":
        op[i, j] = op[j, i] = 0.5
    else:
        op[i, j] = -0.5j
        op[j, i] = 0.5j
    return op


@pytest.mark.parametrize("n", [1, 2])
def test_words_are_frobenius_minimizers(n):
    dim = 2**n
    candidates = {
        "".join(w): np.outer(dense_ket("".join(w)), dense_ket("".join(w)).conj())
        for w in itertools.product(STATE_LABELS, repeat=n)
    }
    for idx, word in build_projector_table(n).elements():
        if idx.part == "diag":
            continue
        target = element_target(dim, idx.i, idx.j, idx.part)
        distances = {w: np.linalg.norm(target - p) for w, p in candidates.items()}
        best = min(distances.values())
        assert distances[word] <= best + 1e-10, (idx, word, distances[word], best)


def test_gram_orthogonal_pair():
    assert np.allclose(gram_matrix(["H", "V"]), np.eye(2))


def test_gram_overlapping_pair():
    assert np.allclose(gram_matrix(["H", "D"]), [[1, 0.5], [0.5, 1]])


def test_gram_full_single_qubit_set():
    m = gram_matrix(["H", "V", "D", "R"])
    expected = np.array(
        [
            [1.0, 0.0, 0.5, 0.5],
            [0.0, 1.0, 0.5, 0.5],
            [0.5, 0.5, 1.0, 0.5],
            [0.5, 0.5, 0.5, 1.0],
        ]
    )
    assert np.allclose(m, expected, atol=1e-12)


def test_gram_matches_explicit_kets():
    words = build_projector_table(2).words()
    kets = [dense_ket(w) for w in words]
    explicit = np.array([[abs(np.vdot(a, b)) ** 2 for b in kets] for a in kets])
    assert np.allclose(gram_matrix(words), explicit, atol=1e-12)


def test_gram_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        gram_matrix(["H", "HV"])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_completeness_small_n(n):
    report = completeness_check(n)
    assert report.invertible
    assert report.min_singular_value > 1e-10
    assert report.order == 4**n


def test_completeness_at_default_cap():
    report = completeness_check(6)
    assert report.invertible
    assert report.order == 4096


def test_completeness_regression_value():
    # recorded once; the Gram spectrum factorizes over qubits so this pins
    # the whole construction
    report = completeness_check(3)
    assert report.min_singular_value == pytest.approx(0.010535663174614254, rel=1e-9)


def test_completeness_cap():
    with pytest.raises(ResourceLimitError, match="the limit is n <= 6"):
        completeness_check(7)


def exact_records(factor, n, shots=2**40):
    from tqst.core import expectation

    words = build_projector_table(n).words()
    return [CountRecord(w, int(round(expectation(factor, w) * shots)), shots) for w in words]


def test_linear_inversion_recovers_basis_state():
    factor = np.array([[1.0, 0.0]], dtype=complex)
    rho = density(factor)
    out = linear_inversion(exact_records(factor, 1))
    assert np.max(np.abs(out - rho)) < 1e-10


def test_linear_inversion_recovers_w2():
    rho = density(w_state(2))
    expected = np.zeros((4, 4))
    expected[np.ix_([1, 2], [1, 2])] = 0.5
    assert np.max(np.abs(rho - expected)) < 1e-12
    out = linear_inversion(exact_records(w_state(2), 2))
    assert np.max(np.abs(out - rho)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_linear_inversion_identity_on_random_states(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(3):
        g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        factor = g.conj().T / np.linalg.norm(g)  # rho = g g^H / tr(g g^H)
        rho = density(factor)
        out = linear_inversion(exact_records(factor, n))
        assert np.max(np.abs(out - rho)) < 1e-9


def test_linear_inversion_sampled_maximally_mixed():
    rng = np.random.default_rng(99)
    shots = 10**4
    factor = np.eye(2) / np.sqrt(2)
    rho = density(factor)
    words = build_projector_table(1).words()
    from tqst.core import expectation

    records = [
        CountRecord(w, int(rng.binomial(shots, expectation(factor, w))), shots) for w in words
    ]
    out = linear_inversion(records)
    # entrywise within 5 standard errors of a binomial proportion at p=1/2
    tol = 5 * np.sqrt(0.5 * 0.5 / shots)
    assert np.max(np.abs(out - rho)) < tol


def test_linear_inversion_requires_full_set():
    records = exact_records(np.eye(2) / np.sqrt(2), 1)[:-1]
    with pytest.raises(ValueError):
        linear_inversion(records)


def test_psd_projection_fixed_point():
    rho = np.diag([0.7, 0.3]).astype(complex)
    assert np.max(np.abs(psd_projection(rho) - rho)) < 1e-12


def test_psd_projection_two_level_fixture():
    out = psd_projection(np.diag([1.2, -0.2]))
    assert np.allclose(np.sort(np.diag(out).real), [0.0, 1.0], atol=1e-12)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_psd_projection_three_level_fixture():
    out = psd_projection(np.diag([0.9, 0.4, -0.3]))
    assert np.allclose(out, np.diag([0.75, 0.25, 0.0]), atol=1e-12)


def test_psd_projection_rejects_non_hermitian():
    with pytest.raises(ValueError):
        psd_projection(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_psd_projection_is_frobenius_closest():
    from tqst.core import validate_density

    rng = np.random.default_rng(17)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = (g + g.conj().T) / 2
    herm *= 0.4 / np.trace(herm).real  # indefinite, trace well below 1
    herm += np.diag([0.15] * 4)
    herm /= np.trace(herm).real
    out = psd_projection(herm)
    assert validate_density(out, 1e-9).ok
    dist = np.linalg.norm(out - herm)
    for _ in range(1000):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        candidate = h @ h.conj().T
        candidate /= np.trace(candidate).real
        assert np.linalg.norm(candidate - herm) >= dist - 1e-12
