import itertools
import re

import numpy as np
import pytest

from tqst import projectors
from tqst.core import ResourceLimitError, density
from tqst.mle import CountRecord
from tqst.projectors import (
    ProjectorTable,
    build_projector_table,
    completeness_check,
    gram_matrix,
    linear_inversion,
    projector_for,
    psd_projection,
)
from tqst.simulator import w_state

from kets import dense_ket, reference_linear_inversion


def test_two_qubit_offdiagonal_pair():
    # the real part of element (1, 2) at cell (1, 2), its imaginary part at (2, 1)
    assert projector_for(2, 1, 2) == "RR"
    assert projector_for(2, 2, 1) == "RD"


def test_three_qubit_imaginary_element():
    assert projector_for(3, 5, 3) == "RDV"


def test_four_qubit_real_element():
    assert projector_for(4, 4, 9) == "RRHD"


def test_diagonal_is_binary_word():
    assert projector_for(3, 5, 5) == "VHV"


@pytest.mark.parametrize("n, row, col", [
    (0, 0, 0),
    (2, -1, 1), (2, 1, -1),
    (2, 4, 1), (2, 1, 4),
], ids=["n0", "negative-row", "negative-col", "row-past-table", "col-past-table"])
def test_projector_for_rejects_bad_indices(n, row, col):
    with pytest.raises(ValueError, match=re.escape(f"cell ({row}, {col})")):
        projector_for(n, row, col)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_walk_equals_table(n):
    grid = build_projector_table(n).grid
    for row, col in itertools.product(range(2**n), repeat=2):
        assert projector_for(n, row, col) == grid[row][col], f"mismatch at cell ({row}, {col})"


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
    with pytest.raises(ResourceLimitError, match="the limit is n <= 8"):
        completeness_check(9)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_completeness_matches_the_gram_eigensolve(n):
    # the Gram matrix is symmetric: its singular values are its absolute eigenvalues
    words = build_projector_table(n).words()
    dense = float(np.min(np.abs(np.linalg.eigvalsh(gram_matrix(words)))))
    assert completeness_check(n).min_singular_value == pytest.approx(dense, rel=1e-9)


def test_completeness_of_a_table_with_a_repeated_word(monkeypatch):
    grid = [list(row) for row in build_projector_table(2).grid]
    grid[1][2] = grid[0][3]
    table = ProjectorTable(2, tuple(map(tuple, grid)))
    assert len(set(table.words())) == 15
    monkeypatch.setattr(projectors, "build_projector_table", lambda n: table)
    report = completeness_check(2)
    assert report.order == 16
    assert report.min_singular_value == 0.0 and not report.invertible


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_linear_inversion_matches_the_dense_reference(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(2):
        g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        records = exact_records(g / np.linalg.norm(g), n)
        diff = linear_inversion(records) - reference_linear_inversion(records)
        assert np.max(np.abs(diff)) < 1e-12


FULL_N2 = exact_records(np.eye(4) / 2, 2)


@pytest.mark.parametrize("records, error, message", [
    pytest.param([], ValueError, "no records given", id="no-records"),
    pytest.param(FULL_N2 + [CountRecord("HHH", 1, 4)], ValueError, "records mix qubit counts",
                 id="mixed-qubit-counts"),
    pytest.param(FULL_N2 + [CountRecord("DR", 1, 4)], ValueError,
                 "duplicate record for projector 'DR'", id="duplicate"),
    pytest.param(FULL_N2[5:], ValueError,
                 "records do not cover the full set; missing ['HH', 'HD', 'HR', 'DH']...",
                 id="missing"),
    pytest.param(FULL_N2 + [CountRecord("HA", 1, 4), CountRecord("LD", 1, 4)], ValueError,
                 "records for projectors outside the set: ['HA', 'LD']", id="outside"),
    pytest.param([CountRecord("D" * 9, 1, 4)], ResourceLimitError,
                 "the full set for n=9 has 4**9 projectors; the limit is n <= 8", id="over-cap"),
])
def test_linear_inversion_rejects(records, error, message):
    with pytest.raises(error, match=re.escape(message)):
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
