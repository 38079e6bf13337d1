import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tqst.core import (
    ElementIndex,
    STATE_LABELS,
    STATE_VECTORS,
    basis_word,
    expectation,
    load_density,
    load_factor,
    n_qubits_of,
    product_ket,
    read_table,
    save_density,
    validate_density,
    word_to_index,
)
from tqst.mle import read_counts_csv
from tqst.settings import read_histogram_csv
from tqst.simulator import density, w_state
from tqst.threshold import read_diagonal_csv, read_plan_csv


def brute_force_tensor(word):
    """Independent oracle: explicit index-by-index tensor product."""
    vecs = [STATE_VECTORS[c] for c in word]
    dim = 2 ** len(word)
    out = np.empty(dim, dtype=complex)
    for k in range(dim):
        bits = format(k, f"0{len(word)}b")
        out[k] = np.prod([vecs[q][int(b)] for q, b in enumerate(bits)])
    return out


def test_product_ket_single_basis_state():
    assert np.allclose(product_ket("H"), [1, 0])


def test_product_ket_computational_index():
    assert np.allclose(product_ket("HV"), [0, 1, 0, 0])


def test_product_ket_rd_expansion():
    expected = brute_force_tensor("RD")
    assert np.allclose(expected, 0.5 * np.array([1, 1, 1j, 1j]))
    assert np.allclose(product_ket("RD"), expected)


@pytest.mark.parametrize("word", ["HVD", "RLA", "DDRR", "ALVH"])
def test_product_ket_matches_brute_force(word):
    assert np.allclose(product_ket(word), brute_force_tensor(word), atol=1e-14)


@given(st.text(alphabet=STATE_LABELS, min_size=1, max_size=10))
def test_product_ket_unit_norm(word):
    assert abs(np.linalg.norm(product_ket(word)) - 1.0) < 1e-12


def test_product_ket_rejects_empty_and_bad_letters():
    with pytest.raises(ValueError):
        product_ket("")
    with pytest.raises(ValueError):
        product_ket("HQ")


def test_expectation_maximally_mixed():
    assert expectation(np.eye(2) / 2, "R") == pytest.approx(0.5)


def test_expectation_projector_onto_itself():
    rho = np.outer(product_ket("H"), product_ket("H").conj())
    assert expectation(rho, "H") == pytest.approx(1.0)


def test_expectation_w3_excitation_component():
    assert expectation(density(w_state(3)), "HVH") == pytest.approx(1 / 3)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(np.eye(4) / 4, "H")


def test_expectation_linear_in_rho():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        r1 = g1 @ g1.conj().T
        r2 = g2 @ g2.conj().T
        r1 /= np.trace(r1).real
        r2 /= np.trace(r2).real
        a = rng.uniform()
        word = "".join(rng.choice(list(STATE_LABELS), size=2))
        mixed = a * r1 + (1 - a) * r2
        assert expectation(mixed, word) == pytest.approx(
            a * expectation(r1, word) + (1 - a) * expectation(r2, word), abs=1e-10
        )


def test_single_qubit_overlap_structure():
    bases = {"H": 0, "V": 0, "D": 1, "A": 1, "R": 2, "L": 2}
    for a, b in itertools.product(STATE_LABELS, repeat=2):
        overlap = abs(np.vdot(STATE_VECTORS[a], STATE_VECTORS[b])) ** 2
        if bases[a] != bases[b]:
            assert overlap == pytest.approx(0.5, abs=1e-12)
        else:
            assert overlap == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


def test_validate_density_accepts_maximally_mixed():
    assert validate_density(np.eye(2) / 2, 1e-9).ok


def test_validate_density_flags_negative_eigenvalue():
    report = validate_density(np.diag([1.5, -0.5]), 1e-9)
    assert not report.ok
    assert report.trace_ok
    assert report.hermitian_ok
    assert not report.psd_ok
    assert report.psd_violation == pytest.approx(0.5)


def test_validate_density_flags_offdiagonal_excess():
    # eigenvalues 1.4 and -0.4
    report = validate_density(np.array([[0.5, 0.9], [0.9, 0.5]]), 1e-9)
    assert not report.ok
    assert report.psd_violation == pytest.approx(0.4)
    assert report.offdiag_violation == pytest.approx(0.4)


def test_validate_density_rejects_non_square():
    with pytest.raises(ValueError):
        validate_density(np.zeros((2, 3)))


def test_density_json_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    f = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    f /= np.linalg.norm(f)
    path = tmp_path / "rho.json"
    save_density(path, f)
    assert np.array_equal(load_factor(path), f)  # bit-exact
    assert np.array_equal(load_density(path), f.conj().T @ f)


def test_load_density_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n_qubits": 2, "factor_re": [[1.0]], "factor_im": [[0.0]]}')
    with pytest.raises(ValueError):
        load_density(path)
    # the qubit count is checked against the arrays, never exponentiated first
    path.write_text('{"n_qubits": 100000000, "factor_re": [[1.0]], "factor_im": [[0.0]]}')
    with pytest.raises(ValueError, match=r"bad.json: n_qubits=100000000 does not match"):
        load_density(path)
    path.write_text('{"n_qubits": 1.9, "factor_re": [[1.0, 0.0]], "factor_im": [[0, 0]]}')
    with pytest.raises(ValueError, match="bad.json: not a factored density-matrix"):
        load_density(path)
    path.write_text('{"n_qubits": 1, "factor_re": [[1.0, Infinity]], "factor_im": [[0, 0]]}')
    with pytest.raises(ValueError, match="non-finite"):
        load_density(path)
    # a dense matrix of the old format would otherwise load as a factor, giving rho^2
    path.write_text('{"n_qubits": 1, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0, 0], [0, 0]]}')
    with pytest.raises(ValueError, match="bad.json: not a factored density-matrix"):
        load_factor(path)
    path.write_text('{"n_qubits": 1, "factor_re": [[1.0, 0.0, 0.0]], "factor_im": [[0, 0, 0]]}')
    with pytest.raises(ValueError, match="does not match"):
        load_factor(path)
    path.write_text('{"n_qubits": 1, "factor_re": [], "factor_im": []}')
    with pytest.raises(ValueError, match="does not match"):
        load_factor(path)
    with pytest.raises(ValueError):
        save_density(path, np.diag([1.0, np.nan]))
    with pytest.raises(ValueError):
        save_density(path, np.zeros((0, 2)))


def _read_two_columns(path):
    return read_table(path, ("word", "count"))


@pytest.mark.parametrize("reader, text, line", [
    pytest.param(read_histogram_csv, "outcome_index,count\n0,5\n2,7\n", 3, id="gap"),
    pytest.param(read_counts_csv, "projector_word,observed,shots\nHV,1,2\nHV,1,2\n", 3,
                 id="duplicate-word"),
    pytest.param(read_plan_csv, "# n_qubits=1 threshold=0.5\ni,j,part,projector_word\n"
                 "0,0,diag,H\n1,1,diag,V\n0,1,re,D\n0,1,re,D\n", 6, id="duplicate-target"),
    pytest.param(read_diagonal_csv, "# n_s=3\nindex,count\n0,1\n1,2\n", 2, id="wrong-header"),
    pytest.param(_read_two_columns, "word,count\nHV,1\nVH,1,2\n", 3, id="wrong-field-count"),
])
def test_table_readers_name_file_and_line(tmp_path, reader, text, line):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"table.csv:{line}:"):
        reader(path)


def test_element_index_invariants():
    with pytest.raises(ValueError):
        ElementIndex(2, 1, "re")
    with pytest.raises(ValueError):
        ElementIndex(1, 1, "im")
    with pytest.raises(ValueError):
        ElementIndex(0, 1, "diag")
    with pytest.raises(ValueError):
        ElementIndex(0, 1, "real")


def test_basis_word_and_index_roundtrip():
    assert basis_word(5, 3) == "VHV"
    assert word_to_index("VHV") == 5
    for k in range(16):
        assert word_to_index(basis_word(k, 4)) == k


def test_n_qubits_of():
    assert n_qubits_of(np.eye(8)) == 3
    with pytest.raises(ValueError):
        n_qubits_of(np.eye(3))
