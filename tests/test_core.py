import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tqst import core
from tqst.core import (
    KET_TABLE_NONZEROS,
    MAX_QUBITS,
    BlockState,
    STATE_LABELS,
    STATE_VECTORS,
    basis_word,
    basis_words,
    decimal_rows,
    density,
    expectation,
    load_density,
    load_state,
    product_ket,
    save_density,
    validate_density,
    validate_word,
    written,
)
from tqst.mle import read_counts_csv
from tqst.simulator import w_state
from tqst.threshold import DiagonalRecord, read_diagonal_csv, read_plan_csv, select_offdiagonal

from kets import dense_ket, reference_ket


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
    assert np.allclose(dense_ket("H"), [1, 0])


def test_product_ket_computational_index():
    assert np.allclose(dense_ket("HV"), [0, 1, 0, 0])


def test_product_ket_rd_expansion():
    expected = brute_force_tensor("RD")
    assert np.allclose(expected, 0.5 * np.array([1, 1, 1j, 1j]))
    assert np.allclose(dense_ket("RD"), expected)


@pytest.mark.parametrize("word", ["HVD", "RLA", "DDRR", "ALVH"])
def test_product_ket_matches_brute_force(word):
    assert np.allclose(dense_ket(word), brute_force_tensor(word), atol=1e-14)


@pytest.mark.parametrize("word, message", [
    ("", "projector word must not be empty"),
    ("HxVxé", r"unknown state letters \['x', 'é'\] in 'HxVxé'"),
    ("h" + "H" * 70, r"unknown state letters \['h'\] in"),  # the letters are checked first
    ("H" * 63, "63-letter word: at most 62 qubits"),
])
def test_validate_word_names_what_is_wrong(word, message):
    with pytest.raises(ValueError, match=message):
        validate_word(word)
    assert validate_word("HVDARL" * 10) == "HVDARL" * 10


@given(st.text(alphabet=STATE_LABELS, min_size=1, max_size=10))
def test_product_ket_unit_norm(word):
    assert abs(np.linalg.norm(dense_ket(word)) - 1.0) < 1e-12


def test_product_ket_bit_identical_to_kronecker_chain():
    # every word up to n = 4, every computational-basis word up to n = 8, and
    # random words up to n = 12: the support is the chain's nonzeros, in
    # increasing order, and the amplitudes are their values.  The chain's
    # factors 1 + 0j of the H/V letters are skipped, which may flip the sign
    # of a zero real or imaginary part, so values are compared, not bytes.
    words = [letters for n in range(1, 5) for letters in itertools.product(STATE_LABELS, repeat=n)]
    words += [letters for n in range(5, 9) for letters in itertools.product("HV", repeat=n)]
    rng = np.random.default_rng(24)
    words += [rng.choice(list(STATE_LABELS), size=n) for n in range(5, 13) for _ in range(50)]
    for letters in words:
        word = "".join(letters)
        reference = functools.reduce(np.kron, (STATE_VECTORS[c] for c in word))
        support, amplitudes = product_ket(word)
        assert support.dtype == np.int64 and (np.diff(support) > 0).all(), word
        assert np.array_equal(support, np.flatnonzero(reference)), word
        assert np.array_equal(amplitudes, reference[support]), word


def test_product_ket_of_a_62_letter_word():
    # two superposition letters: four nonzeros near 2**62, with no 2**62 vector
    word = "V" + "H" * 58 + "DVR"
    support, amplitudes = product_ket(word)
    top = 2**61 + 2**1
    assert support.tolist() == [top, top + 1, top + 2**2, top + 2**2 + 1]
    assert np.array_equal(amplitudes, np.multiply.outer(STATE_VECTORS["D"], STATE_VECTORS["R"]).ravel())


def test_product_ket_table_is_read_only():
    # the amplitudes may be a table's own array; the support is new at each call
    for word in ("H", "D", "HL", "RAVD", "D" * 9):
        support, amplitudes = product_ket(word)
        with pytest.raises(ValueError, match="read-only"):
            amplitudes[0] = 5
        support[0] = -1
        assert product_ket(word)[0][0] != -1


@st.composite
def sparse_words(draw):
    """Words of 1 to 62 letters with at most 12 D/A/R/L letters: kets of up to
    4096 nonzeros, on both sides of the tables' gate."""
    letters = draw(st.lists(st.sampled_from("HV"), min_size=1, max_size=MAX_QUBITS))
    places = draw(st.lists(st.integers(0, len(letters) - 1), max_size=12, unique=True))
    for q in places:
        letters[q] = draw(st.sampled_from("DARL"))
    return "".join(letters)


@given(sparse_words())
@example("D" * 8)  # 256 nonzeros: the largest ket kept in the tables
@example("D" * 9)  # 512: built anew
@example("V" + "H" * 49 + "RLADRLADRLAD")  # 12 letters at the low bits, near 2**61
@example("ALRD" + "V" * 58)  # 4 letters at the top bits
def test_product_ket_matches_the_reference_bit_for_bit(word):
    support, amplitudes = product_ket(word)
    ref_support, ref_amplitudes = reference_ket(word)
    assert support.dtype == ref_support.dtype == np.int64
    assert np.array_equal(support, ref_support)
    assert amplitudes.dtype == ref_amplitudes.dtype
    assert amplitudes.tobytes() == ref_amplitudes.tobytes()


def _table_sizes():
    return (core._support_offsets.cache_info().currsize,
            core._letter_amplitudes.cache_info().currsize)


def test_ket_tables_keep_only_kets_below_the_gate():
    core._support_offsets.cache_clear()
    core._letter_amplitudes.cache_clear()
    assert 2**8 == KET_TABLE_NONZEROS
    product_ket("H" * 40 + "DRLADRLA" + "V" * 14)  # 2**8 nonzeros: kept
    assert _table_sizes() == (1, 1)
    support, _ = product_ket("H" * 40 + "DRLADRLAD" + "V" * 13)  # 2**9: built anew
    assert _table_sizes() == (1, 1) and support.size == 2**9
    assert core._support_offsets.cache_info().maxsize == core.KET_TABLE_ENTRIES == 1024
    assert core._letter_amplitudes.cache_info().maxsize == core.KET_TABLE_ENTRIES


def test_ket_tables_of_the_w6_plan_hold_its_masks_and_letter_strings():
    # the conventional n = 6 plan, as w6_conventional keeps it: 4032 words on
    # {H, V, D, R}**6, with 63 D/R bit masks and 126 D/R letter strings
    plan = select_offdiagonal(DiagonalRecord(counts=np.ones(64, dtype=np.int64), shots=64), 0.0)
    assert len(plan.words) == 4032
    core._support_offsets.cache_clear()
    core._letter_amplitudes.cache_clear()
    for word in plan.words:
        product_ket(word)
    assert _table_sizes() == (63, 126)


def test_product_ket_rejects_empty_and_bad_letters():
    with pytest.raises(ValueError):
        product_ket("")
    with pytest.raises(ValueError):
        product_ket("HQ")
    with pytest.raises(ValueError, match="63-letter word: at most 62 qubits"):
        product_ket("H" * 63)


def test_expectation_maximally_mixed():
    assert expectation(np.eye(2) / np.sqrt(2), "R") == pytest.approx(0.5)


def test_expectation_projector_onto_itself():
    assert expectation(dense_ket("H").conj()[None, :], "H") == pytest.approx(1.0)


def test_expectation_w3_excitation_component():
    assert expectation(w_state(3), "HVH") == pytest.approx(1 / 3)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(np.eye(4) / 2, "H")
    with pytest.raises(ValueError, match=r"dimension mismatch: factor is \(1, 8\)"):
        expectation(w_state(3), "HH")
    with pytest.raises(ValueError, match=r"dimension mismatch: factor is \(2,\)"):
        expectation(dense_ket("H"), "H")  # a ket is not a factor


def test_expectation_of_ket_matches_density():
    rng = np.random.default_rng(11)
    for n in range(1, 4):
        ket = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        ket /= np.linalg.norm(ket)
        factor = ket.conj()[None, :]
        rho = density(factor)
        for letters in itertools.product(STATE_LABELS, repeat=n):
            word = "".join(letters)
            phi = dense_ket(word)
            dense = np.real(phi.conj() @ rho @ phi)
            assert abs(expectation(factor, word) - dense) <= 1e-15, word


def test_expectation_linear_in_rho():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        f1 = g1.conj().T / np.linalg.norm(g1)  # rho_k = g_k g_k^H / tr(g_k g_k^H)
        f2 = g2.conj().T / np.linalg.norm(g2)
        a = rng.uniform()
        word = "".join(rng.choice(list(STATE_LABELS), size=2))
        mixed = np.vstack([np.sqrt(a) * f1, np.sqrt(1 - a) * f2])
        assert expectation(mixed, word) == pytest.approx(
            a * expectation(f1, word) + (1 - a) * expectation(f2, word), abs=1e-10
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
    assert report.trace_violation <= report.tolerance
    assert report.hermitian_violation <= report.tolerance
    assert report.psd_violation > report.tolerance
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
    assert np.array_equal(load_state(path).factor, f)  # bit-exact
    assert np.array_equal(load_density(path), f.conj().T @ f)


def test_block_state_json_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    f = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    f *= np.sqrt(0.7) / np.linalg.norm(f)
    state = BlockState(4, [1, 2, 8], f, [0, 15], [0.1, 0.2])
    path = tmp_path / "rho.json"
    save_density(path, state)
    payload = json.loads(path.read_text())
    assert list(payload) == ["n_qubits", "columns", "factor_re", "factor_im", "isolated",
                             "populations"]
    back = load_state(path)
    assert back.n == 4 and back.columns.tolist() == [1, 2, 8]
    assert back.isolated.tolist() == [0, 15]
    assert np.array_equal(back.factor, f) and np.array_equal(back.populations, [0.1, 0.2])
    rho = np.zeros((16, 16), dtype=complex)
    rho[np.ix_([1, 2, 8], [1, 2, 8])] = f.conj().T @ f
    rho[0, 0], rho[15, 15] = 0.1, 0.2
    assert np.array_equal(load_density(path), rho)
    assert validate_density(rho).ok


def test_state_over_all_columns_is_written_as_a_plain_factor(tmp_path):
    # the block form over all 2**n columns, with no isolated state, is the
    # plain factor file, byte for byte
    rng = np.random.default_rng(5)
    f = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    f /= np.linalg.norm(f)
    save_density(tmp_path / "a.json", BlockState(3, np.arange(8), f))
    save_density(tmp_path / "b.json", f)
    plain = {"n_qubits": 3, "factor_re": f.real.tolist(), "factor_im": f.imag.tolist()}
    assert (tmp_path / "a.json").read_text() == json.dumps(plain)
    assert (tmp_path / "b.json").read_text() == json.dumps(plain)
    assert load_state(tmp_path / "a.json").columns.tolist() == list(range(8))


def test_load_state_rejects_malformed_blocks(tmp_path):
    path = tmp_path / "bad.json"
    base = {"n_qubits": 2, "columns": [0, 1], "factor_re": [[0.6, 0.6]],
            "factor_im": [[0.0, 0.0]], "isolated": [3], "populations": [0.28]}
    path.write_text(json.dumps(base))
    assert load_state(path).isolated.tolist() == [3]
    for edit, message in [
        ({"columns": [0, 1.0]}, "indices must be a list of integers"),
        ({"isolated": [True]}, "indices must be a list of integers"),
        ({"columns": [0, 4]}, "below 2\\*\\*2"),
        ({"columns": [0, 2**70]}, "indices must lie in"),
        ({"n_qubits": 63, "columns": [0, 1]}, "n_qubits must be an integer in 1..62"),
        ({"populations": ["0.28"]}, "not strings or booleans"),
        ({"factor_re": [[0.6, 0.6]], "factor_im": [[0.0]]}, "shapes"),
    ]:
        path.write_text(json.dumps({**base, **edit}))
        with pytest.raises(ValueError, match=f"bad.json: .*{message}"):
            load_state(path)
    for key in ("columns", "isolated", "populations"):
        path.write_text(json.dumps({k: v for k, v in base.items() if k != key}))
        with pytest.raises(ValueError, match="bad.json: .*must be given together"):
            load_state(path)


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
    # neither a string nor a boolean is read as a number
    for entries in ('[["1", "0"]]', "[[true, false]]"):
        path.write_text(f'{{"n_qubits": 1, "factor_re": {entries}, "factor_im": [[0, 0]]}}')
        with pytest.raises(ValueError, match="bad.json: .*not strings or booleans"):
            load_density(path)
    # a dense matrix of the old format would otherwise load as a factor, giving rho^2
    path.write_text('{"n_qubits": 1, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0, 0], [0, 0]]}')
    with pytest.raises(ValueError, match="bad.json: not a factored density-matrix"):
        load_state(path)
    path.write_text('{"n_qubits": 1, "factor_re": [[1.0, 0.0, 0.0]], "factor_im": [[0, 0, 0]]}')
    with pytest.raises(ValueError, match="does not match"):
        load_state(path)
    path.write_text('{"n_qubits": 1, "factor_re": [], "factor_im": []}')
    with pytest.raises(ValueError, match="does not match"):
        load_state(path)
    with pytest.raises(ValueError):
        save_density(path, np.diag([1.0, np.nan]))
    with pytest.raises(ValueError):
        save_density(path, np.zeros((0, 2)))


@pytest.mark.parametrize("reader, text, line", [
    pytest.param(read_diagonal_csv, "# n_s=12\nbasis_index,count\n0,5\n2,7\n", 4, id="gap"),
    pytest.param(read_counts_csv, "projector_word,observed,shots\nHV,1,2\nHV,1,2\n", 3,
                 id="duplicate-word"),
    pytest.param(read_plan_csv, "# n_qubits=1 threshold=0.5\ni,j,part,projector_word\n"
                 "0,0,diag,H\n1,1,diag,V\n0,1,re,D\n0,1,re,D\n", 6, id="duplicate-target"),
    pytest.param(read_diagonal_csv, "# n_s=3\nindex,count\n0,1\n1,2\n", 2, id="wrong-header"),
    # fields are read as written: a writer never quotes
    pytest.param(read_diagonal_csv, '# n_s=3\nbasis_index,count\n0,"1"\n1,2\n', 3, id="diagonal-quoted"),
    pytest.param(read_counts_csv, 'projector_word,observed,shots\nHV,1,2\nVH,"1",2\n', 3,
                 id="counts-quoted"),
    pytest.param(read_plan_csv, '# n_qubits=1 threshold=0.5\ni,j,part,projector_word\n'
                 '0,0,diag,H\n1,1,diag,"V"\n', 4, id="plan-quoted"),
    pytest.param(read_counts_csv, "projector_word,observed,shots\nHV,1,2\nVH,1,2,2\n", 3,
                 id="wrong-field-count"),
    # a comment holds exactly the keys its writer writes
    pytest.param(read_diagonal_csv, "# n_s=10 colour=blue\nbasis_index,count\n0,4\n1,6\n", 1,
                 id="diagonal-unknown-key"),
    pytest.param(read_diagonal_csv, "basis_index,count\n0,4\n1,6\n", 1, id="diagonal-missing-key"),
    pytest.param(read_plan_csv, "# n_qubits=1 threshold=0.5 n_s=99\ni,j,part,projector_word\n"
                 "0,0,diag,H\n1,1,diag,V\n", 1, id="plan-unknown-key"),
    pytest.param(read_counts_csv, "# anything=1\nprojector_word,observed,shots\nH,1,2\nV,1,2\n", 1,
                 id="counts-unknown-key"),
])
def test_table_readers_name_file_and_line(tmp_path, reader, text, line):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"table.csv:{line}:"):
        reader(path)


#: fields for the row parser: ASCII and non-ASCII digits, signs, spaces and
#: ``_``, leading zeros, 1 to 20 digits, and the numbers next to 2**63
decimal_fields = st.one_of(
    st.text("0123456789+- _\uff15\u0665", max_size=21),
    st.integers(0, 10**20).map(str),
    st.integers(0, 10**19).map(lambda v: "0" + str(v)),
    st.sampled_from([str(2**63 - 1), str(2**63), "0"]),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 3).flatmap(
           lambda width: st.lists(st.lists(decimal_fields, min_size=width, max_size=width),
                                  min_size=1, max_size=4)),
       final_newline=st.booleans())
def test_row_parser_reads_a_number_exactly_when_written_reads_it(rows, final_newline):
    # a row's number is an int that written() accepts, from 0 up to 2**63 - 1;
    # the comments use written() and the rows the parser, so the two must agree
    def value(field):
        try:
            number = written(int, field)
        except ValueError:
            return None
        return number if 0 <= number < 2**63 else None

    values = [[value(field) for field in row] for row in rows]
    first_bad = next((k for k, row in enumerate(values) if None in row), None)
    lines = [",".join(row) for row in rows]
    # an empty last line needs its newline: without it the text ends in the line before
    text = "\n".join(lines) + "\n" * (final_newline or not lines[-1])
    parsed, bad = decimal_rows(text, len(rows[0]))
    assert bad == first_bad
    assert parsed.dtype == np.int64 and parsed.tolist() == values[:first_bad]


def test_basis_word_and_index_roundtrip():
    assert basis_word(5, 3) == "VHV"
    for k in range(16):
        assert np.array_equal(np.flatnonzero(dense_ket(basis_word(k, 4))), [k])


def test_basis_word_matches_per_bit_formula():
    for n in range(1, 11):
        for k in range(2**n):
            assert basis_word(k, n) == "".join("HV"[int(b)] for b in format(k, f"0{n}b"))
    for k in (-1, 2**3):
        with pytest.raises(ValueError, match="out of range"):
            basis_word(k, 3)


def test_basis_words_spell_every_basis_word():
    for n in range(1, 13):
        assert basis_words(n).tolist() == [basis_word(k, n) for k in range(2**n)]


def test_n_qubits_of(tmp_path):
    # the qubit count is read off the matrix dimension: 8 -> 3, and a side
    # that is not a power of two is rejected
    path = tmp_path / "rho.json"
    save_density(path, np.eye(8))
    assert json.loads(path.read_text())["n_qubits"] == 3
    with pytest.raises(ValueError):
        save_density(path, np.eye(3))
