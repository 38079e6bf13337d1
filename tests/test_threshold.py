import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tqst.core import validate_word
from tqst.projectors import build_projector_table
from tqst.simulator import NoiseModel, populations, sample_diagonal, w_state
from tqst.threshold import (
    DiagonalRecord,
    MeasurementPlan,
    diagonal_plan,
    estimate_threshold,
    kept_pairs,
    read_diagonal_csv,
    read_plan_csv,
    select_offdiagonal,
    write_diagonal_csv,
    write_plan_csv,
)


def uniform_support_record(n, support, shots=7 * 8 * 9 * 100):
    counts = np.zeros(2**n, dtype=np.int64)
    per = shots // len(support)
    counts[list(support)] = per
    counts[support[0]] += shots - per * len(support)
    return DiagonalRecord(counts=counts, shots=shots)


def brute_force_pairs(p, t):
    """Every pair i < j, scanned one by one, with the rule's own arithmetic."""
    return [[i, j] for i in range(p.size) for j in range(i + 1, p.size)
            if 0.0 < np.sqrt(p[i] * p[j]) >= t]


def test_kept_pairs_match_brute_force():
    # ties (t one of the bounds, or its neighbour float), zeros, t = 0 and 1,
    # diagonals that sum to 1 and below it, and one dominant entry
    rng = np.random.default_rng(2024)
    for trial in range(400):
        dim = int(rng.integers(1, 40))
        counts = rng.integers(0, 50, size=dim) * (rng.random(dim) >= rng.random())
        if trial % 7 == 0:
            counts[rng.integers(dim)] = 10**6
        p = counts / max(counts.sum(), 1) * (1.0 if trial % 3 else rng.random())
        bounds = np.sqrt(np.outer(p, p))[np.triu_indices(dim, 1)]
        tie = float(bounds[rng.integers(bounds.size)]) if bounds.size else 0.5
        for t in (0.0, 1.0, float(rng.random() ** 4), tie, np.nextafter(tie, 2.0)):
            if t > 1.0:
                continue
            pairs = kept_pairs(p, t)
            assert pairs.dtype == np.int64 and pairs.shape[1] == 2
            assert pairs.tolist() == brute_force_pairs(p, t), (trial, t)


def test_w7_plan_has_170_measurements():
    record = uniform_support_record(7, [1 << k for k in range(7)])
    plan = select_offdiagonal(record, 1e-4)
    assert plan.size == 2**7 + 7 * 6 == 170


def test_zero_threshold_reaches_conventional_count():
    counts = np.array([400, 300, 200, 100])
    plan = select_offdiagonal(DiagonalRecord(counts=counts, shots=1000), 0.0)
    assert plan.size == 4**2


def test_zero_threshold_skips_vanishing_products():
    counts = np.array([600, 400, 0, 0])
    plan = select_offdiagonal(DiagonalRecord(counts=counts, shots=1000), 0.0)
    assert plan.pairs.tolist() == [[0, 1]]
    assert plan.size == 4 + 2


def test_unit_threshold_is_diagonal_only():
    counts = np.array([250, 250, 250, 250])
    plan = select_offdiagonal(DiagonalRecord(counts=counts, shots=1000), 1.0)
    assert plan.size == 4
    assert plan.pairs.shape == diagonal_plan(2).pairs.shape == (0, 2)


def test_color_code_plan_size():
    record = uniform_support_record(7, [85, 99, 45, 27, 78, 54, 120, 0])
    plan = select_offdiagonal(record, 0.01)
    assert plan.size == 2**7 + 8 * 7 == 184


def test_threshold_out_of_range():
    record = uniform_support_record(2, [0, 1])
    with pytest.raises(ValueError):
        select_offdiagonal(record, -0.1)
    with pytest.raises(ValueError):
        select_offdiagonal(record, 1.5)


def test_plan_targets_shrink_monotonically():
    rng = np.random.default_rng(8)
    for _ in range(10):
        counts = rng.multinomial(10**4, rng.dirichlet(np.ones(8)))
        record = DiagonalRecord(counts=counts, shots=10**4)
        t1, t2 = sorted(rng.uniform(0, 0.6, size=2))
        low = set(map(tuple, select_offdiagonal(record, t1).pairs.tolist()))
        high = set(map(tuple, select_offdiagonal(record, t2).pairs.tolist()))
        assert high <= low


def test_plan_size_formula_for_uniform_support():
    rng = np.random.default_rng(21)
    for n, support_size in ((3, 3), (4, 5), (5, 4)):
        support = rng.choice(2**n, size=support_size, replace=False)
        record = uniform_support_record(n, list(support))
        plan = select_offdiagonal(record, record.probabilities().max() / 10)
        assert plan.size == 2**n + support_size * (support_size - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_plan_words_are_the_table_cells(n):
    # at t = 0 with every count nonzero the plan keeps every pair: the re word of
    # pair (i, j) is the table's cell (i, j), its im word the cell (j, i)
    record = DiagonalRecord(counts=np.arange(1, 2**n + 1), shots=2**n * (2**n + 1) // 2)
    plan = select_offdiagonal(record, 0.0)
    grid = build_projector_table(n).grid
    assert len(plan.pairs) == 2**n * (2**n - 1) // 2
    for k, (i, j) in enumerate(plan.pairs.tolist()):
        assert plan.words[2 * k] == grid[i][j] and plan.words[2 * k + 1] == grid[j][i], (i, j)


#: diagonal counts over 2**n indices, 1 <= n <= 4, with a positive sum
diagonals = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(0, 10**6), min_size=2**n, max_size=2**n)
).filter(sum)
# each example overwrites the same files under tmp_path
roundtrip = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@roundtrip
@given(counts=diagonals, t=st.floats(0.0, 1.0))
def test_plan_words_serialize_and_parse(tmp_path, counts, t):
    record = DiagonalRecord(counts=np.array(counts), shots=sum(counts))
    plan = select_offdiagonal(record, t)
    for word in plan.words:
        assert validate_word(word) == word
    path = tmp_path / "plan.csv"
    write_plan_csv(path, plan)
    back = read_plan_csv(path)
    assert back.n == plan.n
    assert back.threshold == plan.threshold
    assert np.array_equal(back.pairs, plan.pairs)
    assert back.words == plan.words


def _swap(a, b):
    def edit(lines):
        lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
    return edit


def _replace(line, old, new):
    def edit(lines):
        lines[line - 1] = lines[line - 1].replace(old, new, 1)
    return edit


def _both(first, second):
    def edit(lines):
        first(lines)
        second(lines)
    return edit


#: one edit each (or two) to the file of the 2-qubit plan with pairs (2, 3) and (1, 2):
#: the comment, the header, the diagonal rows on lines 3-6, then the re and im
#: rows of (2, 3) on lines 7-8 and of (1, 2) on lines 9-10; and the line that
#: the reader must name
PLAN_EDITS = {
    "swapped-re-im": (_swap(9, 10), 9),
    "plus-sign": (_replace(10, "1,2,", "+1,2,"), 10),
    "repeated-pair": (lambda lines: lines.extend(lines[6:8]), 11),
    "j-out-of-range": (_replace(9, "1,2,", "1,4,"), 9),
    "i-equals-j": (_replace(9, "1,2,", "2,2,"), 9),
    "changed-word": (_replace(8, ",im,VR", ",im,HH"), 8),
    "moved-diagonal-row": (_swap(3, 4), 3),
    "lone-re": (lambda lines: lines.append("0,1,re,HD"), 11),
    # the first bad line, even when a later pair row is not plain decimals
    "changed-word-before-plus-sign": (_both(_replace(3, ",HH", ",VV"), _replace(9, "1,2,", "+1,2,")), 3),
}


@pytest.mark.parametrize("edit, line", PLAN_EDITS.values(), ids=PLAN_EDITS)
def test_plan_reader_names_the_edited_line(tmp_path, edit, line):
    path = tmp_path / "plan.csv"
    write_plan_csv(path, MeasurementPlan(n=2, threshold=0.1, pairs=[(2, 3), (1, 2)]))
    assert read_plan_csv(path).pairs.tolist() == [[2, 3], [1, 2]]  # pairs in any order
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"plan\.csv:{line}: "):
        read_plan_csv(path)


@roundtrip
@given(counts=diagonals)
def test_diagonal_csv_roundtrip(tmp_path, counts):
    record = DiagonalRecord(counts=np.array(counts), shots=sum(counts))
    path = tmp_path / "diag.csv"
    write_diagonal_csv(path, record)
    back = read_diagonal_csv(path)
    assert back.shots == record.shots
    assert np.array_equal(back.counts, record.counts)


@pytest.mark.parametrize("n_s, rows, where", [
    pytest.param(12, "0,5\n2,7\n", ":4:", id="gap"),
    pytest.param(10, "0,4\n1,3\n1,3\n3,0\n", ":5:", id="repeated-index"),
    pytest.param(10, "0,05\n1,5\n", ":3:", id="leading-zero-count"),
    pytest.param(10, "00,5\n1,5\n", ":3:", id="leading-zero-index"),
    pytest.param(10, "0,5\n1,+5\n", ":4:", id="plus-sign"),
    pytest.param(10, "0,11\n1,-1\n", ":4:", id="negative-count"),
    pytest.param(10, "0, 5\n1,5\n", ":3:", id="space"),
    pytest.param(10, "0,5\n\n1,5\n", ":4:", id="empty-middle-line"),
    pytest.param(10, "0,5\n1,5\n\n", ":5:", id="empty-last-line"),
    pytest.param(10, "0,5,0\n1,5\n", ":3:", id="three-fields"),
    # the first bad line, not the first with the wrong field count
    pytest.param(10, "0,05\n1,5,0\n", ":3:", id="bad-count-before-three-fields"),
    # a saturating parse would read 2**63 as n_s = 2**63 - 1 and accept it
    pytest.param(2**63 - 1, f"0,{2**63}\n1,0\n", ":3:", id="count-2-to-the-63"),
    pytest.param(10, "0,5\n1,5\n2,0\n", ": not a", id="length-not-a-power-of-two"),
    pytest.param(10, "0,5\n1,4\n", ": not a", id="sum-not-n_s"),
    # five counts of 2**62 sum to 2**62 in int64, which wraps
    pytest.param(2**62, "".join(f"{k},{2**62 * (k < 5)}\n" for k in range(8)), ": not a",
                 id="sum-wraps-to-n_s"),
])
def test_diagonal_reader_names_the_bad_line_or_the_file(tmp_path, n_s, rows, where):
    path = tmp_path / "diag.csv"
    path.write_text(f"# n_s={n_s}\nbasis_index,count\n{rows}")
    with pytest.raises(ValueError, match=f"diag.csv{where}"):
        read_diagonal_csv(path)


@pytest.mark.parametrize("text, counts", [
    pytest.param(b"# n_s=10\r\nbasis_index,count\r\n0,4\r\n1,6\r\n", [4, 6], id="crlf"),
    pytest.param(b"# n_s=10\nbasis_index,count\n0,4\n1,6", [4, 6], id="no-final-newline"),
    pytest.param(b"# n_s=10\r\nbasis_index,count\r\n0,4\r\n1,6", [4, 6], id="crlf-no-final-newline"),
    pytest.param(b"# n_s=10\nbasis_index,count\n0,0\n1,10\n2,0\n3,0\n", [0, 10, 0, 0], id="zeros"),
    # the row parser reads up to 19 digits, below 2**63
    pytest.param(b"# n_s=1000000000000000000\nbasis_index,count\n0,0\n1,1000000000000000000\n",
                 [0, 10**18], id="19-digits"),
])
def test_diagonal_reader_takes_line_endings_and_long_counts(tmp_path, text, counts):
    path = tmp_path / "diag.csv"
    path.write_bytes(text)
    record = read_diagonal_csv(path)
    assert record.counts.tolist() == counts and record.shots == sum(counts)


def test_diagonal_record_invariants():
    with pytest.raises(ValueError):
        DiagonalRecord(counts=np.array([1, 2, 3]), shots=6)  # not a power of two
    with pytest.raises(ValueError):
        DiagonalRecord(counts=np.array([1, 2]), shots=5)  # sum mismatch
    with pytest.raises(ValueError):
        DiagonalRecord(counts=np.array([-1, 3]), shots=2)


def test_estimate_threshold_exact_two_level():
    ideal = np.array([1.0, 0.0])
    shots = 10**4
    runs = [DiagonalRecord(counts=np.array([shots, 0]), shots=shots) for _ in range(3)]
    est = estimate_threshold(ideal, runs, n=1)
    assert est.noise_threshold == 0.0
    assert est.signal_threshold == pytest.approx(shots - np.sqrt(shots))
    assert est.threshold == pytest.approx(1 - 1 / np.sqrt(shots))
    assert est.favorable


def test_estimate_threshold_arithmetic_fixture():
    # c0=100 and c1=400 (weakest expected-nonzero entry is index 1) at n=4,
    # n_s=1e4 give levels 140 and 320
    ideal = np.pad([0.95, 0.05], (0, 14))
    shots = 10**4
    runs = [
        DiagonalRecord(counts=np.pad([9500, 400, 100], (0, 13)), shots=shots),
        DiagonalRecord(counts=np.pad([9400, 500, 50, 50], (0, 12)), shots=shots),
    ]
    est = estimate_threshold(ideal, runs, n=4)
    assert est.noise_threshold == pytest.approx(140.0)
    assert est.signal_threshold == pytest.approx(320.0)
    assert est.threshold == pytest.approx(0.032)
    assert est.favorable


def test_estimate_threshold_w4_synthetic_runs():
    psi = w_state(4)
    ideal = populations(psi)
    runs = [
        sample_diagonal(psi, 10**4, NoiseModel(0.02, "multinomial", 500 + r))
        for r in range(100)
    ]
    est = estimate_threshold(ideal, runs, 4)
    assert 0.0 < est.threshold < ideal[ideal > 0].min()
    assert est.favorable
    # regression constant for the seeded simulation above
    assert est.threshold == pytest.approx(0.2172392703117278, rel=1e-12)


def test_estimate_threshold_input_validation():
    ideal = np.array([1.0, 0.0])
    run = DiagonalRecord(counts=np.array([10, 0]), shots=10)
    with pytest.raises(ValueError):
        estimate_threshold(ideal, [run], n=1)  # fewer than two runs
    with pytest.raises(ValueError):
        estimate_threshold(np.array([0.0, 0.0]), [run, run], n=1)
    with pytest.raises(ValueError):
        estimate_threshold(ideal, [run, DiagonalRecord(np.array([5, 0]), 5)], n=1)
    with pytest.raises(ValueError, match="a 2-qubit diagonal has 4"):
        estimate_threshold(ideal, [run, run], n=2)  # ideal and runs are 1-qubit


def test_estimate_threshold_rejects_a_noise_level_above_the_shots():
    # all shots on |000>, which the W state never populates: no threshold in
    # [0, 1] separates these replicas, and the error names the noise level
    counts = np.zeros(8, dtype=np.int64)
    counts[0] = 1000
    runs = [DiagonalRecord(counts=counts, shots=1000)] * 2
    with pytest.raises(ValueError, match=r"noise level c0 \+ 3\*sqrt\(c0\) = 1094\.87 exceeds "
                                         r"the 1000 shots, with c0 = 1000 counts on a state"):
        estimate_threshold(populations(w_state(3)), runs, n=3)
