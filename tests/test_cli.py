import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tqst as package
from tqst.core import load_density
from tqst.metrics import fidelity
from tqst.mle import read_counts_csv
from tqst.settings import settings_for_plan
from tqst.threshold import read_diagonal_csv, read_plan_csv


# the child imports the package under test, installed or not
SOURCE_DIR = str(Path(package.__file__).resolve().parents[1])


def python(*args, env=None, preexec_fn=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SOURCE_DIR, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=preexec_fn,
    )


def tqst(*args, env=None, preexec_fn=None):
    return python("-m", "tqst.cli", *args, env=env, preexec_fn=preexec_fn)


@pytest.fixture(scope="module")
def w3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("w3run")
    result = tqst(
        "run", "--state", "w", "--n", 3, "--threshold", 0.05,
        "--shots", 20000, "--seed", 11, "--out", out,
    )
    assert result.returncode == 0, result.stderr
    return out, json.loads(result.stdout)


def test_run_writes_all_artifacts(w3_run):
    out, summary = w3_run
    for name in ("diagonal.csv", "plan.csv", "counts.csv", "rho.json",
                 "diagnostics.json", "settings.csv", "fidelity.json"):
        assert (out / name).exists(), name
    assert summary["measurements"] == 8 + 6
    assert 2 * summary["pairs_kept"] == summary["measurements"] - 8
    assert summary["min_kept_bound"] >= summary["threshold"]
    assert summary["converged"] is True
    assert summary["fidelity"] > 0.9


def test_run_draws_the_diagonal_stream_once(tmp_path, monkeypatch, capsys):
    # stream 0 is the diagonal round; the plan's targets draw from 2**n + k + 1
    from tqst import cli, simulator

    streams = []
    original = simulator._stream_seeds

    def spy(entropy, keys):
        streams.extend(np.asarray(keys).tolist())
        return original(entropy, keys)

    monkeypatch.setattr(simulator, "_stream_seeds", spy)
    cli.cli.main(["run", "--state", "w", "--n", "3", "--threshold", "0.1", "--lambda", "0.05",
                  "--seed", "1", "--out", str(tmp_path)], standalone_mode=False)
    pairs = json.loads(capsys.readouterr().out)["pairs_kept"]
    assert pairs > 0
    assert streams == [0] + [8 + k + 1 for k in range(2 * pairs)]


def test_self_fidelity_of_a_fit_is_one(tmp_path):
    # this fit has eigenvalues of 1.5e-10 and 7.0e-10, which must not be lost
    r = tqst("run", "--state", "w", "--n", 3, "--threshold", 0.1, "--exact", "--seed", 1,
             "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    r = tqst("fidelity", tmp_path / "rho.json", tmp_path / "rho.json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["root_fidelity"] == pytest.approx(1.0, rel=0, abs=1e-12)


def test_run_artifacts_parse_through_module_readers(w3_run):
    out, summary = w3_run
    diag = read_diagonal_csv(out / "diagonal.csv")
    assert diag.shots == 20000
    plan = read_plan_csv(out / "plan.csv")
    assert plan.size == summary["measurements"]
    records = read_counts_csv(out / "counts.csv")
    assert len(records) == plan.size
    rho = load_density(out / "rho.json")
    assert rho.shape == (8, 8)
    settings = (out / "settings.csv").read_text().splitlines()
    assert settings == settings_for_plan(plan)
    assert len(settings) == summary["settings"]
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["converged"] is True
    assert diagnostics["nfev"] >= diagnostics["iterations"] > 0
    assert isinstance(diagnostics["status"], int) and diagnostics["message"]
    report = json.loads((out / "fidelity.json").read_text())
    assert report["fidelity"] == pytest.approx(summary["fidelity"])


def test_pipeline_decomposes_into_simulate_plan_reconstruct(w3_run, tmp_path):
    out, _ = w3_run
    sim = tmp_path / "sim"
    # diagonal measurement with the same seed
    r = tqst("simulate", "--state", "w", "--n", 3, "--shots", 20000,
             "--seed", 11, "--out", sim)
    assert r.returncode == 0, r.stderr
    assert (sim / "diagonal.csv").read_text() == (out / "diagonal.csv").read_text()

    r = tqst("plan", "--diagonal", sim / "diagonal.csv", "--threshold", 0.05,
             "--out", sim / "plan.csv")
    assert r.returncode == 0, r.stderr
    assert (sim / "plan.csv").read_text() == (out / "plan.csv").read_text()

    r = tqst("simulate", "--state", "w", "--n", 3, "--shots", 20000,
             "--seed", 11, "--plan", sim / "plan.csv", "--out", sim)
    assert r.returncode == 0, r.stderr
    assert (sim / "counts.csv").read_text() == (out / "counts.csv").read_text()

    r = tqst("reconstruct", "--counts", sim / "counts.csv",
             "--diag", sim / "diagonal.csv", "--seed", 11, "--out", sim)
    assert r.returncode == 0, r.stderr
    # bit-for-bit identical reconstruction
    assert (sim / "rho.json").read_text() == (out / "rho.json").read_text()


def test_reconstruct_with_diag_reproduces_run(w3_run, tmp_path):
    # the two-phase experiment: the counts file holds only the off-diagonal
    # rows, and the basis counts come from the diagonal file
    out, _ = w3_run
    header, *rows = (out / "counts.csv").read_text().splitlines(keepends=True)
    assert all(set(row.split(",")[0]) <= set("HV") for row in rows[:8])
    (tmp_path / "counts.csv").write_text(header + "".join(rows[8:]))
    r = tqst("reconstruct", "--counts", tmp_path / "counts.csv",
             "--diag", out / "diagonal.csv", "--seed", 11, "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["records"] == len(rows)
    assert (tmp_path / "rho.json").read_bytes() == (out / "rho.json").read_bytes()


def test_fidelity_command(w3_run, tmp_path):
    out, _ = w3_run
    r = tqst("fidelity", out / "rho.json", out / "rho.json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-8)
    assert report["trace_distance"] == pytest.approx(0.0, abs=1e-8)
    assert "purity_a" in report and "rank_b" in report


def test_diagnostics_report_the_fit_size(w3_run, tmp_path):
    # W n = 3 at t = 0.05: the plan's words cover the basis states 0-6, and
    # state 7 has no count, so it is neither coupled nor isolated
    out, _ = w3_run
    run = json.loads((out / "diagnostics.json").read_text())
    assert (run["columns_fitted"], run["isolated"], run["parameters"]) == (7, 0, 49)
    r = tqst("reconstruct", "--counts", out / "counts.csv", "--parametrization", "low_rank",
             "--rank", 2, "--seed", 1, "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    fit = json.loads((tmp_path / "diagnostics.json").read_text())
    assert (fit["columns_fitted"], fit["isolated"], fit["parameters"]) == (7, 0, 28)


def test_diagnostics_report_the_forward_model(w3_run, tmp_path):
    # the threshold plan couples 7 of 8 states, so the fit reads the kets; noisy
    # W at t = 0 measures all 256 grid words on every state, whose kets' 1296
    # nonzeros times the full factor's 16 rows cost more than the grid
    out, _ = w3_run
    assert json.loads((out / "diagnostics.json").read_text())["forward_model"] == "kets"
    r = tqst("run", "--state", "w", "--n", 4, "--threshold", 0, "--lambda", 0.05, "--seed", 1,
             "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["measurements"] == 256
    diagnostics = json.loads((tmp_path / "diagnostics.json").read_text())
    assert (diagnostics["forward_model"], diagnostics["columns_fitted"]) == ("grid", 16)


def _dense_report(a, b):
    from tqst import core, metrics

    rho, sigma = core.density(a), core.density(b)
    return {"root_fidelity": metrics.root_fidelity(sigma, rho),
            "trace_distance": metrics.trace_distance(rho, sigma),
            "purity_reconstructed": metrics.purity(rho), "purity_target": metrics.purity(sigma),
            "rank_reconstructed": metrics.numerical_rank(rho),
            "rank_target": metrics.numerical_rank(sigma)}


def _random_block(rng, n, columns, isolated, rows, zero_column=False):
    from tqst import core

    f = rng.normal(size=(rows, len(columns))) + 1j * rng.normal(size=(rows, len(columns)))
    if zero_column and len(columns) > 1:
        f[:, 0] = 0.0
    pops = rng.random(len(isolated))
    total = np.vdot(f, f).real + pops.sum()
    return core.BlockState(n, columns, f / np.sqrt(total), isolated, pops / total)


def test_fidelity_report_matches_dense_metrics():
    # isolated states inside the other state's columns, outside both, shared by
    # both, and zero factor columns; every metric as on the dense matrices
    from tqst import metrics

    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        dim = 2**n
        states = []
        for _ in range(2):
            order = rng.permutation(dim)
            c, i = (int(k) for k in rng.integers(0, dim + 1, size=2))
            columns = np.sort(order[:c])
            isolated = np.sort(order[c:c + i])
            if not columns.size and not isolated.size:
                isolated = np.sort(order[:1])
            states.append(_random_block(rng, n, columns, isolated, int(rng.integers(1, 4)),
                                        zero_column=bool(rng.integers(2))))
        report = metrics.compare(*states)
        dense = _dense_report(*states)
        for key, value in dense.items():
            assert report[key] == pytest.approx(value, abs=1e-9), key
        assert report["fidelity"] == pytest.approx(dense["root_fidelity"] ** 2, abs=1e-9)


def test_fidelity_report_decomposes_only_the_coupled_block(monkeypatch):
    # n = 16: a fit with 40 coupled and 3000 isolated states against the W
    # state; no decomposition sees more than the coupled states
    from tqst import core, metrics, simulator

    sizes = []
    for name in ("eigh", "eigvalsh", "svd", "qr"):
        original = getattr(np.linalg, name)

        def spy(m, *args, _original=original, **kwargs):
            sizes.append(max(np.shape(m)))
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    rng = np.random.default_rng(3)
    w = simulator.w_state(16)
    coupled = np.union1d(np.flatnonzero(w[0]), rng.choice(2**16, 24, replace=False))
    rest = np.setdiff1d(np.arange(2**16), coupled)
    fit = _random_block(rng, 16, coupled, np.sort(rng.choice(rest, 3000, replace=False)), 2)
    report = metrics.compare(fit, core.BlockState.of_factor(w))
    assert sizes and max(sizes) <= coupled.size
    assert report["rank_reconstructed"] == 3002 and report["rank_target"] == 1
    psi = w[0].conj()
    block = fit.factor[:, np.searchsorted(fit.columns, np.flatnonzero(psi))] @ psi[psi != 0]
    assert report["fidelity"] == pytest.approx(np.vdot(block, block).real, abs=1e-12)


def test_fidelity_report_of_a_real_fit_matches_dense_metrics():
    # noisy W at n = 8 (t = 0.038, rank 2, seed 42): the fit has 37 coupled,
    # 187 isolated and 32 left-out states; the acceptance tests compare fits
    # with their targets through this report, not through dense matrices
    from tqst import core, metrics, mle, simulator, threshold

    psi = simulator.w_state(8)
    noise = simulator.NoiseModel(0.05, "multinomial", 42)
    diag = simulator.sample_diagonal(psi, 10**4, noise)
    records = simulator.sample_counts(psi, threshold.select_offdiagonal(diag, 0.038), diag, noise)
    fit = mle.reconstruct(records, mle.MleOptions("low_rank", 2, seed=42,
                                                  gradient_tolerance=0.05), diag).state
    assert (fit.columns.size, fit.isolated.size) == (37, 187)
    target = core.BlockState.of_factor(psi)
    report = metrics.compare(fit, target)
    dense = _dense_report(fit, target)
    dense["fidelity"] = dense["root_fidelity"] ** 2
    assert set(report) == set(dense)
    for key, value in dense.items():
        assert report[key] == pytest.approx(value, abs=1e-9), key


def test_fidelity_command_reads_block_and_plain_files_in_any_mix(tmp_path):
    from tqst import core

    block = tmp_path / "block.json"
    block.write_text(block_file())
    plain = tmp_path / "plain.json"
    core.save_density(plain, _plain_factor(core.load_density(block)))
    assert "columns" not in json.loads(plain.read_text())
    pure = tmp_path / "pure.json"
    core.save_density(pure, np.array([[0.0, 1.0, 0.0, 0.0]]))
    rho = core.load_density(block)
    for a, b in [(block, block), (block, plain), (plain, block), (plain, plain)]:
        r = tqst("fidelity", a, b)
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert report["trace_distance"] == pytest.approx(0.0, abs=1e-12)
        assert report["rank_a"] == report["rank_b"] == 2
        assert report["purity_a"] == pytest.approx(0.72**2 + 0.28**2, abs=1e-12)
    for a in (block, plain):
        r = tqst("fidelity", a, pure)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["fidelity"] == pytest.approx(rho[1, 1].real, abs=1e-12)


def _plain_factor(rho):
    """A factor F over all columns with F^H F = rho."""
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > 1e-12
    return (vecs[:, keep] * np.sqrt(vals[keep])).conj().T


def test_bound_command(w3_run):
    out, _ = w3_run
    r = tqst("bound", "--diagonal", out / "diagonal.csv", "--threshold", 0.5, "--rank", 1)
    assert r.returncode == 0
    assert 0.0 <= json.loads(r.stdout)["fidelity_bound"] <= 1.0


def test_settings_command(w3_run, tmp_path):
    out, _ = w3_run
    dest = tmp_path / "settings.csv"
    r = tqst("settings", "--plan", out / "plan.csv", "--out", dest)
    assert r.returncode == 0
    assert dest.read_text().splitlines() == (out / "settings.csv").read_text().splitlines()


def test_completeness_command():
    r = tqst("completeness", "--n", 2)
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["invertible"] is True
    assert payload["order"] == 16


def test_auto_threshold_pipeline(tmp_path):
    ideal = tmp_path / "ideal"
    r = tqst("simulate", "--state", "ghz", "--n", 2, "--shots", 10000,
             "--seed", 1, "--exact", "--out", ideal)
    assert r.returncode == 0, r.stderr
    runs = []
    for k in range(3):
        rundir = tmp_path / f"run{k}"
        r = tqst("simulate", "--state", "ghz", "--n", 2, "--shots", 10000,
                 "--lambda", 0.05, "--seed", 100 + k, "--out", rundir)
        assert r.returncode == 0, r.stderr
        runs += ["--run-file", rundir / "diagonal.csv"]
    r = tqst("plan", "--diagonal", ideal / "diagonal.csv", "--threshold", "auto",
             "--ideal", ideal / "diagonal.csv", *runs, "--out", tmp_path / "plan.csv")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["threshold_estimate"]["favorable"] is True
    assert 0 < payload["threshold"] < 0.5


DIAG_N3 = "# n_s=10\nbasis_index,count\n" + "".join(f"{k},{5 * (k in (1, 2))}\n" for k in range(8))
DIAG_N4 = "# n_s=10\nbasis_index,count\n" + "".join(f"{k},{5 * (k in (1, 2))}\n" for k in range(16))
DIAG_GHZ2 = "# n_s=10\nbasis_index,count\n0,5\n1,0\n2,0\n3,5\n"
COUNTS_N2 = "projector_word,observed,shots\nHH,50,100\nHV,25,100\nVH,25,100\nVV,0,100\n"
PLAN_N2 = "# n_qubits=2 threshold=0.5\ni,j,part,projector_word\n" + "".join(
    f"{k},{k},diag,{word}\n" for k, word in enumerate(("HH", "HV", "VH", "VV"))
)

PLAN_N1 = "# n_qubits=1 threshold=0.5\ni,j,part,projector_word\n0,0,diag,H\n1,1,diag,V\n"
BLOCK = {"n_qubits": 2, "columns": [0, 1], "factor_re": [[0.6, 0.6]], "factor_im": [[0.0, 0.0]],
         "isolated": [3], "populations": [0.28]}


def block_file(**edit):
    """The 2-qubit block state BLOCK with ``edit`` applied, as rho.json text."""
    return json.dumps({**BLOCK, **edit})


@pytest.mark.parametrize("files, args, message", [
    pytest.param({}, ("run", "--state", "w", "--threshold", 0.5),
                 "--n is required", id="missing-n"),
    pytest.param({}, ("run", "--state", "w", "--n", 3, "--threshold", 1.7, "--out", "{tmp}/o"),
                 "threshold must be in [0, 1]", id="threshold-out-of-range"),
    pytest.param({"diag.csv": DIAG_N3},
                 ("run", "--state", "w", "--n", 3, "--threshold", "auto",
                  "--run-file", "{tmp}/diag.csv", "--out", "{tmp}/o"),
                 "at least two --run-file replicas", id="auto-one-replica"),
    pytest.param({"ghz2.csv": DIAG_GHZ2},
                 ("run", "--state", "w", "--n", 3, "--threshold", "auto", "--run-file",
                  "{tmp}/ghz2.csv", "--run-file", "{tmp}/ghz2.csv", "--out", "{tmp}/o"),
                 "{tmp}/ghz2.csv: noisy run length does not match the ideal diagonal (4 entries, "
                 "expected 8)", id="auto-replica-length"),
    pytest.param({"n4.csv": DIAG_N4, "n3.csv": DIAG_N3},
                 ("run", "--state", "w", "--n", 4, "--threshold", "auto", "--run-file",
                  "{tmp}/n4.csv", "--run-file", "{tmp}/n3.csv", "--out", "{tmp}/o"),
                 "{tmp}/n3.csv: noisy run length does not match the ideal diagonal",
                 id="auto-replica-qubits"),
    pytest.param({"a.csv": DIAG_N3, "b.csv": DIAG_N3.replace("n_s=10", "n_s=20").replace("2,5", "2,15")},
                 ("run", "--state", "w", "--n", 3, "--threshold", "auto", "--run-file",
                  "{tmp}/a.csv", "--run-file", "{tmp}/b.csv", "--out", "{tmp}/o"),
                 "{tmp}/b.csv: noisy runs must share the same shot count (20 shots, the first "
                 "run has 10)", id="auto-replica-shots"),
    pytest.param({"gapped.csv": "# n_s=10\nbasis_index,count\n0,4\n3,6\n"},
                 ("run", "--state", "w", "--n", 2, "--threshold", "auto", "--run-file",
                  "{tmp}/gapped.csv", "--run-file", "{tmp}/gapped.csv", "--out", "{tmp}/o"),
                 "gapped.csv:4:", id="auto-malformed-replica"),
    pytest.param({"diag.csv": DIAG_N3, "ghz2.csv": DIAG_GHZ2},
                 ("plan", "--diagonal", "{tmp}/diag.csv", "--threshold", "auto",
                  "--ideal", "{tmp}/ghz2.csv", "--run-file", "{tmp}/ghz2.csv",
                  "--run-file", "{tmp}/ghz2.csv", "--out", "{tmp}/plan.csv"),
                 "ideal diagonal has 4 entries, a 3-qubit diagonal has 8",
                 id="auto-plan-qubit-mismatch"),
    pytest.param({"diag.csv": DIAG_N3},
                 ("run", "--state", "w", "--n", 3, "--threshold", 0.1, "--exact", "--seed", 1,
                  "--run-file", "{tmp}/diag.csv", "--out", "{tmp}/o"),
                 "--run-file and --ideal are read only with --threshold auto",
                 id="numeric-threshold-replica"),
    pytest.param({"diag.csv": DIAG_N3},
                 ("plan", "--diagonal", "{tmp}/diag.csv", "--threshold", 0.1,
                  "--ideal", "{tmp}/diag.csv", "--run-file", "{tmp}/diag.csv",
                  "--out", "{tmp}/plan.csv"),
                 "--run-file and --ideal are read only with --threshold auto",
                 id="numeric-threshold-plan-ideal"),
    pytest.param({}, ("simulate", "--state", "w", "--n", 2, "--filling", 5, "--seed", 1,
                      "--out", "{tmp}/o"),
                 "--filling is read only with --state random", id="filling-without-random"),
    pytest.param({}, ("run", "--state", "w", "--n", 3, "--threshold", 0.1, "--seed", -1,
                      "--out", "{tmp}/o"),
                 "-1 is not in the range x>=0", id="negative-seed"),
    pytest.param({}, ("run", "--state", "w", "--n", 3, "--threshold", 0.1, "--parametrization",
                      "low_rank", "--rank", 0, "--out", "{tmp}/o"),
                 "rank must be >= 1", id="rank-zero"),
    pytest.param({}, ("run", "--state", "w", "--n", 2, "--threshold", 0.1, "--seed", 1,
                      "--gradient-tolerance", "nan", "--out", "{tmp}/o"),
                 "gradient_tolerance must be finite and >= 0, got nan", id="gradient-tolerance-nan"),
    pytest.param({}, ("run", "--state", "w", "--n", 2, "--threshold", 0.1, "--seed", 1,
                      "--gradient-tolerance", -1, "--out", "{tmp}/o"),
                 "gradient_tolerance must be finite and >= 0, got -1", id="gradient-tolerance-negative"),
    pytest.param({}, ("run", "--state", "w", "--n", 2, "--threshold", 0.1, "--seed", 1,
                      "--max-iterations", 0, "--out", "{tmp}/o"),
                 "max_iterations must be >= 1", id="max-iterations-zero"),
    pytest.param({}, ("run", "--state", "w", "--n", 3, "--threshold", 0.1, "--exact",
                      "--seed", 1, "--parametrization", "full", "--rank", 5, "--out", "{tmp}/o"),
                 "rank 5 needs parametrization 'low_rank'", id="rank-under-full"),
    pytest.param({}, ("run", "--state", "w", "--n", 3, "--threshold", 0.1, "--lambda", 1.5,
                      "--out", "{tmp}/o"),
                 "depolarizing strength must be in [0, 1]", id="lambda-out-of-range"),
    pytest.param({}, ("simulate", "--state", "w", "--out", "{tmp}/o"),
                 "--n is required", id="simulate-missing-n"),
    pytest.param({"plan.csv": PLAN_N2},
                 ("simulate", "--state", "w", "--n", 3, "--plan", "{tmp}/plan.csv",
                  "--out", "{tmp}/o"),
                 "dimension mismatch: plan is for 2 qubits, factor is (1, 8)",
                 id="simulate-plan-qubit-mismatch"),
    pytest.param({}, ("completeness", "--n", 7),
                 "Gram matrix for n=7 has order 4**7; the limit is n <= 6",
                 id="completeness-over-cap"),
    pytest.param({"diag.csv": DIAG_N3},
                 ("bound", "--diagonal", "{tmp}/diag.csv", "--threshold", "nan"),
                 "threshold must be in [0, 1], got nan", id="bound-nan-threshold"),
    pytest.param({"diag.csv": DIAG_N3, "counts.csv": "projector_word,observed,shots\nHHHH,5,10\n"},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--diag", "{tmp}/diag.csv",
                  "--out", "{tmp}/o"),
                 "{tmp}/diag.csv is a 3-qubit diagonal, but {tmp}/counts.csv has 4-qubit",
                 id="diag-qubit-mismatch"),
    pytest.param({"diag.csv": "# n_s=10\nbasis_index,count\n0,4\n3,6\n"},
                 ("bound", "--diagonal", "{tmp}/diag.csv", "--threshold", 0.1),
                 "diag.csv:4:", id="gapped-diagonal"),
    pytest.param({"diag.csv": "# n_s=10\nbasis_index,count\n0,4\n1,3\n1,3\n3,0\n"},
                 ("bound", "--diagonal", "{tmp}/diag.csv", "--threshold", 0.1),
                 "diag.csv:5:", id="duplicated-diagonal"),
    pytest.param({"diag.csv": DIAG_N3.replace("n_s=10", "n_s=1000 n_s=2000")},
                 ("bound", "--diagonal", "{tmp}/diag.csv", "--threshold", 0.1),
                 "diag.csv:1: comment '# n_s=1000 n_s=2000' repeats a key",
                 id="diagonal-repeated-key"),
    pytest.param({"plan.csv": PLAN_N2.replace("threshold=0.5", "threshold=0.5 threshold=0.1")},
                 ("settings", "--plan", "{tmp}/plan.csv"),
                 "plan.csv:1: comment '# n_qubits=2 threshold=0.5 threshold=0.1' repeats a key",
                 id="plan-repeated-key"),
    pytest.param({"counts.csv": "projector_word,observed,shots\nHH,5,10\nHV,5\n"},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--out", "{tmp}/o"),
                 "counts.csv:3:", id="short-counts-row"),
    pytest.param({"counts.csv": "projector_word,observed,shots\nHH,+5,10\nHV,5\n"},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--out", "{tmp}/o"),
                 "counts.csv:2: expected decimal counts, got '+5,10'",
                 id="counts-sign-before-short-row"),
    pytest.param({"counts.csv": COUNTS_N2.replace("HH,50,100", f"HH,50,{10**21}")},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--out", "{tmp}/o"),
                 f"counts.csv:2: expected decimal counts, got '50,{10**21}'",
                 id="counts-shots-over-int64"),
    pytest.param({"counts.csv": "projector_word,observed,shots\nHH,5,10\nHV,5,10\nVHH,5,10\n"},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--out", "{tmp}/o"),
                 "{tmp}/counts.csv:4: 3-qubit word 'VHH' after 2-qubit words",
                 id="counts-mixed-word-lengths"),
    pytest.param({"counts.csv": "projector_word,observed,shots\n" + "H" * 63 + ",5,10\n"},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--out", "{tmp}/o"),
                 "{tmp}/counts.csv:2: 63-letter word: at most 62 qubits",
                 id="counts-word-over-62-letters"),
    pytest.param({"counts.csv": COUNTS_N2.replace("HH,50,", "HH,5_0,")},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--out", "{tmp}/o"),
                 "counts.csv:2: expected decimal counts, got '5_0,100'",
                 id="counts-underscore"),
    pytest.param({"counts.csv": COUNTS_N2.replace("HV,25,", "HV,+25,")},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--out", "{tmp}/o"),
                 "counts.csv:3: expected decimal counts, got '+25,100'",
                 id="counts-plus-sign"),
    pytest.param({"counts.csv": COUNTS_N2.replace("VH,25,", "VH, 25,")},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--out", "{tmp}/o"),
                 "counts.csv:4: expected decimal counts, got ' 25,100'",
                 id="counts-leading-space"),
    pytest.param({"diag.csv": DIAG_N3.replace("\n1,5\n", "\n1,05\n")},
                 ("bound", "--diagonal", "{tmp}/diag.csv", "--threshold", 0.1),
                 "diag.csv:4: expected '1,<count >= 0>'", id="diagonal-leading-zero"),
    pytest.param({"diag.csv": DIAG_N3.replace("\n1,5\n", "\n1,\uff15\n")},
                 ("bound", "--diagonal", "{tmp}/diag.csv", "--threshold", 0.1),
                 "diag.csv:4: expected '1,<count >= 0>'", id="diagonal-fullwidth-digit"),
    pytest.param({"diag.csv": "# n_s=10\nbasis_index,count\n0,99999999999999999999\n1,0\n"},
                 ("bound", "--diagonal", "{tmp}/diag.csv", "--threshold", 0.1),
                 "diag.csv:3: expected '0,<count >= 0>'", id="diagonal-count-overflow"),
    pytest.param({"diag.csv": "# n_s=4611686018427387904\nbasis_index,count\n"
                              + "".join(f"{k},{2**62 * (k < 5)}\n" for k in range(8))},
                 ("plan", "--diagonal", "{tmp}/diag.csv", "--threshold", 0.5,
                  "--out", "{tmp}/plan.csv"),
                 "diag.csv: not a '# n_s=<shots>' diagonal record", id="diagonal-sum-wraps"),
    pytest.param({"counts.csv": COUNTS_N2.replace("HH,50,", "HH,\u06650,")},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--out", "{tmp}/o"),
                 "counts.csv:2: expected decimal counts, got '\u06650,100'",
                 id="counts-arabic-indic-digit"),
    pytest.param({"counts.csv": COUNTS_N2.replace("HH,50,100", "HH,50,0100")},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--out", "{tmp}/o"),
                 "counts.csv:2: expected decimal counts, got '50,0100'",
                 id="counts-leading-zero-shots"),
    pytest.param({"plan.csv": PLAN_N2.replace(",HV\n", ",HVH\n")},
                 ("settings", "--plan", "{tmp}/plan.csv"),
                 "plan.csv:4:", id="plan-word-length"),
    pytest.param({"plan.csv": PLAN_N2 + "1,2,re,RR\n1,2,im,RR\n"},
                 ("settings", "--plan", "{tmp}/plan.csv"),
                 "plan.csv:8:", id="plan-word-mismatch"),
    pytest.param({"plan.csv": PLAN_N2 + "1,2,re,RR\n"},
                 ("simulate", "--state", "w", "--n", 2, "--plan", "{tmp}/plan.csv",
                  "--out", "{tmp}/o"),
                 "plan.csv:7: '1,2,re,RR' has no 'im' row after it",
                 id="plan-lone-re"),
    pytest.param({"plan.csv": PLAN_N2 + "1,2,im,RD\n"},
                 ("settings", "--plan", "{tmp}/plan.csv", "--out", "{tmp}/settings.csv"),
                 "plan.csv:7: expected '1,2,re,RR', got '1,2,im,RD'",
                 id="plan-lone-im"),
    pytest.param({"rho.json": '{"n_qubits": 1, "factor_re": [[1.0, 0.0], [0.0, NaN]], '
                              '"factor_im": [[0.0, 0.0], [0.0, 0.0]]}'},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "rho.json", id="non-finite-density"),
    pytest.param({"rho.json": '{"n_qubits": 1, "re": [[1.0, 0.0], [0.0, 0.0]], '
                              '"im": [[0.0, 0.0], [0.0, 0.0]]}'},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "{tmp}/rho.json: not a factored density-matrix", id="legacy-dense-density"),
    # comment fields are read only as the writer writes them
    pytest.param({"diag.csv": DIAG_N3.replace("n_s=10", "n_s=1_0")},
                 ("bound", "--diagonal", "{tmp}/diag.csv", "--threshold", 0.1),
                 "diag.csv: not a '# n_s=<shots>' diagonal record", id="diagonal-n-s-underscore"),
    pytest.param({"plan.csv": PLAN_N1.replace("n_qubits=1", "n_qubits=+1")},
                 ("settings", "--plan", "{tmp}/plan.csv"),
                 "plan.csv:1: need '# n_qubits=<n> threshold=<t>'", id="plan-n-qubits-plus"),
    pytest.param({"plan.csv": PLAN_N2.replace("threshold=0.5", "threshold=1_0e-1")},
                 ("settings", "--plan", "{tmp}/plan.csv"),
                 "plan.csv:1: need '# n_qubits=<n> threshold=<t>'", id="plan-threshold-underscore"),
    # the block form of rho.json
    pytest.param({"rho.json": block_file(columns=[1, 0])},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "rho.json: columns must be strictly increasing", id="block-columns-unordered"),
    pytest.param({"rho.json": block_file(columns=[0, 0])},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "rho.json: columns must be strictly increasing", id="block-columns-repeated"),
    pytest.param({"rho.json": block_file(columns=[0, 4])},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "rho.json: columns must be a list of basis indices below 2**2",
                 id="block-columns-out-of-range"),
    pytest.param({"rho.json": block_file(columns=[-1, 0])},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "rho.json: not a factored density-matrix", id="block-columns-negative"),
    pytest.param({"rho.json": block_file(isolated=[1])},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "rho.json: an isolated state is also a column of the factor",
                 id="block-isolated-overlaps-columns"),
    pytest.param({"rho.json": block_file(columns=[0, 1, 2])},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "rho.json: factor of shape (1, 2) is not r x 3", id="block-columns-length"),
    pytest.param({"rho.json": block_file(populations=[0.28, 0.0])},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "rho.json: 2 populations for 1 isolated states", id="block-populations-length"),
    pytest.param({"rho.json": block_file(populations=[-0.28])},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "rho.json: populations must be finite and non-negative",
                 id="block-population-negative"),
    pytest.param({"rho.json": block_file(populations=[float("nan")])},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "rho.json: populations must be finite and non-negative",
                 id="block-population-nan"),
    pytest.param({"rho.json": block_file(populations=[0.5])},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "first state has trace 1.22", id="block-trace-not-one"),
])
def test_invalid_input_exits_2_with_json_error(tmp_path, files, args, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    r = tqst(*(str(a).format(tmp=tmp_path) for a in args))
    assert r.returncode == 2, r.stderr
    assert message.format(tmp=tmp_path) in json.loads(r.stderr)["error"]
    # rejected before anything is sampled or written, or a directory is made
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def limit_address_space():
    """Cap the child's address space at 4 GiB, so that a 2**n state vector of
    16 GiB or more fails to allocate at once instead of filling the host."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


# never run these commands without limit_address_space
@pytest.mark.parametrize("args, size", [
    (("run", "--state", "w", "--n", 30, "--threshold", 0.1, "--seed", 1), "16.0 GiB"),
    (("simulate", "--state", "ghz", "--n", 31, "--seed", 1), "32.0 GiB"),
], ids=["run-w30", "simulate-ghz31"])
def test_out_of_memory_exits_2_with_json_error(tmp_path, args, size):
    # one BLAS thread: OpenBLAS reserves address space per thread at import
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    r = tqst(*args, "--out", tmp_path / "o", env=env, preexec_fn=limit_address_space)
    assert r.returncode == 2, r.stderr
    assert f"Unable to allocate {size}" in json.loads(r.stderr)["error"]
    assert not (tmp_path / "o").exists()


def test_nonconvergence_exits_3(w3_run, tmp_path):
    out, _ = w3_run
    r = tqst("reconstruct", "--counts", out / "counts.csv", "--seed", 1,
             "--max-iterations", 1, "--out", tmp_path)
    assert r.returncode == 3
    assert "converge" in json.loads(r.stderr)["error"]
    # artifacts are still written for inspection
    assert (tmp_path / "rho.json").exists()


def test_seed_environment_variable(tmp_path):
    env_out = tmp_path / "env"
    flag_out = tmp_path / "flag"
    env = dict(os.environ, TQST_SEED="77")
    r1 = tqst("simulate", "--state", "w", "--n", 2, "--shots", 1000,
              "--out", env_out, env=env)
    r2 = tqst("simulate", "--state", "w", "--n", 2, "--shots", 1000,
              "--seed", 77, "--out", flag_out)
    assert r1.returncode == r2.returncode == 0
    assert (env_out / "counts.csv").read_text() == (flag_out / "counts.csv").read_text()


def test_unseeded_run_reports_a_replayable_seed(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "TQST_SEED"}
    args = ("run", "--state", "w", "--n", 3, "--threshold", 0.1, "--lambda", 0.05)
    first = tqst(*args, "--out", tmp_path / "a", env=env)
    assert first.returncode == 0, first.stderr
    seed = json.loads(first.stdout)["seed"]
    assert isinstance(seed, int) and seed >= 0
    # the plan was made from the same diagonal that the fit sees
    diag = read_diagonal_csv(tmp_path / "a" / "diagonal.csv")
    records = read_counts_csv(tmp_path / "a" / "counts.csv")
    assert [rec.observed for rec in records[:8]] == diag.counts.tolist()
    replay = tqst(*args, "--seed", seed, "--out", tmp_path / "b", env=env)
    assert replay.returncode == 0, replay.stderr
    assert json.loads(replay.stdout)["seed"] == seed
    for name in ("diagonal.csv", "plan.csv", "counts.csv", "settings.csv", "rho.json",
                 "fidelity.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_unseeded_simulate_and_reconstruct_report_a_replayable_seed(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "TQST_SEED"}
    args = ("simulate", "--state", "w", "--n", 2, "--lambda", 0.1, "--shots", 1000)
    first = tqst(*args, "--out", tmp_path / "a", env=env)
    assert first.returncode == 0, first.stderr
    seed = json.loads(first.stdout)["seed"]
    assert isinstance(seed, int) and seed >= 0
    replay = tqst(*args, "--seed", seed, "--out", tmp_path / "b", env=env)
    assert replay.returncode == 0, replay.stderr
    assert json.loads(replay.stdout)["seed"] == seed
    for name in ("diagonal.csv", "counts.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    counts = tmp_path / "a" / "counts.csv"
    first = tqst("reconstruct", "--counts", counts, "--out", tmp_path / "c", env=env)
    assert first.returncode == 0, first.stderr
    seed = json.loads(first.stdout)["seed"]
    assert isinstance(seed, int) and seed >= 0
    replay = tqst("reconstruct", "--counts", counts, "--seed", seed, "--out", tmp_path / "d",
                  env=env)
    assert replay.returncode == 0, replay.stderr
    assert json.loads(replay.stdout)["seed"] == seed
    assert (tmp_path / "c" / "rho.json").read_bytes() == (tmp_path / "d" / "rho.json").read_bytes()


# Runs in a fresh interpreter: this test module's own imports may load scipy.
SCIPY_GUARD = """
import json, sys
from pathlib import Path

import tqst, tqst.cli
from tqst import core, simulator

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

def tqst_cli(*args):
    tqst.cli.cli.main([str(a) for a in args], standalone_mode=False)

out = Path(sys.argv[1])
seen = {"import": scipy_loaded(), "numpy.random": "numpy.random" in sys.modules,
        # no ket table is filled at import: setup time builds none
        "ket tables": [core._support_offsets.cache_info().currsize,
                       core._letter_amplitudes.cache_info().currsize]}
tqst_cli("simulate", "--state", "w", "--n", 3, "--exact", "--seed", 1, "--out", out / "ideal")
seen["exact"] = "numpy.random" in sys.modules  # the exact counts draw nothing
for k in range(2):
    tqst_cli("simulate", "--state", "w", "--n", 3, "--lambda", 0.05, "--seed", 10 + k,
             "--out", out / f"replica{k}")
tqst_cli("plan", "--diagonal", out / "replica0" / "diagonal.csv", "--threshold", "auto",
         "--ideal", out / "ideal" / "diagonal.csv", "--run-file", out / "replica0" / "diagonal.csv",
         "--run-file", out / "replica1" / "diagonal.csv", "--out", out / "plan.csv")
tqst_cli("simulate", "--state", "w", "--n", 3, "--seed", 1, "--plan", out / "plan.csv",
         "--out", out / "measured")
tqst_cli("bound", "--diagonal", out / "ideal" / "diagonal.csv", "--threshold", 0.1)
tqst_cli("settings", "--plan", out / "plan.csv", "--out", out / "settings.csv")
core.save_density(out / "w3.json", simulator.w_state(3))
tqst_cli("fidelity", out / "w3.json", out / "w3.json")
tqst_cli("completeness", "--n", 2)
seen["commands"] = scipy_loaded()
tqst_cli("reconstruct", "--counts", out / "measured" / "counts.csv", "--seed", 1, "--out", out)
seen["reconstruct"] = scipy_loaded()
print(json.dumps(seen))
"""


def test_only_the_fit_loads_scipy(tmp_path):
    r = python("-c", SCIPY_GUARD, tmp_path)
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout.splitlines()[-1])
    assert seen == {"import": False, "numpy.random": False, "ket tables": [0, 0], "exact": False,
                    "commands": False, "reconstruct": True}


def test_colorcode_run_summary(tmp_path):
    result = tqst("run", "--state", "colorcode0", "--threshold", 0.01, "--exact",
                  "--seed", 2, "--parametrization", "low_rank", "--rank", 1,
                  "--out", tmp_path)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["measurements"] == 184
    assert summary["settings"] == 57
    assert summary["fidelity"] > 0.99
