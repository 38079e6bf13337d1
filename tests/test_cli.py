import json
import subprocess
import sys

import pytest

from tqst.core import load_density
from tqst.metrics import fidelity
from tqst.mle import read_counts_csv
from tqst.settings import read_settings_csv
from tqst.threshold import read_diagonal_csv, read_plan_csv


def tqst(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "tqst.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


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
    settings = read_settings_csv(out / "settings.csv")
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


def test_fidelity_command(w3_run, tmp_path):
    out, _ = w3_run
    r = tqst("fidelity", out / "rho.json", out / "rho.json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-8)
    assert report["trace_distance"] == pytest.approx(0.0, abs=1e-8)
    assert "purity_a" in report and "rank_b" in report


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
    assert read_settings_csv(dest) == read_settings_csv(out / "settings.csv")


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
PLAN_N2 = "# n_qubits=2 threshold=0.5\ni,j,part,projector_word\n" + "".join(
    f"{k},{k},diag,{word}\n" for k, word in enumerate(("HH", "HV", "VH", "VV"))
)


@pytest.mark.parametrize("files, args, message", [
    pytest.param({}, ("run", "--state", "w", "--threshold", 0.5),
                 "--n is required", id="missing-n"),
    pytest.param({}, ("run", "--state", "w", "--n", 3, "--threshold", 1.7, "--out", "{tmp}"),
                 "threshold must be in [0, 1]", id="threshold-out-of-range"),
    pytest.param({"diag.csv": DIAG_N3},
                 ("run", "--state", "w", "--n", 3, "--threshold", "auto",
                  "--run-file", "{tmp}/diag.csv", "--out", "{tmp}"),
                 "at least two --run-file replicas", id="auto-one-replica"),
    pytest.param({"diag.csv": DIAG_N3, "counts.csv": "projector_word,observed,shots\nHHHH,5,10\n"},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--diag", "{tmp}/diag.csv",
                  "--out", "{tmp}"),
                 "{tmp}/diag.csv is a 3-qubit diagonal, but {tmp}/counts.csv has 4-qubit",
                 id="diag-qubit-mismatch"),
    pytest.param({"diag.csv": "# n_s=10\nbasis_index,count\n0,4\n3,6\n"},
                 ("bound", "--diagonal", "{tmp}/diag.csv", "--threshold", 0.1),
                 "diag.csv:4:", id="gapped-diagonal"),
    pytest.param({"diag.csv": "# n_s=10\nbasis_index,count\n0,4\n1,3\n1,3\n3,0\n"},
                 ("bound", "--diagonal", "{tmp}/diag.csv", "--threshold", 0.1),
                 "diag.csv:5:", id="duplicated-diagonal"),
    pytest.param({"counts.csv": "projector_word,observed,shots\nHH,5,10\nHV,5\n"},
                 ("reconstruct", "--counts", "{tmp}/counts.csv", "--out", "{tmp}"),
                 "counts.csv:3:", id="short-counts-row"),
    pytest.param({"plan.csv": PLAN_N2.replace(",HV\n", ",HVH\n")},
                 ("settings", "--plan", "{tmp}/plan.csv"),
                 "plan.csv:4:", id="plan-word-length"),
    pytest.param({"plan.csv": PLAN_N2 + "1,2,re,RR\n1,2,im,RR\n"},
                 ("settings", "--plan", "{tmp}/plan.csv"),
                 "plan.csv:8:", id="plan-word-mismatch"),
    pytest.param({"rho.json": '{"n_qubits": 1, "factor_re": [[1.0, 0.0], [0.0, NaN]], '
                              '"factor_im": [[0.0, 0.0], [0.0, 0.0]]}'},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "rho.json", id="non-finite-density"),
    pytest.param({"rho.json": '{"n_qubits": 1, "re": [[1.0, 0.0], [0.0, 0.0]], '
                              '"im": [[0.0, 0.0], [0.0, 0.0]]}'},
                 ("fidelity", "{tmp}/rho.json", "{tmp}/rho.json"),
                 "{tmp}/rho.json: not a factored density-matrix", id="legacy-dense-density"),
])
def test_invalid_input_exits_2_with_json_error(tmp_path, files, args, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    r = tqst(*(str(a).format(tmp=tmp_path) for a in args))
    assert r.returncode == 2, r.stderr
    assert message.format(tmp=tmp_path) in json.loads(r.stderr)["error"]
    # rejected before anything is sampled or written
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


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
    import os

    env = dict(os.environ, TQST_SEED="77")
    r1 = tqst("simulate", "--state", "w", "--n", 2, "--shots", 1000,
              "--out", env_out, env=env)
    r2 = tqst("simulate", "--state", "w", "--n", 2, "--shots", 1000,
              "--seed", 77, "--out", flag_out)
    assert r1.returncode == r2.returncode == 0
    assert (env_out / "counts.csv").read_text() == (flag_out / "counts.csv").read_text()


def test_colorcode_run_summary(tmp_path):
    result = tqst("run", "--state", "colorcode0", "--threshold", 0.01, "--exact",
                  "--seed", 2, "--parametrization", "low_rank", "--rank", 1,
                  "--out", tmp_path)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["measurements"] == 184
    assert summary["settings"] == 57
    assert summary["fidelity"] > 0.99
