"""Golden outputs of three reference `tqst run` invocations.

The CSV files must match the pinned SHA-256 digests byte for byte.  The
fitted state in ``rho.json`` (its columns and isolated states exactly, its
factor and populations) and the values in ``fidelity.json`` must match
the checked-in copies under ``tests/golden/`` to TOLERANCE.  That does not
leave room for last-bit differences in the fit: the optimizer amplifies
them, and a relative perturbation of 1e-16 on each objective and gradient
value moves the w10 factor by up to 3.3e-4 (rho by 3.6e-5) and the w6 factor
by 1.5e-5.  So the test in effect demands bit-identical fit arithmetic, as at
one and two BLAS threads with OpenBLAS on x86-64; a change that reorders the
fit's floating-point operations fails it.  The references were taken at
commit 447576e, where all six files of each run were byte-identical at one
and two BLAS threads.  ``fidelity.json`` has since moved in its last bits,
within TOLERANCE, when the root fidelity became a sum of singular values.
The w4_exact and w10_noisy_lowrank references were taken again when the fit
moved to the factor on the coupled states and the diagonal on the isolated
ones; w6_conventional couples every state, so that move left its fit as it
was.  Its two references were taken again, at one BLAS thread, when fits
of every state on the word grid {H, V, D, R}**n moved from the kets to the
grid's mode products: the same model in another order of operations, which
moved its factor by up to 4.7e-6 and its fidelity from 0.9290904999 to
0.9290902229.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import tqst.cli
from tqst.core import load_state
from tqst.settings import settings_for_plan, write_settings_csv
from tqst.threshold import read_plan_csv, write_plan_csv

GOLDEN = Path(__file__).parent / "golden"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
TOLERANCE = 1e-9  # absolute, on every factor entry and fidelity.json value

NOISY = ("--lambda", 0.05, "--shots", 10000, "--seed", 42, "--parametrization", "low_rank",
         "--rank", 2, "--gradient-tolerance", 0.05)

RUNS = {
    "w4_exact": ("--state", "w", "--n", 4, "--threshold", 0.1, "--exact", "--seed", 1),
    # the benchmark's two workloads, w10 with replicas from simulate seeds 1000-1019
    "w6_conventional": ("--state", "w", "--n", 6, "--threshold", 0.0001, *NOISY),
    "w10_noisy_lowrank": ("--state", "w", "--n", 10, "--threshold", "auto", *NOISY),
}
REPLICA_SEEDS = {"w10_noisy_lowrank": range(1000, 1020)}

DIGESTS = {
    "w4_exact": {
        "diagonal.csv": "3a1f2939523554b80786daf71637ecfa094b6dae445cfa33b9872c9bb968d350",
        "plan.csv": "e94815c2e66e52866987e9562a9a5d7597ac2bfa5be6b31cbfd7287df746efb8",
        "counts.csv": "fd1ac32523729ee4f406e5f9ae9ef02a5b1c50abfa37082fca5e97e9231919ac",
        "settings.csv": "3f6d92682d2956f3379af6080cb964af9da6563f0326801c349a647ba41d3e4c",
    },
    "w6_conventional": {
        "diagonal.csv": "3332ef6042683455c69d20e7724ac6d6b322fc4eab500f5dc8579b38745ad54f",
        "plan.csv": "c9d172dd0e494fd8b939d516b1179ef378a228f977eac6e1a9e93c3164c7c5fd",
        "counts.csv": "ddebb8ed51cfc95b4053863de7ab66561c2f8b0a21123d185994befcb95d2c54",
        "settings.csv": "ccaaa46b5f68ddf2092d7c3c97521b74cd00417b0422670f4ee955719a671b62",
    },
    "w10_noisy_lowrank": {
        "diagonal.csv": "e2c965e4a748341c431d9bfa693e2fda18fd7e4cc499eb89a64f0368daec534a",
        "plan.csv": "140bb4e224b813491944e7b451009fe39a429938e121737bb51583bc033f33fa",
        "counts.csv": "18f00b685d92bdf768f89485d634e3244f0fc0f731ad3050817e6b8fdd0786f1",
        "settings.csv": "b617f73879a42f4698dcd64c0c2ebd63b5159cef194224b555fc30d033306ecb",
    },
}


def tqst_cli(*args):
    tqst.cli.cli.main([str(a) for a in args], standalone_mode=False)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module", params=RUNS)
def golden_run(request, tmp_path_factory):
    """The name of a reference run, the directory it wrote and its stdout summary."""
    name = request.param
    tmp_path = tmp_path_factory.mktemp(name)
    run_files = []
    for seed in REPLICA_SEEDS.get(name, ()):
        tqst_cli("simulate", "--state", "w", "--n", 10, "--lambda", 0.05, "--shots", 10000,
                 "--seed", seed, "--out", tmp_path / f"replica{seed}")
        run_files += ["--run-file", tmp_path / f"replica{seed}" / "diagonal.csv"]
    out = tmp_path / name
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary):
        tqst_cli("run", *RUNS[name], *run_files, "--out", out)
    return name, out, summary.getvalue()


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's workloads module, read from perfbench/ without changing it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # for its dataclasses
        spec.loader.exec_module(module)
    return module


def test_golden_outputs(golden_run):
    name, out, _ = golden_run
    for file, digest in DIGESTS[name].items():
        assert sha256(out / file) == digest, file

    expected = load_state(GOLDEN / name / "rho.json")
    state = load_state(out / "rho.json")
    assert np.array_equal(state.columns, expected.columns)
    assert np.array_equal(state.isolated, expected.isolated)
    assert state.factor.shape == expected.factor.shape
    np.testing.assert_allclose(state.factor, expected.factor, rtol=0, atol=TOLERANCE)
    np.testing.assert_allclose(state.populations, expected.populations, rtol=0, atol=TOLERANCE)

    expected = json.loads((GOLDEN / name / "fidelity.json").read_text())
    report = json.loads((out / "fidelity.json").read_text())
    assert report.keys() == expected.keys()
    for key, value in expected.items():
        assert report[key] == pytest.approx(value, rel=0, abs=TOLERANCE), key


def test_golden_plan_reads_back(golden_run, tmp_path):
    # the reader accepts the reference plans, and the plan it returns writes
    # the same plan and settings files again
    name, out, _ = golden_run
    plan = read_plan_csv(out / "plan.csv")
    write_plan_csv(tmp_path / "plan.csv", plan)
    assert sha256(tmp_path / "plan.csv") == DIGESTS[name]["plan.csv"]
    write_settings_csv(tmp_path / "settings.csv", settings_for_plan(plan))
    assert sha256(tmp_path / "settings.csv") == DIGESTS[name]["settings.csv"]


@pytest.mark.parametrize("golden_run", ["w6_conventional", "w10_noisy_lowrank"], indirect=True)
def test_benchmark_workloads_pass_their_output_check(golden_run, workloads):
    # the check that every benchmark invocation must pass, which reads
    # diagonal.csv with tqst.threshold.read_diagonal_csv
    name, out, summary = golden_run
    assert workloads.check_outputs(workloads.WORKLOADS[name], 0, summary, out, tqst) == []
