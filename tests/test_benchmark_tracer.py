"""The benchmark's traced mode (perfbench/tracing.py) replaces tqst module
attributes by name.  These tests fail as soon as one of those names is
renamed or deleted, or a call pattern the benchmark's invariants count on
changes, instead of in the minutes-long perfbench/smoke.py."""

import importlib.util
import json
from pathlib import Path

import pytest

import tqst
import tqst.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (tqst.core, tqst.metrics, tqst.mle, tqst.projectors, tqst.settings,
           tqst.simulator, tqst.threshold)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _changed(before):
    return sorted(f"{module.__name__}.{name}"
                  for module, old in zip(MODULES, before)
                  for name, value in vars(module).items() if old.get(name) is not value)


def test_tracer_patches_and_restores_tqst_attributes(tracing):
    tracer = tracing.Tracer()
    before = [dict(vars(module)) for module in MODULES]
    try:
        tracer.install(tqst)  # AttributeError if a patched name is gone
        patched = _changed(before)
        saved = sorted(f"{owner.__name__}.{name}" for owner, name, _ in tracer._saved)
    finally:
        tracer.uninstall()
    assert patched == saved and "tqst.simulator.apply_depolarizing" in patched
    assert _changed(before) == []


def _traced_run(tracing, args, capsys):
    """The metrics of one traced ``tqst run`` invocation with ``args``."""
    tracer = tracing.Tracer()
    tracer.invocation = 0
    tracer.install(tqst)
    try:
        root = tracer.open("cli.main")
        tqst.cli.cli.main(["run", *map(str, args)], standalone_mode=False)
        tracer.close(root)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    m, _ = tracing.invocation_metrics(tracer.spans, root)
    return m


def test_traced_run_keeps_the_smoke_invariants(tracing, tmp_path, capsys):
    """perfbench/smoke.py's call-count invariants, on one small traced run."""
    m = _traced_run(tracing, ["--state", "w", "--n", "3", "--threshold", "0.1", "--exact",
                              "--seed", "1", "--out", tmp_path], capsys)
    assert m["mle.records"] == 6  # the plan's records; the 8 basis states stay in the diagonal round
    assert m["core.product_ket_calls"] == m["mle.records"]
    assert m["threshold.pairs_kept"] == 3
    kept = 2 * m["threshold.pairs_kept"]
    assert m["core.expectation_calls"] == m["projectors.projector_for_calls"] == kept


def test_traced_run_on_the_grid_keeps_the_smoke_invariants(tracing, tmp_path, capsys):
    """The same invariants when the fit takes the grid forward model, as
    w6_conventional does: a conventional n = 4 plan (t = 0) on a state with
    every population nonzero, fitted in ``full``."""
    m = _traced_run(tracing, ["--state", "random", "--filling", "1", "--n", "4",
                              "--threshold", "0", "--exact", "--seed", "1",
                              "--parametrization", "full", "--out", tmp_path], capsys)
    assert json.loads((tmp_path / "diagnostics.json").read_text())["forward_model"] == "grid"
    assert m["threshold.pairs_kept"] == 16 * 15 // 2
    assert m["core.product_ket_calls"] == m["mle.records"]
    kept = 2 * m["threshold.pairs_kept"]
    assert m["core.expectation_calls"] == m["projectors.projector_for_calls"] == kept
