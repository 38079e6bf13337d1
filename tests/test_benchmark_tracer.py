"""The benchmark's traced mode (perfbench/tracing.py) replaces tqst module
attributes by name.  This test fails as soon as one of those names is renamed
or deleted, instead of in the minutes-long perfbench/smoke.py."""

import importlib.util
from pathlib import Path

import tqst

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (tqst.core, tqst.metrics, tqst.mle, tqst.projectors, tqst.settings,
           tqst.simulator, tqst.threshold)


def _changed(before):
    return sorted(f"{module.__name__}.{name}"
                  for module, old in zip(MODULES, before)
                  for name, value in vars(module).items() if old.get(name) is not value)


def test_tracer_patches_and_restores_tqst_attributes():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
