"""Smoke test of the benchmark itself (a few minutes).

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second in both modes and
checks that each emits every metric BENCHMARK.json names, with its unit, and
passes its output checks; that every traced layer fired (the invariants
below would read 0 or disagree if a wrapper stopped firing); that the traced
self times add up to the traced run time; that the output check rejects a
wrong plan size; and that the benchmark exits non-zero without a result
where there are no tqst sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import run
import tracing
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRATCH = run.OUT / "smoke"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def run_benchmark(workload: str, trace: int, cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [*BENCH["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_layers(workload: str, m: dict[str, float]) -> None:
    """Invariants of `tqst run` that hold only if every wrapper fired."""
    check(m["mle.nit"] > 0 and m["mle.nfev"] > 0 and m["mle.params"] > 0,
          f"{workload}: the minimize wrapper did not fire")
    check(m["mle.records"] > 0 and m["core.product_ket_calls"] == m["mle.records"],
          f"{workload}: {m['core.product_ket_calls']} product_ket calls for "
          f"{m['mle.records']} records")
    # every kept pair is measured as two parts, each one expectation and one projector
    kept = 2 * m["threshold.pairs_kept"]
    check(kept > 0 and m["core.expectation_calls"] == kept
          and m["projectors.projector_for_calls"] == kept,
          f"{workload}: {m['core.expectation_calls']} expectation and "
          f"{m['projectors.projector_for_calls']} projector_for calls for {kept} pair parts")
    check(m["core.validate_density_calls"] > 0 and m["metrics.root_fidelity_calls"] > 0
          and m["metrics.numerical_rank_calls"] > 0 and m["core.rho_json_mib"] > 0,
          f"{workload}: a metrics or core wrapper did not fire")
    # threshold.estimate runs only for --threshold auto, so only with replicas
    auto = workloads.WORKLOADS[workload].replicas > 0
    silent = [name for name, value in m.items()
              if name.endswith("_s") and name != "trace.overhead_s"
              and (name != "threshold.estimate_s" or auto) and not value > 0]
    check(not silent, f"{workload}: no time recorded in {silent}")
    check(auto or m["threshold.estimate_s"] == 0,
          f"{workload}: threshold.estimate ran without --threshold auto")
    layers = sum(m[f"{layer}.self_s"] for layer in ("cli", *tracing.LAYERS))
    check(abs(layers - m["trace.run_s"]) <= 1e-9 * max(m["trace.run_s"], 1.0),
          f"{workload}: self times add to {layers}, traced run_s is {m['trace.run_s']}")


def check_mode(workload: str, trace: int) -> None:
    code, lines = run_benchmark(workload, trace)
    check(code == 0 and lines, f"{workload} trace {trace} exited {code}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace {trace}: {result['failed']} of {result['attempted']} failed")
    named = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    got = result["metrics"]
    check({m["name"]: m["unit"] for m in named} == {k: v["unit"] for k, v in got.items()},
          f"{workload} trace {trace}: metric names or units differ from BENCHMARK.json")
    check(all(isinstance(v["value"], (int, float)) for v in got.values()), "non-numeric value")
    if trace:
        check_layers(workload, {k: v["value"] for k, v in got.items()})
    print(f"ok: {workload} trace {trace}: {len(got)} metrics, "
          f"{result['attempted']} invocations", flush=True)


def check_rejects_wrong_plan_size() -> None:
    run.pin_blas_threads()
    tqst = run.import_tqst()
    workload = workloads.WORKLOADS["w6_conventional"]
    out = SCRATCH / "check"
    shutil.rmtree(out, ignore_errors=True)
    code, stdout, _, _ = run.invoke(tqst, workloads.run_args(workload, [], out))
    with run.Checker() as checker:
        check(checker(workload.name, code, stdout, out) == [],
              "a correct invocation failed the output check")
        summary = json.loads(stdout)
        summary["measurements"] += 2
        problems = checker(workload.name, code, json.dumps(summary), out)
        check(any("plan size" in p for p in problems),
              "a wrong plan size passed the output check")
        check(checker(workload.name, 3, stdout, out) != [],
              "a non-zero exit code passed the output check")
    print("ok: the output check rejects a wrong plan size and a non-zero exit", flush=True)


def check_fails_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_benchmark(BENCH["workloads"][0]["name"], 0, cwd=bare)
    check(code != 0, "the benchmark succeeded without tqst sources")
    check(not any(line.startswith("{") for line in lines), "a result was printed anyway")
    shutil.rmtree(bare)
    print(f"ok: without tqst sources the benchmark exits {code} and prints no result")


def main() -> None:
    for workload in BENCH["workloads"]:
        for trace in (0, 1):
            check_mode(workload["name"], trace)
    check_rejects_wrong_plan_size()
    check_fails_without_sources()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
