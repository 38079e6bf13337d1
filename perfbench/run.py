"""Benchmark of `tqst run`: seeded workloads, output checks, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload w6_conventional --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

One run drives `tqst run` in-process through its click entry point, on the
inputs its workload generates from ``--seed``, for about ``--seconds``
seconds.  Every invocation's outputs are checked; one that fails the check
counts as failed.  The check and the set-ups run in child processes
(helper.py), so ``peak_rss_mib``, the peak of this process, is that of
`tqst run` and not the benchmark's own.  With ``--trace 0`` the run reports
the end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
invocations and reports the per-layer metrics (see tracing.py).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in its own process.

Outputs go under ``.perfbench/`` at the repository root: the results of each
run, and the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
#: Set-ups per run; setup_s is their median.
SETUPS = 5
#: BLAS threads per process.  On a 2-core machine, OpenBLAS at 2 threads made
#: a noiseless n = 6 full-parametrization fit 6x slower (10.2 s against 1.7 s
#: per invocation) and less steady, so every workload runs at one thread.
BLAS_THREADS = 1


class BenchmarkError(Exception):
    """The benchmark cannot run here; exit with code 2 and no result."""


def load_catalog() -> dict:
    """BENCHMARK.json: the workloads' names and reasons, the metrics' names
    and units."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"no {path.name} at {ROOT}")
    return json.loads(path.read_text())


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_tqst():
    if not (SRC / "tqst" / "__init__.py").is_file():
        raise BenchmarkError(f"no tqst sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tqst
    import tqst.cli

    if not Path(tqst.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"imported tqst from {tqst.__file__}, not from {SRC}")
    return tqst


def invoke(tqst, argv: list[str]) -> tuple[int, str, str, float]:
    """One `tqst` command through its console entry point: exit code, stdout,
    stderr and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    saved_argv = sys.argv
    sys.argv = ["tqst", *argv]
    code = 0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            tqst.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is a failed invocation, not a failed benchmark
        code = 1
        err.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - start
        sys.argv = saved_argv
    return code, out.getvalue(), err.getvalue(), wall


def set_up(name: str, seed: int, work: Path) -> tuple[float, list[Path]]:
    """One set-up, timed from outside: a fresh interpreter starts, imports
    tqst and generates the workload's input files.  Returns its seconds and
    the generated replica diagonals."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "helper.py"), "setup", name, str(seed), str(work)],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up of {name} exited {proc.returncode}")
    return seconds, [Path(f) for f in json.loads(proc.stdout.splitlines()[-1])]


class Checker:
    """The output check (workloads.check_outputs) in a child process of its
    own, so that loading and validating ``rho.json`` does not count in this
    process's peak memory."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "helper.py"), "check"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self, name: str, code: int, stdout: str, out: Path) -> list[str]:
        request = {"workload": name, "code": code, "stdout": stdout, "out": str(out)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise BenchmarkError(f"the output check exited {self.proc.wait()}")
        return json.loads(answer)["problems"]

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label.

    Below 11 samples no such percentile exists; the maximum is reported
    instead, labelled so."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1], f"max of {len(ordered)} samples (fewer than 11)"
    k = len(ordered) - 11
    return ordered[k], f"p{100 * (k + 1) / len(ordered):.1f} of {len(ordered)} samples"


def environment(tqst) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tqst").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tqst": tqst.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS this process has loaded, by file name."""
    found = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[Path(path).name] = int(getattr(lib, symbol)())
                break
    return found


def measure(tqst, workload, seconds, trace, tracer, checker, run_files, out) -> list[dict]:
    """Invoke `tqst run` until one more invocation would end after
    ``seconds``; check each invocation's outputs."""
    samples = []
    start = previous = time.perf_counter()
    cycle = 0.0
    i = 0
    # A cycle is one invocation and its check.  A traced run alternates
    # untraced and traced invocations, and ends on a traced one.
    while previous - start + cycle <= seconds or i < (2 if trace else 1) or (trace and i % 2):
        traced = trace and i % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        argv = workloads.run_args(workload, run_files, out)
        if traced:
            tracer.invocation = i
            tracer.install(tqst)
            root = tracer.open("cli.main")
        try:
            code, stdout, stderr, wall = invoke(tqst, argv)
        finally:
            if traced:
                tracer.close(root)
                tracer.uninstall()
        problems = checker(workload.name, code, stdout, out)
        sample = {"invocation": i, "traced": traced,
                  "wall_s": wall, "exit_code": code, "problems": problems}
        with contextlib.suppress(ValueError):
            summary = json.loads(stdout)
            sample.update({key: summary.get(key) for key in
                           ("measurements", "settings", "fidelity", "iterations")})
        if problems:
            sample["stderr"] = stderr[-2000:]
        if traced:
            sample["layers"], optimizer = tracing.invocation_metrics(tracer.spans, root)
            sample.update(optimizer)
        samples.append(sample)
        now = time.perf_counter()
        cycle, previous = now - previous, now
        print(f"  invocation {i:3d}  {'traced  ' if traced else ''}"
              f"{wall:9.4f} s  {'ok' if not problems else '; '.join(problems)}", flush=True)
        i += 1
    return samples


def end_to_end_metrics(samples: list[dict], setups: list[float]) -> tuple[dict, dict]:
    walls = [s["wall_s"] for s in samples]
    run_tail, tail_note = tail(walls)

    def median_of(key):
        values = [s[key] for s in samples if isinstance(s.get(key), (int, float))]
        return statistics.median(values) if values else 0.0

    metrics = {
        "run_s": statistics.median(walls),
        "run_tail_s": run_tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fidelity": median_of("fidelity"),
        "measurements": median_of("measurements"),
        "settings": median_of("settings"),
    }
    notes = {"run_s": f"median of {len(walls)} invocations", "run_tail_s": tail_note,
             "setup_s": f"median of {len(setups)} set-ups"}
    return metrics, notes


def layer_metrics(samples: list[dict]) -> tuple[dict, dict]:
    """Means over the traced invocations, so the self times still add up."""
    traced = [s["layers"] for s in samples if s["traced"]]
    untraced = [s["wall_s"] for s in samples if not s["traced"]]
    metrics = {name: statistics.fmean(m[name] for m in traced) for name in traced[0]}
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.fmean(untraced)
    return metrics, {"per-layer values": f"means over {len(traced)} traced invocations"}


def run_workload(catalog: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_blas_threads()
    tqst = import_tqst()

    workload = workloads.WORKLOADS[name]
    work = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer()
    try:
        setups = []
        for k in range(SETUPS):
            setup_seconds, run_files = set_up(name, seed, work / f"setup{k}")
            setups.append(setup_seconds)
        with Checker() as checker:
            samples = measure(tqst, workload, seconds, trace, tracer, checker, run_files,
                              work / "out")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in catalog[kind]}
    if trace:
        metrics, notes = layer_metrics(samples)
        spans_file = OUT / "spans" / f"{name}-seed{seed}.json"
        tracer.dump(spans_file)
        notes["spans"] = str(spans_file.relative_to(ROOT))
    else:
        metrics, notes = end_to_end_metrics(samples, setups)
    # every set-up and the output check have been waited for
    helpers_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    notes["helpers"] = f"peak resident memory of the benchmark's child processes {helpers_mib:.1f} MiB"

    failed = sum(1 for s in samples if s["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    why = next(w["why"] for w in catalog["workloads"] if w["name"] == name)
    record = {"workload": name, "why": why, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(tqst), "setups_s": setups,
              "helpers_peak_rss_mib": helpers_mib, "notes": notes, "samples": samples,
              **result}
    results_file = OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    results_file.parent.mkdir(parents=True, exist_ok=True)
    results_file.write_text(json.dumps(record, indent=1))

    report(record, trace)
    return result


def report(record: dict, trace: bool) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(trace)}")
    print(f"  why: {record['why']}")
    print(f"  commit {env['commit']}  source {env['source_sha256'][:12]}  nproc {env['nproc']}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"blas {env['blas']} threads {env['blas_threads']}")
    print(f"  failed/attempted: {record['failed']}/{record['attempted']}")
    for key, metric in record["metrics"].items():
        print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']:6s}"
              f"{'  should move: ' + tracing.SHOULD_MOVE[key] if trace else ''}")
    for key, note in record["notes"].items():
        print(f"  note: {key}: {note}")
    if trace:
        m = {k: v["value"] for k, v in record["metrics"].items()}
        run = m["trace.run_s"]
        front = (m["simulator.sample_s"] + m["core.expectation_s"] + m["threshold.select_s"]
                 + m["projectors.projector_for_s"] + m["core.product_ket_s"])
        print(f"  split of traced run_s: mle {m['mle.reconstruct_s'] / run:.1%}, "
              f"metrics {m['metrics.report_s'] / run:.1%}, "
              f"save_density {m['core.save_density_s'] / run:.1%}, "
              f"sampling+planning+words+kets {front / run:.1%}")
        stops = {(s.get("optimizer_status"), s.get("optimizer_message"))
                 for s in record["samples"] if s["traced"]}
        for status, message in sorted(stops, key=str):
            print(f"  optimizer stop (recorded, not compared): status {status}: {message}")


def run_all(catalog: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in catalog["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    try:
        catalog = load_catalog()
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*(w["name"] for w in catalog["workloads"]), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.workload == "all":
            result = run_all(catalog, args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(catalog, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except (BenchmarkError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
