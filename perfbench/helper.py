"""The benchmark's child processes, which keep the benchmark's own work out of
the measured process's ``peak_rss_mib``.

    python3 perfbench/helper.py setup <workload> <seed> <dir>
        A fresh interpreter imports tqst and generates the workload's input
        files under <dir>, then prints their paths as one JSON list.  The
        parent times the whole child as one set-up.

    python3 perfbench/helper.py check
        Reads one JSON request a line from standard input, ``{"workload",
        "code", "stdout", "out"}``, and answers each with one JSON line,
        ``{"problems": [...]}`` (see workloads.check_outputs).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def set_up(tqst, name: str, seed: int, work: Path) -> list[str]:
    workload = workloads.WORKLOADS[name]
    files = []
    for r, replica_seed in enumerate(workload.replica_seeds(seed)):
        out = work / f"replica{r}"
        code, _, err, _ = run.invoke(tqst, workloads.replica_args(workload, replica_seed, out))
        if code != 0:
            raise run.BenchmarkError(f"tqst simulate for replica {replica_seed} exited {code}: {err}")
        files.append(str(out / "diagonal.csv"))
    return files


def check(tqst, requests, answers) -> None:
    for line in requests:
        req = json.loads(line)
        problems = workloads.check_outputs(workloads.WORKLOADS[req["workload"]], req["code"],
                                           req["stdout"], Path(req["out"]), tqst)
        answers.write(json.dumps({"problems": problems}) + "\n")
        answers.flush()


def main(argv: list[str]) -> int:
    run.pin_blas_threads()
    tqst = run.import_tqst()
    if argv[0] == "setup":
        print(json.dumps(set_up(tqst, argv[1], int(argv[2]), Path(argv[3]))), flush=True)
    else:
        # answers go to the real stdout; anything tqst prints goes to stderr
        answers, sys.stdout = sys.stdout, sys.stderr
        check(tqst, sys.stdin, answers)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
