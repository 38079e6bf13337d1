"""Command-line pipeline: plan, simulate, reconstruct, and compare states.

Every subcommand does one thing and exchanges data through files (CSV for
plans and counts, JSON for factored density matrices), so pipelines can be
decomposed and resumed.  All randomness flows from a single seed, settable
per command or through the TQST_SEED environment variable.  Exit status is
0 on success, 2 on invalid input or a failed allocation, and 3 when the
reconstruction did not converge; errors are emitted as JSON on standard error.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import core, metrics, mle, projectors, settings as settings_mod, simulator, threshold

STATE_NAMES = ("w", "ghz", "colorcode0", "colorcode1", "random")


def _target_factor(state: str, n: int | None, filling: float | None,
                   seed: int | None) -> tuple[np.ndarray, int]:
    if filling is not None and state != "random":
        raise ValueError("--filling is read only with --state random")
    if state in ("colorcode0", "colorcode1"):
        if n not in (None, 7):
            raise ValueError(f"{state} is a 7-qubit state, got --n {n}")
        return simulator.color_code_state(int(state[-1])), 7
    if n is None:
        raise ValueError(f"--n is required for state {state!r}")
    if state == "random":
        return simulator.random_filled_state(n, 0.5 if filling is None else filling, seed), n
    return {"w": simulator.w_state, "ghz": simulator.ghz_state}[state](n), n


def _check_threshold(spec: str, run_files, ideal_file=None) -> float | None:
    """The numeric threshold in [0, 1], or None for 'auto' with at least two
    replicas; anything else, or replicas or an ideal diagonal that a numeric
    threshold would ignore, raises before a command samples or writes."""
    if spec == "auto":
        if len(run_files) < 2:
            raise ValueError("--threshold auto needs at least two --run-file replicas")
        return None
    if run_files or ideal_file is not None:
        raise ValueError("--run-file and --ideal are read only with --threshold auto")
    return threshold.check_threshold(float(spec))


def _resolve_threshold(t: float | None, ideal_diag, run_files, n: int) -> tuple[float, dict | None]:
    """A checked numeric threshold as it is, or the estimate for 'auto' (None)."""
    if t is not None:
        return t, None
    if ideal_diag is None:
        raise ValueError("--threshold auto needs an ideal diagonal")
    runs = [threshold.read_diagonal_csv(f) for f in run_files]
    est = threshold.estimate_threshold(ideal_diag, runs, n, run_files)
    return est.threshold, asdict(est)


def _emit(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2))


state_option = click.option("--state", type=click.Choice(STATE_NAMES), required=True)
n_option = click.option("--n", type=int, default=None, help="Qubit count.")
filling_option = click.option(
    "--filling", type=float, default=None,
    help="Diagonal filling fraction, read only with --state random (default 0.5).",
)
seed_option = click.option(
    "--seed", type=click.IntRange(min=0), default=None, envvar="TQST_SEED",
    help="Seed for all randomness (default: TQST_SEED).",
)
lambda_option = click.option(
    "--lambda", "lam", type=float, default=0.0, show_default=True,
    help="Depolarizing noise strength.",
)
exact_option = click.option(
    "--exact", is_flag=True, help="Rounded expectations instead of shot sampling."
)
shots_option = click.option("--shots", type=click.IntRange(min=1), default=10_000, show_default=True)
mle_options = [
    click.option(
        "--parametrization", type=click.Choice(["full", "low_rank"]),
        default="full", show_default=True,
    ),
    click.option("--rank", type=int, default=1, show_default=True,
                 help="Factor rank for --parametrization low_rank."),
    click.option("--max-iterations", type=int, default=5000, show_default=True),
    click.option("--gradient-tolerance", type=float, default=1e-6, show_default=True),
]


def add_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


@click.group()
def cli():
    """Threshold quantum state tomography pipeline."""


@cli.command()
@state_option
@n_option
@filling_option
@click.option("--threshold", "threshold_spec", required=True,
              help="Threshold in [0, 1], or 'auto' to estimate from --run-file replicas.")
@click.option("--run-file", "run_files", multiple=True, type=click.Path(exists=True),
              help="Noisy diagonal CSV replicas for --threshold auto.")
@shots_option
@seed_option
@lambda_option
@exact_option
@add_options(mle_options)
@click.option("--out", type=click.Path(file_okay=False), default=".", show_default=True)
def run(state, n, filling, threshold_spec, run_files, shots, seed, lam, exact,
        parametrization, rank, max_iterations, gradient_tolerance, out):
    """Full pipeline: diagonal, threshold, plan, measurements, reconstruction."""
    t = _check_threshold(threshold_spec, run_files)
    seed = simulator.resolve_seed(seed)
    target, n = _target_factor(state, n, filling, seed)
    noise = simulator.NoiseModel(lam, sampling="exact" if exact else "multinomial", seed=seed)
    options = mle.MleOptions(parametrization, rank, max_iterations, gradient_tolerance, seed)
    # the estimate needs only the ideal diagonal and the replicas, so
    # unreadable or wrong-length replicas fail before --out is created
    ideal = simulator.populations(target)
    t, estimate_info = _resolve_threshold(t, ideal, run_files, n)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)

    diag_record = simulator.sample_diagonal(target, shots, noise)
    threshold.write_diagonal_csv(outdir / "diagonal.csv", diag_record)

    plan = threshold.select_offdiagonal(diag_record, t)
    threshold.write_plan_csv(outdir / "plan.csv", plan)

    records = simulator.sample_counts(target, plan, diag_record, noise)
    mle.write_counts_csv(outdir / "counts.csv", records, diag_record)

    plan_settings = settings_mod.settings_for_plan(plan)
    settings_mod.write_settings_csv(outdir / "settings.csv", plan_settings)

    result = mle.reconstruct(records, options, diag_record)
    core.save_density(outdir / "rho.json", result.state)
    mle.write_diagnostics(outdir / "diagnostics.json", result)

    report = metrics.compare(result.state, core.BlockState.of_factor(target))
    p = diag_record.probabilities()
    report["fidelity_bound"] = metrics.fidelity_bound(p, t, report["rank_target"])
    min_kept_bound = float(np.sqrt(p[plan.pairs].prod(axis=1)).min()) if len(plan.pairs) else None
    (outdir / "fidelity.json").write_text(json.dumps(report, indent=2))

    _emit({
        "n_qubits": n,
        "state": state,
        "threshold": t,
        "threshold_estimate": estimate_info,
        "measurements": plan.size,
        "pairs_kept": len(plan.pairs),
        "min_kept_bound": min_kept_bound,
        "settings": len(plan_settings),
        "converged": result.converged,
        "objective": result.final_objective,
        "iterations": result.iterations,
        "fidelity": report["fidelity"],
        "fidelity_bound": report["fidelity_bound"],
        "seed": seed,
        "out": str(outdir),
    })
    if not result.converged:
        _fail({"error": "reconstruction did not converge", "iterations": result.iterations}, 3)


@cli.command()
@state_option
@n_option
@filling_option
@lambda_option
@shots_option
@seed_option
@exact_option
@click.option("--plan", "plan_file", type=click.Path(exists=True), default=None,
              help="Plan CSV to sample; defaults to the diagonal-only plan.")
@click.option("--out", type=click.Path(file_okay=False), default=".", show_default=True)
def simulate(state, n, filling, lam, shots, seed, exact, plan_file, out):
    """Sample synthetic counts for a target state; writes diagonal and counts CSVs."""
    seed = simulator.resolve_seed(seed)
    target, n = _target_factor(state, n, filling, seed)
    plan = threshold.read_plan_csv(plan_file) if plan_file else threshold.diagonal_plan(n)
    noise = simulator.NoiseModel(lam, sampling="exact" if exact else "multinomial", seed=seed)
    diag_record = simulator.sample_diagonal(target, shots, noise)
    records = simulator.sample_counts(target, plan, diag_record, noise)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    threshold.write_diagonal_csv(outdir / "diagonal.csv", diag_record)
    mle.write_counts_csv(outdir / "counts.csv", records, diag_record)
    _emit({
        "n_qubits": n,
        "state": state,
        "measurements": plan.size,
        "shots": shots,
        "seed": seed,
        "out": str(outdir),
    })


@cli.command()
@click.option("--diagonal", "diagonal_file", type=click.Path(exists=True), required=True)
@click.option("--threshold", "threshold_spec", required=True)
@click.option("--ideal", "ideal_file", type=click.Path(exists=True), default=None,
              help="Noiseless diagonal CSV, needed for --threshold auto.")
@click.option("--run-file", "run_files", multiple=True, type=click.Path(exists=True))
@click.option("--out", type=click.Path(dir_okay=False), default="plan.csv", show_default=True)
def plan(diagonal_file, threshold_spec, ideal_file, run_files, out):
    """Select off-diagonal measurements from a measured diagonal."""
    t = _check_threshold(threshold_spec, run_files, ideal_file)
    diag_record = threshold.read_diagonal_csv(diagonal_file)
    ideal = None
    if ideal_file is not None:
        ideal = threshold.read_diagonal_csv(ideal_file).probabilities()
    t, estimate_info = _resolve_threshold(t, ideal, run_files, diag_record.n)
    selected = threshold.select_offdiagonal(diag_record, t)
    threshold.write_plan_csv(out, selected)
    _emit({
        "n_qubits": selected.n,
        "threshold": t,
        "threshold_estimate": estimate_info,
        "measurements": selected.size,
        "out": str(out),
    })


@cli.command()
@click.option("--counts", "counts_file", type=click.Path(exists=True), required=True)
@click.option("--diag", "--diagonal", "diagonal_file", type=click.Path(exists=True), default=None,
              help="Diagonal CSV supplying basis counts missing from the counts file.")
@seed_option
@add_options(mle_options)
@click.option("--out", type=click.Path(file_okay=False), default=".", show_default=True)
def reconstruct(counts_file, diagonal_file, seed, parametrization, rank,
                max_iterations, gradient_tolerance, out):
    """Maximum-likelihood reconstruction from measured counts."""
    seed = simulator.resolve_seed(seed)
    options = mle.MleOptions(parametrization, rank, max_iterations, gradient_tolerance, seed)
    records = mle.read_counts_csv(counts_file)
    diag_record = None
    if diagonal_file is not None:
        diag_record = threshold.read_diagonal_csv(diagonal_file)
        n = len(records[0].projector)
        if diag_record.n != n:
            raise ValueError(f"{diagonal_file} is a {diag_record.n}-qubit diagonal, "
                             f"but {counts_file} has {n}-qubit projector words")
    # the fit puts the round's basis states first, as `tqst run` does
    result = mle.reconstruct(records, options, diag_record)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    core.save_density(outdir / "rho.json", result.state)
    mle.write_diagnostics(outdir / "diagnostics.json", result)
    _emit({
        "records": result.records,
        "converged": result.converged,
        "objective": result.final_objective,
        "iterations": result.iterations,
        "gradient_norm": result.gradient_norm,
        "seed": seed,
        "out": str(outdir),
    })
    if not result.converged:
        _fail({"error": "reconstruction did not converge", "iterations": result.iterations}, 3)


@cli.command()
@click.argument("rho_file", type=click.Path(exists=True))
@click.argument("sigma_file", type=click.Path(exists=True))
def fidelity(rho_file, sigma_file):
    """Fidelity, trace distance, purity, and rank of two density-matrix files."""
    report = metrics.compare(core.load_state(rho_file), core.load_state(sigma_file))
    report["purity_a"] = report.pop("purity_reconstructed")
    report["purity_b"] = report.pop("purity_target")
    report["rank_a"] = report.pop("rank_reconstructed")
    report["rank_b"] = report.pop("rank_target")
    _emit(report)


@cli.command()
@click.option("--diagonal", "diagonal_file", type=click.Path(exists=True), required=True)
@click.option("--threshold", "t", type=float, required=True)
@click.option("--rank", type=int, default=1, show_default=True,
              help="Rank of the ideal state.")
def bound(diagonal_file, t, rank):
    """Fidelity lower bound implied by a diagonal and a threshold."""
    diag_record = threshold.read_diagonal_csv(diagonal_file)
    value = metrics.fidelity_bound(diag_record.probabilities(), t, rank)
    _emit({"threshold": t, "rank": rank, "fidelity_bound": value})


@cli.command("settings")
@click.option("--plan", "plan_file", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Optional settings CSV output path.")
def settings_cmd(plan_file, out):
    """Deduplicated Pauli settings needed to measure a plan."""
    selected = threshold.read_plan_csv(plan_file)
    words = settings_mod.settings_for_plan(selected)
    if out is not None:
        settings_mod.write_settings_csv(out, words)
    _emit({"measurements": selected.size, "settings": len(words),
           "first": words[:8], "out": out})


@cli.command()
@click.option("--n", type=int, required=True)
def completeness(n):
    """Invertibility check of the full projector set's Gram matrix."""
    report = projectors.completeness_check(n)
    _emit({
        "n_qubits": report.n,
        "order": report.order,
        "min_singular_value": report.min_singular_value,
        "invertible": report.invertible,
    })


def _fail(payload: dict, code: int):
    click.echo(json.dumps(payload), err=True)
    sys.exit(code)


def main():
    try:
        cli.main(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(130)
    except click.ClickException as exc:
        _fail({"error": exc.format_message(), "type": exc.__class__.__name__}, 2)
    except (ValueError, core.TomographyError, OSError, MemoryError) as exc:
        _fail({"error": str(exc), "type": exc.__class__.__name__}, 2)


if __name__ == "__main__":
    main()
