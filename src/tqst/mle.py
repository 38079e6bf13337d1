"""Maximum-likelihood density-matrix reconstruction from projector counts.

The state is parametrized so that positivity and unit trace hold by
construction: rho = F^dag F / tr(F^dag F), where F is either an upper
triangular matrix with a real diagonal (``full``, exactly 4**n real
parameters) or a free r x 2**n complex factor (``low_rank``, 2*r*2**n
parameters, suited to high-purity states).  The Gaussian negative
log-likelihood

    L = sum_K ((n_K - N_K) / (2 sqrt(n_K)))^2,    n_K = shots_K <P_K rho P_K>

is minimized with a quasi-Newton descent using the analytic gradient.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from .core import basis_word, product_ket, read_table, validate_word, word_to_index, write_table


@dataclass(frozen=True)
class CountRecord:
    """One measurement: projector word, observed count, shots."""

    projector: str
    observed: int
    shots: int

    def __post_init__(self):
        validate_word(self.projector)
        if self.shots <= 0:
            raise ValueError("shots must be positive")
        if not 0 <= self.observed <= self.shots:
            raise ValueError(f"observed={self.observed} outside [0, shots={self.shots}]")


@dataclass(frozen=True)
class MleOptions:
    parametrization: str = "full"  # "full" or "low_rank"
    rank: int = 1
    max_iterations: int = 5000
    gradient_tolerance: float = 1e-6
    epsilon: float = 1e-9  # relative floor for model counts n_K
    seed: int | None = None
    jitter: float = 1e-3

    def __post_init__(self):
        if self.parametrization not in ("full", "low_rank"):
            raise ValueError("parametrization must be 'full' or 'low_rank'")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


@dataclass
class ReconstructionResult:
    """The fitted state as its factor: ``factor`` is the fitted F scaled to
    unit Frobenius norm (r x 2**n for ``low_rank``, 2**n x 2**n for ``full``),
    and the density matrix ``rho`` is ``factor^H factor``, formed on first use.
    ``nfev``, ``status`` and ``message`` are scipy's for the minimization."""

    factor: np.ndarray
    final_objective: float
    iterations: int
    nfev: int
    status: int
    message: str
    gradient_norm: float
    parametrization: str
    converged: bool
    wall_time_s: float = 0.0

    @cached_property
    def rho(self) -> np.ndarray:
        return self.factor.conj().T @ self.factor


class _Bundle:
    """Records unpacked to arrays: projector kets, observed counts, shots."""

    def __init__(self, records: list[CountRecord]):
        if not records:
            raise ValueError("no records given")
        n = len(records[0].projector)
        for rec in records:
            if len(rec.projector) != n:
                raise ValueError("records mix qubit counts")
        self.n = n
        self.dim = 2**n
        self.words = [rec.projector for rec in records]
        self.kets = np.array([product_ket(rec.projector) for rec in records])
        self.observed = np.array([rec.observed for rec in records], dtype=float)
        self.shots = np.array([rec.shots for rec in records], dtype=float)


def _param_count(dim: int, options: MleOptions) -> int:
    if options.parametrization == "full":
        return dim * dim
    return 2 * options.rank * dim


def _build_factor(params: np.ndarray, dim: int, options: MleOptions) -> np.ndarray:
    if params.size != _param_count(dim, options):
        raise ValueError(
            f"expected {_param_count(dim, options)} parameters, got {params.size}"
        )
    if options.parametrization == "full":
        f = np.zeros((dim, dim), dtype=complex)
        f[np.diag_indices(dim)] = params[:dim]
        rows, cols = np.triu_indices(dim, 1)
        f[rows, cols] = params[dim::2] + 1j * params[dim + 1 :: 2]
        return f
    v = params[0::2] + 1j * params[1::2]
    return v.reshape(options.rank, dim)


def _factor_params(f: np.ndarray, dim: int, options: MleOptions) -> np.ndarray:
    out = np.empty(_param_count(dim, options))
    if options.parametrization == "full":
        out[:dim] = f[np.diag_indices(dim)].real
        rows, cols = np.triu_indices(dim, 1)
        out[dim::2] = f[rows, cols].real
        out[dim + 1 :: 2] = f[rows, cols].imag
    else:
        out[0::2] = f.real.ravel()
        out[1::2] = f.imag.ravel()
    return out


def _evaluate(params, bundle, options, want_gradient):
    f = _build_factor(np.asarray(params, dtype=float), bundle.dim, options)
    tau = float(np.real(np.vdot(f, f)))
    if tau <= 0.0 or not math.isfinite(tau):
        raise ValueError("all-zero parameters: trace normalization undefined")

    # w_K = F psi_K for all records at once
    w = bundle.kets @ f.T
    u = np.einsum("kr,kr->k", w, w.conj()).real
    model = bundle.shots * (u / tau)
    floor = options.epsilon * bundle.shots
    floored = model < floor
    n_eff = np.where(floored, floor, model)
    value = float(np.sum((n_eff - bundle.observed) ** 2 / (4.0 * n_eff)))
    if not want_gradient:
        return value, None

    dldn = 0.25 * (1.0 - (bundle.observed / n_eff) ** 2)
    dldn[floored] = 0.0  # flat region of the floor
    alpha = dldn * bundle.shots / tau
    c = (w * alpha[:, None]).T @ bundle.kets.conj()
    scale = float(np.sum(alpha * u) / tau)
    # packing the complex factor-space gradient reuses the parameter layout
    return value, _factor_params(2.0 * (c - scale * f), bundle.dim, options)


def likelihood(params: np.ndarray, records: list[CountRecord], options: MleOptions = MleOptions()) -> float:
    """Gaussian negative log-likelihood of the parametrized state."""
    value, _ = _evaluate(params, _Bundle(records), options, want_gradient=False)
    return value


def gradient(params: np.ndarray, records: list[CountRecord], options: MleOptions = MleOptions()) -> np.ndarray:
    """Analytic gradient of :func:`likelihood` with respect to the parameters."""
    _, grad = _evaluate(params, _Bundle(records), options, want_gradient=True)
    return grad


def _initial_params(bundle: _Bundle, options: MleOptions) -> np.ndarray:
    """Start from the measured diagonal, with jitter to break the saddle at
    exactly-diagonal points."""
    dim = bundle.dim
    n = bundle.n
    probs = np.full(dim, -1.0)
    for k, word in enumerate(bundle.words):
        idx = _diag_index(word, n)
        if idx is not None:
            probs[idx] = bundle.observed[k] / bundle.shots[k]
    if (probs < 0).any():
        missing = int(np.flatnonzero(probs < 0)[0])
        raise ValueError(
            f"records must include all {dim} diagonal projectors; "
            f"missing {basis_word(missing, n)!r}"
        )
    amp = np.sqrt(np.maximum(probs, options.epsilon))
    rng = np.random.default_rng(options.seed)
    if options.parametrization == "full":
        f = np.zeros((dim, dim), dtype=complex)
        f[np.diag_indices(dim)] = amp
        params = _factor_params(f, dim, options)
        params[dim:] = rng.normal(scale=options.jitter, size=params.size - dim)
        return params
    v = np.zeros((options.rank, dim), dtype=complex)
    v[0] = amp
    params = _factor_params(v, dim, options)
    return params + rng.normal(scale=options.jitter, size=params.size)


def _diag_index(word: str, n: int) -> int | None:
    if set(word) <= {"H", "V"} and len(word) == n:
        return word_to_index(word)
    return None


def reconstruct(records: list[CountRecord], options: MleOptions = MleOptions()) -> ReconstructionResult:
    """Reconstruct a physical density matrix from count records.

    The records must include every computational-basis projector: their
    frequencies seed the diagonal of the starting point.  Non-convergence is
    reported through ``converged`` on the result, not raised.
    """
    start = time.perf_counter()
    bundle = _Bundle(records)
    x0 = _initial_params(bundle, options)

    def fun(x):
        return _evaluate(x, bundle, options, want_gradient=True)

    res = minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": options.max_iterations,
            "maxfun": 50 * options.max_iterations,
            "gtol": options.gradient_tolerance,
            "ftol": 1e-16,
        },
    )
    f = _build_factor(res.x, bundle.dim, options)
    gnorm = float(np.linalg.norm(res.jac))
    return ReconstructionResult(
        factor=f / math.sqrt(np.real(np.vdot(f, f))),
        final_objective=float(res.fun),
        iterations=int(res.nit),
        nfev=int(res.nfev),
        status=int(res.status),
        message=str(res.message),
        gradient_norm=gnorm,
        parametrization=options.parametrization,
        converged=bool(res.success or gnorm <= options.gradient_tolerance),
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# file formats


COUNTS_COLUMNS = ("projector_word", "observed", "shots")


def write_counts_csv(path: str | Path, records: list[CountRecord]) -> None:
    """Counts CSV: one ``projector_word,observed,shots`` row per record."""
    write_table(path, COUNTS_COLUMNS, ((r.projector, r.observed, r.shots) for r in records))


def read_counts_csv(path: str | Path) -> list[CountRecord]:
    """Read counts, rejecting duplicate projector words."""
    _, rows = read_table(path, COUNTS_COLUMNS)
    records = {}
    try:
        for line, (word, observed, shots) in rows:
            if word in records:
                raise ValueError(f"duplicate projector word {word!r}")
            records[word] = CountRecord(word, int(observed), int(shots))
    except ValueError as exc:
        raise ValueError(f"{path}:{line}: {exc}") from None
    return list(records.values())


def write_diagnostics(path: str | Path, result: ReconstructionResult) -> None:
    Path(path).write_text(
        json.dumps(
            {
                "objective": result.final_objective,
                "iterations": result.iterations,
                "nfev": result.nfev,
                "status": result.status,
                "message": result.message,
                "gradient_norm": result.gradient_norm,
                "wall_time_s": result.wall_time_s,
                "parametrization": result.parametrization,
                "converged": result.converged,
            },
            indent=2,
        )
    )
