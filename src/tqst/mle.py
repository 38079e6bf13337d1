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
from typing import NamedTuple

import numpy as np

from .core import basis_word, density, product_ket, read_table, validate_word, write_table

EPSILON = 1e-9  # relative floor for model counts n_K
JITTER = 1e-3  # scale of the random start off the measured diagonal


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


def basis_records(counts: np.ndarray, shots: int) -> list[CountRecord]:
    """The 2**n computational-basis records of one diagonal round, in basis order."""
    n = len(counts).bit_length() - 1
    return [CountRecord(basis_word(k, n), count, shots) for k, count in enumerate(counts.tolist())]


@dataclass(frozen=True)
class MleOptions:
    parametrization: str = "full"  # "full" or "low_rank"
    rank: int = 1
    max_iterations: int = 5000
    gradient_tolerance: float = 1e-6
    seed: int | None = None

    def __post_init__(self):
        if self.parametrization not in ("full", "low_rank"):
            raise ValueError("parametrization must be 'full' or 'low_rank'")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.parametrization == "full" and self.rank != 1:
            raise ValueError(f"rank {self.rank} needs parametrization 'low_rank', not 'full'")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= self.gradient_tolerance < math.inf:
            raise ValueError(f"gradient_tolerance must be finite and >= 0, got {self.gradient_tolerance}")


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
        return density(self.factor)


class _Bundle:
    """Records unpacked to arrays: observed counts, shots, and the projector
    kets as the rows of a CSR matrix ``kets`` (m x 2**n) with its conjugate
    transpose ``kets_h``.  A product ket has 2**(number of D/A/R/L letters)
    nonzeros, and only those are stored."""

    def __init__(self, records: list[CountRecord]):
        if not records:
            raise ValueError("no records given")
        n = len(records[0].projector)
        for rec in records:
            if len(rec.projector) != n:
                raise ValueError("records mix qubit counts")
        from scipy import sparse  # loaded at the first fit, not at import

        self.n = n
        self.dim = 2**n
        columns, values = [], []
        for rec in records:
            ket = product_ket(rec.projector)
            nonzero = np.flatnonzero(ket)
            columns.append(nonzero)
            values.append(ket[nonzero])
        indptr = np.concatenate(([0], np.cumsum([c.size for c in columns])))
        self.kets = sparse.csr_array(
            (np.concatenate(values), np.concatenate(columns), indptr),
            shape=(len(records), self.dim),
        )
        self.kets_h = self.kets.conj().T.tocsr()
        self.observed = np.array([rec.observed for rec in records], dtype=float)
        self.shots = np.array([rec.shots for rec in records], dtype=float)


class _Layout(NamedTuple):
    """How F is packed into real parameters: its entries at the flat positions
    ``real`` first, then those at ``complex`` as (re, im) pairs; the rest are zero."""

    shape: tuple[int, int]
    real: np.ndarray
    complex: np.ndarray | slice
    size: int


def _layout(dim: int, options: MleOptions) -> _Layout:
    """``full``: the real diagonal, then the strict upper triangle in
    row-major order.  ``low_rank``: every entry of the r x dim factor."""
    if options.parametrization == "full":
        rows, cols = np.triu_indices(dim, 1)
        return _Layout((dim, dim), np.arange(dim) * (dim + 1), rows * dim + cols, dim * dim)
    return _Layout((options.rank, dim), np.arange(0), slice(None), 2 * options.rank * dim)


def _build_factor(params: np.ndarray, layout: _Layout) -> np.ndarray:
    if params.size != layout.size:
        raise ValueError(f"expected {layout.size} parameters, got {params.size}")
    k = layout.real.size
    f = np.zeros(layout.shape[0] * layout.shape[1], dtype=complex)
    f[layout.real] = params[:k]
    # a complex128 array is its (re, im) float64 pairs in memory
    f[layout.complex] = params[k:].view(complex)
    return f.reshape(layout.shape)


def _factor_params(f: np.ndarray, layout: _Layout) -> np.ndarray:
    flat = np.ascontiguousarray(f).reshape(-1)
    return np.concatenate((flat[layout.real].real, flat[layout.complex].view(float)))


def _evaluate(params, bundle, layout):
    """The likelihood and its gradient with respect to the parameters."""
    f = _build_factor(np.ascontiguousarray(params, dtype=float), layout)
    tau = float(np.real(np.vdot(f, f)))
    if tau <= 0.0 or not math.isfinite(tau):
        raise ValueError("all-zero parameters: trace normalization undefined")

    # w_K = F psi_K for all records at once, over the kets' nonzeros only
    w = bundle.kets @ f.T
    u = np.einsum("kr,kr->k", w, w.conj()).real
    model = bundle.shots * (u / tau)
    floor = EPSILON * bundle.shots
    floored = model < floor
    n_eff = np.where(floored, floor, model)
    value = float(np.sum((n_eff - bundle.observed) ** 2 / (4.0 * n_eff)))

    dldn = 0.25 * (1.0 - (bundle.observed / n_eff) ** 2)
    dldn[floored] = 0.0  # flat region of the floor
    alpha = dldn * bundle.shots / tau
    c = (bundle.kets_h @ (w * alpha[:, None])).T
    scale = float(np.sum(alpha * u) / tau)
    # packing the complex factor-space gradient reuses the parameter layout
    return value, _factor_params(2.0 * (c - scale * f), layout)


def likelihood(params: np.ndarray, records: list[CountRecord], options: MleOptions = MleOptions()) -> float:
    """Gaussian negative log-likelihood of the parametrized state."""
    bundle = _Bundle(records)
    return _evaluate(params, bundle, _layout(bundle.dim, options))[0]


def gradient(params: np.ndarray, records: list[CountRecord], options: MleOptions = MleOptions()) -> np.ndarray:
    """Analytic gradient of :func:`likelihood` with respect to the parameters."""
    bundle = _Bundle(records)
    return _evaluate(params, bundle, _layout(bundle.dim, options))[1]


def _initial_params(bundle: _Bundle, layout: _Layout, options: MleOptions) -> np.ndarray:
    """Start from the measured diagonal, with jitter to break the saddle at
    exactly-diagonal points.  The diagonal records are the kets with one nonzero:
    an H/V word is a basis state, and each D/A/R/L letter doubles the support."""
    kets = bundle.kets
    basis = np.flatnonzero(np.diff(kets.indptr) == 1)
    probs = np.full(bundle.dim, -1.0)
    probs[kets.indices[kets.indptr[basis]]] = bundle.observed[basis] / bundle.shots[basis]
    if (probs < 0).any():
        missing = int(np.flatnonzero(probs < 0)[0])
        raise ValueError(
            f"records must include all {bundle.dim} diagonal projectors; "
            f"missing {basis_word(missing, bundle.n)!r}"
        )
    amp = np.sqrt(np.maximum(probs, EPSILON))
    f = np.zeros(layout.shape, dtype=complex)
    if options.parametrization == "full":
        np.fill_diagonal(f, amp)
        jittered = slice(layout.real.size, None)  # the off-diagonal parameters
    else:
        f[0] = amp
        jittered = slice(None)
    params = _factor_params(f, layout)
    rng = np.random.default_rng(options.seed)
    params[jittered] += rng.normal(scale=JITTER, size=params[jittered].size)
    return params


def minimize(fun, x0, *args, **kwargs):
    """scipy's ``minimize``, imported on the first call so that importing tqst
    does not load scipy.  :func:`reconstruct` calls it through this module's
    global, the hook a tracer can replace."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, *args, **kwargs)


def reconstruct(records: list[CountRecord], options: MleOptions = MleOptions()) -> ReconstructionResult:
    """Reconstruct a physical density matrix from count records.

    The records must include every computational-basis projector: their
    frequencies seed the diagonal of the starting point.  Non-convergence is
    reported through ``converged`` on the result, not raised.
    """
    start = time.perf_counter()
    bundle = _Bundle(records)
    layout = _layout(bundle.dim, options)
    x0 = _initial_params(bundle, layout, options)
    res = minimize(
        _evaluate,
        x0,
        args=(bundle, layout),
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": options.max_iterations,
            "maxfun": 50 * options.max_iterations,
            "gtol": options.gradient_tolerance,
            "ftol": 1e-16,
        },
    )
    f = _build_factor(res.x, layout)
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
    """Read counts, rejecting duplicate projector words, words whose length
    differs from the first row's, and counts that are not plain decimals."""
    _, rows = read_table(path, COUNTS_COLUMNS)
    n = len(rows[0][1][0])  # letters of the first row's word
    records = {}
    try:
        for line, (word, observed, shots) in rows:
            if word in records:
                raise ValueError(f"duplicate projector word {word!r}")
            if len(word) != n:
                raise ValueError(f"{len(word)}-qubit word {word!r} after {n}-qubit words")
            if not (observed.isdecimal() and shots.isdecimal()):
                raise ValueError(f"expected decimal counts, got '{observed},{shots}'")
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
