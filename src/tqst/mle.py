"""Maximum-likelihood density-matrix reconstruction from projector counts.

The fit follows the threshold: a coherence that no record measures is zero.
The basis states split into the coupled states C, the union of the supports
of the records' superposition words; the isolated states I, outside C with
a nonzero basis count; and the rest, whose zero-count basis records only
add a constant to the objective and are left out.  The fitted state is

    rho = (F^dag F ⊕ diag(d^2)) / tau,    tau = tr(F^dag F) + |d|^2,

so positivity and unit trace hold by construction.  F acts on the columns
C only: an upper triangular matrix with a real diagonal (``full``, |C|**2
real parameters) or a free r x |C| complex factor (``low_rank``, 2*r*|C|
parameters, suited to high-purity states); d holds one real amplitude per
isolated state.  When every state is coupled, as at t = 0, this is the
plain factor over all 2**n columns.  The Gaussian negative log-likelihood

    L = sum_K ((n_K - N_K) / (2 sqrt(n_K)))^2,    n_K = shots_K <P_K rho P_K>

is minimized with a quasi-Newton descent using the analytic gradient.
:func:`likelihood` and :func:`gradient` evaluate the same model, and
``likelihood`` adds the left-out records' constant.
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

from .core import (BlockState, basis_word, density, product_ket, read_table, validate_word,
                   write_table, written)

EPSILON = 1e-9  # relative floor for model counts n_K
JITTER = 1e-3  # scale of the random start off the measured diagonal
#: Line-search steps per L-BFGS-B iteration (scipy's default is 20).  On
#: exact-count fits, whose zero counts put kinks in the objective at the
#: floor, 20 steps ended 14 of 120 seeded `full` W-state fits (n = 3..5; 18
#: with a factor over all columns) in an abnormal line-search stop; 50 ended
#: none.  A fit whose line searches all end within 20 steps takes the same
#: path either way.
LINE_SEARCH_STEPS = 50


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
    """The fitted state as a :class:`~tqst.core.BlockState` of unit trace: the
    factor on the coupled states (r x |C| for ``low_rank``, |C| x |C| for
    ``full``) and the populations of the isolated ones.  The density matrix
    ``rho`` is formed on first use.  ``parameters`` is the number of real
    parameters fitted; ``nfev``, ``status`` and ``message`` are scipy's for
    the minimization."""

    state: BlockState
    final_objective: float
    iterations: int
    nfev: int
    status: int
    message: str
    gradient_norm: float
    parametrization: str
    converged: bool
    parameters: int
    wall_time_s: float = 0.0

    @cached_property
    def rho(self) -> np.ndarray:
        return density(self.state)


class _Bundle:
    """The records unpacked to the block model's arrays, in one pass.

    A record whose product ket has one nonzero is a basis record (an H/V
    word is a basis state, and each D/A/R/L letter doubles the support).
    ``diagonal`` is each basis state's measured frequency, -1 where no
    record measures it.  ``columns`` are the coupled states C, the columns
    hit by the superposition words; ``isolated`` are the basis states
    outside C with a nonzero count.  ``kets`` is the CSR matrix of the
    records on C, restricted to those columns and keeping only their
    nonzeros, and ``kets_h`` its conjugate transpose.  ``observed`` and
    ``shots`` list those records, then the records of the isolated states,
    whose positions in ``isolated`` are ``iso``.  The zero-count basis
    records left over see a model of zero, floored; ``constant`` is their
    share of the objective."""

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
        indices, values = [], []
        for rec in records:
            ket = product_ket(rec.projector)
            nonzero = np.flatnonzero(ket)
            indices.append(nonzero)
            values.append(ket[nonzero])
        sizes = np.array([c.size for c in indices])
        indices, values = np.concatenate(indices), np.concatenate(values)
        observed = np.array([rec.observed for rec in records], dtype=float)
        shots = np.array([rec.shots for rec in records], dtype=float)

        basis = sizes == 1
        state = np.where(basis, indices[np.cumsum(sizes) - sizes], -1)  # of each basis record
        self.diagonal = np.full(self.dim, -1.0)
        self.diagonal[state[basis]] = observed[basis] / shots[basis]
        coupled = np.zeros(self.dim, dtype=bool)
        coupled[indices[np.repeat(~basis, sizes)]] = True  # hit by a superposition word
        populated = np.zeros(self.dim, dtype=bool)
        populated[state[basis & (observed > 0)]] = True
        isolated = populated & ~coupled
        on_coupled = ~basis | coupled[state]
        on_isolated = basis & isolated[state]
        left_out = ~(on_coupled | on_isolated)
        self.constant = float(np.sum(EPSILON * shots[left_out] / 4.0))

        entries = np.repeat(on_coupled, sizes)
        position = np.cumsum(coupled) - 1  # the column of each coupled state in F
        self.kets = sparse.csr_array(
            (values[entries], position[indices[entries]],
             np.concatenate(([0], np.cumsum(sizes[on_coupled])))),
            shape=(int(on_coupled.sum()), int(coupled.sum())),
        )
        self.kets_h = self.kets.conj().T.tocsr()
        self.observed = np.concatenate((observed[on_coupled], observed[on_isolated]))
        self.shots = np.concatenate((shots[on_coupled], shots[on_isolated]))
        self.columns, self.isolated = np.flatnonzero(coupled), np.flatnonzero(isolated)
        self.iso = np.searchsorted(self.isolated, state[on_isolated])


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
    """The likelihood and its gradient with respect to the parameters: F's in
    ``layout``, then the amplitudes d of the bundle's isolated states."""
    params = np.ascontiguousarray(params, dtype=float)
    k = layout.size
    if params.size != k + bundle.isolated.size:
        raise ValueError(f"expected {k + bundle.isolated.size} parameters, got {params.size}")
    f, d = _build_factor(params[:k], layout), params[k:]
    tau = float(np.real(np.vdot(f, f))) + float(d @ d)
    if tau <= 0.0 or not math.isfinite(tau):
        raise ValueError("all-zero parameters: trace normalization undefined")

    # w_K = F psi_K for the records on the coupled states, over the kets' nonzeros only;
    # an isolated state's record sees its own d^2
    w = bundle.kets @ f.T
    u = np.einsum("kr,kr->k", w, w.conj()).real
    if d.size:
        u = np.concatenate((u, d[bundle.iso] ** 2))
    model = bundle.shots * (u / tau)
    floor = EPSILON * bundle.shots
    floored = model < floor
    n_eff = np.where(floored, floor, model)
    value = float(np.sum((n_eff - bundle.observed) ** 2 / (4.0 * n_eff)))

    dldn = 0.25 * (1.0 - (bundle.observed / n_eff) ** 2)
    dldn[floored] = 0.0  # flat region of the floor
    alpha = dldn * bundle.shots / tau
    m = w.shape[0]
    c = (bundle.kets_h @ (w * alpha[:m, None])).T
    scale = float(np.sum(alpha * u) / tau)
    # packing the complex factor-space gradient reuses the parameter layout
    grad = _factor_params(2.0 * (c - scale * f), layout)
    if d.size:
        lone = np.bincount(bundle.iso, alpha[m:], minlength=d.size)
        grad = np.concatenate((grad, 2.0 * d * (lone - scale)))
    return value, grad


def likelihood(params: np.ndarray, records: list[CountRecord], options: MleOptions = MleOptions()) -> float:
    """The objective :func:`reconstruct` minimizes, with the left-out records'
    constant: the parameters are F's over the coupled states, packed as in
    :func:`_layout`, then the isolated states' amplitudes."""
    bundle = _Bundle(records)
    return _evaluate(params, bundle, _layout(bundle.columns.size, options))[0] + bundle.constant


def gradient(params: np.ndarray, records: list[CountRecord], options: MleOptions = MleOptions()) -> np.ndarray:
    """Analytic gradient of :func:`likelihood` with respect to the parameters."""
    bundle = _Bundle(records)
    return _evaluate(params, bundle, _layout(bundle.columns.size, options))[1]


def _initial_params(bundle: _Bundle, layout: _Layout, options: MleOptions) -> np.ndarray:
    """Start from the measured diagonal, with jitter on F's parameters to break
    the saddle at exactly-diagonal points; the isolated amplitudes start at
    the square roots of their frequencies."""
    probs = bundle.diagonal
    if (probs < 0).any():
        missing = int(np.flatnonzero(probs < 0)[0])
        raise ValueError(
            f"records must include all {bundle.dim} diagonal projectors; "
            f"missing {basis_word(missing, bundle.n)!r}"
        )
    amp = np.sqrt(np.maximum(probs, EPSILON))
    f = np.zeros(layout.shape, dtype=complex)
    if options.parametrization == "full":
        np.fill_diagonal(f, amp[bundle.columns])
        jittered = slice(layout.real.size, None)  # the off-diagonal parameters
    else:
        f[0] = amp[bundle.columns]
        jittered = slice(None)
    params = _factor_params(f, layout)
    rng = np.random.default_rng(options.seed)
    params[jittered] += rng.normal(scale=JITTER, size=params[jittered].size)
    return np.concatenate((params, amp[bundle.isolated]))


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
    layout = _layout(bundle.columns.size, options)
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
            "maxls": LINE_SEARCH_STEPS,
        },
    )
    f, d = _build_factor(res.x[: layout.size], layout), res.x[layout.size :]
    tau = float(np.real(np.vdot(f, f))) + float(d @ d)
    if not f.shape[0]:  # `full` with no coupled state: an empty factor row
        f = np.zeros((1, 0), dtype=complex)
    gnorm = float(np.linalg.norm(res.jac))
    return ReconstructionResult(
        state=BlockState(bundle.n, bundle.columns, f / math.sqrt(tau), bundle.isolated, d * d / tau),
        final_objective=float(res.fun) + bundle.constant,
        iterations=int(res.nit),
        nfev=int(res.nfev),
        status=int(res.status),
        message=str(res.message),
        gradient_norm=gnorm,
        parametrization=options.parametrization,
        converged=bool(res.success or gnorm <= options.gradient_tolerance),
        parameters=int(res.x.size),
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
            counts = written(int, observed, -1), written(int, shots, -1)
            if min(counts) < 0:
                raise ValueError(f"expected decimal counts, got '{observed},{shots}'")
            records[word] = CountRecord(word, *counts)
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
                "columns_fitted": int(result.state.columns.size),
                "isolated": int(result.state.isolated.size),
                "parameters": result.parameters,
                "converged": result.converged,
            },
            indent=2,
        )
    )
