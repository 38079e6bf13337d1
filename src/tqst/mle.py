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

is minimized with a quasi-Newton descent using the analytic gradient.  When
every state is coupled, every word lies on {H, V, D, R}**n and the words'
kets are dense enough, as in a conventional plan, the model counts are n
mode products of rho, one 4 x 4 matrix per qubit; otherwise they come from
the records' sparse kets.
:func:`likelihood` and :func:`gradient` evaluate the same model, and
``likelihood`` adds the left-out records' constant.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from itertools import chain, count, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import (STATE_VECTORS, BlockState, basis_word, basis_words, decimal_rows, product_ket,
                   read_head, validate_word, write_table)
from .projectors import TABLE_CAP

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


def _letter_codes(records: list[CountRecord], n: int) -> np.ndarray:
    """The records' words as one m x ``n`` array of their letters' code points."""
    return np.frombuffer("".join(rec.projector for rec in records).encode(),
                         dtype=np.uint8).reshape(-1, n)


def _lacking(records: list[CountRecord], diag) -> np.ndarray:
    """The basis states of the diagonal round ``diag``, a
    :class:`~tqst.threshold.DiagonalRecord`, that no record measures, in
    basis order; a record of another qubit count raises."""
    n = diag.n
    lengths = np.fromiter((len(rec.projector) for rec in records), dtype=np.int64,
                          count=len(records))
    wrong = np.flatnonzero(lengths != n)
    if wrong.size:
        raise ValueError(f"a {lengths[wrong[0]]}-qubit record with a {n}-qubit diagonal")
    codes = _letter_codes(records, n)
    v = codes == ord("V")
    basis = (v | (codes == ord("H"))).all(axis=1)  # the H/V words
    lacking = np.ones(2**n, dtype=bool)
    lacking[v[basis] @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))] = False
    return np.flatnonzero(lacking)


_GRID_LETTERS = "HVDR"
#: T[l, 2a + b] = v_l[a] conj(v_l[b]) for the grid letters l = H, V, D, R:
#: the one-qubit factor of |psi_w><psi_w| over a pair (a, b) of rho's bits
_GRID_PAIRS = np.array([np.outer(STATE_VECTORS[c], STATE_VECTORS[c].conj()).ravel()
                        for c in _GRID_LETTERS])
_GRID_DIGITS = np.full(128, -1, dtype=np.int64)  # a letter's base-4 digit, -1 off the grid
_GRID_DIGITS[[ord(c) for c in _GRID_LETTERS]] = np.arange(4)


def _grid_cells(records: list[CountRecord], lacking: np.ndarray, n: int) -> np.ndarray | None:
    """The cells of the basis states ``lacking``, then of the records, in the
    4**n word grid {H, V, D, R}**n: the letters as base-4 digits, H = 0,
    V = 1, D = 2, R = 3, first letter most significant; None if a record's
    word has an A or L."""
    digits = _GRID_DIGITS[_letter_codes(records, n)]
    if (digits < 0).any():
        return None
    place = 4 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (lacking[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.concatenate((bits @ place, digits @ place))


def _mode_products(x: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """``x``, 4**n entries over n base-4 digits, first most significant, with
    the 4 x 4 matrix ``m`` applied along every digit."""
    mt = m.T
    for _ in range(n):
        # contracts the leading digit and puts the new one last: after n
        # steps the digits are back in order
        x = x.reshape(4, -1).T @ mt
    return x.reshape(-1)


def _grid_probabilities(f: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    """||F psi_w||^2 of the grid words at ``cells``: X = F^T conj(F), its
    row and column bits paired as (a_1, b_1, ..., a_n, b_n), through T
    along each pair."""
    x = (f.T @ f.conj()).reshape((2,) * 2 * n).transpose(np.arange(2 * n).reshape(2, n).T.ravel())
    return _mode_products(x, _GRID_PAIRS, n)[cells].real


def _grid_adjoint(alpha: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    """H = sum_w alpha_w psi_w psi_w^dag, the adjoint of
    :func:`_grid_probabilities` at X, as a 2**n x 2**n matrix: the
    per-cell sums of ``alpha`` through T^T along each pair."""
    g = _mode_products(np.bincount(cells, alpha, minlength=4**n), _GRID_PAIRS.T, n)
    pairs = g.reshape((2,) * 2 * n).transpose(np.arange(2 * n).reshape(n, 2).T.ravel())
    return pairs.reshape(2**n, 2**n)


def _grid_pays(nonzeros: int, rows: int, n: int) -> bool:
    """Whether an evaluation on the grid is cheaper than on the kets, for a
    factor of ``rows`` rows over all 2**n states and records on them whose
    kets have ``nonzeros`` nonzeros in all.  Counted in steps of the kets'
    sparse products, one nonzero times one factor row (about 3 ns), the kets
    take nonzeros * rows; the grid takes 2n + rows / 10 per cell of its 4**n,
    for the mode products each way and the gemms X = F^T conj(F) and F H,
    and 2000 n for its 4n array steps.  Measured at one BLAS thread on a
    2-core x86-64 host, n = 3 to 8, ranks 1, 2 and 2**n."""
    return nonzeros * rows > 4**n * (2 * n + rows / 10) + 2000 * n


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
    ``full``) and the populations of the isolated ones.  ``parameters`` is
    the number of real parameters fitted; ``nfev``, ``status`` and
    ``message`` are scipy's for the minimization.  ``records`` counts the
    records fitted, the diagonal round's basis states included, and
    ``forward_model`` is ``"grid"`` or ``"kets"``, as :class:`_Bundle`
    chose."""

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
    records: int
    forward_model: str
    wall_time_s: float = 0.0


class _Bundle:
    """The records, and the diagonal round ``diag`` if given, unpacked to the
    block model's arrays, in one pass.

    The round's basis states that no record measures go first, in basis
    order, each a basis record of amplitude 1 at its index with the round's
    count and shots.  A record whose product ket has one nonzero is a basis
    record too (an H/V word is a basis state, and each D/A/R/L letter
    doubles the support).  ``diagonal`` is each basis state's measured
    frequency, -1 where no record measures it.  ``columns`` are the coupled
    states C, the columns hit by the superposition words; ``isolated`` are
    the basis states outside C with a nonzero count.  ``observed`` and
    ``shots`` list the records on C, then the records of the isolated
    states, whose positions in ``isolated`` are ``iso``.  The zero-count
    basis records left over see a model of zero, floored; ``constant`` is
    their share of the objective.

    The fit reads the records on C through one of two forward models,
    ``forward_model``.  ``"grid"`` holds when C is every state, n <=
    ``projectors.TABLE_CAP``, every word is on the grid {H, V, D, R}**n and
    the grid costs less than the kets for a factor of ``rows`` rows
    (``None``: one per coupled state, as in ``full``; :func:`_grid_pays`),
    as in a conventional plan: ``cells``
    are the records' grid cells (:func:`_grid_cells`), and all 4**n
    probabilities are n mode products of rho.  Otherwise ``"kets"``:
    ``kets`` is the CSR matrix of the records on C, their kets' amplitudes
    at their supports restricted to those columns, and ``kets_h`` its
    conjugate transpose."""

    def __init__(self, records: list[CountRecord], diag=None, rows: int | None = None):
        if not records and diag is None:
            raise ValueError("no records given")
        lacking = np.arange(0) if diag is None else _lacking(records, diag)
        n = len(records[0].projector) if diag is None else diag.n
        for rec in records:
            if len(rec.projector) != n:
                raise ValueError("records mix qubit counts")
        self.n = n
        self.dim = 2**n
        self.records = lacking.size + len(records)
        kets = [product_ket(rec.projector) for rec in records]
        sizes = np.concatenate((np.ones(lacking.size, dtype=np.int64),
                                np.array([support.size for support, _ in kets], dtype=np.int64)))
        indices = np.concatenate((lacking, *(support for support, _ in kets)))
        values = np.concatenate((np.ones(lacking.size, dtype=complex),
                                 *(amplitudes for _, amplitudes in kets)))
        del kets  # one pair of arrays per record, freed before the fit's arrays are built
        observed = np.array([rec.observed for rec in records], dtype=float)
        shots = np.array([rec.shots for rec in records], dtype=float)
        if diag is not None:
            observed = np.concatenate((diag.counts[lacking], observed))
            shots = np.concatenate((np.full(lacking.size, float(diag.shots)), shots))

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

        nonzeros = int(sizes[on_coupled].sum())
        grid = coupled.all() and n <= TABLE_CAP and _grid_pays(nonzeros, rows or self.dim, n)
        self.cells = _grid_cells(records, lacking, n) if grid else None
        self.kets = self.kets_h = None  # built for the kets model only
        if self.cells is None:
            from scipy import sparse  # loaded at the first fit, not at import

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

    @property
    def forward_model(self) -> str:
        return "kets" if self.cells is None else "grid"


class _Layout(NamedTuple):
    """How F is packed into real parameters: its entries at the flat positions
    ``real`` first, then those at ``complex`` as (re, im) pairs; the rest are zero."""

    shape: tuple[int, int]
    real: np.ndarray
    complex: np.ndarray | slice
    size: int


def _rows(options: MleOptions) -> int | None:
    """The factor's rows, None for ``full``'s one per coupled state."""
    return options.rank if options.parametrization == "low_rank" else None


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

    # u_K = ||F psi_K||^2 for the records on the coupled states: on the grid from
    # X = F^T conj(F), else from w_K = F psi_K over the kets' nonzeros only;
    # an isolated state's record sees its own d^2
    if bundle.cells is None:
        w = bundle.kets @ f.T
        u = np.einsum("kr,kr->k", w, w.conj()).real
    else:
        u = _grid_probabilities(f, bundle.cells, bundle.n)
    m = u.size
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
    if bundle.cells is None:
        c = (bundle.kets_h @ (w * alpha[:m, None])).T
    else:
        c = f @ _grid_adjoint(alpha, bundle.cells, bundle.n)
    scale = float(np.sum(alpha * u) / tau)
    # packing the complex factor-space gradient reuses the parameter layout
    grad = _factor_params(2.0 * (c - scale * f), layout)
    if d.size:
        lone = np.bincount(bundle.iso, alpha[m:], minlength=d.size)
        grad = np.concatenate((grad, 2.0 * d * (lone - scale)))
    return value, grad


def likelihood(params: np.ndarray, records: list[CountRecord], options: MleOptions = MleOptions(),
               diag=None) -> float:
    """The objective :func:`reconstruct` minimizes, with the left-out records'
    constant: the parameters are F's over the coupled states, packed as in
    :func:`_layout`, then the isolated states' amplitudes."""
    bundle = _Bundle(records, diag, _rows(options))
    return _evaluate(params, bundle, _layout(bundle.columns.size, options))[0] + bundle.constant


def gradient(params: np.ndarray, records: list[CountRecord], options: MleOptions = MleOptions(),
             diag=None) -> np.ndarray:
    """Analytic gradient of :func:`likelihood` with respect to the parameters."""
    bundle = _Bundle(records, diag, _rows(options))
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


def reconstruct(records: list[CountRecord], options: MleOptions = MleOptions(),
                diag=None) -> ReconstructionResult:
    """Reconstruct a physical density matrix from count records and the
    diagonal round ``diag``, a :class:`~tqst.threshold.DiagonalRecord`, if
    given, whose basis states the records lack are fitted before them.

    Every computational-basis state must be measured, by a record or the
    round: the frequencies seed the diagonal of the starting point.
    Non-convergence is reported through ``converged`` on the result, not raised.
    """
    start = time.perf_counter()
    bundle = _Bundle(records, diag, _rows(options))
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
        records=bundle.records,
        forward_model=bundle.forward_model,
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# file formats


COUNTS_COLUMNS = ("projector_word", "observed", "shots")


def write_counts_csv(path: str | Path, records: list[CountRecord], diag=None) -> None:
    """Counts CSV: one ``projector_word,observed,shots`` row per record, after
    one for each basis state of the diagonal round ``diag``, if given, that
    the records lack, in basis order: the records :func:`reconstruct` fits."""
    rows = ((r.projector, r.observed, r.shots) for r in records)
    if diag is not None:
        lacking = _lacking(records, diag)
        basis = zip(basis_words(diag.n)[lacking].tolist(), diag.counts[lacking].tolist(),
                    repeat(diag.shots))
        rows = chain(basis, rows)
    write_table(path, COUNTS_COLUMNS, rows)


def read_counts_csv(path: str | Path) -> list[CountRecord]:
    """Read counts, rejecting duplicate projector words, words whose length
    differs from the first row's, and counts that are not plain decimals below 2**63."""
    _, header, data = read_head(path, COUNTS_COLUMNS)
    words, _, numbers = zip(*(line.partition(",") for line in data.removesuffix("\n").split("\n")))
    counts, bad = decimal_rows("".join(text + "\n" for text in numbers), 2)
    n = len(words[0])
    records = {}
    try:
        for line, word, (observed, shots) in zip(count(header + 1), words, counts.tolist()):
            if word in records:
                raise ValueError(f"duplicate projector word {word!r}")
            if len(word) != n:
                raise ValueError(f"{len(word)}-qubit word {word!r} after {n}-qubit words")
            records[word] = CountRecord(word, observed, shots)
        if bad is not None:
            line = header + 1 + bad
            raise ValueError(f"expected decimal counts, got '{numbers[bad]}'")
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
                "forward_model": result.forward_model,
                "converged": result.converged,
            },
            indent=2,
        )
    )
