"""Fidelity measures, trace distance, rank, purity, the comparison of two block
states, and the threshold fidelity bound."""

from __future__ import annotations

import math

import numpy as np

from .core import BlockState, density, validate_density
from .threshold import candidate_rows, kept_pairs

EIGEN_TOLERANCE = 1e-8
VALIDITY_TOLERANCE = 1e-6  # how far either input may stray from a density matrix


def _check_pair(rho: np.ndarray, sigma: np.ndarray) -> None:
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    for name, m in (("first", rho), ("second", sigma)):
        report = validate_density(m, VALIDITY_TOLERANCE)
        if not report.ok:
            raise ValueError(f"{name} argument is not a valid density matrix: {report}")


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix with its eigenvalues at most size * eps * max
    set to zero: on a rank-deficient matrix they are round-off, and their
    square roots (~1e-8 for ~1e-16) would otherwise enter the result."""
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    vals = np.where(vals > vals.size * np.finfo(float).eps * max(vals.max(), 0.0), vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def root_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)), symmetric in its arguments, as the sum
    of the singular values of sqrt(rho) sqrt(sigma): no small eigenvalue of rho
    is squared below the round-off cutoff and lost."""
    _check_pair(rho, sigma)
    return float(np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(sigma), compute_uv=False).sum())


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Squared root-fidelity; equals <psi|rho|psi> when sigma is the pure |psi>."""
    return root_fidelity(rho, sigma) ** 2


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma."""
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    delta = rho - sigma
    vals = np.linalg.eigvalsh((delta + delta.conj().T) / 2.0)
    return float(0.5 * np.abs(vals).sum())


def numerical_rank(rho: np.ndarray) -> int:
    """Number of eigenvalues above ``EIGEN_TOLERANCE``."""
    vals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    return int((vals > EIGEN_TOLERANCE).sum())


def purity(rho: np.ndarray) -> float:
    """tr(rho^2), computed as sum |rho_ij|^2, which equals it for Hermitian rho."""
    return float(np.vdot(rho, rho).real)


def compare(fit: BlockState, target: BlockState) -> dict:
    """Root fidelity, fidelity, trace distance, purities and ranks of the state
    ``fit`` against ``target``, both :class:`~tqst.core.BlockState` of unit
    trace and of one qubit count.

    Take the union U of the two states' factor columns that hold a nonzero
    entry.  A basis state outside U holds at most an isolated population in
    each state and no coherence, so it is a common eigenvector of the two:
    its populations p and q add sqrt(p q) to the root fidelity, |p - q| / 2
    to the trace distance, p**2 and q**2 to the purities and one to a rank
    for each population above ``EIGEN_TOLERANCE``.  On U, each state is a
    factor A: its own rows, and one row per isolated state inside U.  Q, an
    orthonormal basis holding both supports, comes from the reduced QR of
    [A_target^H, A_fit^H], and each state is compressed to Q^H A^H A Q, at
    most (rows of both) square.  Every reported metric takes its value on U
    there: they are unitarily invariant, and the root fidelity is
    homogeneous, so it is taken on the two compressed blocks scaled to unit
    trace and scaled back.  No 2**n x 2**n matrix is formed or decomposed.
    """
    for name, state in (("first", fit), ("second", target)):
        trace = np.vdot(state.factor, state.factor).real + state.populations.sum()
        if abs(trace - 1.0) > VALIDITY_TOLERANCE:
            raise ValueError(f"{name} state has trace {trace}, not 1")
    if fit.n != target.n:
        raise ValueError(f"dimension mismatch: {fit.n} and {target.n} qubits")
    shared = np.union1d(*(s.columns[np.any(s.factor != 0, axis=0)] for s in (fit, target)))
    (a, fit_out), (b, target_out) = (_restrict(s, shared) for s in (fit, target))
    outside = np.union1d(fit_out[0], target_out[0])
    p, q = np.zeros((2, outside.size))
    p[np.searchsorted(outside, fit_out[0])] = fit_out[1]
    q[np.searchsorted(outside, target_out[0])] = target_out[1]
    report = {
        "root_fidelity": float(np.sqrt(p * q).sum()),
        "trace_distance": float(np.abs(p - q).sum() / 2.0),
        "purity_reconstructed": float(p @ p),
        "purity_target": float(q @ q),
        "rank_reconstructed": int((p > EIGEN_TOLERANCE).sum()),
        "rank_target": int((q > EIGEN_TOLERANCE).sum()),
    }
    if shared.size:
        basis, _ = np.linalg.qr(np.hstack([b.conj().T, a.conj().T]))
        target_c, rho_c = density(b @ basis), density(a @ basis)
        wt, wr = np.trace(target_c).real, np.trace(rho_c).real
        if wt > 0.0 and wr > 0.0:
            scaled = root_fidelity(target_c / wt, rho_c / wr)
            report["root_fidelity"] += float(np.sqrt(wt * wr)) * scaled
        report["trace_distance"] += trace_distance(rho_c, target_c)
        report["purity_reconstructed"] += purity(rho_c)
        report["purity_target"] += purity(target_c)
        report["rank_reconstructed"] += numerical_rank(rho_c)
        report["rank_target"] += numerical_rank(target_c)
    report["fidelity"] = report["root_fidelity"] ** 2
    return {key: report[key] for key in ("root_fidelity", "fidelity", "trace_distance",
                                         "purity_reconstructed", "purity_target",
                                         "rank_reconstructed", "rank_target")}


def _restrict(state: BlockState, shared: np.ndarray):
    """The state on the basis states ``shared``, which hold every nonzero
    factor column, as a factor over them: the state's factor rows, then one
    row per isolated state inside ``shared``.  Also the isolated states
    outside ``shared`` and their populations."""
    inside = np.isin(state.isolated, shared)
    kept = np.isin(state.columns, shared)  # the others are zero columns
    rows = state.factor.shape[0]
    g = np.zeros((rows + inside.sum(), shared.size), dtype=complex)
    g[:rows, np.searchsorted(shared, state.columns[kept])] = state.factor[:, kept]
    g[rows + np.arange(inside.sum()), np.searchsorted(shared, state.isolated[inside])] = \
        np.sqrt(state.populations[inside])
    return g, (state.isolated[~inside], state.populations[~inside])


def fidelity_bound(diag: np.ndarray, t: float, rank: int) -> float:
    """Worst-case fidelity of reconstructing with below-threshold elements zeroed.

    With S the sum of diag_i * diag_j over all ordered pairs (i, j), i != j,
    that :func:`~tqst.threshold.kept_pairs` does not keep, the bound is
    (1 - sqrt(rank * S))^2, clamped to [0, 1] before squaring: a negative
    inner value carries no information.

    Only the candidates of :func:`~tqst.threshold.candidate_rows` are
    scanned.  With Q the sum of the other entries and P that of the
    candidates, the pairs with at least one non-candidate add
    2 Q P + Q**2 - (the sum of the non-candidates' squares); the dropped
    pairs among the candidates are added one by one.  At t = 0 every nonzero
    entry is a candidate and the bound is exactly 1.
    """
    diag = np.asarray(diag, dtype=float)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if (diag < -1e-9).any():
        raise ValueError("diagonal entries must be non-negative")
    if diag.sum() > 1.0 + 1e-9:
        raise ValueError(f"diagonal sums to {diag.sum()}, above 1")
    p = np.clip(diag, 0.0, None)
    candidate, rows = candidate_rows(p, t)
    other = p[~candidate]
    q = float(other.sum())
    # each dropped pair counts in both orientations
    s = q * (2.0 * float(p[candidate].sum()) + q) - float(other @ other)
    s += 2.0 * sum(float((p[i] * p[later][~keep]).sum()) for i, later, keep in rows)
    inner = min(max(1.0 - math.sqrt(rank * max(s, 0.0)), 0.0), 1.0)
    return inner * inner


def truncate_below_threshold(rho: np.ndarray, t: float) -> np.ndarray:
    """Zero every off-diagonal pair that :func:`~tqst.threshold.kept_pairs`
    does not keep for the diagonal of ``rho``.

    This is the estimator a threshold-limited reconstruction targets; it is
    generally no longer positive semi-definite.
    """
    rho = np.array(rho, dtype=complex)
    p = np.clip(np.real(np.diag(rho)), 0.0, None)
    keep = np.eye(p.size, dtype=bool)
    i, j = kept_pairs(p, t).T
    keep[i, j] = keep[j, i] = True
    rho[~keep] = 0.0
    return rho
