"""Fidelity measures, trace distance, rank, purity, and the threshold fidelity bound."""

from __future__ import annotations

import math

import numpy as np

from .core import density, validate_density
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


def joint_support(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compress rho = a^H a and sigma = b^H b onto their joint support.

    ``a`` and ``b`` are factors with 2**n columns.  Q, an orthonormal basis
    of a space holding both supports, comes from the reduced QR of
    [a^H, b^H]; the result is (Q^H rho Q, Q^H sigma Q), each at most
    (rows of a + rows of b) square.  Root fidelity, trace distance, purity
    and rank are unitarily invariant, so each takes the same value on the
    compressed pair as on (rho, sigma).
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: factors of {a.shape[1]} and {b.shape[1]} columns")
    q, _ = np.linalg.qr(np.hstack([a.conj().T, b.conj().T]))
    return density(a @ q), density(b @ q)


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
