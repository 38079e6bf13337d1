"""Fidelity measures, trace distance, rank, purity, and the threshold fidelity bound."""

from __future__ import annotations

import math

import numpy as np

from .core import validate_density


def _check_pair(rho: np.ndarray, sigma: np.ndarray, tolerance: float) -> None:
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    for name, m in (("first", rho), ("second", sigma)):
        report = validate_density(m, tolerance)
        if not report.ok:
            raise ValueError(f"{name} argument is not a valid density matrix: {report.as_dict()}")


def _round_off_zeroed(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues with those at most size * eps * max(vals) set to zero.

    Below that cutoff an eigenvalue of a rank-deficient matrix is round-off,
    and its square root (~1e-8 for ~1e-16) would otherwise enter the result.
    """
    cutoff = vals.size * np.finfo(float).eps * max(vals.max(), 0.0)
    return np.where(vals > cutoff, vals, 0.0)


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    return (vecs * np.sqrt(_round_off_zeroed(vals))) @ vecs.conj().T


def root_fidelity(rho: np.ndarray, sigma: np.ndarray, tolerance: float = 1e-6) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)), symmetric in its arguments."""
    _check_pair(rho, sigma, tolerance)
    s = _psd_sqrt(rho)
    inner = s @ sigma @ s
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    return float(np.sqrt(_round_off_zeroed(vals)).sum())


def fidelity(rho: np.ndarray, sigma: np.ndarray, tolerance: float = 1e-6) -> float:
    """Squared root-fidelity; equals <psi|rho|psi> when sigma is the pure |psi>."""
    return root_fidelity(rho, sigma, tolerance) ** 2


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma."""
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    delta = rho - sigma
    vals = np.linalg.eigvalsh((delta + delta.conj().T) / 2.0)
    return float(0.5 * np.abs(vals).sum())


def numerical_rank(rho: np.ndarray, eigen_tolerance: float = 1e-8) -> int:
    """Number of eigenvalues above ``eigen_tolerance``."""
    vals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    return int((vals > eigen_tolerance).sum())


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
    ca, cb = a @ q, b @ q
    return ca.conj().T @ ca, cb.conj().T @ cb


def fidelity_bound(diag: np.ndarray, t: float, rank: int) -> float:
    """Worst-case fidelity of reconstructing with below-threshold elements zeroed.

    With S the sum of diag_i * diag_j over all ordered pairs (i, j), i != j,
    whose geometric mean falls below ``t``, the bound is
    (1 - sqrt(rank * S))^2, clamped to [0, 1] before squaring: a negative
    inner value carries no information.  At t = 0 no pair is zeroed and the
    bound is exactly 1.
    """
    diag = np.asarray(diag, dtype=float)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if (diag < -1e-9).any():
        raise ValueError("diagonal entries must be non-negative")
    if diag.sum() > 1.0 + 1e-9:
        raise ValueError(f"diagonal sums to {diag.sum()}, above 1")
    p = np.clip(diag, 0.0, None)
    prod = np.outer(p, p)
    geo = np.sqrt(prod)
    below = geo < t
    np.fill_diagonal(below, False)
    s = float(prod[below].sum())  # both orientations of each pair
    inner = min(max(1.0 - math.sqrt(rank * s), 0.0), 1.0)
    return inner * inner


def truncate_below_threshold(rho: np.ndarray, t: float) -> np.ndarray:
    """Zero every off-diagonal pair whose diagonal geometric mean is below ``t``.

    This is the estimator a threshold-limited reconstruction targets; it is
    generally no longer positive semi-definite.
    """
    rho = np.asarray(rho, dtype=complex)
    p = np.clip(np.real(np.diag(rho)), 0.0, None)
    keep = np.sqrt(np.outer(p, p)) >= t
    np.fill_diagonal(keep, True)
    return np.where(keep, rho, 0.0)
