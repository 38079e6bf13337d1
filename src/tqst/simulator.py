"""Target states as factors F (rho = F^H F), noise injection, and synthetic counts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _factor_qubits, expectation
from .threshold import DiagonalRecord, MeasurementPlan
from .mle import CountRecord

#: Computational components of the 7-qubit color-code logical states, written
#: as bit strings with the first qubit most significant.
_COLOR_CODE_BITS = {
    0: ("1010101", "1100011", "0101101", "0011011",
        "1001110", "0110110", "1111000", "0000000"),
    1: ("0101010", "1010010", "0011100", "1100100",
        "0110001", "1001001", "0000111", "1111111"),
}


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing mixture strength plus the shot-sampling mode.

    ``sampling="exact"`` returns rounded expectation values instead of random
    draws; with ``depolarizing=0`` that reproduces the ideal expectations.
    ``seed`` is resolved once, at construction, to ``SeedSequence(seed).entropy``:
    an integer seed stays itself and None becomes fresh entropy, so every
    sampling call with one model draws from the same streams.
    """

    depolarizing: float = 0.0
    sampling: str = "multinomial"
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.depolarizing <= 1.0:
            raise ValueError("depolarizing strength must be in [0, 1]")
        if self.sampling not in ("exact", "multinomial"):
            raise ValueError("sampling must be 'exact' or 'multinomial'")
        object.__setattr__(self, "seed", np.random.SeedSequence(self.seed).entropy)


TRACE_TOLERANCE = 1e-9  # how far the trace ||F||_F**2 of a sampled factor may stray from 1


def _pure_factor(ket: np.ndarray) -> np.ndarray:
    """The 1 x 2**n factor psi^H of the pure state |psi> = ket / ||ket||."""
    return (ket / np.linalg.norm(ket)).conj()[None, :]


def w_state(n: int) -> np.ndarray:
    """Factor of the W state, the equal superposition of the n one-excitation states."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    ket = np.zeros(2**n, dtype=complex)
    for k in range(n):
        ket[1 << k] = 1.0
    return _pure_factor(ket)


def ghz_state(n: int) -> np.ndarray:
    """Factor of the GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    ket = np.zeros(2**n, dtype=complex)
    ket[0] = ket[-1] = 1.0
    return _pure_factor(ket)


def color_code_state(logical: int) -> np.ndarray:
    """Factor of the 7-qubit color-code logical codeword (logical 0 or 1),
    eight equal components."""
    if logical not in (0, 1):
        raise ValueError("logical must be 0 or 1")
    ket = np.zeros(2**7, dtype=complex)
    for bits in _COLOR_CODE_BITS[logical]:
        ket[int(bits, 2)] = 1.0
    return _pure_factor(ket)


def random_filled_state(n: int, filling: float, seed: int | None = None) -> np.ndarray:
    """Factor of a random pure state supported on ceil(filling * 2**n) basis states.

    Support indices are drawn uniformly without replacement and amplitudes
    from a complex Gaussian, so the same seed always gives the same state.
    """
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    if not 0.0 < filling <= 1.0:
        raise ValueError("filling must be in (0, 1]")
    dim = 2**n
    support = int(np.ceil(filling * dim))
    rng = np.random.default_rng(seed)
    idx = rng.choice(dim, size=support, replace=False)
    ket = np.zeros(dim, dtype=complex)
    ket[idx] = rng.normal(size=support) + 1j * rng.normal(size=support)
    return _pure_factor(ket)


def apply_depolarizing(rho: np.ndarray, lam: float) -> np.ndarray:
    """(1 - lam) * rho + lam * I / dim."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("depolarizing strength must be in [0, 1]")
    dim = rho.shape[0]
    return (1.0 - lam) * rho + lam * np.eye(dim) / dim


def _exact_multinomial(p: np.ndarray, shots: int) -> np.ndarray:
    """Deterministic rounding of shots * p that preserves the total.

    Plain rounding can break the sum; the leftover shots go to the largest
    fractional remainders (lowest index on ties).
    """
    raw = p * shots
    base = np.floor(raw).astype(np.int64)
    left = shots - int(base.sum())
    if left > 0:
        remainder = raw - base
        order = np.lexsort((np.arange(p.size), -remainder))
        base[order[:left]] += 1
    return base


def populations(factor: np.ndarray) -> np.ndarray:
    """Computational-basis probabilities of rho = F^H F: the column sums of |F|**2."""
    return np.real(factor * factor.conj()).sum(axis=0)


def _stream(noise: NoiseModel, k: int) -> np.random.Generator:
    """Stream k of ``noise``, the child ``SeedSequence.spawn`` would give its seed."""
    return np.random.default_rng(np.random.SeedSequence(noise.seed, spawn_key=(k,)))


def _unit_trace_populations(factor: np.ndarray) -> np.ndarray:
    """Populations of a factor whose trace ||F||_F**2 is 1 within ``TRACE_TOLERANCE``."""
    p_state = populations(factor)
    if abs(p_state.sum() - 1.0) > TRACE_TOLERANCE:
        raise ValueError(f"factor has trace ||F||_F**2 = {float(p_state.sum())}, not 1")
    return p_state


def sample_diagonal(factor: np.ndarray, shots: int,
                    noise: NoiseModel | None = None) -> DiagonalRecord:
    """Measure a (noise-injected) state in the computational basis.

    ``factor`` is the r x 2**n factor F of the state rho = F^H F, so memory
    and time stay linear in 2**n for a low-rank state; its trace ||F||_F**2
    must be 1 within ``TRACE_TOLERANCE``.  Depolarizing noise enters each
    probability as (1 - lam) p + lam / 2**n, as in :func:`apply_depolarizing`,
    without a dense mixture.  The counts are a multinomial from stream 0 of
    ``noise``, or its rounding for ``sampling="exact"``.  Without ``noise``,
    each call samples noiselessly from a fresh, unseeded :class:`NoiseModel`.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if _factor_qubits(factor.shape) is None:
        raise ValueError(f"factor shape {factor.shape} is not r x 2**n with r >= 1, n >= 1")
    dim = factor.shape[1]
    p_state = _unit_trace_populations(factor)
    noise = NoiseModel() if noise is None else noise
    lam = noise.depolarizing
    p_diag = np.clip((1.0 - lam) * p_state + lam / dim, 0.0, None)
    p_diag = p_diag / p_diag.sum()
    if noise.sampling == "exact":
        counts = _exact_multinomial(p_diag, shots)
    else:
        counts = _stream(noise, 0).multinomial(shots, p_diag)
    return DiagonalRecord(counts=counts, shots=shots)


def sample_counts(factor: np.ndarray, plan: MeasurementPlan, diag: DiagonalRecord,
                  noise: NoiseModel | None = None) -> list[CountRecord]:
    """The records of a plan's words on the state whose measured diagonal is
    ``diag``, one per word in plan order.

    The 2**n basis states stay in ``diag``: the plan was chosen from that
    round, so it is not drawn again, and the fit and the counts writer take
    it as it is.  Each plan word is a binomial at ``diag.shots`` on its
    depolarized projector expectation, drawn from stream 2**n + k + 1 of
    ``noise`` for word k, or rounded for "exact".
    """
    dim = 2**plan.n
    if factor.shape[1:] != (dim,) or diag.n != plan.n:
        raise ValueError(f"dimension mismatch: plan is for {plan.n} qubits, factor is "
                         f"{factor.shape}, diagonal record for {diag.n}")
    _unit_trace_populations(factor)
    noise = NoiseModel() if noise is None else noise
    lam = noise.depolarizing
    shots = diag.shots
    records = []
    for k, word in enumerate(plan.words):
        q = min(max((1.0 - lam) * expectation(factor, word) + lam / dim, 0.0), 1.0)
        if noise.sampling == "exact":
            observed = int(round(q * shots))
        else:
            observed = int(_stream(noise, dim + k + 1).binomial(shots, q))
        records.append(CountRecord(word, observed, shots))
    return records
