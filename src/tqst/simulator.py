"""Target states as factors F (rho = F^H F), noise injection, and synthetic counts."""

from __future__ import annotations

import operator
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
    ``seed`` is resolved once, at construction, by :func:`resolve_seed`: an
    integer seed stays itself, as a Python int, and None becomes fresh
    entropy, so every sampling call with one model draws from the same
    streams.
    Stream k is the ``SeedSequence(seed, spawn_key=(k,))`` stream of
    ``default_rng``; the seed words of every stream one call draws from are
    derived in one array pass.
    """

    depolarizing: float = 0.0
    sampling: str = "multinomial"
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.depolarizing <= 1.0:
            raise ValueError("depolarizing strength must be in [0, 1]")
        if self.sampling not in ("exact", "multinomial"):
            raise ValueError("sampling must be 'exact' or 'multinomial'")
        object.__setattr__(self, "seed", resolve_seed(self.seed))


def resolve_seed(seed: int | None) -> int:
    """The seed as a Python int: an integer seed stays itself, and None
    becomes fresh 128-bit entropy, as ``SeedSequence(None)`` draws it.  A
    negative seed raises ValueError and a non-integer one, a sequence too,
    TypeError.  Nothing is drawn, so ``numpy.random`` stays unloaded."""
    if seed is None:
        import secrets  # 3 ms of imports, paid only when a seed is drawn

        return secrets.randbits(128)
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected non-negative integer seed, got {seed}")
    return seed


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


# numpy's SeedSequence (numpy/random/bit_generator.pyx): its pool of 4 uint32
# words, hashed under constants that advance by one multiplication per hash.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _constants(first: int, mult: int, count: int) -> list[int]:
    """``first`` and the ``count`` hash constants after it."""
    out = [first]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def _hashed(value, const, next_const):
    """SeedSequence's hash of ``value`` under ``const``, on ints or uint32 arrays."""
    value = (value ^ const) * next_const & _MASK32
    return value ^ value >> 16


def _mixed(x, y):
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _stream_seeds(entropy: int, keys) -> np.ndarray:
    """The PCG64 seed words of the streams ``keys`` (integers below 2**64) of
    ``entropy``: row i is what
    ``SeedSequence(entropy, spawn_key=(keys[i],)).generate_state(4, np.uint64)`` gives.

    SeedSequence mixes the run entropy into its pool the same way for every
    key, and its hash constants advance the same way whatever the words, so
    the pool is mixed once, in Python ints, and only the key words and the
    output are hashed, as uint32 arrays over all keys at once.
    """
    words = []  # the entropy's 32-bit words, low first, padded to the pool size
    while True:
        words.append(entropy & _MASK32)
        entropy >>= 32
        if not entropy:
            break
    words += [0] * (_POOL - len(words))
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        previous, const = const, const * _MULT_A & _MASK32
        return _hashed(value, previous, const)

    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mixed(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mixed(pool[dst], hashmix(w))

    keys = np.asarray(keys, dtype=np.uint64)
    pool = np.tile(np.array(pool, dtype=np.uint32), (keys.size, 1))
    a = np.array(_constants(const, _MULT_A, 2 * _POOL), dtype=np.uint32)
    low = (keys & _MASK32).astype(np.uint32)
    pool = _mixed(pool, _hashed(low[:, None], a[:_POOL], a[1:_POOL + 1]))
    two = keys > _MASK32  # a key of 2**32 or more is two words, low first
    high = (keys[two] >> 32).astype(np.uint32)
    pool[two] = _mixed(pool[two], _hashed(high[:, None], a[_POOL:-1], a[_POOL + 1:]))
    b = np.array(_constants(_INIT_B, _MULT_B, 2 * _POOL), dtype=np.uint32)
    state = _hashed(np.tile(pool, 2), b[:-1], b[1:])  # the pool cycled twice: 8 words
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


def _streams(noise: NoiseModel, keys):
    """The generators of the streams ``keys`` of ``noise``, each made when it
    is reached: stream k draws what
    ``default_rng(SeedSequence(noise.seed, spawn_key=(k,)))`` draws."""
    from numpy.random import PCG64, Generator  # loaded at the first draw, not at import
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        """One stream's precomputed seed words."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"seed words are 4 uint64, not {n_words} {np.dtype(dtype)}")
            return self.words

    for words in _stream_seeds(noise.seed, keys):
        yield Generator(PCG64(Seeded(words)))


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
        counts = next(_streams(noise, [0])).multinomial(shots, p_diag)
    return DiagonalRecord(counts=counts, shots=shots)


def sample_counts(factor: np.ndarray, plan: MeasurementPlan, diag: DiagonalRecord,
                  noise: NoiseModel | None = None) -> list[CountRecord]:
    """The records of a plan's words on the state whose measured diagonal is
    ``diag``, one per word in plan order.

    The 2**n basis states stay in ``diag``: the plan was chosen from that
    round, so it is not drawn again, and the fit and the counts writer take
    it as it is.  Each plan word is a binomial at ``diag.shots`` on its
    depolarized projector expectation, drawn from stream 2**n + k + 1 of
    ``noise`` for word k, or rounded for "exact".  The streams are the
    ``SeedSequence(noise.seed, spawn_key=(2**n + k + 1,))`` streams, their
    seed words derived for all words in one pass and each generator made
    when its word draws.
    """
    dim = 2**plan.n
    if factor.shape[1:] != (dim,) or diag.n != plan.n:
        raise ValueError(f"dimension mismatch: plan is for {plan.n} qubits, factor is "
                         f"{factor.shape}, diagonal record for {diag.n}")
    _unit_trace_populations(factor)
    noise = NoiseModel() if noise is None else noise
    lam = noise.depolarizing
    shots = diag.shots
    streams = _streams(noise, np.arange(dim + 1, dim + 1 + len(plan.words), dtype=np.uint64))
    records = []
    for word in plan.words:
        q = min(max((1.0 - lam) * expectation(factor, word) + lam / dim, 0.0), 1.0)
        if noise.sampling == "exact":
            observed = int(round(q * shots))
        else:
            observed = int(next(streams).binomial(shots, q))
        records.append(CountRecord(word, observed, shots))
    return records
