"""Analytical error rates: the closed-form pairwise error probability over
Rayleigh fading and the bit-weighted union bound on BER for an enumerated
superimposed alphabet."""

from __future__ import annotations

import numpy as np

from .superposition import SuperAlphabet, user_bit_positions


# Rows of the pair matrix one _pair_spectrum block walks; 32 ran 10-15%
# faster than 64 at A = 1024 and A = 4096.
_ROW_BLOCK = 32
# Most ordered pairs a bound may cover. A pass, one per noise variance, costs
# 7-11 ns per ordered pair on a 2-vCPU Xeon, numpy 2.4 (A = 1024 and
# A = 16384), so 2^32 pairs (A <= 2^16) take 0.5-0.8 min a pass; the 2^20
# enumeration cap would take 2-3.5 h.
PAIR_BUDGET = 2 ** 32


def pep_rayleigh_closed_form(delta, sigma2: float):
    """Average pairwise error probability over unit-mean Rayleigh fading power,
    elementwise over ``delta``: 0.5 * (1 - sqrt(c / (1 + c))) with
    c = |delta|^2 / (4 sigma^2) (Simon and Alouini), evaluated as
    0.5 / ((1 + c) * (1 + sqrt(c / (1 + c)))) so that no digits cancel at
    large c. delta = 0 gives 0.5."""
    c = abs(delta) ** 2 / (4 * sigma2)
    return 0.5 / ((1.0 + c) * (1.0 + np.sqrt(c / (1.0 + c))))


def _pair_spectrum(x: np.ndarray, sigma2: float) -> np.ndarray:
    """(A,) array s with s[k] = sum_i PEP(x[i ^ k] - x[i]): the summed
    closed-form PEP of the ordered pairs whose entries differ by k.

    The PEP is symmetric in the pair, so each block of ``_ROW_BLOCK`` rows
    walks only the columns from its own start. The diagonal block holds both
    orders of its pairs; the columns right of it count twice, once for each
    order. No (A, A) array is built."""
    size = len(x)
    i = np.arange(size)
    s = np.zeros(size)
    for start in range(0, size, _ROW_BLOCK):
        rows = i[start:start + _ROW_BLOCK]
        peps = pep_rayleigh_closed_form(x[start:] - x[rows, None], sigma2)
        peps[:, _ROW_BLOCK:] *= 2
        s += np.bincount((rows[:, None] ^ i[start:]).ravel(), peps.ravel(), minlength=size)
    return s


def union_bound_ber(alphabet: SuperAlphabet, sigma2: float, user=None) -> float:
    """Bit-weighted union bound on BER for the ML detector.

    With ``user`` None the Hamming weight runs over the full per-subcarrier
    bit-string and the bound is normalized by p * 2^p. Restricting to one
    user's bit positions (1-based index or "index") gives that user's bound,
    normalized by its own bit count.

    Entry i is the bit-string i, so the pair (i, j) differs in w[i ^ j] of the
    counted bits, w being the alphabet's weight table over the counted
    positions. The bound is therefore w @ s over the pair spectrum s of
    ``_pair_spectrum``, which walks each unordered pair once. One pass per
    noise variance serves every user: the alphabet keeps its last spectrum
    with its sigma2, so consecutive calls at one noise variance share it.
    """
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    size, p = alphabet.bits.shape
    if size != 2 ** p:
        raise ValueError("alphabet size inconsistent with bit length")
    if user is None:
        positions = np.arange(p)
    else:
        positions = np.fromiter(user_bit_positions(alphabet.cfg, user), dtype=int)
        if positions.size == 0:
            raise ValueError(f"user {user!r} carries no bits in this configuration")
    w = alphabet.bits[:, positions].sum(axis=1, dtype=np.int64)
    spectrum = getattr(alphabet, "_spectrum", None)
    if spectrum is None or spectrum[0] != sigma2:
        spectrum = alphabet._spectrum = (sigma2, _pair_spectrum(alphabet.x, sigma2))
    return float(w @ spectrum[1]) / (positions.size * size)
