"""Analytical error rates: the closed-form pairwise error probability over
Rayleigh fading and the bit-weighted union bound on BER for an enumerated
superimposed alphabet."""

from __future__ import annotations

import numpy as np

from .superposition import SuperAlphabet, user_bit_positions


# Rows of the pair matrix handled at once by union_bound_ber.
_ROW_BLOCK = 64
# Most ordered pairs a bound may walk. The pair loop costs 23-33 ns per pair
# on a 2-vCPU Xeon, numpy 2.4 (A = 1024 and A = 16384), so 2^32 pairs
# (A <= 2^16) take 1.6-2.4 min; the 2^20 enumeration cap would take 7-10 h.
PAIR_BUDGET = 2 ** 32


def pep_rayleigh_closed_form(delta, sigma2: float):
    """Average pairwise error probability over unit-mean Rayleigh fading power,
    elementwise over ``delta``: 0.5 * (1 - sqrt(c / (1 + c))) with
    c = |delta|^2 / (4 sigma^2) (Simon and Alouini), evaluated as
    0.5 / ((1 + c) * (1 + sqrt(c / (1 + c)))) so that no digits cancel at
    large c. delta = 0 gives 0.5."""
    c = abs(delta) ** 2 / (4 * sigma2)
    return 0.5 / ((1.0 + c) * (1.0 + np.sqrt(c / (1.0 + c))))


def union_bound_ber(alphabet: SuperAlphabet, sigma2: float, user=None) -> float:
    """Bit-weighted union bound on BER for the ML detector.

    With ``user`` None the Hamming weight runs over the full per-subcarrier
    bit-string and the bound is normalized by p * 2^p. Restricting to one
    user's bit positions (1-based index or "index") gives that user's bound,
    normalized by its own bit count.

    The ordered pairs are walked in blocks of ``_ROW_BLOCK`` rows, so no
    (A, A) array is built. Entry i is the bit-string i, so the pair (i, j)
    differs in w[i ^ j] of the counted bits, w being the alphabet's weight
    table over the counted positions; each block sums w[i ^ j] times the
    closed-form PEP of x_j - x_i.
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
    i = np.arange(size)
    x = alphabet.x

    total = 0.0
    for start in range(0, size, _ROW_BLOCK):
        rows = i[start:start + _ROW_BLOCK]
        peps = pep_rayleigh_closed_form(x - x[rows, None], sigma2)
        total += float((w[rows[:, None] ^ i] * peps).sum())
    return total / (positions.size * size)
