"""Analytical error rates: pairwise error probabilities over Rayleigh fading
and the bit-weighted union bound on BER for an enumerated superimposed alphabet."""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc

from .superposition import SuperAlphabet, user_bit_positions


# Rows of the pair matrix handled at once by union_bound_ber.
_ROW_BLOCK = 64


def q_function(t: float) -> float:
    """Gaussian tail probability Q(t) = 0.5 * erfc(t / sqrt(2))."""
    return 0.5 * erfc(t / np.sqrt(2))


def pep_rayleigh(delta: complex, sigma2: float, rel_tol: float = 1e-10) -> float:
    """Average pairwise error probability over unit-mean Rayleigh fading power.

    Integrates Q(sqrt(|delta|^2 * u / (2 sigma^2))) against the exponential
    density of the channel power u = |h|^2 by adaptive quadrature.
    """
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    d2 = abs(delta) ** 2
    if d2 == 0:
        return 0.5
    scale = d2 / (2 * sigma2)

    def integrand(u):
        return q_function(np.sqrt(scale * u)) * np.exp(-u)

    value, _ = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=rel_tol, limit=200)
    return value


def pep_rayleigh_closed_form(delta: complex, sigma2: float) -> float:
    """Closed form of the same average: 0.5 * (1 - sqrt(c / (1 + c))) with
    c = |delta|^2 / (4 sigma^2). Used as the independent oracle for the
    quadrature path."""
    c = abs(delta) ** 2 / (4 * sigma2)
    return 0.5 * (1.0 - np.sqrt(c / (1.0 + c)))


def union_bound_ber(alphabet: SuperAlphabet, sigma2: float, user=None) -> float:
    """Bit-weighted union bound on BER for the ML detector.

    With ``user`` None the Hamming weight runs over the full per-subcarrier
    bit-string and the bound is normalized by p * 2^p. Restricting to one
    user's bit positions (1-based index or "index") gives that user's bound,
    normalized by its own bit count.

    The ordered pairs are walked in blocks of ``_ROW_BLOCK`` rows, so no
    (A, A) array is built. Each block reduces its pairs of nonzero weight to
    (distinct squared distance, summed weight); the PEP is then evaluated once
    per distinct distance over the whole alphabet.
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
    sub = alphabet.bits[:, positions]
    x = alphabet.x

    keys, weights = [], []
    for start in range(0, size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        errs = np.count_nonzero(sub[rows, None, :] != sub[None, :, :], axis=2)
        d2 = np.round(np.abs(x[None, :] - x[rows, None]) ** 2, 12)
        hit = errs > 0
        block_keys, inverse = np.unique(d2[hit], return_inverse=True)
        keys.append(block_keys)
        weights.append(np.bincount(inverse, weights=errs[hit], minlength=block_keys.size))
    keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    weights = np.bincount(inverse, weights=np.concatenate(weights), minlength=keys.size)
    peps = np.array([pep_rayleigh(np.sqrt(d2), sigma2) for d2 in keys])
    return float(peps @ weights) / (positions.size * size)
