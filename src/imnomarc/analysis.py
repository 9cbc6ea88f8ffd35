"""Analytical error rates: the closed-form pairwise error probability over
Rayleigh fading and the bit-weighted union bound on BER for an enumerated
superimposed alphabet."""

from __future__ import annotations

import numpy as np

from .superposition import SuperAlphabet, user_bit_positions


# Width of the square tiles one _pair_spectrum pass walks, and the table
# _PERM[m, b] = m ^ b that gathers a tile's row block in XOR order.
_TILE = 32
_PERM = np.arange(_TILE)[:, None] ^ np.arange(_TILE)
# Most ordered pairs a bound may cover. A pass, one per noise variance, costs
# 4.5-6.5 ns per ordered pair on a 2-vCPU Xeon, numpy 2.4 (A = 1024 and
# A = 16384), so 2^32 pairs (A <= 2^16) take 20-28 s a pass; the 2^20
# enumeration cap would take 1.4-2 h.
PAIR_BUDGET = 2 ** 32
# c = |delta|^2 / (4 sigma^2) overflowing to inf would make c / (1 + c) NaN;
# clamped at the largest float, its PEP comes out as 0.5 / inf = 0.
_C_MAX = np.finfo(float).max


def _pep_of_c(c: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Overwrite the float array ``c`` = |delta|^2 / (4 sigma^2) with the PEP
    of ``pep_rayleigh_closed_form``, in its order of operations; ``scratch``,
    of c's shape, is overwritten with 1 + c."""
    one_c = np.add(1.0, c, out=scratch)
    np.divide(c, one_c, out=c)
    np.sqrt(c, out=c)
    np.add(1.0, c, out=c)
    np.multiply(one_c, c, out=c)
    return np.divide(0.5, c, out=c)


def pep_rayleigh_closed_form(delta, sigma2: float):
    """Average pairwise error probability over unit-mean Rayleigh fading power,
    elementwise over ``delta``: 0.5 * (1 - sqrt(c / (1 + c))) with
    c = |delta|^2 / (4 sigma^2) (Simon and Alouini), evaluated as
    0.5 / ((1 + c) * (1 + sqrt(c / (1 + c)))) so that no digits cancel at
    large c. delta = 0 gives 0.5, and a c that overflows gives 0."""
    with np.errstate(over="ignore"):
        c = np.asarray(np.minimum(abs(delta) ** 2 / (4 * sigma2), _C_MAX))
        return _pep_of_c(c, np.empty_like(c))[()]


@np.errstate(over="ignore")  # c and the PEP's denominator overflow only when clamped
def _pair_spectrum(x: np.ndarray, sigma2: float) -> np.ndarray:
    """(A,) array s with s[k] = sum_i PEP(x[i ^ k] - x[i]): the summed
    closed-form PEP of the ordered pairs whose entries differ by k.

    The pair matrix is cut into T x T tiles, T = min(_TILE, A), both powers of
    two. Row block R meets the column blocks C >= R, and its own T entries are
    gathered through _PERM, so that the pair at [C, m, b] joins entry C*T + b
    to the entry at XOR distance (R ^ C)*T + m. A tile's share of s is then
    its sum over b, added to row R ^ C of s viewed as (A/T, T). The PEP is
    symmetric in the pair: the diagonal tile holds both orders of its pairs,
    and the tiles right of it count twice, once for each order.

    The real and imaginary planes of x are scaled by 1 / (2 sigma), so that
    c = dr^2 + di^2 is |delta|^2 / (4 sigma^2) with no complex temporary.
    Two (A/T, T, T) buffers, reused by every row block, hold the whole PEP
    chain: the working set is O(A*T), and no (A, A) array is built."""
    size = len(x)
    tile = min(_TILE, size)
    perm = _PERM[:tile, :tile]
    scale = 1 / np.sqrt(4 * sigma2)
    planes = [(part * scale).reshape(-1, tile) for part in (x.real, x.imag)]
    blocks = len(planes[0])
    clamp = np.abs(x).max() * scale > np.sqrt(_C_MAX) / 4  # else all c < _C_MAX / 4
    work = np.empty((2, size * tile))
    s = np.zeros((blocks, tile))
    for r in range(blocks):
        dr, di = work[:, :(blocks - r) * tile * tile].reshape(2, blocks - r, tile, tile)
        for d, plane in ((dr, planes[0]), (di, planes[1])):
            # a broadcast copy, then a subtraction whose (T, T) operand
            # spans whole tiles, ran ~20% faster than one broadcast subtract
            np.copyto(d, plane[r:, None, :])
            d -= plane[r, perm]
            np.multiply(d, d, out=d)
        c = np.add(dr, di, out=dr)
        if clamp:
            np.minimum(c, _C_MAX, out=c)
        peps = _pep_of_c(c, di).sum(axis=2)
        peps[1:] *= 2
        s[r ^ np.arange(r, blocks)] += peps
    return s.ravel()


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
