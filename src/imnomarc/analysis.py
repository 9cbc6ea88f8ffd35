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
# 2.4-3.0 ns per ordered pair on a 2-vCPU Xeon, numpy 2.4 (A = 1024 to
# A = 16384), so 2^32 pairs (A <= 2^16) take 10-13 s a pass; the 2^20
# enumeration cap would take 45-55 min. An alphabet without a negation map
# costs twice that.
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


def _negation_mask(x: np.ndarray) -> int:
    """Largest m != 0 with x[i ^ m] == -x[i] for every i, or 0 if none.

    Negating every user's symbol keeps the rotation pattern, so exactly
    antipodal constellations give one. The candidates are the entries equal
    to -x[0]; with coincident points several may hold, and the largest has
    the largest block part m // _TILE."""
    i = np.arange(len(x))
    for m in np.flatnonzero(x == -x[0])[::-1]:
        if m and np.array_equal(x[i ^ m], -x):
            return int(m)
    return 0


@np.errstate(over="ignore")  # c and the PEP's denominator overflow only when clamped
def _pair_spectrum(x: np.ndarray, sigma2: float) -> np.ndarray:
    """(A,) array s with s[k] = sum_i PEP(x[i ^ k] - x[i]): the summed
    closed-form PEP of the ordered pairs whose entries differ by k.

    The pair matrix is cut into T x T tiles, T = min(_TILE, A), both powers of
    two. Row block R meets a run of column blocks C, and its own T entries are
    gathered through _PERM, so that the pair at [C, m, b] joins entry C*T + b
    to the entry at XOR distance (R ^ C)*T + m. A tile's share of s is then
    its sum over b, added to row R ^ C of s viewed as (A/T, T).

    A tile stands for its orbit under two maps that keep each pair's XOR
    distance and PEP: the swap (R, C) -> (C, R), and, with F = mask // T for
    the mask of ``_negation_mask``, the negation (R, C) -> (R ^ F, C ^ F), whose
    tile holds the same PEPs bitwise, as (-a) - (-b) = -(a - b). With
    rep(C) = min(C, C ^ F), the pass walks the rows R = rep(R) against the
    columns rep(C) >= R, the blocks stored in that order so that a row's
    columns are one slice, and scales each tile by its orbit size: g when
    rep(C) == R, else 2g, with g = 2 (1 when F = 0). With F = 0 that is the
    upper triangle; otherwise a quarter of the tiles.

    The real and imaginary planes of x are scaled by 1 / (2 sigma), so that
    c = dr^2 + di^2 is |delta|^2 / (4 sigma^2) with no complex temporary.
    Two (A/T, T, T) buffers, reused by every row block, hold the whole PEP
    chain: the working set is O(A*T), and no (A, A) array is built."""
    size = len(x)
    tile = min(_TILE, size)
    perm = _PERM[:tile, :tile]
    blocks = size // tile
    fold = _negation_mask(x) // tile if blocks > 1 else 0
    flips = np.array([0, fold] if fold else [0])
    g = len(flips)
    rows = np.arange(blocks)
    rows = rows[rows <= rows ^ fold]
    order = (rows[:, None] ^ flips).ravel()
    scale = 1 / np.sqrt(4 * sigma2)
    planes = [(part * scale).reshape(-1, tile)[order] for part in (x.real, x.imag)]
    clamp = np.abs(x).max() * scale > np.sqrt(_C_MAX) / 4  # else all c < _C_MAX / 4
    work = np.empty((2, size * tile))
    s = np.zeros((blocks, tile))
    for r, first in zip(rows, range(0, blocks, g)):
        dr, di = work[:, :(blocks - first) * tile * tile].reshape(2, blocks - first, tile, tile)
        for d, plane in ((dr, planes[0]), (di, planes[1])):
            # a broadcast copy, then a subtraction whose (T, T) operand
            # spans whole tiles, ran ~20% faster than one broadcast subtract
            np.copyto(d, plane[first:, None, :])
            d -= plane[first, perm]
            np.multiply(d, d, out=d)
        c = np.add(dr, di, out=dr)
        if clamp:
            np.minimum(c, _C_MAX, out=c)
        peps = _pep_of_c(c, di).sum(axis=2)
        peps[g:] *= 2
        peps *= g
        s[r ^ order[first:]] += peps
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
    ``_pair_spectrum``, which evaluates each unordered pair's PEP once, and
    on an alphabet with a negation map x[i ^ m] = -x[i] only one of the pairs
    (i, j) and (i ^ m, j ^ m), which share theirs. One pass per
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
