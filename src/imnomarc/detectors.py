"""ML and SIC detection plus the closed-form FLOP complexity counters.

Detectors are pure functions of (received signal, channel, config/alphabet)
and are deterministic: argmin ties always break toward the lowest hypothesis
index. Both operate on whole subcarrier vectors at once, a single subcarrier
being a 1-row call, and both return (alphabet entry indices, metrics).

Every decision goes through one kernel, ``_scan``, the argmin of |y - g x|^2
over a hypothesis set x: an ML scan, the k-d tree's candidate rescoring, and
each SIC stage, which scans its residual over that stage's hypotheses.

ML detection is a nearest-point search: |y - h x|^2 = |h|^2 |y/h - x|^2, so
each subcarrier's decision is the alphabet point closest to y/h. Alphabets of
at most ``SCAN_MAX`` points are scanned exhaustively; larger ones are queried
through a k-d tree built once per alphabet. The tree only proposes candidates:
their metrics are recomputed with the scan's own expression and any row the
candidates cannot settle goes to the scan, so both paths return the same
indices and metric bits, ties included.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .superposition import SuperAlphabet, SystemConfig, entry_index, rotation_flags

# Largest alphabet scanned exhaustively. One ML call at L = 128, median of 7
# runs on a 2-vCPU Xeon (numpy 2.4, scipy 1.17): A = 64 scans in 58-68 us
# against 105-158 us through the tree, A = 128 in 98-109 us against 105-130 us,
# A = 256 in 566-600 us against 100-180 us, A = 512 in 1266-1373 us against
# 179-233 us.
SCAN_MAX = 128
# Relative width of the tie band: a row whose k-th candidate lies within
# _TOL * (1 + |y/h| + max|x|) of its nearest is scanned.
_TOL = 1e-9
# Squared distances and metrics stay normal floats while the scaled
# magnitudes stay inside (_TINY, _HUGE).
_TINY = np.sqrt(np.finfo(float).tiny)
_HUGE = np.sqrt(np.finfo(float).max) / 2


def _scan(y: np.ndarray, h: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmin of |y - h x|^2 over the last axis of ``x``, (A,) or (L, k)."""
    d = np.abs(y[:, None] - h[:, None] * x) ** 2
    idx = np.argmin(d, axis=1)
    return idx, d[np.arange(len(y)), idx]


def _max_coincident(x: np.ndarray) -> int:
    """Largest number of entries sharing one point, to 9 decimals.

    Run lengths of the values sorted in place: half the peak memory of
    np.unique, which matters at the 2^20 alphabet cap.
    """
    r = np.round(x, 9)
    r.sort()
    return int(np.diff(np.flatnonzero(np.r_[True, r[1:] != r[:-1], True])).max())


def _nearest_points(alphabet) -> tuple[cKDTree, int, float]:
    """The alphabet's k-d tree, candidate count k and max |x|, built on first use.

    k is one more than the largest number of entries sharing a point, so the
    k-th candidate of a well-separated sample lies past every copy of the
    nearest point.
    """
    cached = getattr(alphabet, "_nearest", None)
    if cached is None:
        x = alphabet.x
        k = 1 + _max_coincident(x)
        cached = (cKDTree(np.column_stack([x.real, x.imag])), k, float(np.abs(x).max()))
        alphabet._nearest = cached
    return cached


def ml_block(y: np.ndarray, h: np.ndarray, alphabet: SuperAlphabet) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-distance decision per subcarrier; returns (entry indices, metrics).

    The result equals an exhaustive scan of |y - h x|^2 bit for bit, ties
    toward the lowest entry index. Alphabets of at most ``SCAN_MAX`` points
    are scanned. Larger ones take the k nearest points to y/h from a k-d tree
    and rescore them with the scan's expression. A row is scanned instead when
    the k-th candidate lies within the tie band of the nearest (midpoints,
    coincident entries) or when its metrics would leave the normal float range
    (|h| = 0, y/h overflowing).
    """
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    x = alphabet.x
    if len(x) <= SCAN_MAX:
        return _scan(y, h, x)
    tree, k, xmax = _nearest_points(alphabet)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = y / h
        scale = 1 + np.abs(u) + xmax
        hs = np.abs(h) * scale
        direct = (scale < _HUGE) & (hs < _HUGE) & (hs * _TOL > _TINY)
    u = np.where(direct, u, 0)
    dist, cand = tree.query(np.column_stack([u.real, u.imag]), k=k)
    direct &= dist[:, -1] > dist[:, 0] + _TOL * scale
    cand = np.sort(cand, axis=1)
    j, metric = _scan(y, h, x[cand])
    idx = cand[np.arange(len(y)), j]
    if not direct.all():
        rest = ~direct
        idx[rest], metric[rest] = _scan(y[rest], h[rest], x)
    return idx, metric


def angles_to_phi_block(theta_flags: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Project per-user rotation flags onto the nearest valid pattern index.

    ``theta_flags`` is (L, n_near), one 0/1 column per near user from user
    B+1 to N, 1 marking a rotated user. A non-suffix row maps to the valid
    pattern at minimum Hamming distance, ties toward the smaller index.
    """
    flags = np.asarray(theta_flags, dtype=int)
    n_near = cfg.n_users - cfg.n_far
    if flags.shape[1] != n_near:
        raise ValueError(f"expected {n_near} rotation flags, got {flags.shape[1]}")
    pats = rotation_flags(cfg)[:, cfg.n_far:]
    dist = np.count_nonzero(flags[:, None, :] != pats[None, :, :], axis=2)
    return np.argmin(dist, axis=1)


def sic_block(y: np.ndarray, h: np.ndarray, cfg: SystemConfig, user: int) -> tuple[np.ndarray, np.ndarray]:
    """Successive cancellation per subcarrier; returns (entry indices, metrics).

    Stage l is one ``_scan`` of the residual with gain amplitude_l * h and
    cancels the chosen hypothesis. Far stages search the base constellation;
    near stages search (symbol, rotation) pairs, the rotation factor being 1
    (theta index 0) or e^{j rotation_angle} (theta index 1), when the config
    carries index bits and the base constellation otherwise (a transmitter without
    index bits never rotates; theta index 0). Detection stops at the user's
    own stage; the virtual user N+1 runs every stage and recovers the pattern.

    Entries hold the run stages' symbols and, after all N stages with index bits,
    the nearest rotation pattern; other fields stay 0. Metrics are the last stage's.
    """
    if not 1 <= user <= cfg.n_users + 1:
        raise ValueError(f"user {user} out of range")
    if user == cfg.n_users + 1 and cfg.index_user_mode != "virtual":
        raise ValueError("virtual user requires index_user_mode='virtual'")
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    points = cfg.constellation.points
    n_angles = 2 if cfg.n_index_bits else 1
    n_stages = min(user, cfg.n_users)

    residual = y
    sym_idx = np.empty((len(y), n_stages), dtype=int)  # hypothesis index per stage
    for l in range(n_stages):
        if l < cfg.n_far:
            hyp = points
        elif l == cfg.n_far:  # built at the first near stage, kept for the rest
            # near hypothesis index = symbol index * n_angles + angle index
            rot = np.exp(1j * np.array([0.0, cfg.rotation_angle][:n_angles]))
            hyp = (points[:, None] * rot).reshape(-1)
        gain = cfg.amplitudes[l] * h
        sym_idx[:, l], metric = _scan(residual, gain, hyp)
        residual = residual - gain * hyp[sym_idx[:, l]]
    sym_idx[:, cfg.n_far:], theta_idx = np.divmod(sym_idx[:, cfg.n_far:], n_angles)

    phi_hat = None
    if n_stages == cfg.n_users and cfg.n_index_bits > 0:
        phi_hat = angles_to_phi_block(theta_idx != 0, cfg)
    return entry_index(cfg, sym_idx, phi_hat), metric


def flops_ml(cfg: SystemConfig) -> int:
    """FLOPs per subcarrier for the exhaustive-search detector."""
    return 3 * cfg.mod_order ** cfg.n_users * cfg.n_patterns


def flops_sic(cfg: SystemConfig, user: int) -> int:
    """FLOPs per subcarrier for SIC detection at the given user."""
    M = cfg.mod_order
    if 1 <= user <= cfg.n_far:
        return 3 * M * user + user - 1
    if cfg.n_far < user <= cfg.n_users:
        return 3 * M * cfg.n_far + 4 * M * cfg.n_patterns * (user - cfg.n_far) + user - 1
    raise ValueError(f"user {user} outside the SIC complexity formulas")
