"""ML and SIC detection plus the closed-form FLOP complexity counters.

Detectors are pure functions of (received signal, channel, config/alphabet)
and are deterministic: argmin ties always break toward the lowest hypothesis
index. Both operate on whole subcarrier vectors at once, a single subcarrier
being a 1-row call, and both return (alphabet entry indices, metrics).

Every decision goes through one kernel, ``_scan``, the argmin of |y - g x|^2
over a hypothesis set x: an ML scan, the ML searches' candidate scans, and
each SIC stage, which scans its residual over that stage's hypotheses.

ML detection is a nearest-point search: |y - h x|^2 = |h|^2 |y/h - x|^2, so
each subcarrier's decision is the alphabet point closest to y/h. Alphabets of
at most ``SCAN_MAX`` points are scanned exhaustively. Larger ones are searched
through a structure built once per alphabet: a cell table of candidate lists
(Bentley, Weide and Yao, ACM TOMS 1980) up to ``TABLE_MAX`` points, a group
bound (a branch-and-bound in the manner of Agrell et al., IEEE Trans. IT 2002)
beyond. Both only narrow the scan to candidates that hold the nearest point
and every point within a tie band of it, and a row they cannot settle is
scanned in full, so every path returns the same indices and metric bits as
the exhaustive scan, ties included.
"""

from __future__ import annotations

import math

import numpy as np

from .superposition import SuperAlphabet, SystemConfig, label_fields, rotation_flags

# Largest alphabet scanned exhaustively. One ML call on L = 2048 rows (a
# 16-block batch of 128 subcarriers), median of 7 runs at 10 and 30 dB on a
# 2-vCPU Xeon (numpy 2.4), scan against cell table: A = 16 in 0.35-0.38 ms
# against 0.48-0.56, A = 32 in 0.58-0.59 against 0.57-0.62, and A = 64 in
# 1.07-1.08 against 0.71-0.74. The table wins from A = 64.
SCAN_MAX = 32
# Largest alphabet searched through a cell table. Its build costs O(A^2) once
# per alphabet, 17-24 ms at A = 1024, 63-84 ms at 2048 and 0.23-0.26 s at
# 4096 on the same host, where a 2048-row call then takes 0.50-0.55 ms
# against 4.9 ms by the group bound.
TABLE_MAX = 4096
# Most shared hypotheses ``_scan`` walks one at a time. One call on L = 2048
# rows, median of 1000 on a 2-vCPU Xeon (numpy 2.4), walk against one (L, k)
# scan: k = 2 in 37-45 us against 104-120, k = 4 in 83-99 against 143-157,
# and k = 8 in 185-234 against 210-246. At k = 8 the walk also keeps a batch's
# temporaries at (L,): the (L, 8) scan's 384 KiB made glibc trim and refault
# the heap every batch, ~110k page faults in a default `ber` run against ~800.
# Per-row candidate lists stay on the (L, k) scan: the cell table's width
# classes often get a few rows, where the walk's k times more numpy calls
# cost more.
_WALK_MAX = 8
# Width of the cell table's margin around the points, in RMS amplitudes.
_MARGIN = 0.5
# Rows with |y/h| beyond _REACH box radii are scanned in full.
_REACH = 1e3
# Candidates scanned per chunk of rows: bounds the working memory.
_CHUNK = 2 ** 16
# Relative width of the tie band: every point within _TOL * (1 + |y/h| +
# max|x|) of a row's nearest point is among its candidates.
_TOL = 1e-9
# Squared distances and metrics stay normal floats while the scaled
# magnitudes stay inside (_TINY, _HUGE).
_TINY = np.sqrt(np.finfo(float).tiny)
_HUGE = np.sqrt(np.finfo(float).max) / 2


def _scan(y: np.ndarray, h: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmin of |y - h x|^2 over the last axis of ``x``, (A,) or (L, k), ties
    and NaN metrics as ``np.argmin`` takes them: the first least, or the first NaN.

    A set of up to _WALK_MAX hypotheses shared by every row is walked one
    hypothesis at a time on (L,) arrays, a NaN metric entering the running
    minimum as -1. Others are scanned as one (L, k) array in place, one
    complex and one real (L, k) array a call. Both form the same products
    h x; the exhaustive-scan tests pin that both give the same bits.
    """
    if x.ndim == 2 or len(x) > _WALK_MAX:
        d = h[:, None] * x
        np.subtract(y[:, None], d, out=d)
        d = np.abs(d)
        d *= d
        idx = np.argmin(d, axis=1)
        return idx, d[np.arange(len(y)), idx]
    idx = np.zeros(len(y), dtype=np.intp)
    for j, x_j in enumerate(x):
        d = h * x_j
        np.subtract(y, d, out=d)
        m = np.abs(d)
        m *= m
        np.fmax(m, -1.0, out=m)  # NaN -> -1, below every metric
        if j == 0:
            best = m
        else:
            idx[m < best] = j
            np.minimum(best, m, out=best)
    best[best < 0] = np.nan
    return idx, best


def _settle(y, h, rows, cand, points, idx, metric, table_row=None):
    """``_scan`` each of ``rows`` over its candidates into ``idx`` and
    ``metric``, in chunks of about _CHUNK candidates. ``cand`` holds entry
    indices sorted by index and ``points`` their points: one (width,) list
    shared by every row, or (n, width) tables whose row ``table_row[i]`` lists
    the candidates of ``rows[i]``."""
    step = max(1, _CHUNK // cand.shape[-1])
    for s in range(0, len(rows), step):
        r = rows[s:s + step]
        if table_row is None:
            k, metric[r] = _scan(y[r], h[r], points)
            idx[r] = cand[k]
        else:
            t = table_row[s:s + step]
            k, metric[r] = _scan(y[r], h[r], points.take(t, axis=0))
            idx[r] = cand[t, k]


class _CellTable:
    """Nearest-point candidates of u = y/h from a grid of cells over ``x``.

    A grid of about 4A square cells covers the points' bounding box plus a
    margin. A cell with centre c lists each point p that
    - lies within D(c) + diag + slack of c, D(c) being c's nearest-point
      distance and diag the cell diagonal, and
    - is not farther than q, the point nearest to c, by more than the slack
      everywhere in the cell. |u - p|^2 - |u - q|^2 is linear in u, so its
      least value over the cell lies at a corner.
    A point p within slack of the nearest point of some u in the cell passes
    both tests, the first as |c - p| <= |c - u| + D(u) + slack <=
    D(c) + diag + slack, so one scan of the cell's list is exact.

    A u outside the box reaches its nearest point p across the box edge at
    some v, with |v - p| <= D(v) + slack, so p is listed for an edge cell;
    ``hull`` holds those points. The slack, _TOL times the largest
    1 + |u| + max|x| the table serves, is far wider than the rounding of
    these distances.

    Lists vary in length (the centre of a PSK ring lists every point), so the
    build groups the cells into classes whose list lengths round up to the
    same power of two, at most log2(A) + 1 of them. A class keeps one (cells,
    width) table of its lists, each padded by repeating its last entry, the
    points of those entries beside it, and ``row`` maps each cell to its row.
    A call scans each class's rows with one row gather of that table.
    """

    def __init__(self, x: np.ndarray):
        self.xmax = float(np.abs(x).max())
        margin = _MARGIN * np.sqrt(np.mean(np.abs(x) ** 2))
        self.lo = np.array([x.real.min(), x.imag.min()]) - margin
        hi = np.array([x.real.max(), x.imag.max()]) + margin
        # about 4 square cells per point
        side = math.sqrt(np.prod(hi - self.lo) / (4 * len(x)))
        self.shape = G = np.ceil((hi - self.lo) / side).astype(int)
        self.step = (hi - self.lo) / G
        radius = float(np.hypot(*np.maximum(-self.lo, hi)))  # largest |u| in the box
        self.reach = _REACH * radius
        slack = _TOL * (1 + self.reach + self.xmax)
        # |u - p| - |u - q| > slack where |u - p|^2 - |u - q|^2 exceeds this
        beaten = 2 * slack * (radius + self.xmax)
        power = np.abs(x) ** 2
        c_re = self.lo[0] + (np.arange(G[0]) + 0.5) * self.step[0]
        c_im = self.lo[1] + (np.arange(G[1]) + 0.5) * self.step[1]
        d_im2 = (c_im[:, None] - x.imag) ** 2
        cells, points = [], []
        for i, c in enumerate(c_re):  # cells (i, 0..G[1]-1)
            d2 = (c - x.real) ** 2 + d_im2
            q = np.argmin(d2, axis=1)
            near = np.sqrt(d2[np.arange(G[1]), q]) + np.hypot(*self.step) + slack
            j, p = np.divmod(np.flatnonzero(d2 <= (near * near)[:, None]), len(x))
            dp = x[p] - x[q[j]]
            least = (power[p] - power[q[j]] - 2 * (c * dp.real + c_im[j] * dp.imag)
                     - self.step[0] * np.abs(dp.real) - self.step[1] * np.abs(dp.imag))
            keep = least <= beaten
            cells.append(i * G[1] + j[keep])
            points.append(p[keep])
        cell = np.concatenate(cells)
        listed = np.concatenate(points)  # by cell, then index
        count = np.bincount(cell, minlength=G[0] * G[1])
        first = np.cumsum(count) - count
        self.width = 2 ** np.ceil(np.log2(count)).astype(np.intp)
        self.row = np.empty_like(self.width)
        self.classes = []  # (width, candidates, their points) per width class
        for w in np.flatnonzero(np.bincount(self.width)):
            c = np.flatnonzero(self.width == w)
            self.row[c] = np.arange(len(c))
            cand = listed[first[c, None] + np.minimum(np.arange(w), count[c, None] - 1)]
            self.classes.append((w, cand, x[cand]))
        i, j = np.divmod(cell, G[1])
        edge = (i == 0) | (i == G[0] - 1) | (j == 0) | (j == G[1] - 1)
        self.hull = np.flatnonzero(np.bincount(listed[edge], minlength=len(x)))
        self.hull_x = x[self.hull]

    def settle(self, y, h, u, direct, idx, metric) -> np.ndarray:
        """Settle the ``direct`` rows in the box or within reach of it; returns
        the mask of rows left."""
        G = self.shape
        i = np.floor((u.real - self.lo[0]) / self.step[0])
        j = np.floor((u.imag - self.lo[1]) / self.step[1])
        in_box = direct & (i >= 0) & (i < G[0]) & (j >= 0) & (j < G[1])
        rows = np.flatnonzero(in_box)
        cell = (i[rows] * G[1] + j[rows]).astype(np.intp)
        widths, table_row = self.width[cell], self.row[cell]
        for w, cand, points in self.classes:
            at = widths == w
            _settle(y, h, rows[at], cand, points, idx, metric, table_row[at])
        hull = direct & ~in_box & (np.abs(u) <= self.reach)
        _settle(y, h, np.flatnonzero(hull), self.hull, self.hull_x, idx, metric)
        return ~(in_box | hull)


class _GroupBound:
    """Branch-and-bound nearest-point search of u = y/h over ``x``.

    The points are cut into about sqrt(A) groups of nearby points, each with
    its bounding box. A row visits the groups in order of the distance from
    u to their boxes, scanning each, until the next box lies farther than its
    best point plus the slack, _TOL * (1 + |u| + max|x|). Every point within
    the slack of the nearest is then scanned, and the best is kept by (metric,
    index), so ties go to the lowest index.
    """

    def __init__(self, x: np.ndarray):
        self.x = x
        self.xmax = float(np.abs(x).max())
        A = len(x)
        S = math.isqrt(A - 1) + 1
        n_g = -(-A // S)
        per_strip = math.isqrt(n_g - 1) + 1
        strip = np.empty(A, dtype=np.intp)  # strips of nearby real parts
        strip[np.argsort(x.real, kind="stable")] = np.arange(A) // (S * per_strip)
        order = np.pad(np.lexsort((x.real, x.imag, strip)), (0, n_g * S - A), mode="edge")
        self.groups = np.sort(order.reshape(n_g, S), axis=1)
        re, im = x.real[self.groups], x.imag[self.groups]
        self.lo = re.min(axis=1) + 1j * im.min(axis=1)
        self.hi = re.max(axis=1) + 1j * im.max(axis=1)

    def settle(self, y, h, u, direct, idx, metric) -> np.ndarray:
        """Settle the ``direct`` rows; returns the mask of rows left."""
        rows = np.flatnonzero(direct)
        step = max(1, _CHUNK // len(self.groups))
        for s in range(0, len(rows), step):
            r = rows[s:s + step]
            idx[r], metric[r] = self._search(y[r], h[r], u[r])
        return ~direct

    def _search(self, y, h, u):
        slack = _TOL * (1 + np.abs(u) + self.xmax)
        u = u[:, None]
        dx = np.maximum(self.lo.real - u.real, 0) + np.maximum(u.real - self.hi.real, 0)
        dy = np.maximum(self.lo.imag - u.imag, 0) + np.maximum(u.imag - self.hi.imag, 0)
        bound = dx * dx + dy * dy  # squared distance from u to each box
        best = np.full(len(y), np.inf)
        idx = np.zeros(len(y), dtype=np.intp)
        reach = np.full(len(y), np.inf)  # squared
        r = np.arange(len(y))
        while len(r):
            g = np.argmin(bound[r], axis=1)
            near = bound[r, g] <= reach[r]
            r, g = r[near], g[near]
            bound[r, g] = np.inf
            m = self.groups[g]
            k, d = _scan(y[r], h[r], self.x[m])
            i = m[np.arange(len(r)), k]
            better = (d < best[r]) | ((d == best[r]) & (i < idx[r]))
            b, d = r[better], d[better]
            best[b], idx[b] = d, i[better]
            reach[b] = (np.sqrt(d) / np.abs(h[b]) + slack[b]) ** 2
        return idx, best


def ml_block(y: np.ndarray, h: np.ndarray, alphabet: SuperAlphabet) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-distance decision per subcarrier; returns (entry indices, metrics).

    The result equals an exhaustive scan of |y - h x|^2 bit for bit, ties
    toward the lowest entry index. Alphabets of at most ``SCAN_MAX`` points
    are scanned. Larger ones are searched through the alphabet's cell table
    (up to ``TABLE_MAX`` points) or group bound, built on first use, which
    scan only candidates that hold the nearest point to y/h and every point
    within the tie band of it. A row is scanned in full instead when its
    metrics would leave the normal float range (|h| = 0, y/h overflowing) or
    y/h lies beyond the cell table's reach.
    """
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    x = alphabet.x
    if len(x) <= SCAN_MAX:
        return _scan(y, h, x)
    search = getattr(alphabet, "_search", None)
    if search is None:
        search = (_CellTable if len(x) <= TABLE_MAX else _GroupBound)(x)
        alphabet._search = search
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = y / h
        scale = 1 + np.abs(u) + search.xmax
        hs = np.abs(h) * scale
        direct = (scale < _HUGE) & (hs < _HUGE) & (hs * _TOL > _TINY)
    idx = np.empty(len(y), dtype=np.intp)
    metric = np.empty(len(y))
    rest = search.settle(y, h, np.where(direct, u, 0), direct, idx, metric)
    _settle(y, h, np.flatnonzero(rest), np.arange(len(x)), x, idx, metric)
    return idx, metric


class _SicStages:
    """The stage tables of SIC on one config, built once per config.

    Stage l scans ``hyps[l]``: the base constellation at a far stage, and at
    a near stage the (symbol, rotation) pairs, hypothesis k being symbol
    k // n_angles at rotation k % n_angles (1, or e^{j rotation_angle} when
    the config carries index bits). ``codes[l][k]`` is what hypothesis k adds
    to a row's code: its user's label field of the alphabet entry, shifted
    up by ``flag_bits``, and at a near stage of a config with index bits its
    rotation flag in bit l - n_far of the low ``flag_bits`` bits. ``phi``
    maps those packed flags to the nearest rotation pattern by Hamming
    distance, ties toward the smaller pattern index.
    """

    def __init__(self, cfg: SystemConfig):
        points = cfg.constellation.points
        labels, shifts = label_fields(cfg)
        n_angles = 2 if cfg.n_index_bits else 1
        self.flag_bits = cfg.n_users - cfg.n_far if cfg.n_index_bits else 0
        rot = np.exp(1j * np.array([0.0, cfg.rotation_angle][:n_angles]))
        near = (points[:, None] * rot).reshape(-1)
        angle = np.tile(np.arange(n_angles), len(points))
        self.hyps, self.codes = [], []
        for l in range(cfg.n_users):
            field = (labels << shifts[l]) << self.flag_bits
            if l < cfg.n_far:
                self.hyps.append(points)
                self.codes.append(field)
            else:
                self.hyps.append(near)
                self.codes.append(np.repeat(field, n_angles) | angle << (l - cfg.n_far))
        self.phi = None
        if cfg.n_index_bits:
            flags = np.arange(1 << self.flag_bits)[:, None] >> np.arange(self.flag_bits) & 1
            pats = rotation_flags(cfg)[:, cfg.n_far:]
            self.phi = np.argmin((flags[:, None, :] != pats).sum(axis=2), axis=1)


def sic_block(y: np.ndarray, h: np.ndarray, cfg: SystemConfig, user: int) -> tuple[np.ndarray, np.ndarray]:
    """Successive cancellation per subcarrier; returns (entry indices, metrics).

    Stage l is one ``_scan`` of the residual with gain amplitude_l * h over
    the stage's hypotheses (see ``_SicStages``, built on the config's first
    call) and cancels the chosen one. Far stages search the base
    constellation; near stages search (symbol, rotation) pairs when the
    config carries index bits and the base constellation otherwise (a
    transmitter without index bits never rotates). Detection stops at the
    user's own stage; the virtual user N+1 runs every stage and recovers the
    pattern.

    Entries hold the run stages' symbols and, after all N stages with index bits,
    the nearest rotation pattern; other fields stay 0. Metrics are the last stage's.
    """
    if not 1 <= user <= cfg.n_users + 1:
        raise ValueError(f"user {user} out of range")
    if user == cfg.n_users + 1 and cfg.index_user_mode != "virtual":
        raise ValueError("virtual user requires index_user_mode='virtual'")
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    stages = getattr(cfg, "_sic", None)
    if stages is None:
        stages = cfg._sic = _SicStages(cfg)
    n_stages = min(user, cfg.n_users)

    residual = y
    code = 0
    for l in range(n_stages):
        hyp = stages.hyps[l]
        gain = cfg.amplitudes[l] * h
        k, metric = _scan(residual, gain, hyp)
        code = code | stages.codes[l][k]
        if l + 1 < n_stages:
            residual = residual - gain * hyp[k]
    entries = code >> stages.flag_bits
    if n_stages == cfg.n_users and stages.phi is not None:
        entries |= stages.phi[code & (len(stages.phi) - 1)]
    return entries, metric


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
