"""ML and SIC detection plus the closed-form FLOP complexity counters.

Detectors are pure functions of (received signal, channel, config/alphabet)
and are deterministic: argmin ties always break toward the lowest hypothesis
index. Both operate on whole subcarrier vectors at once, a single subcarrier
being a 1-row call, and both return (alphabet entry indices, metrics). The
channel h is (L,), one gain per subcarrier, or a scalar every row shares: the
harness equalises each receiver's signal to z = y/h and passes h = 1.

Every decision goes through one kernel, ``_scan``, the argmin of |y - g x|^2
over a hypothesis set x: an ML scan, the ML searches' candidate scans, and
each SIC stage, which scans its residual over that stage's hypotheses.

ML detection is a nearest-point search: |y - h x|^2 = |h|^2 |y/h - x|^2, so
each subcarrier's decision is the alphabet point closest to y/h. Alphabets of
at most ``SCAN_MAX`` points are scanned exhaustively. Larger ones, of any
size, are searched through a cell table of candidate lists (Bentley, Weide
and Yao, ACM TOMS 1980) built once per alphabet. The table only narrows the
scan to candidates that hold the nearest point and every point within a tie
band of it, and a row it cannot settle is scanned in full, so both paths
return the same indices and metric bits as the exhaustive scan, ties included.

``ml_safe_radii`` and ``sic_noiseless`` give each alphabet entry x_e a safe
radius: no u within it of x_e changes the decision from that at u = x_e, in
the bits that matter, so a caller may skip detecting such a u. For ML it is
the packing radius of sphere decoding (Viterbo and Boutros, IEEE Trans. IT
1999), half the distance to the nearest entry that differs in those bits.
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
# Most cells in a cell table, about: 4 per point up to A = 8192. Beyond, the
# lists grow longer instead, and a table keeps no point table (see _CellTable).
_CELLS = 2 ** 15
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
# Rows per shared hypothesis below which ``_scan`` takes the (L, k) scan all
# the same: on few rows the walk's k times more numpy calls cost more, as on
# the few rows a batch leaves undecided after its skip. Median of 7 x 300
# calls on a 2-vCPU Xeon (numpy 2.4), walk against (L, k) scan: k = 8 at
# L = 64 in 34 against 9 us and at L = 512 in 55 against 33; k = 2 at L = 64
# in 12 against 7.5 and at L = 256 in 11 against 13. Below this the (L, 8)
# scan's temporaries stay under 64 KiB, clear of the heap trim above.
_WALK_ROWS = 64
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
    and NaN metrics as ``np.argmin`` takes them: the first least, or the first
    NaN. ``h`` is (L,) or a scalar.

    A set of up to _WALK_MAX hypotheses shared by every row, on at least
    _WALK_ROWS rows per hypothesis, is walked one hypothesis at a time on (L,)
    arrays, a NaN metric entering the running minimum as -1. Others are
    scanned as one (L, k) array, one complex and one real (L, k) array a
    call. Both form the same products h x; the exhaustive-scan tests pin that
    both give the same bits.
    """
    if x.ndim == 2 or len(x) > _WALK_MAX or len(y) < _WALK_ROWS * len(x):
        d = h[..., None] * x  # one (k,) row for every row of y when h is a scalar
        d = np.abs(np.subtract(y[:, None], d, out=d if d.ndim == 2 else None))
        d *= d
        idx = np.argmin(d, axis=1)
        return idx, d[np.arange(len(y)), idx]
    idx = np.zeros(len(y), dtype=np.intp)
    for j, x_j in enumerate(x):
        d = h * x_j  # a scalar when h is
        m = np.abs(np.subtract(y, d, out=d if d.ndim else None))
        m *= m
        np.fmax(m, -1.0, out=m)  # NaN -> -1, below every metric
        if j == 0:
            best = m
        else:
            idx[m < best] = j
            np.minimum(best, m, out=best)
    best[best < 0] = np.nan
    return idx, best


def _ranges(start: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The ranges start[i], ..., start[i] + n[i] - 1, one after another."""
    return np.arange(n.sum()) + np.repeat(start - (np.cumsum(n) - n), n)


def _settle(y, h, rows, cand, points, idx, metric, table_row=None):
    """``_scan`` each of ``rows`` over its candidates into ``idx`` and
    ``metric``, in chunks of about _CHUNK candidates. ``cand`` holds entry
    indices sorted by index: one (width,) list shared by every row, with
    ``points`` its points, or an (n, width) table whose row ``table_row[i]``
    lists the candidates of ``rows[i]``, with ``points`` the (n, width) table
    of their points or the alphabet itself, gathered per call. A scalar ``h``
    serves every row."""
    step = max(1, _CHUNK // cand.shape[-1])
    for s in range(0, len(rows), step):
        r = rows[s:s + step]
        g = h[r] if h.ndim else h
        if table_row is None:
            k, metric[r] = _scan(y[r], g, points)
            idx[r] = cand[k]
        else:
            t = table_row[s:s + step]
            k, metric[r] = _scan(y[r], g, points.take(t, axis=0) if points.ndim == 2
                                 else points[cand[t]])
            idx[r] = cand[t, k]


class _CellTable:
    """Nearest-point candidates of u = y/h from a grid of cells over ``x``.

    A grid of about 4A square cells, at most about _CELLS, covers the points'
    bounding box plus a margin. A cell with centre c lists each point p that
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

    The build measures each cell against a few nearby points, not all A. It
    bins the points into the grid, sorted by column, then row, then index,
    and gives each cell an upper bound U(c) >= D(c): the distance to a point
    of its own bin, or to a neighbour's point when nearer, swept over the 8
    neighbours until none is. Every point the rule lists then lies within
    r = U(c) + diag + 2 slack of c (one slack to spare for rounding), and
    within one column of bins that disc is one slice of the sorted points.
    The rule runs on those candidates with the float expressions of a scan
    of every point, q being the lowest index at the least distance, so the
    lists are the same. Cells go in chunks of about _CHUNK / 4 candidates
    and slices.

    Lists vary in length (the centre of a PSK ring lists every point), so the
    build groups the cells into classes whose list lengths round up to the
    same power of two, at most log2(A) + 1 of them. A class keeps one (cells,
    width) table of its lists, each padded by repeating its last entry, and
    ``row`` maps each cell to its row. A call scans each class's rows with
    one row gather of that table. Up to A = _CELLS / 4 the table's points sit
    beside it. On a capped grid the lists are longer (1.1M padded entries at
    A = 2^17), so a class keeps int32 entries only, and a call gathers their
    points from the alphabet.
    """

    def __init__(self, x: np.ndarray):
        self.xmax = float(np.abs(x).max())
        margin = _MARGIN * np.sqrt(np.mean(np.abs(x) ** 2))
        self.lo = np.array([x.real.min(), x.imag.min()]) - margin
        hi = np.array([x.real.max(), x.imag.max()]) + margin
        # about 4 square cells per point, at most about _CELLS
        side = math.sqrt(np.prod(hi - self.lo) / min(4 * len(x), _CELLS))
        self.shape = G = np.ceil((hi - self.lo) / side).astype(int)
        self.step = (hi - self.lo) / G
        radius = float(np.hypot(*np.maximum(-self.lo, hi)))  # largest |u| in the box
        self.reach = _REACH * radius
        slack = _TOL * (1 + self.reach + self.xmax)
        # |u - p| - |u - q| > slack where |u - p|^2 - |u - q|^2 exceeds this
        beaten = 2 * slack * (radius + self.xmax)
        compact = 4 * len(x) > _CELLS  # int32 lists without points, see above
        dtype = np.int32 if compact else np.intp
        self.width = np.empty(G[0] * G[1], dtype=np.intp)
        on_hull = np.zeros(len(x), dtype=bool)
        pieces = {}  # padded lists per width, in cell order
        for c0, c1, cell, listed in self._lists(x, slack, beaten):
            i, j = np.divmod(cell, G[1])
            on_hull[listed[(i == 0) | (i == G[0] - 1) | (j == 0) | (j == G[1] - 1)]] = True
            count = np.bincount(cell - c0, minlength=c1 - c0)
            first = np.cumsum(count) - count
            width = self.width[c0:c1] = 2 ** np.ceil(np.log2(count)).astype(np.intp)
            for w in np.flatnonzero(np.bincount(width)):
                c = np.flatnonzero(width == w)
                padded = listed[first[c, None] + np.minimum(np.arange(w), count[c, None] - 1)]
                pieces.setdefault(w, []).append(padded.astype(dtype, copy=False))
        self.row = np.empty_like(self.width)
        self.classes = []  # (width, candidates, their points or x) per width class
        for w in sorted(pieces):
            cand = np.concatenate(pieces.pop(w))
            c = np.flatnonzero(self.width == w)
            self.row[c] = np.arange(len(c))
            self.classes.append((w, cand, x if compact else x[cand]))
        self.hull = np.flatnonzero(on_hull)
        self.hull_x = x[self.hull]

    def _lists(self, x, slack, beaten):
        """Yield each chunk's (c0, c1, cell, listed): the lists of cells c0 ..
        c1 - 1 as (cell, point) pairs, by cell, then index."""
        G, lo, step = self.shape, self.lo, self.step
        n_cells = G[0] * G[1]
        diag = np.hypot(*step)
        c_re = lo[0] + (np.arange(G[0]) + 0.5) * step[0]
        c_im = lo[1] + (np.arange(G[1]) + 0.5) * step[1]

        def d2(i, j, p):  # squared distance from the centre of cell (i, j) to point p
            return (c_re[i] - x.real[p]) ** 2 + (c_im[j] - x.imag[p]) ** 2

        # the points binned into the grid, by column, then row, then index:
        # bin b holds order[first[b]:first[b + 1]], int32 as the largest array
        b = (np.clip(np.floor((x.real - lo[0]) / step[0]), 0, G[0] - 1) * G[1]
             + np.clip(np.floor((x.imag - lo[1]) / step[1]), 0, G[1] - 1)).astype(np.intp)
        order = np.argsort(b, kind="stable").astype(np.int32)
        first = np.zeros(n_cells + 1, dtype=np.intp)
        np.cumsum(np.bincount(b, minlength=n_cells), out=first[1:])
        del b
        # a point near each cell centre: one of its own, or a neighbour's
        # when nearer, until no neighbour offers a nearer one
        near = np.full(G + 2, -1)
        own = near[1:-1, 1:-1]
        full = first[:-1] < first[1:]
        own.flat[full] = order[first[:-1][full]]
        i, j = np.arange(G[0])[:, None], np.arange(G[1])
        best = np.where(own >= 0, d2(i, j, own), np.inf)
        moved = True
        while moved:
            moved = False
            for di, dj in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
                p = near[1 + di:G[0] + 1 + di, 1 + dj:G[1] + 1 + dj]
                d = np.where(p >= 0, d2(i, j, p), np.inf)
                better = d < best
                if better.any():
                    moved = True
                    own[better], best[better] = p[better], d[better]
        # a radius r per cell over the rule's D(c) + diag + slack, with a
        # slack to spare for rounding
        r = (np.sqrt(best) + diag + 2 * slack).reshape(-1)
        del near, own, best, p, d, better

        def columns(cells):
            """The first column within r of each cell's centre, and their number."""
            i, reach = cells // G[1] + 0.5, r[cells] / step[0]
            a0, a1 = (np.clip(np.floor(i + s * reach), 0, G[0] - 1).astype(np.intp) for s in (-1, 1))
            return a0, a1 - a0 + 1

        def window(cells, a):
            """The slice of ``order`` in column ``a`` that holds every point
            within r of each cell's centre."""
            i, j = np.divmod(cells, G[1])
            gap = np.maximum(np.abs(a - i) - 0.5, 0) * step[0]
            half = np.sqrt(np.maximum(r[cells] ** 2 - gap ** 2, 0)) / step[1]
            b0, b1 = (np.clip(np.floor(j + 0.5 + s * half), 0, G[1] - 1).astype(np.intp)
                      for s in (-1, 1))
            return first[a * G[1] + b0], first[a * G[1] + b1 + 1]

        def rule(c0, c1):
            """The lists of cells c0 .. c1 - 1 by the rule in the class
            docstring, as (cell, point) pairs by cell, then index."""
            a0, n = columns(np.arange(c0, c1))
            cell = np.repeat(np.arange(c0, c1), n)
            start, stop = window(cell, _ranges(a0, n))
            cell = np.repeat(cell, stop - start)
            p = order[_ranges(start, stop - start)]
            local = cell - c0
            dist = d2(*np.divmod(cell, G[1]), p)
            at = np.flatnonzero(np.diff(local, prepend=-1))
            nearest = np.minimum.reduceat(dist, at)
            q = np.minimum.reduceat(np.where(dist == nearest[local], p, len(x)), at)
            near = np.sqrt(nearest) + diag + slack
            keep = np.flatnonzero(dist <= (near * near)[local])
            cell, p, q = cell[keep], p[keep], q[local[keep]]
            i, j = np.divmod(cell, G[1])
            dp = x[p] - x[q]
            least = (np.abs(x[p]) ** 2 - np.abs(x[q]) ** 2
                     - 2 * (c_re[i] * dp.real + c_im[j] * dp.imag)
                     - step[0] * np.abs(dp.real) - step[1] * np.abs(dp.imag))
            keep = least <= beaten
            cell, p = cell[keep], p[keep]
            s = np.lexsort((p, cell))
            return cell[s], p[s]

        # cells in chunks of about _CHUNK / 4 slices and candidates, so that
        # their temporaries stay near 1 MiB beside the lists built so far
        a0, n = columns(np.arange(n_cells))
        load = n.copy()
        for k in range(n.max()):
            on = np.flatnonzero(k < n)
            start, stop = window(on, a0[on] + k)
            load[on] += stop - start
        part = (np.cumsum(load) - load) // (_CHUNK // 4)
        starts = np.flatnonzero(np.diff(part, prepend=-1))
        del a0, n, load, part, on, start, stop  # this frame lives through the chunks
        for c0, c1 in zip(starts, np.append(starts[1:], n_cells)):
            yield c0, c1, *rule(c0, c1)

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


def ml_block(y: np.ndarray, h: np.ndarray, alphabet: SuperAlphabet) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-distance decision per subcarrier; returns (entry indices, metrics).

    ``h`` is (L,) or a scalar gain every subcarrier shares. The result equals
    an exhaustive scan of |y - h x|^2 bit for bit, ties toward the lowest
    entry index. Alphabets of at most ``SCAN_MAX`` points are scanned. Larger
    ones are searched through the alphabet's cell table, built on first use,
    which scans only candidates that hold the nearest point to y/h and every
    point within the tie band of it. A row is scanned in full instead when
    its metrics would leave the normal float range (|h| = 0, y/h overflowing
    or not finite) or y/h lies beyond the cell table's reach.
    """
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    x = alphabet.x
    if len(x) <= SCAN_MAX:
        return _scan(y, h, x)
    search = getattr(alphabet, "_search", None)
    if search is None:
        search = alphabet._search = _CellTable(x)
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

    ``h`` is (L,) or a scalar gain every subcarrier shares. Stage l is one
    ``_scan`` of the residual with gain amplitude_l * h, a scalar when h is,
    over the stage's hypotheses (see ``_SicStages``, built on the config's
    first call) and cancels the chosen one. Far stages search the base
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
    stages = _sic_stages(cfg)
    n_stages = min(user, cfg.n_users)
    code = 0
    for l, _, _, k, metric in _sic_scans(y, h, cfg, stages, n_stages):
        code = code | stages.codes[l][k]
    return _sic_entries(cfg, stages, code, n_stages), metric


def _sic_stages(cfg: SystemConfig) -> _SicStages:
    """The config's stage tables, built on its first use."""
    stages = getattr(cfg, "_sic", None)
    if stages is None:
        stages = cfg._sic = _SicStages(cfg)
    return stages


def _sic_entries(cfg, stages, code, n_stages):
    """The entries of the codes that SIC's first ``n_stages`` stages built:
    their users' fields and, after all N stages with index bits, the
    nearest rotation pattern."""
    entries = code >> stages.flag_bits
    if n_stages == cfg.n_users and stages.phi is not None:
        entries |= stages.phi[code & (len(stages.phi) - 1)]
    return entries


def _sic_scans(y, h, cfg, stages, n_stages):
    """Yield SIC's first ``n_stages`` stages on ``y`` as (stage, residual,
    gain, chosen hypotheses, metrics), each stage's residual cancelled of the
    previous stage's choice."""
    residual = y
    for l in range(n_stages):
        gain = cfg.amplitudes[l] * h
        k, metric = _scan(residual, gain, stages.hyps[l])
        yield l, residual, gain, k, metric
        if l + 1 < n_stages:
            residual = residual - gain * stages.hyps[l][k]


def _radii(r, p0, points, rival, scale):
    """Per row i, how far r[i] may move and stay nearer to p0[i] than to
    every point points[j] that rival[i, j] marks: the distance from r[i] to
    the nearest bisector of p0[i] and a rival, less a slack of _TOL * scale,
    clamped at 0. Within it a rival p's metric |u - p|^2 exceeds p0[i]'s by
    at least 2 |p - p0[i]| _TOL scale. The metrics' rounding, a few ulps of
    scale^2, cannot undo that once |p - p0[i]| > sqrt(_TOL) scale, so a
    nearer rival gives 0."""
    out = np.full(len(r), np.inf)
    for j, p in enumerate(points):
        delta = p - p0
        d = np.abs(delta)
        with np.errstate(divide="ignore", invalid="ignore"):  # d = 0
            dist = (((p + p0) / 2 - r) * delta.conj()).real / d
        dist[d <= np.sqrt(_TOL) * scale] = 0
        np.minimum(out, np.where(rival[:, j], dist, np.inf), out=out)
    return np.maximum(out - _TOL * scale, 0)


def ml_safe_radii(x: np.ndarray, rival: np.ndarray) -> np.ndarray:
    """(A,) safe radius of each alphabet entry under ML: every u within it
    of x[e] is nearer to x[e] than to any entry j that rival[e, j] marks, so
    ``ml_block`` decides no rival of e there at unit gain. Without a slack it
    would be half the distance to the nearest rival. O(A^2)."""
    return _radii(x, x, x, rival, 1 + 2 * np.abs(x).max())


def sic_noiseless(x: np.ndarray, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """SIC on the points ``x`` of the alphabet of ``cfg`` themselves, in one
    pass over the N stages: (N, A) decisions and (N, A) safe radii, row l for
    a user that runs stages 0..l. Row l's decision at x[e] is ``sic_block``'s
    at unit gain, and every u within row l's radius of x[e] takes at each of
    those stages the hypothesis x[e] takes, so it decides the same entry.
    Each stage adds the same u - x[e] to its residual, so row l's radius is
    the least over those stages of the residual's ``_radii`` to the rivals
    of its choice. O(A * N * 2M)."""
    stages = _sic_stages(cfg)
    scale = 1 + 2 * np.abs(x).max()
    decided = np.empty((cfg.n_users, len(x)), dtype=np.intp)
    out = np.empty((cfg.n_users, len(x)))
    radii = np.full(len(x), np.inf)
    code = 0
    h = np.asarray(1.0, dtype=complex)
    for l, residual, gain, k, _ in _sic_scans(x, h, cfg, stages, cfg.n_users):
        code = code | stages.codes[l][k]
        decided[l] = _sic_entries(cfg, stages, code, l + 1)
        points = gain * stages.hyps[l]
        rival = np.arange(len(points)) != k[:, None]
        out[l] = radii = np.minimum(radii, _radii(residual, points[k], points, rival, scale))
    return decided, out


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
