"""Independent reference paths the tests check the package against.

Each one computes a result the package computes on its production path, but
one symbol, subcarrier or pair at a time: scalar bit mapping and
superposition, the per-call channel draws, OFDM framing, the quadrature PEP,
exhaustive ML scans, the cell table's candidate lists cell by cell, one
stop-rule batch drawn receiver by receiver on z = y/h and a point's rows cut
from a run of such batches. The exact per-channel BER of the default config
pins the model itself. The loaders of run outputs live here too: only tests
read them back.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc, ndtr

from imnomarc.constellation import Constellation
from imnomarc.detectors import _CELLS, _MARGIN, _REACH, _TOL
from imnomarc.harness import (BATCH_BLOCKS, BerRecord, ExperimentSpec, _decide, _PointContext,
                              noise_variance)
from imnomarc.superposition import SystemConfig, label_fields, spectral_efficiency


# --- constellation -----------------------------------------------------------

def index_for_bits(c: Constellation, bits) -> int:
    """Index of the point whose label is ``bits``."""
    key = np.asarray(bits, dtype=int)
    if key.shape != (c.bits_per_symbol,):
        raise ValueError(f"expected {c.bits_per_symbol} bits, got {len(key)}")
    return int(np.flatnonzero((c.bits == key).all(axis=1))[0])


def rotate(c: Constellation, angle: float) -> Constellation:
    """Rotate every point by ``angle`` radians; labels and power are preserved."""
    return Constellation(points=c.points * np.exp(1j * angle), bits=c.bits.copy())


def map_bits(c: Constellation, bits) -> complex:
    """Map a length-log2(M) bit sequence to its labeled point."""
    return complex(c.points[index_for_bits(c, bits)])


# --- superposition -----------------------------------------------------------

@dataclass
class ImPattern:
    """One row of the IM lookup table: pattern index and the rotated suffix."""

    phi: int
    rotated_set: tuple[int, ...]


def im_pattern(cfg: SystemConfig, phi: int) -> ImPattern:
    if not 0 <= phi < cfg.n_patterns:
        raise ValueError(f"pattern index {phi} out of range [0, {cfg.n_patterns})")
    rotated = tuple(range(cfg.n_users - phi + 1, cfg.n_users + 1))
    return ImPattern(phi=phi, rotated_set=rotated)


def superimpose(cfg: SystemConfig, s, phi: int) -> complex:
    """Power-weighted superposition of the per-user symbols for pattern phi.

    The last ``phi`` near users' symbols are rotated by the IM angle before
    the amplitude weighting; everyone else transmits unrotated.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (cfg.n_users,):
        raise ValueError(f"expected {cfg.n_users} symbols, got shape {s.shape}")
    if not 0 <= phi < cfg.n_patterns:
        raise ValueError(f"pattern index {phi} out of range [0, {cfg.n_patterns})")
    for sym in s:
        if np.min(np.abs(cfg.constellation.points - sym)) > 1e-9:
            raise ValueError(f"symbol {sym} not in the base constellation")
    rot = np.ones(cfg.n_users, dtype=complex)
    if phi > 0:
        rot[cfg.n_users - phi:] = np.exp(1j * cfg.rotation_angle)
    return complex(np.sum(cfg.amplitudes * rot * s))


def pack_bits(cfg: SystemConfig, p1_bits, p2_bits) -> tuple[np.ndarray, int]:
    """Map symbol bits (user order 1..N) and index bits to (symbol vector, phi).

    Index bits are read MSB-first as the natural-binary pattern index.
    """
    p1_bits = np.asarray(p1_bits, dtype=int)
    p2_bits = np.asarray(p2_bits, dtype=int)
    if p1_bits.shape != (cfg.n_symbol_bits,):
        raise ValueError(f"expected {cfg.n_symbol_bits} symbol bits, got {p1_bits.shape}")
    if p2_bits.shape != (cfg.n_index_bits,):
        raise ValueError(f"expected {cfg.n_index_bits} index bits, got {p2_bits.shape}")
    b = cfg.bits_per_symbol
    const = cfg.constellation
    s = np.array([const.points[index_for_bits(const, p1_bits[n * b:(n + 1) * b])]
                  for n in range(cfg.n_users)])
    phi = 0
    for bit in p2_bits:
        phi = (phi << 1) | int(bit)
    return s, phi


def entry_index(cfg: SystemConfig, sym_idx: np.ndarray,
                phis: np.ndarray | None = None) -> np.ndarray:
    """Alphabet entries of point indices (L, k) for users 1..k and patterns (L,),
    the inverse of build_super_alphabet's decode. The fields of users past k,
    and the index bits when ``phis`` is None, stay 0."""
    labels, shifts = label_fields(cfg)
    entries = (labels[sym_idx] << shifts[:sym_idx.shape[1]]).sum(axis=1)
    return entries if phis is None else entries | phis


def unpack_bits(cfg: SystemConfig, s, phi: int) -> np.ndarray:
    """Exact inverse of pack_bits."""
    s = np.asarray(s, dtype=complex)
    const = cfg.constellation
    bits = []
    for sym in s:
        idx = int(np.argmin(np.abs(const.points - sym)))
        if abs(const.points[idx] - sym) > 1e-9:
            raise ValueError(f"symbol {sym} not in the base constellation")
        bits.extend(int(v) for v in const.bits[idx])
    for k in range(cfg.n_index_bits - 1, -1, -1):
        bits.append((phi >> k) & 1)
    return np.array(bits, dtype=int)


# --- channel -----------------------------------------------------------------

@dataclass
class ChannelRealization:
    """Frequency response per (user, subcarrier) plus the shared noise variance."""

    h: np.ndarray       # (n_users, L) complex, i.i.d. CN(0, 1)
    noise_var: float    # sigma^2, identical at every user; 0 disables noise

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=complex)
        if not np.all(np.isfinite(self.h)):
            raise ValueError("channel response must be finite")
        if self.noise_var < 0:
            raise ValueError("noise variance must be non-negative")


def draw_channel(n_users: int, n_subcarriers: int, snr_db: float,
                 total_power: float = 1.0,
                 rng: np.random.Generator | None = None) -> ChannelRealization:
    """Draw i.i.d. CN(0,1) frequency responses for every user and subcarrier;
    an infinite SNR draws a noiseless channel."""
    rng = rng or np.random.default_rng()
    h = (rng.standard_normal((n_users, n_subcarriers))
         + 1j * rng.standard_normal((n_users, n_subcarriers))) / np.sqrt(2)
    noise_var = 0.0 if snr_db == np.inf else noise_variance(snr_db, total_power)
    return ChannelRealization(h=h, noise_var=noise_var)


def apply_channel(x: np.ndarray, ch: ChannelRealization, user: int,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Received signal y = h*x + w at the given (1-based) user; fresh noise per call."""
    x = np.asarray(x, dtype=complex)
    if not 1 <= user <= ch.h.shape[0]:
        raise ValueError(f"user {user} out of range")
    if x.shape != (ch.h.shape[1],):
        raise ValueError(f"expected {ch.h.shape[1]} subcarriers, got {x.shape}")
    y = ch.h[user - 1] * x
    if ch.noise_var > 0:
        rng = rng or np.random.default_rng()
        w = (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
        y = y + np.sqrt(ch.noise_var / 2) * w
    return y


def ofdm_modulate(freq_symbols: np.ndarray, cp_len: int) -> np.ndarray:
    """Unitary IFFT plus cyclic-prefix prepend."""
    freq_symbols = np.asarray(freq_symbols, dtype=complex)
    L = len(freq_symbols)
    if L & (L - 1):
        raise ValueError("subcarrier count must be a power of two")
    if not 0 <= cp_len < L:
        raise ValueError("cyclic prefix must satisfy 0 <= cp_len < L")
    time = np.fft.ifft(freq_symbols, norm="ortho")
    return np.concatenate([time[L - cp_len:], time])


def ofdm_demodulate(time_samples: np.ndarray, n_subcarriers: int, cp_len: int) -> np.ndarray:
    """Strip the cyclic prefix and apply the unitary FFT."""
    time_samples = np.asarray(time_samples, dtype=complex)
    if len(time_samples) != n_subcarriers + cp_len:
        raise ValueError(f"expected {n_subcarriers + cp_len} samples, got {len(time_samples)}")
    return np.fft.fft(time_samples[cp_len:], norm="ortho")


# --- analysis ----------------------------------------------------------------

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


def exact_far_ber_2u_bpsk(snr_db: float, scheme: str) -> float:
    """Exact far-user BER of 2:1:2 BPSK at power 0.9/0.1 over Rayleigh fading.

    ML and SIC both decide the far bit by the sign of Re(y/h), which sits at
    distance d from 0: a + b or a - b when the near user is unrotated, a when
    it is rotated by pi/2 (imnomarc only), with a = sqrt(0.9), b = sqrt(0.1).
    Each d errs with the Rayleigh BPSK probability at mean SNR d^2 / sigma^2.
    """
    a, b = np.sqrt(0.9), np.sqrt(0.1)
    d = np.array([a + b, a - b] + ([a, a] if scheme == "imnomarc" else []))
    snr = d ** 2 / noise_variance(snr_db)
    return float(np.mean(0.5 * (1 - np.sqrt(snr / (1 + snr)))))


def _legendre(lo, hi, panels: int, n: int):
    """Nodes and weights of ``panels`` n-point Gauss-Legendre rules tiling
    [lo, hi] along the last axis; lo and hi broadcast."""
    x, w = np.polynomial.legendre.leggauss(n)
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    step = (hi - lo) / panels
    starts = lo + step * np.arange(panels)
    nodes = (starts[..., None] + step[..., None] * (x + 1) / 2).reshape(*starts.shape[:-1], -1)
    weights = np.broadcast_to(step[..., None] * w / 2, starts.shape + (n,))
    return nodes, weights.reshape(nodes.shape)


def exact_ber_2u_bpsk(snr_db: float, scheme: str, user: str) -> float:
    """Exact BER of channel ``user`` ("1", "2" or "index") of 2:1:2 BPSK at
    power 0.9/0.1 over Rayleigh fading, by quadrature.

    ML and SIC decide alike on this config (a test pins it), so take SIC on
    z = y/h = x + n/h, with x = a s1 + u, a = sqrt(0.9), b = sqrt(0.1) and u
    = b s2, or j b s2 when imnomarc rotates the near user. By symmetry s1 = 1.
    Given t = |h|^2 the noise n/h has independent real and imaginary parts
    xi / k and eta / k, standard normal over k = sqrt(2t / sigma^2). The far
    bit is right iff a + Re u + xi / k > 0, and the residual is then r = u +
    n/h, else r = 2a + u + n/h. The near bit is decided by the sign of Re r +
    Im r (of Re r for PD-NOMA), the index bit "rotated" iff |Im r| > |Re r|.
    Given t and xi each is a Gaussian tail in eta, so the BER is a double
    integral: over xi by Gauss-Legendre on each piece of [-10, 10] between
    the kinks (the far boundary and Re r = 0), and over log t, from 1e-12 to
    60, by Gauss-Legendre panels against the Exp(1) density.
    """
    if user not in ("1", "2") and not (user == "index" and scheme == "imnomarc"):
        raise ValueError(f"no channel {user!r} in {scheme}")
    a, b = np.sqrt(0.9), np.sqrt(0.1)
    sigma2 = noise_variance(snr_db)
    log_t, w_t = _legendre(np.log(1e-12), np.log(60.0), 24, 32)
    t = np.exp(log_t)
    k = np.sqrt(2 * t / sigma2)[:, None]
    total = 0.0
    for u in [b, -b] + ([1j * b, -1j * b] if scheme == "imnomarc" else []):
        # the kinks in xi / k, sorted: k > 0 keeps their order for every t
        kinks = np.sort([-(a + u.real), -u.real, -(2 * a + u.real)])
        edges = np.clip(np.concatenate([[-np.inf], kinks, [np.inf]]) * k, -10.0, 10.0)
        xi, w_xi = _legendre(edges[:, :-1], edges[:, 1:], 1, 64)
        xi, w_xi = xi.reshape(len(t), -1), w_xi.reshape(len(t), -1)
        right = xi > -(a + u.real) * k
        if user == "1":
            err = ~right
        else:
            re = np.where(right, u.real, 2 * a + u.real) * k + xi  # k Re r
            im = u.imag * k                                        # k Im r = im + eta
            if user == "2":
                s2 = np.sign(u.real + u.imag)
                err = s2 * re < 0 if scheme == "pdnoma" else ndtr(-s2 * (re + im))
            else:
                inside = ndtr(np.abs(re) - im) - ndtr(-np.abs(re) - im)  # |Im r| < |Re r|
                err = inside if u.imag else 1 - inside
        conditional = np.sum(w_xi * np.exp(-xi * xi / 2) * err, axis=1) / np.sqrt(2 * np.pi)
        total += np.sum(w_t * t * np.exp(-t) * conditional)
    return float(total / (4 if scheme == "imnomarc" else 2))


# --- detection ---------------------------------------------------------------

def exhaustive_ml(y, h, alphabet):
    """Exhaustive scan of |y - h x|^2 over the whole alphabet, lowest index on
    ties; ``h`` is (L,) or a scalar every row shares."""
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    d = np.abs(y[:, None] - h[..., None] * alphabet.x[None, :]) ** 2
    idx = np.argmin(d, axis=1)
    return idx, d[np.arange(len(y)), idx]


def _numpy_product(a, b) -> complex:
    """a * b rounded as numpy's vector loops round it: they may fuse a multiply
    with the add or subtract of a complex product, Python's product never."""
    return complex((np.array([a], dtype=complex) * np.array([b], dtype=complex))[0])


def sic_scalar(y, h, cfg, user):
    """SIC one subcarrier and one stage at a time; (entries, metrics) as sic_block.

    Stage l = 1..min(user, N) tries every base point s in order, and at a near
    stage of a config with index bits s e^{j theta} after it for theta = 0 and
    the rotation angle. A trial scores |r - (a_l h) s'|^2 on the residual r;
    the first least wins and is subtracted. After all N stages of a config
    with index bits, the rotation flags map to the suffix pattern of least
    Hamming distance, ties toward fewer rotated users. The entry is the
    packed bit-string of the decided labels, then of the pattern; what no
    stage decides is 0. The metric is the last stage's least score. ``h`` is
    (L,) or a scalar every subcarrier shares.
    """
    c = cfg.constellation
    b = cfg.bits_per_symbol
    N, p2 = cfg.n_users, cfg.n_index_bits
    n_stages = min(user, N)
    thetas = [0.0, cfg.rotation_angle] if p2 else [0.0]
    turns = [complex(np.exp(1j * np.array([theta]))[0]) for theta in thetas]
    entries, metrics = [], []
    for y_i, h_i in zip(y, np.broadcast_to(h, np.shape(y))):
        r = complex(y_i)
        bits, flags = [], []
        for l in range(n_stages):
            gain = _numpy_product(cfg.amplitudes[l], h_i)
            trials = [(m, t, _numpy_product(point, turn))
                      for m, point in enumerate(c.points)
                      for t, turn in enumerate(turns if l >= cfg.n_far else turns[:1])]
            best = None
            for m, t, s in trials:
                d = np.array([r]) - np.array([gain]) * np.array([s])
                score = float((np.abs(d) ** 2)[0])
                if best is None or score < best[0]:
                    best = (score, m, t, s)
            score, m, t, s = best
            r = r - _numpy_product(gain, s)
            bits += [int(v) for v in c.bits[m]]
            if l >= cfg.n_far:
                flags.append(t)
        bits += [0] * (b * (N - n_stages))
        phi = 0
        if n_stages == N and p2:
            dist = [sum(f != (cfg.n_far + 1 + j > N - phi_) for j, f in enumerate(flags))
                    for phi_ in range(cfg.n_patterns)]
            phi = dist.index(min(dist))
        bits += [(phi >> k) & 1 for k in range(p2 - 1, -1, -1)]
        entries.append(int("".join(map(str, bits)), 2))
        metrics.append(score)
    return np.array(entries), np.array(metrics)


def brute_force_hypotheses(cfg):
    """Every superimposed symbol, in packed bit-string order, by inline superposition math."""
    points = cfg.constellation.points
    p = spectral_efficiency(cfg)
    b = cfg.bits_per_symbol
    hypotheses = []
    for bits_int in range(2 ** p):
        # decode the packed bit-string exactly as the transmitter would
        bits = [(bits_int >> (p - 1 - k)) & 1 for k in range(p)]
        s = []
        for n in range(cfg.n_users):
            chunk = tuple(bits[n * b:(n + 1) * b])
            s.append(points[index_for_bits(cfg.constellation, chunk)])
        phi = 0
        for bit in bits[cfg.n_symbol_bits:]:
            phi = phi * 2 + bit
        x = 0j
        for n in range(cfg.n_users):
            factor = 1j if (n + 1) > cfg.n_users - phi else 1.0
            x += np.sqrt(cfg.power_coeffs[n] * cfg.total_power) * factor * s[n]
        hypotheses.append(complex(x))
    return hypotheses


def brute_force_scan(y, h, hypotheses):
    """Index of the hypothesis nearest to ``y`` through ``h``, lowest on ties."""
    y, h = complex(y), complex(h)
    best = None
    for hyp_index, x in enumerate(hypotheses):
        metric = abs(y - h * x) ** 2
        if best is None or metric < best[1]:
            best = (hyp_index, metric)
    return best[0]


def canonical_entry(alphabet, idx):
    """Lowest alphabet index transmitting the same physical symbol.

    Rotation can map a constellation onto itself (QPSK under pi/2), so
    distinct (symbols, pattern) entries may share one superimposed value;
    decisions are only defined up to that physical value.
    """
    return int(np.flatnonzero(np.abs(alphabet.x - alphabet.x[idx]) < 1e-9)[0])


def brute_force_cell_lists(x, cells=None):
    """The candidate lists of ``cells`` (flat cell indices, default every
    cell) in the ML cell table over ``x``, each sorted by entry index.

    The grid is the table's: about 4A square cells, at most about _CELLS,
    over the points' bounding box plus _MARGIN RMS amplitudes. Each cell is
    measured against every point: a cell with centre c lists each point
    within D(c) + cell diagonal + slack of c that the point nearest to c
    beats by at most the slack at every corner of the cell.
    """
    margin = _MARGIN * np.sqrt(np.mean(np.abs(x) ** 2))
    lo = np.array([x.real.min(), x.imag.min()]) - margin
    hi = np.array([x.real.max(), x.imag.max()]) + margin
    side = np.sqrt(np.prod(hi - lo) / min(4 * len(x), _CELLS))
    G = np.ceil((hi - lo) / side).astype(int)
    step = (hi - lo) / G
    radius = float(np.hypot(*np.maximum(-lo, hi)))
    xmax = float(np.abs(x).max())
    slack = _TOL * (1 + _REACH * radius + xmax)
    beaten = 2 * slack * (radius + xmax)
    power = np.abs(x) ** 2
    c_im = lo[1] + (np.arange(G[1]) + 0.5) * step[1]
    cells = np.arange(G[0] * G[1]) if cells is None else np.asarray(cells)
    lists = {}
    for i in np.unique(cells // G[1]):
        c = lo[0] + (i + 0.5) * step[0]
        rows = cells[cells // G[1] == i] % G[1]
        # at most about 2^20 distances at once
        for rows in np.array_split(rows, -(-len(rows) * len(x) // 2 ** 20)):
            d2 = (c - x.real) ** 2 + (c_im[rows, None] - x.imag) ** 2
            q = np.argmin(d2, axis=1)
            near = np.sqrt(d2[np.arange(len(rows)), q]) + np.hypot(*step) + slack
            j, p = np.nonzero(d2 <= (near * near)[:, None])
            dp = x[p] - x[q[j]]
            least = (power[p] - power[q[j]] - 2 * (c * dp.real + c_im[rows[j]] * dp.imag)
                     - step[0] * np.abs(dp.real) - step[1] * np.abs(dp.imag))
            keep = least <= beaten
            for k, row in enumerate(rows):
                lists[i * G[1] + row] = p[keep & (j == k)]
    return [lists[cell] for cell in cells]


# --- harness -----------------------------------------------------------------

def run_block_oracle(ctx, snr_db, first_block, noiseless=False):
    """The stop-rule batch from ``first_block``, one receiver at a time: the
    fading powers t = |h|^2 of all its subcarriers in one exponential draw,
    then 2n Gaussians, the real and imaginary part of each subcarrier's noise
    in turn. Its signal equalised by h is z = x + sqrt(sigma^2 / 2) w / sqrt(t),
    part by part, and each of the spec's detectors decides z at unit gain,
    bits compared one by one. Returns the errors per detector and channel."""
    spec = ctx.spec
    n = BATCH_BLOCKS * spec.n_subcarriers
    ss = np.random.SeedSequence(entropy=spec.master_seed,
                                spawn_key=(int(round(snr_db * 1e6)) & 0xFFFFFFFF, first_block))
    rng = np.random.default_rng(ss)

    tx_entry = rng.integers(0, len(ctx.alphabet.x), size=n)
    tx_bits = ctx.alphabet.bits[tx_entry]
    x = ctx.alphabet.x[tx_entry]

    sigma2 = 0.0 if noiseless else noise_variance(snr_db)
    errors = {detector: {} for detector in spec.detectors}
    for rx in range(1, ctx.n_receivers + 1):
        t = rng.standard_exponential(n)
        w = rng.standard_normal(2 * n)
        z = np.empty(n, dtype=complex)
        z.real = x.real + w[0::2] * (np.sqrt(sigma2 / 2) / np.sqrt(t))
        z.imag = x.imag + w[1::2] * (np.sqrt(sigma2 / 2) / np.sqrt(t))
        for detector in spec.detectors:
            rx_bits = ctx.alphabet.bits[_decide(ctx, detector, z, 1.0, rx)]
            for name, pos, owner in ctx.channels:
                if owner == rx:
                    errors[detector][name] = int(
                        np.count_nonzero(rx_bits[:, pos] != tx_bits[:, pos]))
    return errors


def run_prefix_oracle(spec, snr_db):
    """``run_point``'s (detector, user, bits_sent, bit_errors) rows by the rule
    it replaced: every batch decided at every receiver by every detector, one
    ``run_block_oracle`` call each, until every channel is done. Each
    channel's count is then cut at the first batch where it met
    ``min_bit_errors`` or ``max_bits``."""
    ctx = _PointContext(spec)
    names = {name: len(pos) for name, pos, _ in ctx.channels}
    totals = {(d, name): 0 for d in spec.detectors for name in names}
    cut = {}
    first_block = 0
    while len(cut) < len(totals):
        errors = run_block_oracle(ctx, snr_db, first_block)
        first_block += BATCH_BLOCKS
        for d, name in totals:
            if (d, name) not in cut:
                totals[d, name] += errors[d][name]
                sent = first_block * spec.n_subcarriers * names[name]
                if totals[d, name] >= spec.min_bit_errors or sent >= spec.max_bits:
                    cut[d, name] = (sent, totals[d, name])
    return [(d, name, *cut[d, name]) for d in spec.detectors for name in names]


# --- run outputs -------------------------------------------------------------

def spec_from_dict(d: dict) -> ExperimentSpec:
    """The spec a manifest echoes, rebuilt."""
    return ExperimentSpec(**{**d, "cfg": SystemConfig(**d["cfg"])})


def load_results(csv_path) -> list[BerRecord]:
    """The records a results.csv holds, BER as printed."""
    records = []
    with open(csv_path, newline="") as f:
        for row in csv.DictReader(f):
            records.append(BerRecord(
                scheme=row["scheme"], detector=row["detector"], user=row["user"],
                snr_db=float(row["snr_db"]), bits_sent=int(row["bits_sent"]),
                bit_errors=int(row["bit_errors"]), ber=float(row["ber"])))
    return records
