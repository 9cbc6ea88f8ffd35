"""Monte Carlo experiment engine: transmit -> channel -> detect loops over SNR
grids with per-user bit-error accounting and reproducible, batch-seeded RNG.

Every scheme is a ``SystemConfig`` (``ExperimentSpec.scheme_cfg``): IM-NOMA-RC
the spec's config, PD-NOMA that config without index bits and OFDM the
one-user system. A sweep runs on that config's super-alphabet and channel table.

The stop rule is evaluated on batches of ``BATCH_BLOCKS`` OFDM blocks of L
subcarriers, per detector and tracked channel. Every batch draws its symbols and,
per receiver, two uniforms per subcarrier, one for the magnitude and one for
the phase of the equalised noise, from one RNG stream derived from (master
seed, SNR point, first block). Then each receiver that a running detector
still needs skips the rows whose magnitude uniform alone puts the noise
inside the sent entry's safe radius, the least over the spec's detectors,
where every detector counts the errors of its noiseless decision. It
equalises the other rows to z = y/h once, and each detector live there
decides that z in one call; each open channel counts its errors once. A
sweep runs all of its detectors in one pass, and each (detector, channel)
pair stops on its own stop rule, so a channel's row is the shared stream
cut at its own stop batch: the row a sweep of that detector alone, with
every receiver deciding every batch, would reach at that batch.
Detection draws no random numbers, so a fixed seed reproduces results.csv
byte for byte.
"""

from __future__ import annotations

import datetime
import functools
import json
import logging
import math
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .detectors import SCAN_MAX, ml_block, ml_safe_radii, sic_block, sic_noiseless
from .superposition import (SystemConfig, alphabet_size, build_super_alphabet, channels,
                            spectral_efficiency)

log = logging.getLogger(__package__)

SCHEMES = ("imnomarc", "pdnoma", "ofdm")
DETECTORS = ("ml", "sic")
# Stop-rule and RNG granularity: bits_sent is a multiple of it and every batch
# of it draws from one stream, so changing it changes results.csv at every seed.
BATCH_BLOCKS = 16
# Most bytes a batch may hold at once (``batch_bytes``). L = 128 needs 0.64 MiB
# on 2:1:2 and 1.83 MiB on 4:1:4 (A = 1024); 2^30 B admits L up to 203,978 and
# 71,620.
BATCH_BUDGET = 2 ** 30


def _seed_key(snr_db: float) -> int:
    """The SNR point's word in the spawn key of its batches' streams."""
    return int(round(snr_db * 1e6)) & 0xFFFFFFFF


def noise_variance(snr_db: float, total_power: float = 1.0) -> float:
    """AWGN variance of a system SNR, total transmit power over noise power.

    ValueError for any SNR whose variance is not a positive finite float.
    """
    try:
        sigma2 = total_power / 10 ** (snr_db / 10)
    except (OverflowError, ZeroDivisionError):  # 10^(snr/10) leaves the float range
        sigma2 = np.nan
    if not 0 < sigma2 < np.inf:
        raise ValueError(f"SNR {snr_db:g} dB: noise variance not a positive finite float")
    return sigma2


def check_snr_grid(snr_grid_db) -> tuple[float, ...]:
    """The grid as floats. ValueError unless every entry is finite, has a positive
    finite noise variance and a label and seed key of its own, and exceeds the last."""
    grid = tuple(float(v) for v in snr_grid_db)
    if not all(np.isfinite(grid)):
        raise ValueError("SNR grid entries must be finite")
    for snr_db in grid:
        noise_variance(snr_db)  # ValueError past the float range
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly increasing")
    for key, what in (("{:g}".format, "results.csv label"), (_seed_key, "seed key")):
        if len(set(map(key, grid))) < len(grid):
            raise ValueError(f"two SNR grid points share a {what} and would run as one")
    return grid


def batch_bytes(n_subcarriers: int, n_receivers: int, scan_width: int) -> int:
    """Bytes a batch of ``BATCH_BLOCKS`` blocks holds at its peak, while one
    receiver scans: the (R, 2n) draw of uniforms, n tx entries, the skip
    test's (n,) gathered threshold and the receiver's row mask, the decided
    rows' indices, entries and symbols and the take copy of their uniforms
    that becomes z, the scan's (n, scan_width) complex plus real temporary,
    and its decisions, row index and metrics. No h array is held: the
    detectors take a unit gain."""
    n = BATCH_BLOCKS * n_subcarriers
    return n * (16 * n_receivers + 8 + (8 + 1) + (8 + 8 + 16 + 16) + 24 * scan_width + 24)


@dataclass
class ExperimentSpec:
    """One sweep definition: scheme, detectors, SNR grid, and stop rule."""

    scheme: str = "imnomarc"
    cfg: SystemConfig = field(default_factory=SystemConfig)
    detectors: tuple[str, ...] = ("ml",)
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    n_subcarriers: int = 128
    max_bits: int = 10_000_000
    min_bit_errors: int = 200
    master_seed: int = 0
    ofdm_order: int = 8
    ofdm_family: str = "QAM"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        self.detectors = tuple(self.detectors)
        for detector in self.detectors:
            if detector not in DETECTORS:
                raise ValueError(f"unknown detector {detector!r}")
        if not self.detectors or len(set(self.detectors)) < len(self.detectors):
            raise ValueError(f"detectors must be one or more distinct names, "
                             f"got {self.detectors}")
        self.snr_grid_db = check_snr_grid(self.snr_grid_db)
        if self.min_bit_errors < 1:
            raise ValueError("min_bit_errors must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.max_bits < 10 * self.min_bit_errors:
            raise ValueError("max_bits must be at least 10x min_bit_errors")
        if self.n_subcarriers < 1:
            raise ValueError("n_subcarriers must be positive")
        cfg = self.scheme_cfg()
        width = min(alphabet_size(cfg), SCAN_MAX)
        if "sic" in self.detectors:  # a near stage scans every (symbol, rotation)
            width = max(width, 2 * cfg.mod_order)
        receivers = max(rx for _, _, rx in channels(cfg))
        need = batch_bytes(self.n_subcarriers, receivers, width)
        if need > BATCH_BUDGET:
            raise ValueError(f"{self.n_subcarriers} subcarriers need {need} bytes per "
                             f"batch, over the budget of {BATCH_BUDGET}")

    @property
    def detector(self) -> str:
        """The detectors as one label, "ml+sic"; ``bench/worker.py`` names its
        per-sweep timings by it."""
        return "+".join(self.detectors)

    def scheme_cfg(self) -> SystemConfig:
        """The system the scheme transmits: PD-NOMA is the config without IM,
        and OFDM the one-user system on the ``ofdm_order``-point
        ``ofdm_family`` constellation, whose single user takes all the power."""
        if self.scheme == "ofdm":
            return SystemConfig(n_users=1, n_far=1, mod_order=self.ofdm_order,
                                family=self.ofdm_family, power_coeffs=(1.0,))
        return self.cfg if self.scheme == "imnomarc" else replace(self.cfg, im_enabled=False)


@dataclass
class BerRecord:
    scheme: str
    detector: str
    user: str
    snr_db: float
    bits_sent: int
    bit_errors: int
    ber: float


class _PointContext:
    """Everything a block needs, built once per sweep.

    ``cfg`` is the spec's ``scheme_cfg()`` and ``alphabet`` its super-alphabet.
    ``channels`` lists each tracked error curve once as (name, bit positions
    in the packed per-subcarrier string, receiver that decides it): the
    config's ``superposition.channels``. ``weights`` maps each curve to its
    (A,) weight table: entry k carries weights[name][k] of the curve's bits
    set. ``bits_per_block`` maps each curve to the bits one block carries on it.
    ``draw`` holds one batch's (R, 2n) draw of uniforms in [0, 1), one row
    per receiver: n magnitude uniforms u, then n phase uniforms v. It is
    refilled by every batch rather than allocated anew: an array over glibc's
    mmap threshold, freed each batch, is faulted back in from the kernel by
    the next.

    ``radius2`` maps each receiver to the (A,) squared safe radius of each
    entry there: the least over the spec's detectors of ``ml_safe_radii``
    (over the entries that differ in a bit the receiver decides) and
    ``sic_noiseless``'s radius. A row whose noise lies inside it skips
    detection at that receiver for every detector. ML over more than
    ``SCAN_MAX`` entries has no radii, its pair pass costing more than the
    skip saves, so its receivers' radii are 0 and no row skips there.
    ``floors`` maps (detector, receiver) to the error table of each channel
    the receiver decides whose noiseless decision D0 (of z = x) errs:
    weights[name][D0 ^ e] at entry e. ``thresholds(sigma2)`` turns each
    receiver's squared radii into the skip test's bound on u at one noise
    variance.
    ``decided`` and ``drawn`` count, per detector, the rows it decided and
    the rows drawn for its live receivers since ``run_point`` reset them.
    """

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.cfg = spec.scheme_cfg()
        self.alphabet = build_super_alphabet(self.cfg)
        self.channels = channels(self.cfg)
        self.n_receivers = max(rx for _, _, rx in self.channels)
        self.weights = {name: self.alphabet.bits[:, pos].sum(axis=1, dtype=np.int64)
                        for name, pos, _ in self.channels}
        self.bits_per_block = {name: spec.n_subcarriers * len(pos)
                               for name, pos, _ in self.channels}
        self.draw = np.empty((self.n_receivers, 2 * BATCH_BLOCKS * spec.n_subcarriers))
        self.decided = dict.fromkeys(spec.detectors, 0)
        self.drawn = dict.fromkeys(spec.detectors, 0)
        x = self.alphabet.x
        entries = np.arange(len(x))
        sic = sic_noiseless(x, self.cfg) if "sic" in spec.detectors else None
        self.radius2, self.floors = {}, {}
        for rx in range(1, self.n_receivers + 1):
            owned = [name for name, _, owner in self.channels if owner == rx]
            radius2 = self.radius2[rx] = np.full(len(x), np.inf)
            for detector in spec.detectors:
                if detector == "sic":  # the virtual user runs the N stages of user N
                    noiseless, radii = (rows[min(rx, self.cfg.n_users) - 1] for rows in sic)
                elif len(x) <= SCAN_MAX:
                    weight = sum(self.weights[name] for name in owned)
                    radii = ml_safe_radii(x, weight[entries[:, None] ^ entries] > 0)
                    noiseless = _decide(self, detector, x, 1.0, rx)
                else:  # no radii: no row skips at rx, and no floor is read
                    radius2[:] = 0
                    self.floors[detector, rx] = {}
                    continue
                np.minimum(radius2, radii * radii, out=radius2)
                self.floors[detector, rx] = {
                    name: table for name in owned
                    if (table := self.weights[name][noiseless ^ entries]).any()}
        self._thresholds = (None, {})

    def thresholds(self, sigma2: float) -> dict[int, np.ndarray]:
        """For each receiver, the (A,) bound rho^2 / (rho^2 + sigma2) on the
        magnitude uniform u under which the noise of a row that sends the
        entry lies inside its safe radius: |w|^2 = sigma2 u / (1 - u) < rho^2
        iff u < rho^2 / (rho^2 + sigma2). An entry with rho = 0 has bound 0
        and never skips. Built once per noise variance, so once per point."""
        if self._thresholds[0] != sigma2:
            self._thresholds = (sigma2, {
                rx: np.divide(rho2, rho2 + sigma2, out=np.zeros_like(rho2), where=rho2 > 0)
                for rx, rho2 in self.radius2.items()})
        return self._thresholds[1]


def _decide(ctx: _PointContext, detector: str, y: np.ndarray, h: np.ndarray,
            rx: int) -> np.ndarray:
    """Decided (L,) alphabet entries of ``detector`` at receiver ``rx`` from
    the signal ``y`` through the gain ``h``, (L,) or a scalar.

    ML decides whole entries; the fields SIC leaves undecided belong to no
    channel of ``rx``.
    """
    if detector == "ml":
        return ml_block(y, h, ctx.alphabet)[0]
    return sic_block(y, h, ctx.cfg, rx)[0]


def _equalise(uv: np.ndarray, sigma2: float, x: np.ndarray) -> np.ndarray:
    """z = x + sqrt(sigma2 u / (1 - u)) (cos 2 pi v + j sin 2 pi v) from the
    (2, k) uniforms ``uv``, k magnitude uniforms u then k phase uniforms v,
    built in place in ``uv`` and returned as its (k,) complex view. u < 1, so
    z is finite."""
    u, v = uv
    r = sigma2 * u
    r /= 1 - u
    np.sqrt(r, out=r)
    theta = v * (2 * np.pi)
    z = uv.reshape(-1, 2)
    np.cos(theta, out=z[:, 0])
    np.sin(theta, out=z[:, 1])
    z *= r[:, None]
    z = z.view(complex)[:, 0]
    z += x
    return z


def _run_batch(ctx: _PointContext, snr_db: float, first_block: int,
               live: dict[str, set[int]]) -> dict[str, dict[str, int]]:
    """Error counts over the BATCH_BLOCKS blocks from ``first_block`` for each
    detector of ``live`` and each channel decided at one of the receivers it
    maps to; every detector decides the same draw.

    Detection decides argmin |y - h x|^2 = argmin |z - x|^2 on z = y/h = x +
    w, and w = n/h, circularly symmetric noise over an independent Rayleigh
    fade, has a uniform phase independent of |w|, with P(|w|^2 <= s) =
    s / (s + sigma^2) (Tse and Viswanath 2005, ch. 3). So |w|^2 = sigma^2 u /
    (1 - u) and arg w = 2 pi v for two uniforms u and v, as in Box and Muller
    (1958). The batch of n = BATCH_BLOCKS * L subcarriers draws from one
    stream n tx entries, then in one ``random`` call a row of 2n uniforms per
    receiver, n of u then n of v, in C order up to the highest live
    receiver's row, so every row read is the row of a full draw.

    Each receiver skips the rows whose noise lies inside the sent entry's
    safe radius rho there, tested on u alone as u < rho^2 / (rho^2 +
    sigma^2) (``ctx.thresholds``): rho is the least over the spec's
    detectors, so at each skipped row every detector's decision is its
    noiseless one, whose errors its floors hold. The receiver builds z
    (``_equalise``) once, for the other rows, and each detector live there
    decides that z in one call, made even when no row is left. Bit labels
    are linear over XOR in the entry index, so a channel's errors on a
    decided subcarrier are its weight table at (decided entry ^ sent entry).
    """
    n = BATCH_BLOCKS * ctx.spec.n_subcarriers
    receivers = sorted(set().union(*live.values()))
    sigma2 = noise_variance(snr_db)
    thresholds = ctx.thresholds(sigma2)
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=ctx.spec.master_seed, spawn_key=(_seed_key(snr_db), first_block)))
    tx_entry = rng.integers(0, len(ctx.alphabet.x), size=n)
    draw = rng.random(out=ctx.draw[:receivers[-1]])

    errors: dict[str, dict[str, int]] = {detector: {} for detector in live}
    for rx in receivers:
        uv = draw[rx - 1].reshape(2, n)
        detect = uv[0] >= thresholds[rx][tx_entry]  # the rows the receiver decides
        rows = np.flatnonzero(detect)
        sent = tx_entry[rows]
        z = _equalise(uv.take(rows, axis=1), sigma2, ctx.alphabet.x[sent])
        for detector in (d for d, needs in live.items() if rx in needs):
            diff = _decide(ctx, detector, z, 1.0, rx) ^ sent
            ctx.decided[detector] += len(diff)
            ctx.drawn[detector] += n
            floors = ctx.floors[detector, rx]
            for name, _, owner in ctx.channels:
                if owner == rx:
                    count = int(ctx.weights[name][diff].sum())
                    if name in floors:
                        count += int(floors[name][tx_entry[~detect]].sum())
                    errors[detector][name] = count
    return errors


def run_point(spec: ExperimentSpec, snr_db: float, *,
              ctx: _PointContext | None = None) -> list[BerRecord]:
    """Simulate one SNR point until the stop rule fires for every tracked
    channel of every detector; returns the records of each detector in turn.

    Each (detector, channel) pair counts batches and errors while it is open,
    and closes once it reaches ``min_bit_errors`` or ``max_bits``. A batch is
    decided only at the receivers where some detector has an open channel, so
    a channel's record is the shared stream cut at its own stop batch, and a
    detector's records equal those of a spec with it alone.

    ``snr_db`` must be a point of ``spec.snr_grid_db``, where it was checked.

    ``ctx`` is the context of ``spec`` built by ``run_sweep`` once for all of
    its points; without it the point builds its own. The point resets its
    ``decided`` and ``drawn`` row counts and logs each batch as one DEBUG line
    of the ``imnomarc`` logger.
    """
    if snr_db not in spec.snr_grid_db:
        raise ValueError(f"SNR {snr_db} dB is not a point of the spec's grid")
    if ctx is None:
        ctx = _PointContext(spec)
    ctx.decided = dict.fromkeys(spec.detectors, 0)
    ctx.drawn = dict.fromkeys(spec.detectors, 0)
    bits_per_block = ctx.bits_per_block
    totals = {detector: dict.fromkeys(bits_per_block, 0) for detector in spec.detectors}
    blocks_run = {detector: dict.fromkeys(bits_per_block, 0) for detector in spec.detectors}

    def open_channels(detector) -> list[tuple[str, int]]:
        return [(name, rx) for name, _, rx in ctx.channels
                if totals[detector][name] < spec.min_bit_errors
                and blocks_run[detector][name] * bits_per_block[name] < spec.max_bits]

    first_block = 0
    while opened := {d: chans for d in spec.detectors if (chans := open_channels(d))}:
        live = {d: {rx for _, rx in chans} for d, chans in opened.items()}
        errors = _run_batch(ctx, snr_db, first_block, live)
        log.debug("%s %g dB: blocks %d-%d, live receivers %s, errors %s; so far rows "
                  "decided %s of drawn %s", spec.scheme, snr_db, first_block,
                  first_block + BATCH_BLOCKS - 1, live, errors, ctx.decided, ctx.drawn)
        for detector, chans in opened.items():
            for name, _ in chans:
                totals[detector][name] += errors[detector][name]
                blocks_run[detector][name] += BATCH_BLOCKS
        first_block += BATCH_BLOCKS

    records = []
    for detector in spec.detectors:
        for name, _, _ in ctx.channels:
            sent = blocks_run[detector][name] * bits_per_block[name]
            records.append(BerRecord(
                scheme=spec.scheme, detector=detector, user=name,
                snr_db=snr_db, bits_sent=sent, bit_errors=totals[detector][name],
                ber=totals[detector][name] / sent))
    return records


def _version_string(package: Path = Path(__file__).parent) -> str:
    """``__version__``, plus ``git describe`` of the checkout whose
    ``src/imnomarc`` the package is; a copy anywhere else, for one installed
    inside another project's checkout, reads ``__version__`` alone."""
    root = package.parent.parent
    if package.parent.name != "src" or not (root / ".git").exists():
        return __version__
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return f"{__version__}+{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):  # no git, or it hung
        pass
    return __version__


# git describe takes milliseconds: a process reads it once per package path
_process_version = functools.cache(_version_string)


def _wilson_interval(errors: int, trials: int) -> list[float]:
    """Wilson score 95% interval on the rate errors / trials (Brown, Cai and
    DasGupta 2001); it holds the rate and lies in [0, 1]."""
    z = 1.959963984540054  # the normal distribution's 97.5% quantile
    z2 = z * z
    center = (errors + z2 / 2) / (trials + z2)
    half = z * math.sqrt(errors * (trials - errors) / trials + z2 / 4) / (trials + z2)
    return [0.0 if errors == 0 else center - half,
            1.0 if errors == trials else center + half]


def run_sweep(spec: ExperimentSpec) -> tuple[list[BerRecord], dict]:
    """Run every grid point; returns the records, detector by detector and
    point by point within one, plus a manifest.

    The manifest echoes the spec and, for each point, its seconds and, per
    detector and channel, the blocks it ran, why its count stopped
    (``min_errors`` when it reached ``min_bit_errors``, ``max_bits``
    otherwise) and the Wilson 95% interval on its BER, and per detector its
    ``decided_share``: the rows it decided over the rows drawn for its live
    receivers, the rest having skipped detection inside their safe radius.
    It also records the python and numpy versions, and the system the scheme
    transmits: ``system``, the fields of ``spec.scheme_cfg()``, and
    ``bits_per_subcarrier``, its spectral efficiency. Each point logs the
    same seconds, blocks and stop reasons as one INFO line of the
    ``imnomarc`` logger.
    """
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    by_detector: dict[str, list[BerRecord]] = {d: [] for d in spec.detectors}
    points: dict[str, dict] = {}
    ctx = _PointContext(spec)
    for snr_db in spec.snr_grid_db:
        t0 = time.perf_counter()
        point = run_point(spec, snr_db, ctx=ctx)
        seconds = time.perf_counter() - t0
        blocks, reasons, intervals = {}, {}, {}
        for r in point:
            by_detector[r.detector].append(r)
            blocks.setdefault(r.detector, {})[r.user] = r.bits_sent // ctx.bits_per_block[r.user]
            reasons.setdefault(r.detector, {})[r.user] = (
                "min_errors" if r.bit_errors >= spec.min_bit_errors else "max_bits")
            intervals.setdefault(r.detector, {})[r.user] = _wilson_interval(
                r.bit_errors, r.bits_sent)
        points[f"{snr_db:g}"] = {"seconds": seconds, "blocks_run": blocks,
                                 "stop_reason": reasons, "ber_interval": intervals,
                                 "decided_share": {d: ctx.decided[d] / ctx.drawn[d]
                                                   for d in spec.detectors}}
        log.info("%s %g dB: %.3f s; %s", spec.scheme, snr_db, seconds, "; ".join(
            f"{d} " + ", ".join(f"{user} {n} blocks {reasons[d][user]}"
                                for user, n in blocks[d].items()) for d in blocks))
    manifest = {
        "spec": asdict(spec),
        "system": asdict(ctx.cfg),
        "bits_per_subcarrier": spectral_efficiency(ctx.cfg),
        "master_seed": spec.master_seed,
        "version": _process_version(),
        "python": "{}.{}.{}".format(*sys.version_info),
        "numpy": np.__version__,
        "started_at": started,
        "points": points,
    }
    return [r for records in by_detector.values() for r in records], manifest


CSV_HEADER = "scheme,detector,user,snr_db,bits_sent,bit_errors,ber"


def write_csv(records: list[BerRecord], path) -> None:
    """Write ``records`` as a results.csv table to the file ``path``."""
    with open(path, "w", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for r in records:
            f.write(f"{r.scheme},{r.detector},{r.user},{r.snr_db:g},"
                    f"{r.bits_sent},{r.bit_errors},{r.ber:.5e}\n")


def persist(records: list[BerRecord], manifest: dict, path) -> tuple[Path, Path]:
    """Write results.csv and manifest.json under ``path``; overwrites in place."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    csv_path = path / "results.csv"
    write_csv(records, csv_path)
    manifest_path = path / "manifest.json"
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return csv_path, manifest_path
