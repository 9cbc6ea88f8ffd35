"""Monte Carlo experiment engine: transmit -> channel -> detect loops over SNR
grids with per-user bit-error accounting and reproducible, block-seeded RNG.

Every OFDM block (one batch of L subcarriers) gets its own RNG stream derived
from (master seed, SNR point, block index), and detection draws no random
numbers, so a fixed seed reproduces results.csv byte for byte. Accumulation is
a plain sum of counters; the stop rule is evaluated on fixed-size batches of
blocks.
"""

from __future__ import annotations

import csv
import datetime
import json
import subprocess
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .channel import apply_channel, draw_channel
from .constellation import build_constellation
from .detectors import ml_block, sic_block
from .superposition import (DEFAULT_ALPHABET_CAP, SystemConfig,
                            build_super_alphabet, user_bit_positions)

SCHEMES = ("imnomarc", "pdnoma", "ofdm")
DETECTORS = ("ml", "sic")
# Stop-rule granularity. Fixed: bits_sent is a multiple of it, so changing it
# changes results.csv at every seed.
BATCH_BLOCKS = 16


@dataclass
class ExperimentSpec:
    """One sweep definition: scheme, detector, SNR grid, and stop rule."""

    scheme: str = "imnomarc"
    cfg: SystemConfig = field(default_factory=SystemConfig)
    detector: str = "ml"
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    n_subcarriers: int = 128
    max_bits: int = 10_000_000
    min_bit_errors: int = 200
    master_seed: int = 0
    ofdm_order: int = 8
    ofdm_family: str = "QAM"
    noiseless: bool = False
    alphabet_cap: int = DEFAULT_ALPHABET_CAP

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        self.snr_grid_db = tuple(float(v) for v in self.snr_grid_db)
        if not all(np.isfinite(self.snr_grid_db)):
            raise ValueError("SNR grid entries must be finite")
        if any(a >= b for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
            raise ValueError("SNR grid must be strictly increasing")
        if self.max_bits < 10 * self.min_bit_errors:
            raise ValueError("max_bits must be at least 10x min_bit_errors")
        if self.n_subcarriers < 1:
            raise ValueError("n_subcarriers must be positive")


@dataclass
class BerRecord:
    scheme: str
    detector: str
    user: str
    snr_db: float
    bits_sent: int
    bit_errors: int
    ber: float
    wall_time: float = 0.0


class _OfdmAlphabet:
    """Single-user alphabet: plain constellation scaled to the power budget."""

    def __init__(self, order, family, total_power):
        const = build_constellation(order, family)
        self.x = const.points * np.sqrt(total_power)
        self.bits = np.array([const.bits_for_index(i) for i in range(order)],
                             dtype=np.uint8)


class _PointContext:
    """Everything a block needs, built once per experiment.

    ``channels`` lists each tracked error curve once as (name, bit positions
    in the packed per-subcarrier string, receiver that decides it). The index
    bits are decided by the virtual receiver N+1 in "virtual" mode and by the
    nearest user N in "near" mode.
    """

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        if spec.scheme == "ofdm":
            self.cfg = None
            self.alphabet = _OfdmAlphabet(spec.ofdm_order, spec.ofdm_family,
                                          spec.cfg.total_power)
            self.total_power = spec.cfg.total_power
            self.channels = [("1", np.arange(self.alphabet.bits.shape[1]), 1)]
        else:
            cfg = spec.cfg if spec.scheme == "imnomarc" else replace(spec.cfg, im_enabled=False)
            self.cfg = cfg
            self.alphabet = build_super_alphabet(cfg, cap=spec.alphabet_cap)
            self.total_power = cfg.total_power
            self.bits_lut = np.array(
                [cfg.constellation.bits_for_index(i) for i in range(cfg.mod_order)],
                dtype=np.uint8)
            self.channels = [(str(u), np.array(user_bit_positions(cfg, u)), u)
                             for u in range(1, cfg.n_users + 1)]
            if cfg.n_index_bits:
                rx = cfg.n_users + 1 if cfg.index_user_mode == "virtual" else cfg.n_users
                self.channels.append(
                    ("index", np.array(user_bit_positions(cfg, "index")), rx))
        self.n_receivers = max(rx for _, _, rx in self.channels)


def _decide(ctx: _PointContext, y: np.ndarray, h: np.ndarray, rx: int) -> np.ndarray:
    """Decided (L, p) bit-strings at receiver ``rx``.

    ML decides whole alphabet entries. SIC fills the symbol bits of the stages
    it ran and, once it resolves the rotation pattern, the index bits; the
    positions it does not decide stay 0 and belong to no channel of ``rx``.
    """
    if ctx.cfg is None or ctx.spec.detector == "ml":
        idx, _ = ml_block(y, h, ctx.alphabet)
        return ctx.alphabet.bits[idx]
    cfg = ctx.cfg
    sym_idx, _, phi_hat, _ = sic_block(y, h, cfg, rx)
    bits = np.zeros((len(y), ctx.alphabet.bits.shape[1]), dtype=np.uint8)
    stage_bits = ctx.bits_lut[sym_idx].reshape(len(y), -1)
    bits[:, :stage_bits.shape[1]] = stage_bits
    if phi_hat is not None:
        shifts = np.arange(cfg.n_index_bits - 1, -1, -1)
        bits[:, cfg.n_symbol_bits:] = (phi_hat[:, None] >> shifts) & 1
    return bits


def _run_block(ctx: _PointContext, snr_db: float, block: int) -> dict[str, int]:
    spec = ctx.spec
    L = spec.n_subcarriers
    ss = np.random.SeedSequence(entropy=spec.master_seed,
                                spawn_key=(int(round(snr_db * 1e6)) & 0xFFFFFFFF, block))
    rng = np.random.default_rng(ss)
    eff_snr = np.inf if spec.noiseless else snr_db

    tx_entry = rng.integers(0, len(ctx.alphabet.x), size=L)
    tx_bits = ctx.alphabet.bits[tx_entry]
    x = ctx.alphabet.x[tx_entry]
    ch = draw_channel(ctx.n_receivers, L, eff_snr, ctx.total_power, rng)

    errors: dict[str, int] = {}
    for rx in range(1, ctx.n_receivers + 1):
        y = apply_channel(x, ch, rx, rng)
        rx_bits = _decide(ctx, y, ch.h[rx - 1], rx)
        for name, pos, owner in ctx.channels:
            if owner == rx:
                errors[name] = int(np.count_nonzero(rx_bits[:, pos] != tx_bits[:, pos]))
    return errors


def run_point(spec: ExperimentSpec, snr_db: float) -> list[BerRecord]:
    """Simulate one SNR point until the stop rule fires for every tracked user."""
    ctx = _PointContext(spec)
    L = spec.n_subcarriers
    totals = {name: 0 for name, _, _ in ctx.channels}
    blocks_run = 0
    t0 = time.perf_counter()

    def done() -> bool:
        for name, pos, _ in ctx.channels:
            sent = blocks_run * L * len(pos)
            if totals[name] < spec.min_bit_errors and sent < spec.max_bits:
                return False
        return True

    while not done():
        for block in range(blocks_run, blocks_run + BATCH_BLOCKS):
            for name, errs in _run_block(ctx, snr_db, block).items():
                totals[name] += errs
        blocks_run += BATCH_BLOCKS

    elapsed = time.perf_counter() - t0
    records = []
    for name, pos, _ in ctx.channels:
        sent = blocks_run * L * len(pos)
        records.append(BerRecord(
            scheme=spec.scheme, detector=spec.detector, user=name,
            snr_db=snr_db, bits_sent=sent, bit_errors=totals[name],
            ber=totals[name] / sent, wall_time=elapsed))
    return records


def _version_string() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).parent, capture_output=True,
                             text=True, timeout=5)
        if out.returncode == 0:
            return f"{__version__}+{out.stdout.strip()}"
    except OSError:
        pass
    return __version__


def spec_to_dict(spec: ExperimentSpec) -> dict:
    return asdict(spec)


def spec_from_dict(d: dict) -> ExperimentSpec:
    d = dict(d)
    cfg = dict(d.pop("cfg"))
    rotation = cfg.pop("rotation")
    from .constellation import RotationSet
    cfg["rotation"] = RotationSet(tuple(rotation["angles"]))
    cfg["power_coeffs"] = tuple(cfg["power_coeffs"])
    d["cfg"] = SystemConfig(**cfg)
    d["snr_grid_db"] = tuple(d["snr_grid_db"])
    return ExperimentSpec(**d)


def run_sweep(spec: ExperimentSpec) -> tuple[list[BerRecord], dict]:
    """Run every grid point; returns records plus a reproducibility manifest."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    records: list[BerRecord] = []
    points: dict[str, float] = {}
    for snr_db in spec.snr_grid_db:
        recs = run_point(spec, snr_db)
        records.extend(recs)
        points[f"{snr_db:g}"] = recs[0].wall_time if recs else 0.0
    manifest = {
        "spec": spec_to_dict(spec),
        "master_seed": spec.master_seed,
        "version": _version_string(),
        "started_at": started,
        "points": points,
    }
    return records, manifest


CSV_HEADER = "scheme,detector,user,snr_db,bits_sent,bit_errors,ber"


def persist(records: list[BerRecord], manifest: dict, path) -> tuple[Path, Path]:
    """Write results.csv and manifest.json under ``path``; overwrites in place."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    csv_path = path / "results.csv"
    with open(csv_path, "w", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for r in records:
            f.write(f"{r.scheme},{r.detector},{r.user},{r.snr_db:g},"
                    f"{r.bits_sent},{r.bit_errors},{r.ber:.5e}\n")
    manifest_path = path / "manifest.json"
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return csv_path, manifest_path


def load_results(csv_path) -> list[BerRecord]:
    records = []
    with open(csv_path, newline="") as f:
        for row in csv.DictReader(f):
            records.append(BerRecord(
                scheme=row["scheme"], detector=row["detector"], user=row["user"],
                snr_db=float(row["snr_db"]), bits_sent=int(row["bits_sent"]),
                bit_errors=int(row["bit_errors"]), ber=float(row["ber"])))
    return records
