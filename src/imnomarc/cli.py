"""Command-line front end: spectral-efficiency tables, detector FLOP tables,
analytical bound curves, and Monte Carlo BER sweeps."""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import union_bound_ber
from .channel import noise_variance
from .constellation import RotationSet
from .detectors import flops_ml, flops_sic
from .harness import CSV_HEADER, ExperimentSpec, persist, run_sweep
from .superposition import (SystemConfig, build_super_alphabet,
                            spectral_efficiency)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class ConfigError(Exception):
    pass


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _parse_snr(text: str) -> tuple[float, ...]:
    """Grid syntax start:step:stop (inclusive) or a comma-separated list."""
    grid = ":" in text
    values = tuple(float(p) for p in text.split(":")) if grid else _parse_floats(text)
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"bad SNR grid {text!r}, values must be finite")
    if grid:
        if len(values) != 3:
            raise ConfigError(f"bad SNR grid {text!r}, expected start:step:stop")
        start, step, stop = values
        if step <= 0 or stop < start:
            raise ConfigError(f"bad SNR grid {text!r}")
        n = int(round((stop - start) / step)) + 1
        return tuple(start + k * step for k in range(n))
    return values


def _parse_tuples(text: str) -> list[tuple[int, int, int]]:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad (N:B:M) tuple {item!r}")
        out.append(tuple(int(p) for p in parts))
    return out


def load_config(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read_string(resources.files(__package__).joinpath("default.ini").read_text())
    if path is not None:
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        parser.read(path)
    return parser


def _system_config(conf: configparser.ConfigParser) -> SystemConfig:
    sec = conf["system"]
    kwargs = dict(
        n_users=sec.getint("n_users"),
        n_far=sec.getint("n_far"),
        mod_order=sec.getint("mod_order"),
        family=sec.get("family"),
        power_coeffs=_parse_floats(sec.get("power_coeffs")),
        total_power=sec.getfloat("total_power"),
        index_user_mode=sec.get("index_user_mode"),
    )
    try:
        if sec.get("rotation_angles", None):
            kwargs["rotation"] = RotationSet(_parse_floats(sec.get("rotation_angles")))
        return SystemConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _experiment_specs(conf, args) -> list[ExperimentSpec]:
    sweep = conf["sweep"]
    cfg = _system_config(conf)
    snr = _parse_snr(args.snr) if args.snr else _parse_snr(sweep.get("snr_db"))
    schemes = args.scheme or [s.strip() for s in sweep.get("schemes").split(",")]
    detectors = args.detector or [d.strip() for d in sweep.get("detectors").split(",")]
    specs = []
    for scheme in schemes:
        for detector in detectors:
            try:
                specs.append(ExperimentSpec(
                    scheme=scheme,
                    cfg=cfg,
                    detector=detector,
                    snr_grid_db=snr,
                    n_subcarriers=sweep.getint("n_subcarriers"),
                    max_bits=args.max_bits or sweep.getint("max_bits"),
                    min_bit_errors=args.min_errors or sweep.getint("min_bit_errors"),
                    master_seed=args.seed if args.seed is not None else sweep.getint("seed"),
                    ofdm_order=conf["ofdm"].getint("mod_order"),
                    ofdm_family=conf["ofdm"].get("family"),
                ))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
    return specs


def im_noma_baseline_se(n_users: int, mod_order: int, subblock_size: int,
                        active: int) -> float:
    """Per-subcarrier SE of the subcarrier-activation IM-NOMA comparator."""
    index_bits = math.floor(math.log2(math.comb(subblock_size, active)))
    return (active * math.log2(mod_order) * n_users + index_bits) / subblock_size


def cmd_se(conf, args) -> int:
    sec = conf["se"]
    tuples = _parse_tuples(sec.get("tuples"))
    ns, k = sec.getint("subblock_size"), sec.getint("active_subcarriers")
    lines = ["N,B,M,se_imnomarc,se_pdnoma,se_imnoma"]
    print(f"{'N':>3} {'B':>3} {'M':>3} {'IM-NOMA-RC':>11} {'PD-NOMA':>8} {'IM-NOMA':>8}")
    for n, b, m in tuples:
        try:
            cfg = SystemConfig(n_users=n, n_far=b, mod_order=m,
                               family="PSK" if m != 8 else "QAM",
                               power_coeffs=_default_alphas(n))
        except ValueError as exc:
            raise ConfigError(f"invalid tuple {n}:{b}:{m}: {exc}") from exc
        se_rc = spectral_efficiency(cfg)
        se_pd = n * int(math.log2(m))
        se_im = im_noma_baseline_se(n, m, ns, k)
        print(f"{n:>3} {b:>3} {m:>3} {se_rc:>11} {se_pd:>8} {se_im:>8.2f}")
        lines.append(f"{n},{b},{m},{se_rc},{se_pd},{se_im:g}")
    _maybe_write(args.out, "se.csv", lines)
    return EXIT_OK


def cmd_flops(conf, args) -> int:
    tuples = _parse_tuples(conf["flops"].get("tuples"))
    lines = ["N,B,M,detector,user,flops"]
    print(f"{'N':>3} {'B':>3} {'M':>3} {'detector':>9} {'user':>5} {'flops':>8}")
    for n, b, m in tuples:
        cfg = SystemConfig(n_users=n, n_far=b, mod_order=m,
                           family="PSK" if m != 8 else "QAM",
                           power_coeffs=_default_alphas(n))
        rows = [("ml", "-", flops_ml(cfg))]
        rows += [("sic", str(u), flops_sic(cfg, u)) for u in range(1, n + 1)]
        for det, user, count in rows:
            print(f"{n:>3} {b:>3} {m:>3} {det:>9} {user:>5} {count:>8}")
            lines.append(f"{n},{b},{m},{det},{user},{count}")
    _maybe_write(args.out, "flops.csv", lines)
    return EXIT_OK


def cmd_bound(conf, args) -> int:
    cfg = _system_config(conf)
    snr = _parse_snr(args.snr) if args.snr else _parse_snr(conf["sweep"].get("snr_db"))
    alphabet = build_super_alphabet(cfg)
    users = [str(u) for u in range(1, cfg.n_users + 1)]
    if cfg.n_index_bits:
        users.append("index")
    lines = [CSV_HEADER]
    for snr_db in snr:
        sigma2 = noise_variance(snr_db, cfg.total_power)
        for user in users:
            key = int(user) if user != "index" else "index"
            bound = union_bound_ber(alphabet, sigma2, user=key)
            lines.append(f"imnomarc,bound,{user},{snr_db:g},0,0,{bound:.5e}")
    out = args.out or "."
    path = _maybe_write(out, "bound.csv", lines)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_ber(conf, args) -> int:
    specs = _experiment_specs(conf, args)
    out = Path(args.out or ".")
    all_records = []
    manifests = []
    for spec in specs:
        records, manifest = run_sweep(spec)
        all_records.extend(records)
        manifests.append(manifest)
    top = dict(manifests[0]) if len(manifests) == 1 else {"runs": manifests}
    csv_path, manifest_path = persist(all_records, top, out)
    print(f"wrote {csv_path} and {manifest_path}")
    return EXIT_OK


def _default_alphas(n: int) -> tuple[float, ...]:
    # strictly decreasing geometric split summing to 1; placeholder power plan
    # for table commands where only (N, B, M) matter
    raw = np.array([2.0 ** (n - k) for k in range(n)])
    alphas = raw / raw.sum()
    return tuple(float(a) for a in alphas)


def _maybe_write(out, name, lines):
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    target = path / name
    target.write_text("\n".join(lines) + "\n")
    return target


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imnomarc",
        description="IM-NOMA-RC link-level simulation and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("se", "spectral-efficiency comparison table"),
        ("flops", "detector complexity table"),
        ("bound", "analytical union-bound BER curves"),
        ("ber", "Monte Carlo BER sweep"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--snr", default=None, help="SNR grid start:step:stop in dB")
        p.add_argument("--detector", action="append", choices=["ml", "sic"])
        p.add_argument("--scheme", action="append",
                       choices=["imnomarc", "pdnoma", "ofdm"])
        p.add_argument("--max-bits", type=int, default=None)
        p.add_argument("--min-errors", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    commands = {"se": cmd_se, "flops": cmd_flops, "bound": cmd_bound, "ber": cmd_ber}
    try:
        conf = load_config(args.config)
        return commands[args.command](conf, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
