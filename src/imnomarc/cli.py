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

from .analysis import PAIR_BUDGET, union_bound_ber
from .channel import noise_variance
from .detectors import flops_ml, flops_sic
from .harness import CSV_HEADER, ExperimentSpec, check_snr_grid, persist, run_sweep
from .superposition import (SystemConfig, alphabet_size, build_super_alphabet,
                            spectral_efficiency)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class ConfigError(Exception):
    pass


def _parse_floats(text: str, sep: str | None = None) -> tuple[float, ...]:
    """Numbers split on ``sep``, or on commas and whitespace by default."""
    parts = text.split(sep) if sep else text.replace(",", " ").split()
    try:
        return tuple(float(v) for v in parts)
    except ValueError:
        raise ConfigError(f"bad number in {text!r}") from None


def _parse_snr(text: str) -> tuple[float, ...]:
    """Grid start:step:stop, ending at the last step within 1e-9 steps of stop, or a list."""
    if ":" not in text:
        return _parse_floats(text)
    values = _parse_floats(text, ":")
    if len(values) != 3:
        raise ConfigError(f"bad SNR grid {text!r}, expected start:step:stop")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"bad SNR grid {text!r}, values must be finite")
    start, step, stop = values
    if step <= 0 or stop < start:
        raise ConfigError(f"bad SNR grid {text!r}")
    n = math.floor((stop - start) / step + 1e-9) + 1
    return tuple(start + k * step for k in range(n))


def _parse_tuples(text: str) -> list[tuple[int, int, int]]:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            n, b, m = (int(p) for p in item.split(":"))
        except ValueError:  # a non-integer or not three fields
            raise ConfigError(f"bad (N:B:M) tuple {item!r}") from None
        out.append((n, b, m))
    return out


def load_config(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read_string(resources.files(__package__).joinpath("default.ini").read_text())
    if path is not None:
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:  # no section header, duplicate option, ...
            raise ConfigError(str(exc)) from exc
    return parser


def _system_config(conf: configparser.ConfigParser) -> SystemConfig:
    sec = conf["system"]
    try:
        kwargs = dict(
            n_users=sec.getint("n_users"),
            n_far=sec.getint("n_far"),
            mod_order=sec.getint("mod_order"),
            family=sec.get("family"),
            power_coeffs=_parse_floats(sec.get("power_coeffs")),
            index_user_mode=sec.get("index_user_mode"),
        )
        if sec.get("rotation_angles", None):
            angles = _parse_floats(sec.get("rotation_angles"))
            if len(angles) != 2 or angles[0] != 0.0:
                raise ConfigError(f"rotation_angles must be 0 and the rotated users' angle, "
                                  f"got {sec.get('rotation_angles')!r}")
            kwargs["rotation_angle"] = angles[1]
        return SystemConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _experiment_specs(conf, args) -> list[ExperimentSpec]:
    sweep = conf["sweep"]
    cfg = _system_config(conf)
    snr = _parse_snr(args.snr) if args.snr else _parse_snr(sweep.get("snr_db"))
    schemes = args.scheme or [s.strip() for s in sweep.get("schemes").split(",")]
    detectors = args.detector or [d.strip() for d in sweep.get("detectors").split(",")]
    schemes, detectors = dict.fromkeys(schemes), dict.fromkeys(detectors)  # distinct, in order
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
                    max_bits=(args.max_bits if args.max_bits is not None
                              else sweep.getint("max_bits")),
                    min_bit_errors=(args.min_errors if args.min_errors is not None
                                    else sweep.getint("min_bit_errors")),
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
    if not 1 <= active <= subblock_size:
        raise ValueError(f"active_subcarriers {active} not in [1, subblock_size={subblock_size}]")
    index_bits = math.floor(math.log2(math.comb(subblock_size, active)))
    return (active * math.log2(mod_order) * n_users + index_bits) / subblock_size


def cmd_se(conf, args) -> int:
    sec = conf["se"]
    tuples = _parse_tuples(sec.get("tuples"))
    try:
        ns, k = sec.getint("subblock_size"), sec.getint("active_subcarriers")
        rows = [(n, b, m, spectral_efficiency(_table_config(n, b, m)), n * int(math.log2(m)),
                 im_noma_baseline_se(n, m, ns, k)) for n, b, m in tuples]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lines = ["N,B,M,se_imnomarc,se_pdnoma,se_imnoma"]
    print(f"{'N':>3} {'B':>3} {'M':>3} {'IM-NOMA-RC':>11} {'PD-NOMA':>8} {'IM-NOMA':>8}")
    for n, b, m, se_rc, se_pd, se_im in rows:
        print(f"{n:>3} {b:>3} {m:>3} {se_rc:>11} {se_pd:>8} {se_im:>8.2f}")
        lines.append(f"{n},{b},{m},{se_rc},{se_pd},{se_im:g}")
    _maybe_write(args.out, "se.csv", lines)
    return EXIT_OK


def cmd_flops(conf, args) -> int:
    tuples = _parse_tuples(conf["flops"].get("tuples"))
    lines = ["N,B,M,detector,user,flops"]
    print(f"{'N':>3} {'B':>3} {'M':>3} {'detector':>9} {'user':>5} {'flops':>8}")
    for n, b, m in tuples:
        cfg = _table_config(n, b, m)
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
    try:
        snr = check_snr_grid(snr)
        size = alphabet_size(cfg)
    except ValueError as exc:  # a bad SNR grid, or over the enumeration cap
        raise ConfigError(str(exc)) from exc
    if size * (size - 1) > PAIR_BUDGET:
        raise ConfigError(f"alphabet size {size} has {size * (size - 1)} ordered pairs, "
                          f"over the bound's budget of {PAIR_BUDGET}")
    out = _out_dir(args.out or ".")
    alphabet = build_super_alphabet(cfg)
    users = [str(u) for u in range(1, cfg.n_users + 1)]
    if cfg.n_index_bits:
        users.append("index")
    lines = [CSV_HEADER]
    for snr_db in snr:
        sigma2 = noise_variance(snr_db)
        for user in users:
            bound = union_bound_ber(alphabet, sigma2, user=user)
            lines.append(f"imnomarc,bound,{user},{snr_db:g},0,0,{bound:.5e}")
    path = _maybe_write(out, "bound.csv", lines)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_ber(conf, args) -> int:
    specs = _experiment_specs(conf, args)
    out = _out_dir(args.out or ".")
    all_records = []
    manifests = []
    for spec in specs:
        records, manifest = run_sweep(spec)
        all_records.extend(records)
        manifests.append(manifest)
    csv_path, manifest_path = persist(all_records, {"runs": manifests}, out)
    print(f"wrote {csv_path} and {manifest_path}")
    return EXIT_OK


def _table_config(n: int, b: int, m: int) -> SystemConfig:
    """The N:B:M system of one se/flops table row."""
    try:
        return SystemConfig(n_users=n, n_far=b, mod_order=m,
                            family="PSK" if m != 8 else "QAM",
                            power_coeffs=_default_alphas(n))
    except ValueError as exc:
        raise ConfigError(f"invalid tuple {n}:{b}:{m}: {exc}") from exc


def _default_alphas(n: int) -> tuple[float, ...]:
    # strictly decreasing geometric split summing to 1; placeholder power plan
    # for table commands where only (N, B, M) matter
    raw = np.array([2.0 ** (n - k) for k in range(n)])
    alphas = raw / raw.sum()
    return tuple(float(a) for a in alphas)


def _out_dir(out) -> Path:
    """The output directory, created if missing; a config error if it cannot be."""
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission, ...
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return path


def _maybe_write(out, name, lines):
    if out is None:
        return None
    target = _out_dir(out) / name
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
        if name in ("bound", "ber"):
            p.add_argument("--snr", default=None, help="SNR grid start:step:stop in dB")
        if name == "ber":
            p.add_argument("--seed", type=int, default=None)
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
