"""Command-line front end: spectral-efficiency tables, detector FLOP tables,
analytical bound curves, and Monte Carlo BER sweeps.

A flag beats the ``--config`` file, which beats ``default.ini``. Each command
checks its config and creates ``--out`` before any output; a bad value, an
unreadable or undecodable config or an unusable ``--out`` exits 1.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import PAIR_BUDGET, union_bound_ber
from .detectors import flops_ml, flops_sic
from .harness import (DETECTORS, SCHEMES, BerRecord, ExperimentSpec, check_snr_grid,
                      noise_variance, persist, run_sweep, write_csv)
from .superposition import (SystemConfig, alphabet_size, build_super_alphabet, channels,
                            spectral_efficiency)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

# Flag (argparse dest) -> the [sweep] key it overrides.
FLAG_KEYS = {"snr": "snr_db", "seed": "seed", "scheme": "schemes", "detector": "detectors",
             "max_bits": "max_bits", "min_errors": "min_bit_errors"}


def _parse_floats(text: str, sep: str | None = None) -> tuple[float, ...]:
    """Numbers split on ``sep``, or on commas and whitespace by default."""
    parts = text.split(sep) if sep else text.replace(",", " ").split()
    try:
        return tuple(float(v) for v in parts)
    except ValueError:
        raise ValueError(f"bad number in {text!r}") from None


def _parse_snr(text: str) -> tuple[float, ...]:
    """Grid start:step:stop, ending at the last step within 1e-9 steps of stop, or a list."""
    if ":" not in text:
        return _parse_floats(text)
    values = _parse_floats(text, ":")
    if len(values) != 3:
        raise ValueError(f"bad SNR grid {text!r}, expected start:step:stop")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"bad SNR grid {text!r}, values must be finite")
    start, step, stop = values
    if step <= 0 or stop < start:
        raise ValueError(f"bad SNR grid {text!r}")
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
            raise ValueError(f"bad (N:B:M) tuple {item!r}") from None
        out.append((n, b, m))
    return out


def load_config(args) -> configparser.ConfigParser:
    """``default.ini``, then the ``--config`` file, then every given flag."""
    conf = configparser.ConfigParser()
    conf.read_string(resources.files(__package__).joinpath("default.ini").read_text())
    if args.config is not None:
        with open(args.config, encoding="utf-8") as f:
            conf.read_file(f)
    for flag, key in FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            conf["sweep"][key] = ", ".join(value) if isinstance(value, list) else str(value)
    return conf


def _system_config(conf: configparser.ConfigParser) -> SystemConfig:
    sec = conf["system"]
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
            raise ValueError(f"rotation_angles must be 0 and the rotated users' angle, "
                             f"got {sec.get('rotation_angles')!r}")
        kwargs["rotation_angle"] = angles[1]
    return SystemConfig(**kwargs)


def _experiment_specs(conf) -> list[ExperimentSpec]:
    sweep = conf["sweep"]
    cfg = _system_config(conf)
    snr = _parse_snr(sweep.get("snr_db"))
    # distinct, in order
    schemes = dict.fromkeys(s.strip() for s in sweep.get("schemes").split(","))
    detectors = tuple(dict.fromkeys(d.strip() for d in sweep.get("detectors").split(",")))
    return [ExperimentSpec(
        scheme=scheme,
        cfg=cfg,
        detectors=detectors,
        snr_grid_db=snr,
        n_subcarriers=sweep.getint("n_subcarriers"),
        max_bits=sweep.getint("max_bits"),
        min_bit_errors=sweep.getint("min_bit_errors"),
        master_seed=sweep.getint("seed"),
        ofdm_order=conf["ofdm"].getint("mod_order"),
        ofdm_family=conf["ofdm"].get("family"),
    ) for scheme in schemes]


def im_noma_baseline_se(n_users: int, mod_order: int, subblock_size: int,
                        active: int) -> float:
    """Per-subcarrier SE of the subcarrier-activation IM-NOMA comparator."""
    if not 1 <= active <= subblock_size:
        raise ValueError(f"active_subcarriers {active} not in [1, subblock_size={subblock_size}]")
    index_bits = math.floor(math.log2(math.comb(subblock_size, active)))
    return (active * math.log2(mod_order) * n_users + index_bits) / subblock_size


def cmd_se(conf, out):
    sec = conf["se"]
    ns, k = sec.getint("subblock_size"), sec.getint("active_subcarriers")
    rows = [(n, b, m, spectral_efficiency(_table_config(n, b, m)), n * int(math.log2(m)),
             im_noma_baseline_se(n, m, ns, k)) for n, b, m in _parse_tuples(sec.get("tuples"))]
    out = _out_dir(out)

    def run():
        lines = ["N,B,M,se_imnomarc,se_pdnoma,se_imnoma"]
        print(f"{'N':>3} {'B':>3} {'M':>3} {'IM-NOMA-RC':>11} {'PD-NOMA':>8} {'IM-NOMA':>8}")
        for n, b, m, se_rc, se_pd, se_im in rows:
            print(f"{n:>3} {b:>3} {m:>3} {se_rc:>11} {se_pd:>8} {se_im:>8.2f}")
            lines.append(f"{n},{b},{m},{se_rc},{se_pd},{se_im:g}")
        _maybe_write(out, "se.csv", lines)
    return run


def cmd_flops(conf, out):
    rows = []
    for n, b, m in _parse_tuples(conf["flops"].get("tuples")):
        cfg = _table_config(n, b, m)
        rows.append((n, b, m, "ml", "-", flops_ml(cfg)))
        rows += [(n, b, m, "sic", str(u), flops_sic(cfg, u)) for u in range(1, n + 1)]
    out = _out_dir(out)

    def run():
        lines = ["N,B,M,detector,user,flops"]
        print(f"{'N':>3} {'B':>3} {'M':>3} {'detector':>9} {'user':>5} {'flops':>8}")
        for n, b, m, det, user, count in rows:
            print(f"{n:>3} {b:>3} {m:>3} {det:>9} {user:>5} {count:>8}")
            lines.append(f"{n},{b},{m},{det},{user},{count}")
        _maybe_write(out, "flops.csv", lines)
    return run


def cmd_bound(conf, out):
    cfg = _system_config(conf)
    snr = check_snr_grid(_parse_snr(conf["sweep"].get("snr_db")))
    size = alphabet_size(cfg)
    if size * (size - 1) > PAIR_BUDGET:
        raise ValueError(f"alphabet size {size} has {size * (size - 1)} ordered pairs, "
                         f"over the bound's budget of {PAIR_BUDGET}")
    path = _out_dir(out or ".") / "bound.csv"

    def run():
        alphabet = build_super_alphabet(cfg)
        write_csv([BerRecord("imnomarc", "bound", user, snr_db, 0, 0,
                             union_bound_ber(alphabet, noise_variance(snr_db), user=user))
                   for snr_db in snr for user, _, _ in channels(cfg)], path)
        print(f"wrote {path}")
    return run


def cmd_ber(conf, out):
    specs = _experiment_specs(conf)
    out = _out_dir(out or ".")

    def run():
        all_records = []
        manifests = []
        for spec in specs:
            records, manifest = run_sweep(spec)
            all_records.extend(records)
            manifests.append(manifest)
        csv_path, manifest_path = persist(all_records, {"runs": manifests}, out)
        print(f"wrote {csv_path} and {manifest_path}")
    return run


def _table_config(n: int, b: int, m: int) -> SystemConfig:
    """The N:B:M system of one se/flops table row."""
    try:
        return SystemConfig(n_users=n, n_far=b, mod_order=m, power_coeffs=_default_alphas(n))
    except ValueError as exc:
        raise ValueError(f"invalid tuple {n}:{b}:{m}: {exc}") from None


def _default_alphas(n: int) -> tuple[float, ...]:
    # strictly decreasing geometric split summing to 1; placeholder power plan
    # for table commands where only (N, B, M) matter
    raw = np.array([2.0 ** (n - k) for k in range(n)])
    alphas = raw / raw.sum()
    return tuple(float(a) for a in alphas)


def _out_dir(out) -> Path | None:
    """The ``--out`` directory, created if missing (OSError if it cannot be)."""
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _maybe_write(out, name, lines):
    if out is not None:
        (out / name).write_text("\n".join(lines) + "\n")


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
            p.add_argument("--detector", action="append", choices=DETECTORS)
            p.add_argument("--scheme", action="append", choices=SCHEMES)
            p.add_argument("--max-bits", type=int, default=None)
            p.add_argument("--min-errors", type=int, default=None)
    return parser


COMMANDS = {"se": cmd_se, "flops": cmd_flops, "bound": cmd_bound, "ber": cmd_ber}


def main(argv=None) -> int:
    """Check the command's config, then run it; the only place errors become exit codes."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        run = COMMANDS[args.command](load_config(args), args.out)
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        run()
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
