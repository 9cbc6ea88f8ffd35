"""Command-line front end: spectral-efficiency tables, detector FLOP tables,
analytical bound curves, and Monte Carlo BER sweeps.

``bound`` and ``ber`` run the same specs, one per scheme of ``[sweep] schemes``,
each on its ``scheme_cfg()``: ``bound`` writes one block of rows per scheme.

A flag beats the ``--config`` file, which beats ``default.ini``. Every command
parses the whole config through ``KEYS`` and creates ``--out`` before any
output. A bad value anywhere in the config, a section or key outside ``KEYS``,
an unreadable or undecodable config or an unusable ``--out`` exits 1.
``ber -v`` logs one line per SNR point to stderr; without it a run is silent.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import math
import sys
from importlib import resources
from pathlib import Path

from .analysis import PAIR_BUDGET, union_bound_ber
from .detectors import flops_ml, flops_sic
from .harness import (DETECTORS, SCHEMES, BerRecord, ExperimentSpec, noise_variance, persist,
                      run_sweep, write_csv)
from .superposition import (SystemConfig, alphabet_size, build_super_alphabet, channels,
                            spectral_efficiency)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _parse_floats(text: str, sep: str | None = None) -> tuple[float, ...]:
    """Numbers split on ``sep``, or on commas and whitespace by default."""
    parts = text.split(sep) if sep else text.replace(",", " ").split()
    try:
        return tuple(float(v) for v in parts)
    except ValueError:
        raise ValueError(f"bad number in {text!r}") from None


# The most points a start:step:stop grid may name. Each point is a bound pass or
# a Monte Carlo sweep point, so no curve needs more, and a grid over it is refused
# from its count before a point is built: 0:1e-9:30 would be 3e10 floats.
SNR_GRID_MAX = 10_000


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
    steps = (stop - start) / step + 1e-9  # inf for a step too small to divide by
    if steps >= SNR_GRID_MAX:
        raise ValueError(f"SNR grid {text!r} has over {SNR_GRID_MAX} points")
    return tuple(start + k * step for k in range(math.floor(steps) + 1))


def _parse_tuples(text: str) -> list[tuple[int, int, int]]:
    out = []
    for item in filter(None, (t.strip() for t in text.split(","))):
        try:
            n, b, m = (int(p) for p in item.split(":"))
        except ValueError:  # a non-integer or not three fields
            raise ValueError(f"bad (N:B:M) tuple {item!r}") from None
        out.append((n, b, m))
    return out


def _parse_names(text: str) -> tuple[str, ...]:
    """Comma-separated names, each once, in order."""
    return tuple(dict.fromkeys(s.strip() for s in text.split(",")))


# Section -> key -> parser of its value: the only keys an INI may hold. The
# [sweep] keys are also the argparse dests of the flags that override them.
KEYS = {
    "system": {"n_users": int, "n_far": int, "mod_order": int, "family": str,
               "power_coeffs": _parse_floats, "index_user_mode": str,
               "rotation_angles": _parse_floats, "total_power": float},
    "sweep": {"snr_db": _parse_snr, "max_bits": int, "min_bit_errors": int, "seed": int,
              "n_subcarriers": int, "schemes": _parse_names, "detectors": _parse_names},
    "ofdm": {"mod_order": int, "family": str},
    "se": {"tuples": _parse_tuples, "subblock_size": int, "active_subcarriers": int},
    "flops": {"tuples": _parse_tuples},
}


def load_config(args) -> dict[str, dict]:
    """``default.ini``, then the ``--config`` file, then every given flag, parsed
    into one dict per section of ``KEYS``; a section or key outside it is refused,
    and a value its parser rejects is reported with its ``[section] key``."""
    conf = configparser.ConfigParser()
    conf.read_string(resources.files(__package__).joinpath("default.ini").read_text())
    if args.config is not None:
        with open(args.config, encoding="utf-8") as f:
            conf.read_file(f)
    for key in KEYS["sweep"]:
        value = getattr(args, key, None)
        if value is not None:
            conf["sweep"][key] = ", ".join(value) if isinstance(value, list) else str(value)
    unknown = [f"[{name}]" for name in conf.sections() if name not in KEYS] + [
        f"[{name}] {key}" for name, keys in KEYS.items() for key in conf[name] if key not in keys]
    if unknown:
        raise ValueError(f"unknown config section or key: {', '.join(unknown)}")
    parsed = {name: {} for name in KEYS}
    for name, keys in KEYS.items():
        for key, parse in keys.items():
            if key in conf[name]:
                try:
                    parsed[name][key] = parse(conf[name][key])
                except ValueError as exc:
                    raise ValueError(f"[{name}] {key}: {exc}") from None
    return parsed


def _system_config(system: dict) -> SystemConfig:
    kwargs = dict(system)
    if kwargs.pop("total_power", SystemConfig.total_power) != SystemConfig.total_power:
        raise ValueError(f"total_power must be {SystemConfig.total_power}: "
                         f"the SNR is total power over noise power")
    if angles := kwargs.pop("rotation_angles", ()):
        if len(angles) != 2 or angles[0] != 0.0:
            raise ValueError(f"rotation_angles must be 0 and the rotated users' angle, "
                             f"got {angles}")
        kwargs["rotation_angle"] = angles[1]
    return SystemConfig(**kwargs)


def _experiment_specs(conf) -> list[ExperimentSpec]:
    sweep, ofdm = conf["sweep"], conf["ofdm"]
    cfg = _system_config(conf["system"])
    return [ExperimentSpec(
        scheme=scheme, cfg=cfg, detectors=sweep["detectors"], snr_grid_db=sweep["snr_db"],
        n_subcarriers=sweep["n_subcarriers"], max_bits=sweep["max_bits"],
        min_bit_errors=sweep["min_bit_errors"], master_seed=sweep["seed"],
        ofdm_order=ofdm["mod_order"], ofdm_family=ofdm["family"],
    ) for scheme in sweep["schemes"]]


def im_noma_baseline_se(n_users: int, mod_order: int, subblock_size: int,
                        active: int) -> float:
    """Per-subcarrier SE of the subcarrier-activation IM-NOMA comparator."""
    if not 1 <= active <= subblock_size:
        raise ValueError(f"active_subcarriers {active} not in [1, subblock_size={subblock_size}]")
    index_bits = math.floor(math.log2(math.comb(subblock_size, active)))
    return (active * math.log2(mod_order) * n_users + index_bits) / subblock_size


def cmd_se(conf, out):
    se = conf["se"]
    rows = [(n, b, m, spectral_efficiency(_table_config(n, b, m)), n * int(math.log2(m)),
             im_noma_baseline_se(n, m, se["subblock_size"], se["active_subcarriers"]))
            for n, b, m in se["tuples"]]
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
    for n, b, m in conf["flops"]["tuples"]:
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
    specs = _experiment_specs(conf)
    for spec in specs:
        size = alphabet_size(spec.scheme_cfg())
        if size * (size - 1) > PAIR_BUDGET:
            raise ValueError(f"{spec.scheme} alphabet size {size} has {size * (size - 1)} "
                             f"ordered pairs, over the bound's budget of {PAIR_BUDGET}")
    path = _out_dir(out or ".") / "bound.csv"

    def run():
        records = []
        for spec in specs:
            cfg = spec.scheme_cfg()
            alphabet = build_super_alphabet(cfg)
            records += [BerRecord(spec.scheme, "bound", user, snr_db, 0, 0,
                                  union_bound_ber(alphabet, noise_variance(snr_db), user=user))
                        for snr_db in spec.snr_grid_db for user, _, _ in channels(cfg)]
        write_csv(records, path)
        print(f"wrote {path}")
    return run


def cmd_ber(conf, out):
    specs = _experiment_specs(conf)
    out = _out_dir(out or ".")

    def run():
        sweeps = [run_sweep(spec) for spec in specs]
        csv_path, manifest_path = persist([r for records, _ in sweeps for r in records],
                                          {"runs": [manifest for _, manifest in sweeps]}, out)
        print(f"wrote {csv_path} and {manifest_path}")
    return run


def _table_config(n: int, b: int, m: int) -> SystemConfig:
    """The N:B:M system of one se/flops table row. Only (N, B, M) matter there,
    so the power split is a placeholder: halving, normalized to sum to 1."""
    raw = [2.0 ** (n - k) for k in range(n)]
    try:
        return SystemConfig(n_users=n, n_far=b, mod_order=m,
                            power_coeffs=[a / sum(raw) for a in raw])
    except ValueError as exc:
        raise ValueError(f"invalid tuple {n}:{b}:{m}: {exc}") from None


def _out_dir(out) -> Path | None:
    """The ``--out`` directory, created if missing (OSError if it cannot be)."""
    if out is not None:
        Path(out).mkdir(parents=True, exist_ok=True)
        return Path(out)


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
        ("bound", "analytical union-bound BER curves, one block per scheme"),
        ("ber", "Monte Carlo BER sweep"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file path")
        p.add_argument("--out", help="output directory")
        if name in ("bound", "ber"):
            p.add_argument("--snr", dest="snr_db", metavar="SNR",
                           help="SNR grid start:step:stop in dB")
        if name == "ber":
            p.add_argument("--seed", type=int)
            p.add_argument("--detector", dest="detectors", action="append", choices=DETECTORS)
            p.add_argument("--scheme", dest="schemes", action="append", choices=SCHEMES)
            p.add_argument("--max-bits", type=int)
            p.add_argument("--min-errors", dest="min_bit_errors", metavar="MIN_ERRORS", type=int)
            p.add_argument("-v", "--verbose", action="store_true",
                           help="log each SNR point's seconds, blocks and stop reasons")
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
    log, verbose = logging.getLogger(__package__), getattr(args, "verbose", False)
    level, handler = log.level, logging.StreamHandler()  # this call's stderr
    if verbose:
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        run()
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        if verbose:  # the embedding program's level and handlers again
            log.removeHandler(handler)
            log.setLevel(level)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
