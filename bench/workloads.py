"""Workload definitions for the imnomarc benchmark.

A workload is a fixed job a user of imnomarc waits for; the comment at each
definition records why it is in the benchmark. Every iteration of a
workload runs in a fresh worker process; its inputs are made here, in the
parent, from the benchmark seed, and handed to the worker as a plan (a JSON
dict). The program itself receives only the generated INI file or the config
values in the plan.
"""

from __future__ import annotations

import math
import random

# Master seed whose results.csv files are stored under reference/.
REFERENCE_SEED = 0

WORKLOADS = {
    "ber_2u_bpsk": {
        # The paper's headline configuration and the command users run by
        # default. With A=8 detection is cheap, so per-block overhead in the
        # harness and channel layers dominates. Low-SNR points stop after one
        # 16-block batch while 30 dB runs ~5k blocks, so both ends of the
        # stop rule run.
        "kind": "ber",
        "system": {"n_users": 2, "n_far": 1, "mod_order": 2, "family": "PSK",
                   "power_coeffs": "0.9, 0.1", "total_power": 1.0,
                   "index_user_mode": "virtual"},
        "sweep": {"snr_db": "0:5:30", "max_bits": 10_000_000,
                  "min_bit_errors": 200, "n_subcarriers": 128},
        "detectors": ["ml", "sic"],
        "bits_per_symbol": 1,
        # Most bits one channel carries per subcarrier: the variance
        # inflation allowed for errors that share a subcarrier's fade.
        "bits_per_subcarrier": 1,
        "tiny": {"snr_db": "0:10:20", "max_bits": 40_000, "min_bit_errors": 20},
    },
    "ber_4u_qpsk": {
        # ml_block over A=1024 is ~94% of the time, so a change to the ML
        # kernel shows here and a harness-only change should not. The pi/4
        # rotation keeps all 1024 points distinct (pi/2 collapses them to
        # 256), so a dedupe-based ML speedup cannot look better here than on
        # a configuration whose points are all distinct.
        "kind": "ber",
        "system": {"n_users": 4, "n_far": 1, "mod_order": 4, "family": "PSK",
                   "power_coeffs": "0.75, 0.18, 0.05, 0.02",
                   "total_power": 1.0, "index_user_mode": "virtual",
                   "rotation_angles": f"0, {math.pi / 4!r}"},
        # Raised stop rule: ~560 blocks over the three points.
        "sweep": {"snr_db": "10:10:30", "max_bits": 200_000,
                  "min_bit_errors": 2000, "n_subcarriers": 128},
        "detectors": ["ml"],
        "bits_per_symbol": 2,
        "bits_per_subcarrier": 2,
        "tiny": {"snr_db": "10:10:10", "max_bits": 5_000, "min_bit_errors": 100},
    },
    "bound_4u": {
        # Uses the analysis layer in both of its regimes and does no harness,
        # channel or detector work, so changes to those layers should leave
        # it unchanged. The A=64 curve is bound by the adaptive quadrature,
        # the single A=1024 call (859 distinct distances under the pi/2
        # rotation) by the O(A^2) Python pair loop.
        "kind": "bound",
        "parts": {
            "curve": {
                "system": {"n_users": 4, "n_far": 1, "mod_order": 2,
                           "power_coeffs": [0.6, 0.25, 0.1, 0.05]},
                "snr_db": [0.0, 10.0, 20.0, 30.0],
                "users": [None, 1, 2, 3, 4, "index"],
            },
            "a1024": {
                "system": {"n_users": 4, "n_far": 1, "mod_order": 4,
                           "power_coeffs": [0.75, 0.18, 0.05, 0.02]},
                "snr_db": [20.0],
                "users": [None],
            },
        },
        "tiny": {
            "curve": {"snr_db": [10.0], "users": [None, 1]},
            # 2:1:4 QPSK, A=32, stands in for the A=1024 call.
            "a1024": {"system": {"n_users": 2, "n_far": 1, "mod_order": 4,
                                 "power_coeffs": [0.8, 0.2]}},
        },
    },
}


def iteration_seeds(seed: int):
    """Master seeds of successive iterations: ``seed`` itself first, so that
    the reference seed reproduces the stored results, then seeded draws."""
    yield seed
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(31)


def ber_ini(name: str, tiny: bool) -> str:
    """INI text handed to ``imnomarc ber --config``."""
    wl = WORKLOADS[name]
    sweep = dict(wl["sweep"], **(wl["tiny"] if tiny else {}))
    lines = ["[system]"]
    lines += [f"{k} = {v}" for k, v in wl["system"].items()]
    lines += ["", "[sweep]"]
    lines += [f"{k} = {v}" for k, v in sweep.items()]
    lines += ["schemes = imnomarc", f"detectors = {', '.join(wl['detectors'])}"]
    return "\n".join(lines) + "\n"


def make_plan(name: str, master_seed: int, tiny: bool = False) -> dict:
    """Inputs of one iteration. BER plans carry the sweep parameters the
    output checks need; the INI itself is written by the caller."""
    wl = WORKLOADS[name]
    plan = {"workload": name, "kind": wl["kind"], "seed": master_seed,
            "tiny": tiny}
    if wl["kind"] == "ber":
        sweep = dict(wl["sweep"], **(wl["tiny"] if tiny else {}))
        plan.update(sweep=sweep, detectors=wl["detectors"],
                    bits_per_symbol=wl["bits_per_symbol"],
                    bits_per_subcarrier=wl["bits_per_subcarrier"])
        return plan
    # The bound is deterministic and its inputs do not depend on the seed:
    # moving the SNR points would change the quadrature work from run to run.
    parts = {}
    for label, part in wl["parts"].items():
        part = dict(part, **(wl["tiny"].get(label, {}) if tiny else {}))
        parts[label] = {"system": part["system"],
                        "calls": [[s, u] for s in part["snr_db"] for u in part["users"]]}
    plan["parts"] = parts
    return plan
