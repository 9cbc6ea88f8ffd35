"""Output checks, run after the timed section.

BER: every (detector, user, SNR) count is compared with the reference counts
stored under reference/ by a two-proportion test, so a correctly re-seeded
harness passes and a broken detector fails. Bound: every value must match a
vectorised evaluation built here from ``pep_rayleigh_closed_form``.
"""

from __future__ import annotations

import csv
import math

# Largest accepted |z| of the difference between observed and reference BER.
# With ~10^4 checks over a full set of benchmark runs a correct program fails
# none at 5 sigma, while a detector that decides wrong bits is off by far more.
Z_MAX = 5.0
BOUND_RTOL = 1e-6


def read_counts(path) -> dict[tuple[str, str, float], tuple[int, int]]:
    """(detector, user, snr_db) -> (bits_sent, bit_errors) of a results.csv."""
    with open(path, newline="") as f:
        return {(r["detector"], r["user"], float(r["snr_db"])):
                (int(r["bits_sent"]), int(r["bit_errors"]))
                for r in csv.DictReader(f)}


def ber_z(n: int, e: int, n_ref: int, e_ref: int, inflation: float) -> float:
    """Two-proportion z statistic; ``inflation`` bounds the variance added by
    errors that share a subcarrier (at most the bits it carries)."""
    p = (e + e_ref) / (n + n_ref)
    p = min(max(p, 0.5 / (n + n_ref)), 1.0 - 0.5 / (n + n_ref))
    var = inflation * p * (1.0 - p) * (1.0 / n + 1.0 / n_ref)
    return abs(e / n - e_ref / n_ref) / math.sqrt(var)


def snr_grid(text: str) -> list[float]:
    start, step, stop = (float(v) for v in text.split(":"))
    return [start + k * step for k in range(int(round((stop - start) / step)) + 1)]


def check_ber(plan: dict, results_path, reference_path) -> list[tuple[str, str | None]]:
    """One (operation, failure reason or None) per detector and SNR point."""
    sweep = plan["sweep"]
    labels = [(det, snr) for det in plan["detectors"] for snr in snr_grid(sweep["snr_db"])]
    ref = read_counts(reference_path)
    try:
        got = read_counts(results_path)
    except (OSError, KeyError, ValueError) as exc:
        return [(f"{det}@{snr:g}dB", f"unreadable results: {exc}") for det, snr in labels]
    ops = []
    for det, snr in labels:
        users = [k[1] for k in ref if k[0] == det and k[2] == snr]
        reason = None if users else "no reference row"
        for user in users:
            if (det, user, snr) not in got:
                reason = f"user {user}: no result row"
                break
            n, e = got[(det, user, snr)]
            if n <= 0:
                reason = f"user {user}: no bits sent"
                break
            if e < sweep["min_bit_errors"] and n < sweep["max_bits"]:
                reason = f"user {user}: stopped before the stop rule"
                break
            z = ber_z(n, e, *ref[(det, user, snr)], plan["bits_per_subcarrier"])
            if z > Z_MAX:
                reason = f"user {user}: BER {e / n:.4g} vs reference, z={z:.1f}"
                break
        ops.append((f"{det}@{snr:g}dB", reason))
    return ops


def bound_oracle(alphabet, sigma2: float, user) -> float:
    """Union bound evaluated over all pairs at once with the closed-form PEP."""
    import numpy as np
    from imnomarc import pep_rayleigh_closed_form, user_bit_positions

    size, p = alphabet.bits.shape
    if user is None:
        positions = range(p)
    else:
        positions = user_bit_positions(alphabet.cfg, user)
    # Entry i's packed bit-string is i itself, most significant bit first.
    mask = sum(1 << (p - 1 - k) for k in positions)
    idx = np.arange(size)
    diff = (idx[:, None] ^ idx[None, :]) & mask
    weight = sum((diff >> k) & 1 for k in range(p))
    d2 = np.abs(alphabet.x[:, None] - alphabet.x[None, :]) ** 2
    pep = pep_rayleigh_closed_form(np.sqrt(d2), sigma2)
    return float((pep * weight).sum() / (len(positions) * size))


def check_bound(value, oracle: float) -> str | None:
    if value is None:
        return "raised"
    if not math.isfinite(value) or abs(value - oracle) > BOUND_RTOL * abs(oracle):
        return f"bound {value!r} vs oracle {oracle!r}"
    return None
