"""Transmit-side model: the system config, the rotation-pattern table used for
index modulation on the near-user group, the per-user bit positions, the
channel table of which receiver decides which bits, and the enumerated
super-alphabet of power-domain superpositions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .constellation import Constellation, bit_rows, build_constellation

DEFAULT_ALPHABET_CAP = 2 ** 20


@dataclass
class SystemConfig:
    """Downlink system parameters.

    Users are ordered far-to-near: power coefficients strictly decreasing,
    users 1..n_far form the far group, the rest the near group. Index bits
    select which suffix of near users gets its constellation rotated. The
    one-user system (n_users = n_far = 1, power_coeffs = (1.0,)) has no near
    group and so no index bits: it is the OFDM/OMA baseline.

    index_user_mode:
        "near"    - index bits belong to the near users' own payload;
        "virtual" - index bits carry a separate (N+1)-th user's data.

    ``rotation_angle`` (radians) rotates the selected suffix, and the other
    users stay unrotated, so it must be finite and nonzero modulo 2*pi.
    """

    n_users: int = 2
    n_far: int = 1
    mod_order: int = 2
    family: str = "PSK"
    power_coeffs: tuple[float, ...] = (0.9, 0.1)
    rotation_angle: float = np.pi / 2
    index_user_mode: str = "virtual"
    im_enabled: bool = True

    # Total transmit power P_T. The SNR is P_T over the noise power, so every
    # BER and bound depends on P_T only through the SNR, and P_T stays fixed.
    total_power: ClassVar[float] = 1.0

    def __post_init__(self):
        if self.n_users < 1:
            raise ValueError("need at least one user")
        if not 1 <= self.n_far < max(self.n_users, 2):
            raise ValueError("n_far must satisfy 1 <= n_far < n_users, or n_far = n_users = 1")
        self.power_coeffs = tuple(float(a) for a in self.power_coeffs)
        if len(self.power_coeffs) != self.n_users:
            raise ValueError("one power coefficient per user required")
        if not all(0 < a < np.inf for a in self.power_coeffs):
            raise ValueError("power coefficients must be positive and finite")
        if any(a <= b for a, b in zip(self.power_coeffs, self.power_coeffs[1:])):
            raise ValueError("power coefficients must be strictly decreasing")
        if abs(sum(self.power_coeffs) - 1.0) > 1e-12:
            raise ValueError("power coefficients must sum to 1")
        self.rotation_angle = float(self.rotation_angle)
        if not np.isfinite(self.rotation_angle) or np.round(
                np.mod(self.rotation_angle, 2 * np.pi), 12) == 0:
            raise ValueError("rotation angle must be finite and nonzero modulo 2*pi")
        if self.index_user_mode not in ("near", "virtual"):
            raise ValueError(f"unknown index_user_mode {self.index_user_mode!r}")
        self.constellation: Constellation = build_constellation(self.mod_order, self.family)
        # amplitude weight sqrt(alpha_n * P_T) per user, P_T = 1
        self.amplitudes = np.sqrt(np.array(self.power_coeffs))

    @property
    def bits_per_symbol(self) -> int:
        return self.constellation.bits_per_symbol

    @property
    def n_index_bits(self) -> int:
        if not self.im_enabled:
            return 0
        # floor(log2(n_near + 1)), exact for positive ints
        return (self.n_users - self.n_far + 1).bit_length() - 1

    @property
    def n_symbol_bits(self) -> int:
        return self.n_users * self.bits_per_symbol

    @property
    def n_patterns(self) -> int:
        return 1 << self.n_index_bits


def rotation_flags(cfg: SystemConfig) -> np.ndarray:
    """(n_patterns, N) table of rotated users: row phi flags the last phi users."""
    return np.arange(cfg.n_users) >= cfg.n_users - np.arange(cfg.n_patterns)[:, None]


def spectral_efficiency(cfg: SystemConfig) -> int:
    """Bits per subcarrier: N*log2(M) symbol bits plus the index bits."""
    return cfg.n_symbol_bits + cfg.n_index_bits


def user_bit_positions(cfg: SystemConfig, user) -> range:
    """Bit positions owned by ``user`` inside a packed per-subcarrier string.

    ``user`` is a 1-based user index for symbol bits, or the string "index"
    for the index-bit positions.
    """
    b = cfg.bits_per_symbol
    if user == "index":
        return range(cfg.n_symbol_bits, cfg.n_symbol_bits + cfg.n_index_bits)
    user = int(user)
    if not 1 <= user <= cfg.n_users:
        raise ValueError(f"user {user} out of range")
    return range((user - 1) * b, user * b)


def channels(cfg: SystemConfig) -> list[tuple[str, range, int]]:
    """Each tracked error curve as (name, bit positions, deciding receiver):
    users 1..N, then "index" when the config carries index bits. The index
    bits are decided by the virtual receiver N+1 in "virtual" mode and by the
    nearest user N in "near" mode."""
    table = [(str(u), user_bit_positions(cfg, u), u) for u in range(1, cfg.n_users + 1)]
    if cfg.n_index_bits:
        rx = cfg.n_users + 1 if cfg.index_user_mode == "virtual" else cfg.n_users
        table.append(("index", user_bit_positions(cfg, "index"), rx))
    return table


@dataclass
class SuperAlphabet:
    """Exhaustive enumeration of superimposed symbols over (symbols, pattern).

    Entry i corresponds to the packed bit-string whose integer value is i, so
    the alphabet index doubles as the transmitted bit pattern: user n's label
    is its n-th field (``label_fields``) and the pattern its low bits.
    """

    cfg: SystemConfig
    x: np.ndarray               # (A,) superimposed complex values
    bits: np.ndarray            # (A, p) 0/1

    def __len__(self) -> int:
        return len(self.x)


def alphabet_size(cfg: SystemConfig) -> int:
    """Entry count M^N * 2^p2 of the super-alphabet; ValueError above
    ``DEFAULT_ALPHABET_CAP``."""
    size = cfg.mod_order ** cfg.n_users * cfg.n_patterns
    if size > DEFAULT_ALPHABET_CAP:
        raise ValueError(f"alphabet size {size} exceeds enumeration cap {DEFAULT_ALPHABET_CAP}")
    return size


def label_fields(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Label integer of each constellation point, and each user's field shift in an entry."""
    b = cfg.bits_per_symbol
    return (cfg.constellation.bits @ (1 << np.arange(b - 1, -1, -1)),
            spectral_efficiency(cfg) - b * np.arange(1, cfg.n_users + 1))


def build_super_alphabet(cfg: SystemConfig) -> SuperAlphabet:
    """Enumerate all M^N * 2^p2 superimposed symbols with bit-strings attached.

    Entry i is the bit-string i: user n's label is its n-th b-bit field, phi its low p2 bits.
    """
    i = np.arange(alphabet_size(cfg))
    labels, shifts = label_fields(cfg)
    point_of_label = np.argsort(labels)
    syms = cfg.constellation.points[point_of_label[(i[:, None] >> shifts) & (cfg.mod_order - 1)]]
    factors = np.where(rotation_flags(cfg)[i & (cfg.n_patterns - 1)],
                       np.exp(1j * cfg.rotation_angle), 1.0 + 0j)
    x = (syms * factors * cfg.amplitudes).sum(axis=1)
    return SuperAlphabet(cfg=cfg, x=x, bits=bit_rows(i, spectral_efficiency(cfg)))
