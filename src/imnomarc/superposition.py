"""Transmit-side model: bit partitioning, power-domain superposition, and the
rotation-pattern lookup used for index modulation on the near-user group."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constellation import Constellation, RotationSet, build_constellation

DEFAULT_ALPHABET_CAP = 2 ** 20


@dataclass
class SystemConfig:
    """Downlink system parameters.

    Users are ordered far-to-near: power coefficients strictly decreasing,
    users 1..n_far form the far group, the rest the near group. Index bits
    select which suffix of near users gets its constellation rotated.

    index_user_mode:
        "near"    - index bits belong to the near users' own payload;
        "virtual" - index bits carry a separate (N+1)-th user's data.
    """

    n_users: int = 2
    n_far: int = 1
    mod_order: int = 2
    family: str = "PSK"
    power_coeffs: tuple[float, ...] = (0.9, 0.1)
    total_power: float = 1.0
    rotation: RotationSet = field(default_factory=RotationSet)
    index_user_mode: str = "virtual"
    im_enabled: bool = True

    def __post_init__(self):
        if self.n_users < 2:
            raise ValueError("need at least two users")
        if not 1 <= self.n_far < self.n_users:
            raise ValueError("n_far must satisfy 1 <= n_far < n_users")
        self.power_coeffs = tuple(float(a) for a in self.power_coeffs)
        if len(self.power_coeffs) != self.n_users:
            raise ValueError("one power coefficient per user required")
        if any(a <= 0 for a in self.power_coeffs):
            raise ValueError("power coefficients must be positive")
        if any(a <= b for a, b in zip(self.power_coeffs, self.power_coeffs[1:])):
            raise ValueError("power coefficients must be strictly decreasing")
        if abs(sum(self.power_coeffs) - 1.0) > 1e-12:
            raise ValueError("power coefficients must sum to 1")
        if self.total_power <= 0:
            raise ValueError("total_power must be positive")
        if self.index_user_mode not in ("near", "virtual"):
            raise ValueError(f"unknown index_user_mode {self.index_user_mode!r}")
        self.constellation: Constellation = build_constellation(self.mod_order, self.family)
        # amplitude weight sqrt(alpha_n * P_T) per user
        self.amplitudes = np.sqrt(np.array(self.power_coeffs) * self.total_power)

    @property
    def bits_per_symbol(self) -> int:
        return self.constellation.bits_per_symbol

    @property
    def n_index_bits(self) -> int:
        if not self.im_enabled:
            return 0
        return int(np.floor(np.log2(self.n_users - self.n_far + 1)))

    @property
    def n_symbol_bits(self) -> int:
        return self.n_users * self.bits_per_symbol

    @property
    def n_patterns(self) -> int:
        return 2 ** self.n_index_bits

    @property
    def rotation_angle(self) -> float:
        # angle applied to the rotated suffix for every nonzero pattern
        return self.rotation.angles[1]


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


def spectral_efficiency(cfg: SystemConfig) -> int:
    """Bits per subcarrier: N*log2(M) symbol bits plus the index bits."""
    return cfg.n_symbol_bits + cfg.n_index_bits


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
    s = np.array([const.points[const.index_for_bits(p1_bits[n * b:(n + 1) * b])]
                  for n in range(cfg.n_users)])
    phi = 0
    for bit in p2_bits:
        phi = (phi << 1) | int(bit)
    return s, phi


def unpack_bits(cfg: SystemConfig, s, phi: int) -> np.ndarray:
    """Exact inverse of pack_bits."""
    s = np.asarray(s, dtype=complex)
    const = cfg.constellation
    bits = []
    for sym in s:
        idx = int(np.argmin(np.abs(const.points - sym)))
        if abs(const.points[idx] - sym) > 1e-9:
            raise ValueError(f"symbol {sym} not in the base constellation")
        bits.extend(const.bits_for_index(idx))
    for k in range(cfg.n_index_bits - 1, -1, -1):
        bits.append((phi >> k) & 1)
    return np.array(bits, dtype=int)


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


@dataclass
class SuperAlphabet:
    """Exhaustive enumeration of superimposed symbols over (symbols, pattern).

    Entry i corresponds to the packed bit-string whose integer value is i, so
    the alphabet index doubles as the transmitted bit pattern.
    """

    cfg: SystemConfig
    symbol_indices: np.ndarray  # (A, N) constellation point indices
    phis: np.ndarray            # (A,)
    x: np.ndarray               # (A,) superimposed complex values
    bits: np.ndarray            # (A, p) 0/1

    def __len__(self) -> int:
        return len(self.x)

    def entry(self, i: int):
        return (self.symbol_indices[i], int(self.phis[i]), complex(self.x[i]), self.bits[i])


def symbol_indices_to_x(cfg: SystemConfig, indices: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Vectorized superposition for arrays of point indices (L, N) and patterns (L,)."""
    indices = np.asarray(indices, dtype=int)
    phis = np.asarray(phis, dtype=int)
    syms = cfg.constellation.points[indices]  # (L, N)
    user_pos = np.arange(1, cfg.n_users + 1)
    rotated = user_pos[None, :] > (cfg.n_users - phis[:, None])
    factors = np.where(rotated, np.exp(1j * cfg.rotation_angle), 1.0 + 0j)
    return (syms * factors * cfg.amplitudes[None, :]).sum(axis=1)


def build_super_alphabet(cfg: SystemConfig, cap: int = DEFAULT_ALPHABET_CAP) -> SuperAlphabet:
    """Enumerate all M^N * 2^p2 superimposed symbols with bit-strings attached."""
    size = cfg.mod_order ** cfg.n_users * cfg.n_patterns
    if size > cap:
        raise ValueError(f"alphabet size {size} exceeds enumeration cap {cap}")
    p = spectral_efficiency(cfg)
    bits = ((np.arange(size)[:, None] >> np.arange(p - 1, -1, -1)[None, :]) & 1).astype(np.uint8)
    b = cfg.bits_per_symbol
    const = cfg.constellation
    # per-symbol bit-int -> point index lookup
    lut = np.empty(cfg.mod_order, dtype=int)
    for label, idx in const.labels.items():
        v = 0
        for bit in label:
            v = (v << 1) | bit
        lut[v] = idx
    weights_b = 1 << np.arange(b - 1, -1, -1)
    sym_idx = np.empty((size, cfg.n_users), dtype=int)
    for n in range(cfg.n_users):
        ints = bits[:, n * b:(n + 1) * b].astype(int) @ weights_b
        sym_idx[:, n] = lut[ints]
    if cfg.n_index_bits:
        weights_p2 = 1 << np.arange(cfg.n_index_bits - 1, -1, -1)
        phis = bits[:, cfg.n_symbol_bits:].astype(int) @ weights_p2
    else:
        phis = np.zeros(size, dtype=int)
    x = symbol_indices_to_x(cfg, sym_idx, phis)
    return SuperAlphabet(cfg=cfg, symbol_indices=sym_idx, phis=phis, x=x, bits=bits)
