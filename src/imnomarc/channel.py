"""Channel-layer constants: the AWGN variance of a system SNR."""

from __future__ import annotations

import numpy as np


def noise_variance(snr_db: float, total_power: float = 1.0) -> float:
    """System SNR is total transmit power over noise power; inf disables noise."""
    if np.isinf(snr_db):
        return 0.0
    return total_power / 10 ** (snr_db / 10)
