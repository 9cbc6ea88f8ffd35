"""Channel-layer constants: the AWGN variance of a system SNR."""

from __future__ import annotations

import numpy as np


def noise_variance(snr_db: float, total_power: float = 1.0) -> float:
    """System SNR is total transmit power over noise power; inf disables noise.

    ValueError for any other SNR whose variance is not a positive finite float.
    """
    if snr_db == np.inf:
        return 0.0
    try:
        sigma2 = total_power / 10 ** (snr_db / 10)
    except (OverflowError, ZeroDivisionError):  # 10^(snr/10) leaves the float range
        sigma2 = np.nan
    if not 0 < sigma2 < np.inf:
        raise ValueError(f"SNR {snr_db:g} dB: noise variance not a positive finite float")
    return sigma2
