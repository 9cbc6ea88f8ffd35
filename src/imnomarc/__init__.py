"""Link-level simulator and analysis toolkit for downlink IM-NOMA-RC."""

__version__ = "0.1.0"

from .constellation import Constellation, build_constellation
from .superposition import (SuperAlphabet, SystemConfig, build_super_alphabet,
                            spectral_efficiency, user_bit_positions)
from .detectors import flops_ml, flops_sic
from .analysis import pep_rayleigh_closed_form, union_bound_ber
from .harness import BerRecord, ExperimentSpec, noise_variance, persist, run_point, run_sweep
