"""Reference pieces that only the tests use.

`qpsk_waveform` gives the general-grid tests a random unit-modulus grid, and
`propagate_truth` is the truth step of the reference stepper in
`test_reference_run.py`. The tests import this module by name, from the
tests directory pytest puts on the path.
"""

import math

import numpy as np

from cfisac.config import SystemConfig
from cfisac.crb import WaveformSpec
from cfisac.geometry import TargetTruth


def qpsk_waveform(cfg: SystemConfig, rng: np.random.Generator) -> WaveformSpec:
    """Unit-modulus QPSK grid drawn from the given generator."""
    quadrants = rng.integers(0, 4, size=(cfg.num_subcarriers, cfg.num_symbols))
    return WaveformSpec(np.exp(1j * (math.pi / 2) * quadrants))


def propagate_truth(truth: TargetTruth, cfg: SystemConfig) -> TargetTruth:
    """Noiseless constant-velocity step over one epoch."""
    return TargetTruth(
        truth.position_x + truth.velocity_x * cfg.epoch_duration,
        truth.velocity_x)
