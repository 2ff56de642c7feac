"""crb_block against the FFT chain over random system configurations."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfisac.config import SPEED_OF_LIGHT, SystemConfig
from cfisac.crb import (SensingLinkGain, WaveformSpec, all_ones_waveform,
                        crb_angle, crb_block, crb_delay_doppler, qpsk_waveform,
                        transform_to_range_velocity)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# The deterministic oracle tests' tolerance; over 1500 random examples the
# largest difference seen was 1.7e-14.
RTOL = 1e-12


def waveform(kind, cfg, seed):
    rng = np.random.default_rng(seed)
    if kind == "ones":
        return all_ones_waveform(cfg)
    if kind == "qpsk":
        return qpsk_waveform(cfg, rng)
    shape = (cfg.num_subcarriers, cfg.num_symbols)
    sym = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return WaveformSpec(sym * math.sqrt(sym.size / np.sum(np.abs(sym) ** 2)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_closed_form_matches_the_fft_chain(data):
    carrier = 10.0 ** data.draw(st.floats(9, 11), label="log10 carrier")
    cfg = SystemConfig(
        num_subcarriers=data.draw(st.integers(2, 64), label="subcarriers"),
        num_symbols=data.draw(st.integers(2, 16), label="symbols"),
        antennas_per_ap=data.draw(st.integers(2, 16), label="antennas"),
        carrier_frequency=carrier,
        antenna_spacing=data.draw(st.floats(0.25, 1.0), label="spacing")
        * SPEED_OF_LIGHT / carrier,
        subcarrier_spacing=10.0 ** data.draw(st.floats(4, 6),
                                             label="log10 spacing"),
        cp_length=data.draw(st.integers(1, 32), label="cp_length"),
        noise_power=10.0 ** data.draw(st.floats(-14, -8),
                                      label="log10 noise"))
    spec = waveform(data.draw(st.sampled_from(["ones", "qpsk", "random"]),
                              label="grid"),
                    cfg, data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    magnitude = 10.0 ** data.draw(st.floats(-8, -4), label="log10 |alpha|")
    phase = data.draw(st.floats(-math.pi, math.pi), label="phase")
    gain = SensingLinkGain.from_amplitude(magnitude * complex(math.cos(phase),
                                                              math.sin(phase)))
    azimuth = data.draw(st.floats(-1.4, 1.4), label="azimuth")
    ap = data.draw(st.integers(0, cfg.num_aps - 1), label="ap")

    got = crb_block(spec, cfg, gain, azimuth, ap)
    want = transform_to_range_velocity(
        crb_delay_doppler(spec, cfg, gain, azimuth, 0.0, 0.0),
        crb_angle(spec, cfg, gain, azimuth, 0.0, 0.0), cfg, ap)

    # Range and velocity variances differ by orders of magnitude: compare
    # in correlation units, as tests/test_crb.py does.
    sd = np.sqrt(np.diag(want.range_velocity))
    scale = np.outer(sd, sd)
    assert_allclose(got.range_velocity / scale, want.range_velocity / scale,
                    rtol=0, atol=RTOL)
    assert_allclose(got.angle_var, want.angle_var, rtol=RTOL, atol=0)
    assert got.ap_index == want.ap_index == ap
