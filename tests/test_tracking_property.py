"""The EKF covariance stays symmetric and PSD over long random runs, and
its symmetrization is numpy's, bit for bit."""
import math

import numpy as np
import pytest

from cfisac.config import SystemConfig
from cfisac.selection import ApSelection
from cfisac.tracking import (MeasurementSet, MotionModel, StateEstimate,
                             _symmetrized, measurement_model, predict, update)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NUM_APS = 4

# One epoch: a bitmask of receive APs (0 = predict only), and per AP the
# log10 range and velocity variances, their correlation and the target's
# position offset from the filter mean.
STEP = st.tuples(
    st.integers(0, 2 ** NUM_APS - 1),
    st.lists(st.tuples(st.floats(-6, 2), st.floats(-6, 2),
                       st.floats(-0.9, 0.9)),
             min_size=NUM_APS, max_size=NUM_APS),
    st.floats(-20, 20))


def assert_symmetric_psd(cov):
    assert np.isfinite(cov).all()
    assert np.array_equal(cov, cov.T)
    scale = float(np.abs(cov).max())
    assert np.linalg.eigvalsh(cov).min() >= -1e-12 * scale


@settings(derandomize=True, max_examples=60, deadline=None)
@given(epoch_duration=st.floats(1e-3, 0.1),
       process_noise_std=st.floats(0, 10),
       position=st.floats(-100, 600), velocity=st.floats(-40, 40),
       log_var_p=st.floats(-4, 4), log_var_v=st.floats(-4, 2),
       rho=st.floats(-0.95, 0.95),
       steps=st.lists(STEP, min_size=1, max_size=150))
def test_covariance_stays_symmetric_psd(epoch_duration, process_noise_std,
                                        position, velocity, log_var_p,
                                        log_var_v, rho, steps):
    cfg = SystemConfig(num_aps=NUM_APS, epoch_duration=epoch_duration,
                       process_noise_std=process_noise_std)
    model = MotionModel.from_config(cfg)
    var_p, var_v = 10.0 ** log_var_p, 10.0 ** log_var_v
    cross = rho * np.sqrt(var_p * var_v)
    est = StateEstimate(np.array([position, velocity]),
                        np.array([[var_p, cross], [cross, var_v]]))
    for mask, blocks, offset in steps:
        est = predict(est, model)
        assert_symmetric_psd(est.covariance)
        indices = [ap for ap in range(NUM_APS) if mask >> ap & 1]
        if not indices:
            continue
        selection = ApSelection.from_indices(NUM_APS, indices)
        cov = np.zeros((2 * len(indices), 2 * len(indices)))
        for pos, ap in enumerate(indices):
            log_r, log_v, corr = blocks[ap]
            r, v = 10.0 ** log_r, 10.0 ** log_v
            c = corr * np.sqrt(r * v)
            cov[2 * pos:2 * pos + 2, 2 * pos:2 * pos + 2] = [[r, c], [c, v]]
        truth = est.mean + np.array([offset, 0.0])
        values = measurement_model(cfg, truth, selection)
        est = update(est, MeasurementSet(values, cov, selection), cfg)
        assert_symmetric_psd(est.covariance)


# Every magnitude from 1e-300 to 1e300 with either sign, every finite and
# infinite float, and the edges: signed zeros, subnormals, the largest
# finite values (whose doubling overflows) and infinities.
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
         -2.2250738585072014e-308, 1e-300, -1e300, 1.7976931348623157e308,
         -1.7976931348623157e308, math.inf, -math.inf)
ENTRY = st.one_of(
    st.sampled_from(EDGES),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa
              * 10.0 ** exponent, st.sampled_from((1.0, -1.0)),
              st.floats(1.0, 10.0, exclude_max=True), st.integers(-300, 299)),
    st.floats(allow_nan=False))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(entries=st.lists(ENTRY, min_size=4, max_size=4))
def test_symmetrized_is_numpys_halved_sum_bit_for_bit(entries):
    m = np.array(entries).reshape(2, 2)
    with np.errstate(all="ignore"):  # inf - inf and overflow, as numpy rounds
        want = (m + m.T) / 2.0
    got = _symmetrized(m)
    assert got.dtype == want.dtype and got.shape == (2, 2)
    assert got.tobytes() == want.tobytes()
