"""The EKF covariance stays symmetric and PSD over long random runs, its
time update is within a proven rounding bound of exact arithmetic, and its
symmetrization is numpy's, bit for bit."""
import math
from fractions import Fraction

import numpy as np
import pytest

from cfisac.config import SystemConfig
from cfisac.selection import ApSelection
from cfisac.tracking import (MeasurementSet, MotionModel, StateEstimate,
                             _symmetrized, measurement_model, predict, update)

pytest.importorskip("hypothesis")
from hypothesis import (example, given, settings,  # noqa: E402
                        strategies as st)

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


# Zero, or a magnitude far from underflow and overflow, with either sign:
# then every rounding error of `predict` is relative.
SIGNED = st.builds(lambda sign, magnitude: sign * magnitude,
                   st.sampled_from((1.0, -1.0)),
                   st.one_of(st.just(0.0), st.floats(1e-4, 1e4)))
# A PSD 2x2, exactly symmetric: [[a^2, r a b], [r a b, b^2]], |r| <= 1.
PSD = st.builds(lambda a, b, r: [[a * a, r * a * b], [r * a * b, b * b]],
                SIGNED, SIGNED, st.floats(-1, 1))
U = Fraction(1, 2 ** 53)


def exact(m):
    return [[Fraction(x) for x in row] for row in np.asarray(m).tolist()]


def absolute(m):
    return [[abs(x) for x in row] for row in m]


def exact_product(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
            for i in range(2)]


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53: a computation with n
    roundings in series is within gamma_n of exact, relative to its
    absolute-value terms."""
    return n * U / (1 - n * U)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(transition=st.lists(SIGNED, min_size=4, max_size=4), covariance=PSD,
       noise=PSD, mean=st.lists(SIGNED, min_size=2, max_size=2))
@example(transition=[1.0, 0.01, 0.0, 1.0], covariance=[[0.0, 0.0], [0.0, 0.0]],
         noise=[[0.0, 0.0], [0.0, 0.0]], mean=[3.0, -2.0])
@example(transition=[0.3, -7.0, 2.5, 1.1], covariance=[[4.0, -1.5], [-1.5, 2.0]],
         noise=[[0.0, 0.0], [0.0, 0.0]], mean=[-40.0, 0.7])
def test_predict_is_within_a_rounding_bound_of_exact(transition, covariance,
                                                     noise, mean):
    """Each two-term dot product carries gamma_2 of its terms (Higham,
    Accuracy and Stability, eq. 3.5). So F P is within gamma_2 |F||P|, and
    (F P) F^T within gamma_4 |F||P||F^T| (Lemma 3.3); adding Q, summing the
    two off-diagonal entries and halving (exact here) bring the covariance
    within gamma_6 (|F||P||F^T| + |Q|) of the exact symmetrized F P F^T + Q,
    since P and Q are symmetric. The mean is one dot product: gamma_2."""
    f = np.array(transition).reshape(2, 2)
    model = MotionModel(f, np.array(noise))
    out = predict(StateEstimate(mean, covariance), model)
    assert out.covariance[0, 1] == out.covariance[1, 0]

    fx, px, qx = exact(f), exact(covariance), exact(noise)
    ft = [[fx[j][i] for j in range(2)] for i in range(2)]
    want = exact_product(exact_product(fx, px), ft)
    scale = exact_product(exact_product(absolute(fx), absolute(px)),
                          absolute(ft))
    for i in range(2):
        for j in range(2):
            sym = (want[i][j] + want[j][i] + qx[i][j] + qx[j][i]) / 2
            bound = gamma(6) * (scale[i][j] + abs(qx[i][j]))
            assert abs(Fraction(out.covariance[i, j]) - sym) <= bound
    for i in range(2):
        terms = [fx[i][k] * Fraction(mean[k]) for k in range(2)]
        assert (abs(Fraction(out.mean[i]) - sum(terms))
                <= gamma(2) * sum(abs(t) for t in terms))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(epoch_duration=st.floats(1e-4, 1.0), process_noise_std=st.floats(0, 10),
       covariance=PSD, mean=st.lists(SIGNED, min_size=2, max_size=2))
def test_constant_velocity_mean_is_exact(epoch_duration, process_noise_std,
                                         covariance, mean):
    """With F = [[1, dt], [0, 1]] the products by 1 and 0 are exact, so the
    mean moves by the one rounded step p + dt v and keeps v."""
    model = MotionModel.from_config(SystemConfig(
        epoch_duration=epoch_duration, process_noise_std=process_noise_std))
    p, v = mean
    out = predict(StateEstimate(mean, covariance), model)
    assert out.mean[1] == v
    assert out.mean[0] == p + epoch_duration * v


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
    a, off, d = _symmetrized(m)
    assert np.array([[a, off], [off, d]]).tobytes() == want.tobytes()
