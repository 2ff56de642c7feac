"""The filter's float cores against exact arithmetic.

Each test draws a deployment, a waveform, a prior and a cross-section draw,
takes the bound blocks from `simulate._hops` as a sensing epoch does, and
bounds the float result of `tracking._predict_floats`,
`sensing._score_blocks` or `tracking._update_floats` against its
`Fraction` oracle in `oracles.py`. Errors are counted in units of
u = 2^-53 of a scale each test names; the draws reach prior correlations
within 1e-12 of +-1.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from cfisac.config import SystemConfig
from cfisac.crb import WaveformSpec, all_ones_waveform, block_diagonal
from cfisac.selection import ApSelection
from cfisac.sensing import _score_blocks
from cfisac.simulate import _hops
from cfisac.tracking import (MotionModel, StateEstimate, _predict_floats,
                             _update_floats)
from oracles import (exact_information, exact_predict, exact_score_blocks,
                     exact_update)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

U = Fraction(1, 2 ** 53)


def log_uniform(low: float, high: float):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


def coordinate(low: float, high: float):
    """Floats in [low, high], those under 1e-6 in magnitude taken as zero,
    so that no product of them underflows, where rounding errors stop
    being relative."""
    return st.floats(low, high).map(lambda x: x if abs(x) >= 1e-6 else 0.0)


def waveform_for(cfg: SystemConfig, grid_seed: int | None) -> WaveformSpec:
    """The all-ones grid the run senses with, or a grid of exponential
    powers of unit mean drawn from `grid_seed`, whose bound blocks, unlike
    the all-ones grid's, correlate range and radial velocity."""
    if grid_seed is None:
        return all_ones_waveform(cfg)
    power = np.random.default_rng(grid_seed).exponential(
        size=(cfg.num_subcarriers, cfg.num_symbols))
    return WaveformSpec(np.sqrt(power / power.mean()))


@st.composite
def epochs(draw):
    """A deployment and its sensing waveform, a prior (mean, covariance),
    the available APs and a cardinality, and the epoch's cross sections
    and sensing power."""
    num_aps = draw(st.integers(2, 6), label="num_aps")
    cfg = SystemConfig(
        num_aps=num_aps,
        ap_positions=draw(st.lists(coordinate(0, 600), min_size=num_aps,
                                   max_size=num_aps), label="ap_positions"),
        corridor_offset=draw(log_uniform(0, 2.5), label="corridor_offset"),
        tx_ap=draw(st.integers(0, num_aps - 1), label="tx_ap"),
        epoch_duration=draw(log_uniform(-3, -1), label="epoch_duration"),
        process_noise_std=draw(st.floats(0, 10), label="process_noise_std"))
    sd_p = draw(log_uniform(-3, 3), label="position std")
    sd_v = draw(log_uniform(-3, 2), label="velocity std")
    # |correlation| = 1 - 10^-e, from 0 to within 1e-12 of one
    rho = (draw(st.sampled_from((1.0, -1.0)), label="sign")
           * (1.0 - 10.0 ** -draw(st.floats(0, 12), label="e")))
    p01 = rho * sd_p * sd_v
    prior = (draw(coordinate(-200, 800), label="position"),
             draw(coordinate(-50, 50), label="velocity"),
             sd_p * sd_p, p01, p01, sd_v * sd_v)
    available = draw(st.lists(st.integers(0, num_aps - 1), min_size=1,
                              max_size=num_aps, unique=True), label="available")
    k = draw(st.integers(0, len(available)), label="cardinality")
    rcs = np.array(draw(st.lists(log_uniform(-3, 2), min_size=num_aps,
                                 max_size=num_aps), label="rcs"))
    power = draw(st.floats(0.01, 1), label="power_fraction")
    waveform = waveform_for(cfg, draw(st.none() | st.integers(0, 2 ** 32 - 1),
                                      label="grid_seed"))
    return cfg, waveform, prior, tuple(sorted(available)), k, rcs, power


def predicted_epoch(cfg, prior):
    model = MotionModel.from_config(cfg)
    p, v, c00, off, c11 = _predict_floats(model, *prior)
    return model, (p, v, c00, off, off, c11)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(epochs())
def test_predict_is_within_few_ulp_of_its_terms(epoch):
    """Each output within 8 u of its terms' absolute sum, F m for the mean
    and |F| |P| |F^T| + |Q| for the covariance: above Higham's gamma_6,
    which `test_tracking_property` proves for any F."""
    cfg, _, prior, *_ = epoch
    model, got = predicted_epoch(cfg, prior)
    want = exact_predict(model, *prior)
    (f00, f01, f10, f11), (q00, q01, q10, q11) = (
        [abs(Fraction(x)) for x in entries] for entries in model._entries)
    m0, m1, p00, p01, p10, p11 = (abs(Fraction(x)) for x in prior)
    fp = ((f00 * p00 + f01 * p10, f00 * p01 + f01 * p11),
          (f10 * p00 + f11 * p10, f10 * p01 + f11 * p11))
    terms = (f00 * m0 + f01 * m1, f10 * m0 + f11 * m1,
             fp[0][0] * f00 + fp[0][1] * f01 + q00,
             (fp[0][0] * f10 + fp[0][1] * f11 + q01
              + fp[1][0] * f00 + fp[1][1] * f01 + q10) / 2,
             fp[1][0] * f10 + fp[1][1] * f11 + q11)
    for g, w, scale in zip(got[:3] + got[4:], want, terms):
        assert abs(Fraction(g) - w) <= 8 * U * scale


def scorer_condition(predicted: StateEstimate, info, subset) -> Fraction:
    """num_abs / num + den_abs / den of `_score_blocks`' closed form
    (p00 + t11 det P) / (1 + tr(P S) + det P det S), each with its terms
    taken in absolute value, of the exact J^T R^-1 J `info` of `subset`'s
    APs: the relative error each sum's rounding can reach, over u. Both are
    1 where nothing cancels; det P of a strongly correlated P does."""
    (p00, p01), (p10, p11) = ([Fraction(x) for x in row]
                              for row in predicted.covariance.tolist())
    t00, t01, t11 = (sum(info[i][r][c] for i in subset)
                     for r, c in ((0, 0), (0, 1), (1, 1)))
    t01_abs = sum(abs(info[i][0][1]) for i in subset)
    det_p, det_p_abs = p00 * p11 - p01 * p10, p00 * p11 + abs(p01 * p10)
    num = p00 + t11 * det_p
    den = (1 + p00 * t00 + (p01 + p10) * t01 + p11 * t11
           + det_p * (t00 * t11 - t01 * t01))
    den_abs = (1 + p00 * t00 + abs(p01 + p10) * t01_abs + p11 * t11
               + det_p_abs * (t00 * t11 + t01_abs * t01_abs))
    return (p00 + t11 * det_p_abs) / num + den_abs / den


@settings(derandomize=True, max_examples=200, deadline=None)
@given(epochs())
def test_scorer_is_within_few_ulp_times_its_condition(epoch):
    """Each subset's angle variance within 8 u of the exact one, times the
    `scorer_condition` of its sums."""
    cfg, waveform, prior, available, k, rcs, power = epoch
    _, floats = predicted_epoch(cfg, prior)
    predicted = StateEstimate._built(np.array(floats[:2]),
                                     np.array(floats[2:]).reshape(2, 2))
    rows, entries = _hops(cfg, waveform, *floats[:2], rcs, power, available,
                          "filter mean")
    selection = ApSelection.from_indices(cfg.num_aps, available)
    subsets, variances = _score_blocks(cfg, predicted, selection, k, rows,
                                       entries)
    want_subsets, want = exact_score_blocks(cfg, predicted, selection, k,
                                            rows, entries)
    assert [tuple(s) for s in subsets.tolist()] == want_subsets
    info = [s for s, _ in exact_information(rows, entries)]
    for subset, got, exact in zip(subsets.tolist(), variances.tolist(), want):
        condition = scorer_condition(
            predicted, info, [available.index(ap) for ap in subset])
        assert abs(Fraction(got) - exact) <= 8 * U * condition * exact


@settings(derandomize=True, max_examples=200, deadline=None)
@given(epochs(), st.floats(-3, 3),
       st.lists(st.floats(-4, 4), min_size=12, max_size=12))
def test_update_is_within_the_cancellation_ratio_of_exact(epoch, offset,
                                                          normals):
    """With the cancellation ratio r = prior P00 / posterior P00, each
    posterior covariance entry (i, j) within 16 r u sqrt(P_ii P_jj) of the
    prior. Each mean entry i is within 16 r u (|m_i| + sqrt(P_ii) (1 + z)),
    m the exact posterior mean and z the length of the innovation whitened
    by the bound blocks: the gain's rounding is carried by the innovation,
    which a far truth makes long. The measurement is drawn at a truth
    `offset` prior standard deviations from the predicted position, with
    `normals` scaling each AP's range and velocity bound."""
    cfg, waveform, prior, aps, _, rcs, power = epoch
    p, v, p00, p01, _, p11 = predicted_epoch(cfg, prior)[1]
    truth_rows, truth_entries = _hops(
        cfg, waveform, p + offset * math.sqrt(p00), v, rcs, power, aps)
    values = []
    for i, (dist, radial, _, _) in enumerate(truth_rows):
        values += (dist + normals[2 * i] * math.sqrt(truth_entries[4 * i]),
                   radial + normals[2 * i + 1]
                   * math.sqrt(truth_entries[4 * i + 3]))
    rows, entries = _hops(cfg, waveform, p, v, rcs, power, aps,
                          "filter mean")
    prior_cov = np.array([[p00, p01], [p01, p11]])
    meas_cov = block_diagonal(np.array(entries).reshape(-1, 2, 2))
    got = _update_floats(p, v, prior_cov, values, rows, meas_cov, aps)
    want = exact_update(p, v, prior_cov, values, rows, meas_cov)
    ratio = Fraction(p00) / want[2]
    z = math.sqrt(sum(
        nu @ np.linalg.solve(np.reshape(entries[4 * i:4 * i + 4], (2, 2)), nu)
        for i, nu in enumerate(np.reshape(values, (-1, 2))
                               - np.array(rows)[:, :2])))
    sd = (math.sqrt(p00), math.sqrt(p11))
    for i in range(2):
        scale = abs(want[i]) + Fraction(sd[i] * (1.0 + z))
        assert abs(Fraction(got[i]) - want[i]) <= 16 * ratio * U * scale
    for (i, j), g, w in zip(((0, 0), (0, 1), (1, 0), (1, 1)), got[2:],
                            want[2:]):
        scale = Fraction(sd[i]) * Fraction(sd[j])
        assert abs(Fraction(g) - w) <= 16 * ratio * U * scale
