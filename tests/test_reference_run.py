"""A whole run stepped through the reference functions alone, compared
epoch by epoch and arm by arm with `run_scenario`.

The reference shares only the scenario, the random streams (`RngStream`
generators, `draw_rcs`, `_random_selection`) and `decide_action` with the
simulator, and draws each epoch's traffic flag from its own generator.
Everything else is the general path: a dense F P F^T + Q predict, the FFT
bound chain per AP (`geometry_for_ap`, `sensing_gain` of the matched beam,
`crb_delay_doppler`, `transform_to_range_velocity`), a brute-force subset
search over `predict_variance_for_selection` (which predicts and
linearizes as the simulator does), the measurement model and its Jacobian from
`geometry_for_ap`'s range and azimuth, a LAPACK Cholesky draw, an explicit
inverse gain, and the stacked-vector downlink.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from cfisac.cli import scenario_from_dict
from cfisac.comms import build_channel, evaluate_link, predictive_precoder
from cfisac.crb import (all_ones_waveform, assemble_measurement_covariance,
                        crb_delay_doppler, sensing_gain,
                        transform_to_range_velocity)
from cfisac.geometry import (TargetTruth, angle_slope_from_position,
                             array_response, geometry_for_ap)
from cfisac.selection import ApSelection
from cfisac.sensing import (Action, available_rx_aps, decide_action,
                            predict_variance_for_selection)
from cfisac.simulate import (RngStream, _random_selection, draw_rcs,
                             run_scenario)
from cfisac.tracking import (MeasurementSet, MotionModel, StateEstimate,
                             posterior_covariance)
from oracles import propagate_truth

RTOL = 1e-12
# arm: (gated, receivers, power fraction), in stepping order
ARMS = {"proposed": (True, "optimal", 1.0), "random": (True, "random", 1.0),
        "conventional": (False, "all", 0.5)}


def reference_blocks(cfg, waveform, state, rcs, power_fraction, aps):
    """Each AP's (range, radial velocity) bound through the FFT chain, with
    the transmitting AP's matched beam at `state` = (position, velocity)."""
    truth = TargetTruth(*state)
    tx = geometry_for_ap(cfg, truth, cfg.tx_ap)
    beam = (math.sqrt(power_fraction * cfg.tx_power / cfg.antennas_per_ap)
            * array_response(cfg, tx.azimuth))
    blocks = []
    for ap in aps:
        rx = geometry_for_ap(cfg, truth, ap)
        gain = sensing_gain(cfg, tx, rx, float(rcs[ap]), beam)
        blocks.append(transform_to_range_velocity(
            crb_delay_doppler(waveform, cfg, gain, rx.azimuth, 0.0, 0.0),
            cfg, ap))
    return blocks


def reference_model(cfg, state, aps):
    """Each AP's (range, radial velocity) at `state` = (position, velocity),
    stacked, and their Jacobian in [p_x, v_x], from the range and azimuth
    of `geometry_for_ap`: the radial velocity is v sin(azimuth), and its
    slope along p_x is v cos(azimuth)^2 / range."""
    position, velocity = map(float, state)
    values, jacobian = [], []
    for ap in aps:
        geo = geometry_for_ap(cfg, TargetTruth(position, velocity), ap)
        sin, cos = math.sin(geo.azimuth), math.cos(geo.azimuth)
        values += (geo.range, velocity * sin)
        jacobian += ([sin, 0.0], [velocity * cos * cos / geo.range, sin])
    return np.array(values), np.array(jacobian)


def reference_selection(cfg, policy, prior, predicted, model, waveform,
                        available):
    """The lowest `predict_variance_for_selection` over every candidate, the
    first (lowest bitmask) of equals; unconstrained, every available AP,
    which no subset may beat by more than RTOL."""
    blocks = reference_blocks(cfg, waveform, predicted.mean, np.full(
        cfg.num_aps, cfg.mean_rcs), 1.0, available)
    k = policy.subset_cardinality
    sizes = [k] if k else range(1, len(available) + 1)
    candidates = sorted((ApSelection.from_indices(cfg.num_aps, subset)
                         for size in sizes
                         for subset in combinations(available, size)),
                        key=lambda selection: selection.bitmask)
    scores = [predict_variance_for_selection(cfg, prior, model, selection,
                                             blocks)
              for selection in candidates]
    if k:
        return candidates[int(np.argmin(scores))]
    every = candidates[-1]
    assert every.indices == tuple(available)
    assert scores[-1] <= min(scores) * (1.0 + RTOL)
    return every


def reference_run(scenario):
    """Per arm, per epoch (action, bitmask, predicted angle variance,
    mean, covariance); the true positions; the traffic flags; and per rated
    method the (snr, rate) of each traffic-ON epoch."""
    cfg, policy = scenario.system, scenario.policy
    model, waveform = MotionModel.from_config(cfg), all_ones_waveform(cfg)
    streams = {name: RngStream(scenario.seed, name)
               for name in ("rcs", "measurement", "selection")}
    # each epoch's first uniform of a reset traffic generator, or its
    # interval: what `TrafficModel.on_flags` evaluates for the whole run
    plan, stream = scenario.traffic, RngStream(scenario.seed, "traffic")
    traffic = [stream.generator(epoch).random() < plan.on_probability
               if plan.mode == "bernoulli" else
               any(start <= epoch < end for start, end in plan.intervals)
               for epoch in range(scenario.num_epochs)]
    available = available_rx_aps(cfg, policy)
    f, q = model.transition, model.process_noise
    estimates = {name: scenario.initial_estimate for name in ARMS
                 if name == "proposed" or name in scenario.comparison_arms}
    arms = {name: [] for name in estimates}
    truth, truths = scenario.initial_truth, []
    rates = {tag: [] for tag in scenario.rated_methods}
    for epoch in range(scenario.num_epochs):
        truth = propagate_truth(truth, cfg)
        truths.append(truth.position_x)
        for name, prior in estimates.items():
            gated, receivers, power = ARMS[name]
            cov = f @ prior.covariance @ f.T + q
            predicted = StateEstimate(f @ prior.mean, (cov + cov.T) / 2.0)
            position = predicted.mean[0]
            variance = (predicted.covariance[0, 0]
                        * angle_slope_from_position(cfg, position) ** 2)
            action = Action.SENSING
            if gated:
                action = decide_action(variance, policy)
                if traffic[epoch]:
                    action = Action.NO_SENSING
            estimate, mask = predicted, 0
            if action is Action.SENSING:
                if receivers == "all":
                    selection = ApSelection.full(cfg.num_aps)
                elif receivers == "random":
                    selection = _random_selection(
                        ApSelection.from_indices(cfg.num_aps, available),
                        policy.subset_cardinality,
                        streams["selection"].generator(epoch))
                else:
                    selection = reference_selection(
                        cfg, policy, prior, predicted, model, waveform,
                        available)
                aps = selection.indices
                rcs = draw_rcs(streams["rcs"].generator(epoch), cfg,
                               cfg.num_aps)
                noise = assemble_measurement_covariance(reference_blocks(
                    cfg, waveform, (truth.position_x, truth.velocity_x), rcs,
                    power, aps), selection)
                normals = streams["measurement"].generator(
                    epoch).standard_normal(2 * cfg.num_aps)
                values = (reference_model(
                    cfg, (truth.position_x, truth.velocity_x), aps)[0]
                    + np.linalg.cholesky(noise) @ np.concatenate(
                        [normals[2 * ap:2 * ap + 2] for ap in aps]))
                meas = MeasurementSet(values, assemble_measurement_covariance(
                    reference_blocks(cfg, waveform, predicted.mean, rcs,
                                     power, aps), selection), selection)
                model_values, jac = reference_model(cfg, predicted.mean, aps)
                p = predicted.covariance
                gain = p @ jac.T @ np.linalg.inv(jac @ p @ jac.T
                                                 + meas.covariance)
                innovation = values - model_values
                estimate = StateEstimate(
                    predicted.mean + gain @ innovation,
                    posterior_covariance(p, jac, meas.covariance))
                mask = selection.bitmask
            estimates[name] = estimate
            arms[name].append((action, mask, variance, estimate.mean,
                               estimate.covariance))
        if traffic[epoch]:
            channel = build_channel(cfg, truth, scenario.phase_mode)
            for tag in rates:
                steer, power, angle_mode = (
                    (StateEstimate([truth.position_x, 0.0], np.eye(2)), 1.0,
                     "per_ap") if tag == "perfect" else
                    (estimates[tag], ARMS[tag][2], scenario.angle_mode))
                link = evaluate_link(cfg, channel, predictive_precoder(
                    cfg, steer, power, angle_mode))
                rates[tag].append((link.snr, link.rate))
    return arms, truths, traffic, rates


def assert_close(got, want, what, floor=0.0):
    """Each entry within RTOL of the larger of its reference and `floor`;
    two empty columns, as of a run without traffic, agree."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    if not got.size:
        return
    error, bound = np.abs(got - want), RTOL * np.maximum(np.abs(want), floor)
    worst = int(np.argmax(error - bound))
    assert error[worst] <= bound[worst], (
        f"{what}, entry {worst}: {got[worst]!r} against the reference's "
        f"{want[worst]!r}")


SCENARIOS = {
    # the default: k = 2, compensated phases, per-AP angles, Bernoulli
    # traffic, every arm
    "default": {},
    "geometric_global_unconstrained": {
        "num_epochs": 60, "seed": 3, "phase_mode": "geometric",
        "angle_mode": "global",
        "policy": {"subset_cardinality": 0, "exclude_tx_ap": True},
        "traffic": {"mode": "intervals", "intervals": [[2, 9], [30, 41]]}},
    # 10 APs 50 m apart, k = 4 of the 9 that may listen: 126 subsets a
    # sensing epoch. The target starts between APs 3 and 4, so the best
    # subset is not the one of lowest bitmask, which ties would pick.
    "ten_aps": {
        "num_epochs": 24, "seed": 7, "arms": ["random"],
        "target": {"position_x": 230.0},
        "system": {"num_aps": 10, "process_noise_std": 5,
                   "num_subcarriers": 64},
        "policy": {"subset_cardinality": 4, "variance_threshold": 1e-9,
                   "exclude_tx_ap": True},
        "traffic": {"mode": "intervals", "intervals": [[4, 6]]}},
    # no traffic-ON epoch: every rate column is empty
    "no_traffic": {
        "num_epochs": 30, "traffic": {"mode": "intervals", "intervals": []}},
}


@pytest.mark.parametrize("overrides", SCENARIOS.values(), ids=SCENARIOS)
def test_run_equals_the_reference_run(overrides):
    scenario = scenario_from_dict(overrides)
    log = run_scenario(scenario)
    arms, truths, traffic, rates = reference_run(scenario)
    assert_close(log.truth_x, truths, "truth_x")
    assert list(log.traffic_on) == traffic
    assert list(log.arms) == list(arms)
    for name, columns in log.arms.items():
        action, mask, variance, mean, cov = zip(*arms[name])
        # the run keeps no action: it senses exactly where it received
        assert [m != 0 for m in columns.bitmask] == [
            a is Action.SENSING for a in action], name
        assert columns.bitmask == list(mask), name
        assert_close(columns.variance, variance, f"{name} variance")
        mean, cov = np.array(mean), np.array(cov)
        # The tracked position crosses zero where the target starts at
        # x = 0, and there the sum m + K (y - h(m)) of metre-sized terms
        # keeps an absolute, not a relative, error: it is held to RTOL of
        # the column's largest magnitude.
        assert_close(columns.mean_p, mean[:, 0], f"{name} mean_p",
                     np.abs(mean[:, 0]).max())
        for column, want in (("mean_v", mean[:, 1]), ("p00", cov[:, 0, 0]),
                             ("p01", cov[:, 0, 1]), ("p11", cov[:, 1, 1])):
            assert_close(getattr(columns, column), want, f"{name} {column}")
    assert list(log.rates) == list(rates)
    for tag, (snr, rate) in log.rates.items():
        want = np.array(rates[tag]).reshape(-1, 2)
        assert_close(snr, want[:, 0], f"{tag} snr")
        assert_close(rate, want[:, 1], f"{tag} rate")
    # the run both sensed and idled
    sensed = {epoch[0] for steps in arms.values() for epoch in steps}
    assert sensed == {Action.SENSING, Action.NO_SENSING}
