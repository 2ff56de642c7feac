"""Epoch loop: truth propagation, traffic, sensing, tracking and rates.

A run has a sequential part and an open-loop part. The sequential part is
the epoch loop of the filter arms: each epoch advances the filter, decides
whether to sense, selects the receive APs and synthesizes estimator
outputs as Gaussian draws with the estimation-bound covariance.
Comparison arms (conventional: sensing every epoch at half power with all
APs; random: random receive subsets) run on the same per-epoch random
streams so arms stay comparable. The open-loop part is the downlink: the
rate of an epoch depends only on the true and the tracked positions and
never feeds back into a filter, so `run_scenario` evaluates it after the
loop, with one `steered_links` call per method (tracked, power-split and
perfect knowledge) over all traffic epochs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .comms import ANGLE_MODES, PHASE_MODES, LinkResult, steered_links
from .config import SystemConfig
from .crb import (CrbBlock, WaveformSpec, all_ones_waveform,
                  assemble_measurement_covariance, crb_block,
                  range_velocity_blocks, sensing_gain)
from .geometry import TargetTruth, array_response, geometry_for_ap
from .selection import ApSelection
from .sensing import (Action, SensingPolicy, available_rx_aps, decide_action,
                      select_rx_aps)
from .tracking import (MeasurementSet, MotionModel, StateEstimate,
                       angle_estimate_and_variance, measurement_model, predict,
                       update)

COMPARISON_ARMS = ("conventional", "random", "perfect")

# A code is part of every draw's key, so codes are never renumbered; 3 is
# retired.
_STREAM_CODES = {"rcs": 1, "measurement": 2, "traffic": 4, "selection": 5}
_ZEROS = np.zeros(4, dtype=np.uint64)  # Philox counter and buffer at rest
_ZEROS.setflags(write=False)


@dataclass(frozen=True)
class RngStream:
    """Counter-style stream: (seed, stream, epoch) pins the draws exactly.

    The first `generator` call builds one Philox generator; every later
    call resets its key and counter to those of the epoch and returns the
    same generator, so it draws exactly what a new
    `Generator(Philox(key=...))` would. A generator from this stream is
    therefore reset by the next call on the same stream.
    """

    seed: int
    stream_id: str
    _generator: np.random.Generator | None = field(
        default=None, init=False, repr=False, compare=False)

    def generator(self, epoch: int = 0) -> np.random.Generator:
        code = _STREAM_CODES[self.stream_id]
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF,
                        (code << 32) + epoch], dtype=np.uint64)
        if self._generator is None:
            object.__setattr__(self, "_generator",
                               np.random.Generator(np.random.Philox(key=key)))
        else:
            self._generator.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": _ZEROS, "key": key},
                "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0,
                "uinteger": 0}
        return self._generator


@dataclass(frozen=True)
class TrafficModel:
    """Bernoulli per-epoch ON draws, or explicit [start, end) ON intervals."""

    mode: str = "bernoulli"
    on_probability: float = 0.3
    intervals: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("bernoulli", "intervals"):
            raise ValueError("traffic mode must be 'bernoulli' or 'intervals'")
        if self.mode == "bernoulli" and not 0.0 <= self.on_probability <= 1.0:
            raise ValueError("on_probability must lie in [0, 1]")
        intervals = tuple((int(s), int(e)) for s, e in self.intervals)
        if intervals != tuple(tuple(bounds) for bounds in self.intervals):
            raise ValueError("intervals: bounds must be whole numbers")
        object.__setattr__(self, "intervals", intervals)

    def is_on(self, epoch: int, stream: RngStream) -> bool:
        """Whether traffic is ON; only Bernoulli mode builds the generator."""
        if self.mode == "bernoulli":
            return bool(stream.generator(epoch).random() < self.on_probability)
        return any(start <= epoch < end for start, end in self.intervals)


def _check_initial_estimate(est: StateEstimate) -> None:
    """Finite mean, finite symmetric PSD covariance; checked once per scenario
    rather than in StateEstimate, which the filter rebuilds every epoch."""
    cov = est.covariance
    if not (np.isfinite(est.mean).all() and np.isfinite(cov).all()):
        raise ValueError("initial_estimate: mean and covariance must be finite")
    scale = float(np.abs(cov).max())
    if np.abs(cov - cov.T).max() > 1e-12 * scale:
        raise ValueError("initial_estimate: covariance must be symmetric")
    if np.linalg.eigvalsh(cov).min() < -1e-12 * scale:
        raise ValueError(
            "initial_estimate: covariance must be positive semidefinite")


@dataclass(frozen=True)
class Scenario:
    system: SystemConfig
    policy: SensingPolicy
    initial_truth: TargetTruth
    initial_estimate: StateEstimate
    num_epochs: int = 200
    traffic: TrafficModel = TrafficModel()
    seed: int = 7
    comparison_arms: tuple[str, ...] = COMPARISON_ARMS
    phase_mode: str = "compensated"
    angle_mode: str = "per_ap"

    def __post_init__(self) -> None:
        if self.num_epochs < 1:
            raise ValueError("num_epochs: must be >= 1")
        unknown = set(self.comparison_arms) - set(COMPARISON_ARMS)
        if unknown:
            raise ValueError(f"unknown comparison arms {sorted(unknown)}")
        object.__setattr__(self, "comparison_arms",
                           tuple(a for a in COMPARISON_ARMS
                                 if a in self.comparison_arms))
        for name, allowed in (("phase_mode", PHASE_MODES),
                              ("angle_mode", ANGLE_MODES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name}: must be one of {allowed}")
        # The sensing grid is unit-modulus, so its bound is singular exactly
        # when one of these index ranges has a single entry.
        if self.system.num_symbols < 2:
            raise ValueError("system.num_symbols: sensing needs >= 2 symbols "
                             "(doppler unidentifiable with one)")
        if self.system.antennas_per_ap < 2:
            raise ValueError("system.antennas_per_ap: sensing needs >= 2 "
                             "antennas (angle unidentifiable with one)")
        truth = self.initial_truth
        if not (math.isfinite(truth.position_x)
                and math.isfinite(truth.velocity_x)):
            raise ValueError("initial_truth: target position and velocity "
                             "must be finite")
        _check_initial_estimate(self.initial_estimate)
        available_rx_aps(self.system, self.policy)  # searched when sensing
        for start, end in self.traffic.intervals:
            if not 0 <= start < end <= self.num_epochs:
                raise ValueError(
                    f"traffic interval [{start}, {end}) outside "
                    f"[0, {self.num_epochs})")


@dataclass(frozen=True)
class ArmEpoch:
    """Per-epoch snapshot of a comparison arm's tracker."""

    action: Action
    selection: ApSelection
    predicted_angle_variance: float
    estimate: StateEstimate


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    truth: TargetTruth
    action: Action
    traffic_state: str               # "ON" or "OFF"
    selection: ApSelection
    predicted_angle_variance: float
    estimate: StateEstimate
    rates: dict[str, LinkResult]
    arms: dict[str, ArmEpoch] = field(default_factory=dict)


@dataclass
class SimState:
    """Mutable loop state threaded through run_epoch."""

    epoch: int
    truth: TargetTruth
    estimates: dict[str, StateEstimate]
    waveform: WaveformSpec
    model: MotionModel
    streams: dict[str, RngStream]  # one per stream name, for the whole run
    idle_selection: ApSelection    # the empty receive set of every idle arm


def propagate_truth(truth: TargetTruth, cfg: SystemConfig) -> TargetTruth:
    """Noiseless constant-velocity step over one epoch."""
    return TargetTruth(truth.position_x + truth.velocity_x * cfg.epoch_duration,
                       truth.velocity_x)


def draw_rcs(rng: np.random.Generator, cfg: SystemConfig,
             num_aps: int) -> np.ndarray:
    """Per-AP fluctuating cross sections: exponential with the configured mean."""
    if not cfg.mean_rcs > 0:
        raise ValueError("mean_rcs: must be strictly positive")
    return rng.exponential(cfg.mean_rcs, size=num_aps)


def _sensing_tx_precoder(cfg: SystemConfig, tx_azimuth: float,
                         power_fraction: float) -> np.ndarray:
    amp = math.sqrt(power_fraction * cfg.tx_power / cfg.antennas_per_ap)
    return amp * array_response(cfg, tx_azimuth)


def crb_blocks_for_state(cfg: SystemConfig, waveform: WaveformSpec,
                         position_x: float, velocity_x: float,
                         rcs: np.ndarray, power_fraction: float = 1.0,
                         aps: tuple[int, ...] | None = None) -> list[CrbBlock]:
    """Per-AP (range, velocity, angle) bound blocks at a reference state.

    The sensing transmitter steers at its own azimuth of the reference
    position. Each block is the closed-form bound `crb_block` at zero
    delay/Doppler, one call per AP: the Fisher information depends on the
    waveform grid only through its power-weighted index moments, cached on
    the WaveformSpec, so the evaluation point does not change the result.
    The FFT-based crb_delay_doppler and crb_angle are the general-grid
    reference it is tested against.
    """
    state = TargetTruth(position_x, velocity_x)
    tx_geom = geometry_for_ap(cfg, state, cfg.tx_ap)
    precoder = _sensing_tx_precoder(cfg, tx_geom.azimuth, power_fraction)
    blocks = []
    for ap in (range(cfg.num_aps) if aps is None else aps):
        rx_geom = geometry_for_ap(cfg, state, ap)
        gain = sensing_gain(cfg, tx_geom, rx_geom, float(rcs[ap]), precoder)
        blocks.append(crb_block(waveform, cfg, gain, rx_geom.azimuth, ap))
    return blocks


def synthesize_measurement(cfg: SystemConfig, truth: TargetTruth,
                           selection: ApSelection, rcs: np.ndarray,
                           rng: np.random.Generator, *,
                           waveform: WaveformSpec,
                           power_fraction: float = 1.0,
                           noise_scale: float = 1.0,
                           filter_mean: np.ndarray | None = None,
                           truth_blocks: list[CrbBlock] | None = None
                           ) -> MeasurementSet:
    """Estimator outputs as Gaussian draws around the true geometry.

    Noise covariance per AP is the (range, velocity) bound at the TRUE
    state with the epoch's cross-section draws. The attached covariance is
    evaluated at filter_mean when given (the tracker linearization point),
    otherwise at the truth. Standard normals are drawn for every AP so the
    subset choice never shifts the stream.
    """
    if selection.cardinality == 0:
        raise ValueError("no sensing receivers selected")
    if truth_blocks is None:
        truth_blocks = crb_blocks_for_state(
            cfg, waveform, truth.position_x, truth.velocity_x, rcs,
            power_fraction, aps=selection.indices)
    noise = range_velocity_blocks(truth_blocks, selection.indices)
    normals = rng.standard_normal(2 * cfg.num_aps)

    values = measurement_model(cfg, (truth.position_x, truth.velocity_x),
                               selection)
    for pos, ap in enumerate(selection.indices):
        chol = np.linalg.cholesky(noise[pos])
        values[2 * pos:2 * pos + 2] += noise_scale * (
            chol @ normals[2 * ap:2 * ap + 2])

    filter_blocks = truth_blocks
    if filter_mean is not None:
        filter_blocks = crb_blocks_for_state(
            cfg, waveform, float(filter_mean[0]), float(filter_mean[1]), rcs,
            power_fraction, aps=selection.indices)
    return MeasurementSet(
        values, assemble_measurement_covariance(filter_blocks, selection),
        selection)


def _random_selection(cfg: SystemConfig, policy: SensingPolicy,
                      rng: np.random.Generator) -> ApSelection:
    available = available_rx_aps(cfg, policy)
    k = policy.subset_cardinality
    if k > 0:
        picked = rng.choice(len(available), size=k, replace=False)
        return ApSelection.from_indices(cfg.num_aps,
                                        [available[i] for i in picked])
    mask = int(rng.integers(1, 2 ** len(available)))
    return ApSelection.from_indices(
        cfg.num_aps, [available[i] for i in range(len(available))
                      if mask >> i & 1])


def _advance_tracked_arm(scenario: Scenario, state: SimState, arm: str,
                         truth_now: TargetTruth, rcs: Callable[[], np.ndarray],
                         traffic_on: bool,
                         rng: Callable[[str], np.random.Generator]) -> ArmEpoch:
    """One epoch of the threshold-gated tracker (proposed or random arm).

    `rcs()` returns the epoch's cross sections and `rng(stream)` the
    stream's generator reset to the epoch; both are called only when the
    arm senses.
    """
    cfg, policy = scenario.system, scenario.policy
    prior = state.estimates[arm]
    predicted = predict(prior, state.model)
    _, variance = angle_estimate_and_variance(cfg, predicted)
    action = decide_action(variance, policy)
    if traffic_on:
        action = Action.NO_SENSING  # data frames carry no sensing signal
    selection = state.idle_selection
    estimate = predicted
    if action is Action.SENSING:
        if arm == "random":
            selection = _random_selection(cfg, policy, rng("selection"))
        else:
            mean_rcs = np.full(cfg.num_aps, cfg.mean_rcs)
            planning = crb_blocks_for_state(cfg, state.waveform,
                                            float(predicted.mean[0]),
                                            float(predicted.mean[1]),
                                            mean_rcs)
            selection = select_rx_aps(cfg, prior, state.model, policy, planning)
        meas = synthesize_measurement(
            cfg, truth_now, selection, rcs(), rng("measurement"),
            waveform=state.waveform, filter_mean=predicted.mean)
        estimate = update(predicted, meas, cfg)
    state.estimates[arm] = estimate
    return ArmEpoch(action, selection, variance, estimate)


def _advance_conventional_arm(
        scenario: Scenario, state: SimState, truth_now: TargetTruth,
        rcs: Callable[[], np.ndarray],
        rng: Callable[[str], np.random.Generator]) -> ArmEpoch:
    """Conventional frame: sensing every epoch at half power with all APs."""
    cfg = scenario.system
    predicted = predict(state.estimates["conventional"], state.model)
    _, variance = angle_estimate_and_variance(cfg, predicted)
    selection = ApSelection.full(cfg.num_aps)
    meas = synthesize_measurement(
        cfg, truth_now, selection, rcs(), rng("measurement"),
        waveform=state.waveform, power_fraction=0.5,
        filter_mean=predicted.mean)
    estimate = update(predicted, meas, cfg)
    state.estimates["conventional"] = estimate
    return ArmEpoch(Action.SENSING, selection, variance, estimate)


def run_epoch(state: SimState, scenario: Scenario, *,
              rates: bool = True) -> EpochRecord:
    """Advance one epoch and record every arm's outcome.

    Generators are read on demand: the cross sections are drawn once, by
    the first arm that senses, and traffic draws only in Bernoulli mode.
    Each draw is keyed by (seed, stream, epoch), so a skipped stream never
    shifts another, and every arm that senses resets the measurement
    stream to the epoch, so all arms draw the same normals. With
    `rates=False` the record's `rates` stay empty, for `fill_rates` to
    evaluate over many epochs at once.
    """
    cfg = scenario.system
    k = state.epoch

    def rng(stream: str) -> np.random.Generator:
        return state.streams[stream].generator(k)

    drawn: list[np.ndarray] = []

    def rcs() -> np.ndarray:
        if not drawn:
            drawn.append(draw_rcs(rng("rcs"), cfg, cfg.num_aps))
        return drawn[0]

    truth_now = propagate_truth(state.truth, cfg)
    traffic_on = scenario.traffic.is_on(k, state.streams["traffic"])

    proposed = _advance_tracked_arm(scenario, state, "proposed", truth_now,
                                    rcs, traffic_on, rng)
    arms: dict[str, ArmEpoch] = {}
    if "random" in scenario.comparison_arms:
        arms["random"] = _advance_tracked_arm(scenario, state, "random",
                                              truth_now, rcs, traffic_on, rng)
    if "conventional" in scenario.comparison_arms:
        arms["conventional"] = _advance_conventional_arm(
            scenario, state, truth_now, rcs, rng)

    state.truth = truth_now
    state.epoch = k + 1
    record = EpochRecord(
        epoch=k, truth=truth_now, action=proposed.action,
        traffic_state="ON" if traffic_on else "OFF",
        selection=proposed.selection,
        predicted_angle_variance=proposed.predicted_angle_variance,
        estimate=proposed.estimate, rates={}, arms=arms)
    if rates:
        fill_rates(scenario, [record])
    return record


def fill_rates(scenario: Scenario, records: list[EpochRecord]) -> None:
    """Fill `rates` of every traffic-ON record, one `steered_links` per method.

    The tracked arm steers full power at its estimate, the conventional arm
    half power at its own, and the perfect bound full power at the truth
    with per-AP angles.
    """
    on = [r for r in records if r.traffic_state == "ON"]
    truth_x = [r.truth.position_x for r in on]
    methods = {"proposed": ([r.estimate.mean[0] for r in on], 1.0,
                            scenario.angle_mode)}
    if "conventional" in scenario.comparison_arms:
        methods["conventional"] = (
            [r.arms["conventional"].estimate.mean[0] for r in on], 0.5,
            scenario.angle_mode)
    if "perfect" in scenario.comparison_arms:
        methods["perfect"] = (truth_x, 1.0, "per_ap")
    for tag, (position_x, power_fraction, angle_mode) in methods.items():
        snr, rate = steered_links(scenario.system, truth_x, position_x,
                                  power_fraction, scenario.phase_mode,
                                  angle_mode)
        for rec, s, r in zip(on, snr.tolist(), rate.tolist()):
            rec.rates[tag] = LinkResult(s, r)


def initial_sim_state(scenario: Scenario) -> SimState:
    estimates = {"proposed": scenario.initial_estimate}
    for arm in scenario.comparison_arms:
        if arm != "perfect":
            estimates[arm] = scenario.initial_estimate
    return SimState(epoch=0, truth=scenario.initial_truth,
                    estimates=estimates,
                    waveform=all_ones_waveform(scenario.system),
                    model=MotionModel.from_config(scenario.system),
                    streams={name: RngStream(scenario.seed, name)
                             for name in _STREAM_CODES},
                    idle_selection=ApSelection.empty(scenario.system.num_aps))


def run_scenario(scenario: Scenario) -> list[EpochRecord]:
    """Run the epoch loop, then every rate; deterministic given the seed."""
    state = initial_sim_state(scenario)
    records = [run_epoch(state, scenario, rates=False)
               for _ in range(scenario.num_epochs)]
    fill_rates(scenario, records)
    return records
