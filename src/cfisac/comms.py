"""Downlink evaluation: predictive precoding, SNR and instantaneous rate.

`steered_links` is the one closed-form kernel of the coherent gain: it
evaluates a whole batch of epochs in one array expression, and the
simulator calls it once per method over all traffic epochs of a run.
`steered_link`, `conventional_baseline` and `perfect_angle_bound` evaluate
one epoch through it. `build_channel`, `predictive_precoder` and
`evaluate_link` build the stacked vectors and are the reference it is
tested against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .geometry import TargetTruth, angle_from_position, array_response, geometry_for_ap
from .tracking import StateEstimate

PHASE_MODES = ("compensated", "geometric")
ANGLE_MODES = ("per_ap", "global")

_HYPOT = np.frompyfunc(math.hypot, 2, 1)


@dataclass(frozen=True)
class Precoder:
    """Per-AP transmit vectors; each must respect the AP power limit."""

    per_ap: tuple[np.ndarray, ...]

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate(self.per_ap)


@dataclass(frozen=True)
class LinkResult:
    snr: float
    rate: float  # bits per symbol use, log2(1 + snr)


def _check_phase_mode(phase_mode: str) -> None:
    if phase_mode not in PHASE_MODES:
        raise ValueError(f"phase_mode must be one of {PHASE_MODES}")


def build_channel(cfg: SystemConfig, truth: TargetTruth,
                  phase_mode: str = "compensated") -> np.ndarray:
    """Stacked LOS channel e^{j phi_l} sqrt(beta_l) a(theta_l) over all APs.

    Compensated mode zeroes the per-AP phase (phase-synchronized APs with
    known offsets); geometric mode keeps the -2 pi R_l / lambda term.
    """
    _check_phase_mode(phase_mode)
    blocks = []
    for ap in range(cfg.num_aps):
        geo = geometry_for_ap(cfg, truth, ap)
        block = math.sqrt(geo.path_gain) * array_response(cfg, geo.azimuth)
        if phase_mode == "geometric":
            block = block * np.exp(1j * geo.phase)
        blocks.append(block)
    return np.concatenate(blocks)


def _check_steering(power_fraction: float, angle_mode: str) -> None:
    if not 0.0 < power_fraction <= 1.0:
        raise ValueError("power_fraction must lie in (0, 1]")
    if angle_mode not in ANGLE_MODES:
        raise ValueError(f"angle_mode must be one of {ANGLE_MODES}")


def _precoder_for_position(cfg: SystemConfig, position_x: float,
                           power_fraction: float, angle_mode: str) -> Precoder:
    _check_steering(power_fraction, angle_mode)
    amplitude = math.sqrt(power_fraction * cfg.tx_power / cfg.antennas_per_ap)
    if angle_mode == "global":
        angles = [angle_from_position(cfg, position_x)] * cfg.num_aps
    else:
        angles = [math.atan2(position_x - cfg.ap_x(ap), cfg.corridor_offset)
                  for ap in range(cfg.num_aps)]
    return Precoder(tuple(amplitude * array_response(cfg, angle)
                          for angle in angles))


def predictive_precoder(cfg: SystemConfig, est: StateEstimate,
                        power_fraction: float = 1.0,
                        angle_mode: str = "per_ap") -> Precoder:
    """Maximum-ratio precoder steered at the tracked position.

    Each AP transmits sqrt(power_fraction * tx_power / N) a(angle), with the
    angle taken per AP toward the estimated position (default) or as the
    single origin-referenced angle (angle_mode="global").
    """
    return _precoder_for_position(cfg, float(est.mean[0]), power_fraction,
                                  angle_mode)


def evaluate_link(cfg: SystemConfig, channel: np.ndarray,
                  precoder: Precoder) -> LinkResult:
    """Coherent downlink SNR |h^H w|^2 / sigma_n^2 and its rate."""
    stacked = precoder.stacked
    if channel.shape != stacked.shape:
        raise ValueError(
            f"channel length {channel.shape} does not match precoder "
            f"length {stacked.shape}")
    snr = abs(np.vdot(channel, stacked)) ** 2 / cfg.noise_power
    return LinkResult(float(snr), math.log2(1.0 + snr))


def steered_links(cfg: SystemConfig, truth_x: Sequence[float] | np.ndarray,
                  position_x: Sequence[float] | np.ndarray,
                  power_fraction: float = 1.0,
                  phase_mode: str = "compensated",
                  angle_mode: str = "per_ap") -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch SNR and rate of maximum-ratio precoders steered at positions.

    `truth_x` and `position_x` are equal-length sequences of true and
    steered target positions; entry e of both results is epoch e's link,
    equal to `evaluate_link` of `build_channel` at truth_x[e] and the
    precoder `predictive_precoder` builds for position_x[e], without
    building either vector. Per AP, h_l^H w_l = sqrt(beta_l) A e^{-j phi_l}
    D_N(dpsi_l), where A = sqrt(power_fraction * tx_power / N), phi_l is
    the LOS phase (geometric mode only), dpsi_l the steered minus the true
    phase step of the ULA, and D_N(x) = sum_n e^{j n x}
    = e^{j (N-1) x / 2} sin(N x / 2) / sin(x / 2), exactly N where
    sin(x / 2) = 0. Every (epoch, AP) entry is one array element, and the
    APs are summed in index order, so an epoch's result does not depend on
    the batch it is evaluated in.
    """
    _check_phase_mode(phase_mode)
    _check_steering(power_fraction, angle_mode)
    truth_x = np.asarray(truth_x, dtype=float)
    position_x = np.asarray(position_x, dtype=float)
    if truth_x.ndim != 1 or truth_x.shape != position_x.shape:
        raise ValueError("truth_x and position_x must be 1-D and of equal "
                         "length")
    if not np.isfinite(truth_x).all():
        raise ValueError("target truth must be finite")
    if not np.isfinite(position_x).all():
        raise ValueError("steering position must be finite")
    ap_x = np.array([cfg.ap_x(ap) for ap in range(cfg.num_aps)])
    offset = cfg.corridor_offset
    dx = truth_x[:, None] - ap_x
    if angle_mode == "global":
        sin_steered = np.sin(np.arctan(position_x / offset))[:, None]
    else:
        sin_steered = np.sin(np.arctan2(position_x[:, None] - ap_x, offset))
    n = cfg.antennas_per_ap
    step_scale = (2.0 * math.pi / cfg.wavelength) * cfg.antenna_spacing
    half = 0.5 * (step_scale * sin_steered
                  - step_scale * np.sin(np.arctan2(dx, offset)))
    denom = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.where(denom == 0.0, float(n), np.sin(n * half) / denom)
    phase = (n - 1) * half
    if phase_mode == "geometric":
        # The LOS phase 2 pi R / lambda runs to 1e4 rad and more, so one ulp
        # of R moves it by 1e-11 rad: take R with math.hypot, exactly as
        # geometry_for_ap and so the vector path do.
        los_range = _HYPOT(dx, offset).astype(float)
        phase = phase - np.remainder(
            -2.0 * math.pi * los_range / cfg.wavelength, 2.0 * math.pi)
    weight = cfg.wavelength / (4.0 * math.pi * np.hypot(dx, offset)) * kernel
    real, imag = weight * np.cos(phase), weight * np.sin(phase)
    gain_re, gain_im = np.zeros(truth_x.size), np.zeros(truth_x.size)
    for ap in range(cfg.num_aps):
        gain_re += real[:, ap]
        gain_im += imag[:, ap]
    snr = (power_fraction * cfg.tx_power / n
           * (gain_re * gain_re + gain_im * gain_im) / cfg.noise_power)
    return snr, np.log2(1.0 + snr)


def steered_link(cfg: SystemConfig, truth: TargetTruth, position_x: float,
                 power_fraction: float = 1.0, phase_mode: str = "compensated",
                 angle_mode: str = "per_ap") -> LinkResult:
    """`steered_links` for one epoch; the whole truth must be finite."""
    if not math.isfinite(truth.velocity_x):
        raise ValueError("target truth must be finite")
    snr, rate = steered_links(cfg, [truth.position_x], [position_x],
                              power_fraction, phase_mode, angle_mode)
    return LinkResult(float(snr[0]), float(rate[0]))


def conventional_baseline(cfg: SystemConfig, est: StateEstimate,
                          truth: TargetTruth, phase_mode: str = "compensated",
                          angle_mode: str = "per_ap") -> LinkResult:
    """Power-split baseline: half the AP power is reserved for sensing."""
    return steered_link(cfg, truth, float(est.mean[0]), 0.5, phase_mode,
                        angle_mode)


def perfect_angle_bound(cfg: SystemConfig, truth: TargetTruth,
                        phase_mode: str = "compensated") -> LinkResult:
    """Full-power precoding from the true per-AP angles."""
    return steered_link(cfg, truth, truth.position_x, 1.0, phase_mode)
