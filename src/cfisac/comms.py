"""Downlink evaluation: predictive precoding, SNR and instantaneous rate.

The simulator evaluates every link with `steered_link`, a closed form of the
coherent gain. `build_channel`, `predictive_precoder` and `evaluate_link`
build the stacked vectors and are the reference it is tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .geometry import TargetTruth, angle_from_position, array_response, geometry_for_ap
from .tracking import StateEstimate

PHASE_MODES = ("compensated", "geometric")
ANGLE_MODES = ("per_ap", "global")


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


def _steering(cfg: SystemConfig, position_x: float, power_fraction: float,
              angle_mode: str) -> tuple[float, list[float]]:
    """Per-AP amplitude sqrt(power_fraction * tx_power / N) and steered angles."""
    if not 0.0 < power_fraction <= 1.0:
        raise ValueError("power_fraction must lie in (0, 1]")
    if angle_mode not in ANGLE_MODES:
        raise ValueError(f"angle_mode must be one of {ANGLE_MODES}")
    amplitude = math.sqrt(power_fraction * cfg.tx_power / cfg.antennas_per_ap)
    if angle_mode == "global":
        return amplitude, [angle_from_position(cfg, position_x)] * cfg.num_aps
    return amplitude, [math.atan2(position_x - cfg.ap_x(ap), cfg.corridor_offset)
                       for ap in range(cfg.num_aps)]


def _precoder_for_position(cfg: SystemConfig, position_x: float,
                           power_fraction: float, angle_mode: str) -> Precoder:
    amplitude, angles = _steering(cfg, position_x, power_fraction, angle_mode)
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


def steered_link(cfg: SystemConfig, truth: TargetTruth, position_x: float,
                 power_fraction: float = 1.0, phase_mode: str = "compensated",
                 angle_mode: str = "per_ap") -> LinkResult:
    """SNR and rate of the maximum-ratio precoder steered at `position_x`.

    Equal to `evaluate_link` of `build_channel(cfg, truth, phase_mode)` and
    the precoder `predictive_precoder` builds for that position, without
    building either vector. Per AP, h_l^H w_l = sqrt(beta_l) A e^{-j phi_l}
    D_N(dpsi_l), where A = sqrt(power_fraction * tx_power / N), phi_l is the
    LOS phase (geometric mode only), dpsi_l the steered minus the true
    phase step of the ULA, and D_N(x) = sum_n e^{j n x}
    = e^{j (N-1) x / 2} sin(N x / 2) / sin(x / 2), exactly N where
    sin(x / 2) = 0.
    """
    _check_phase_mode(phase_mode)
    amplitude, angles = _steering(cfg, position_x, power_fraction, angle_mode)
    n = cfg.antennas_per_ap
    step_scale = (2.0 * math.pi / cfg.wavelength) * cfg.antenna_spacing
    gain = 0j
    for ap, angle in enumerate(angles):
        if not math.isfinite(angle):
            raise ValueError("azimuth must be finite")
        geo = geometry_for_ap(cfg, truth, ap)
        half = 0.5 * (step_scale * math.sin(angle)
                      - step_scale * math.sin(geo.azimuth))
        denom = math.sin(half)
        kernel = n if denom == 0.0 else math.sin(n * half) / denom
        phase = (n - 1) * half
        if phase_mode == "geometric":
            phase -= geo.phase
        gain += math.sqrt(geo.path_gain) * kernel * cmath.exp(1j * phase)
    snr = abs(amplitude * gain) ** 2 / cfg.noise_power
    return LinkResult(snr, math.log2(1.0 + snr))


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
