"""Target/AP geometry, ULA responses and the position-to-angle map."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _from_oracles
from .config import SystemConfig


@dataclass(frozen=True, slots=True)
class TargetTruth:
    """True kinematic state on the corridor line y = corridor_offset."""

    position_x: float = 0.0   # m
    velocity_x: float = 25.0  # m/s


def geometry_for_ap(cfg: SystemConfig, truth: TargetTruth,
                    ap_index: int) -> ApGeometry:
    """Range, azimuth, path gain and LOS phase for one AP."""
    from ._oracles import ApGeometry

    if not (math.isfinite(truth.position_x) and math.isfinite(truth.velocity_x)):
        raise ValueError("target truth must be finite")
    if not 0 <= ap_index < cfg.num_aps:
        raise ValueError(f"ap_index {ap_index} out of range [0, {cfg.num_aps})")
    dx = truth.position_x - cfg.ap_positions[ap_index]
    dist = math.hypot(dx, cfg.corridor_offset)
    azimuth = math.atan2(dx, cfg.corridor_offset)
    path_gain = (cfg.wavelength / (4.0 * math.pi * dist)) ** 2
    phase = (-2.0 * math.pi * dist / cfg.wavelength) % (2.0 * math.pi)
    return ApGeometry(dist, azimuth, path_gain, phase)


def array_response(cfg: SystemConfig, azimuth: float) -> np.ndarray:
    """ULA steering vector, entry n = exp(j (2 pi / lambda) n d sin(azimuth))."""
    if not math.isfinite(azimuth):
        raise ValueError("azimuth must be finite")
    n = np.arange(cfg.antennas_per_ap)
    phase_step = (2.0 * math.pi / cfg.wavelength) * cfg.antenna_spacing * math.sin(azimuth)
    return np.exp(1j * phase_step * n)


def angle_slope_from_position(cfg: SystemConfig, position_x: float) -> float:
    """d/dp_x of angle_from_position: p_y / (p_x^2 + p_y^2), rad per meter."""
    p_y = cfg.corridor_offset
    return p_y / (position_x * position_x + p_y * p_y)


_LAZY = ("ApGeometry", "angle_from_position", "array_response_derivative")
__getattr__, __dir__ = _from_oracles(globals(), _LAZY)
