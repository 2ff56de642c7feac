"""Reference oracles and record types that no run executes.

The tests check the simulator's closed forms against these general paths,
and a library user may call them or build the records; a `cfisac run` calls
and builds none of them. They live here, off the import path of
`cfisac.cli`, and this module loads on the first use of one of their names.
Each name belongs to one module (`geometry`, `crb`, `tracking`, `sensing`,
`comms` or `simulate`), the section it sits in below, which declares it in
its `_LAZY` and resolves it through a module `__getattr__` (PEP 562); the
package resolves the union. The functions that stay in those modules
import what they need from here inside their own bodies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .comms import steered_links
from .config import SystemConfig
from .crb import (CrbBlock, WaveformSpec, _check_waveform, block_diagonal,
                  range_velocity_blocks)
from .geometry import TargetTruth, array_response
from .selection import ApSelection
from .sensing import Action, SensingPolicy, _score_blocks, available_rx_aps
from .tracking import (MotionModel, StateEstimate, _angle_variance,
                       _linearize, measurement_jacobian, posterior_covariance,
                       predict)


# ---------------------------------------------------------------------------
# geometry

@dataclass(frozen=True)
class ApGeometry:
    """Line-of-sight geometry between one AP and the target."""

    range: float            # m
    azimuth: float          # rad, measured from broadside (the +y axis)
    path_gain: float        # (wavelength / (4 pi range))^2
    phase: float            # rad in [0, 2pi), LOS phase at the first antenna


def array_response_derivative(cfg: SystemConfig, azimuth: float) -> np.ndarray:
    """Derivative of the steering vector with respect to the azimuth."""
    if not math.isfinite(azimuth):
        raise ValueError("azimuth must be finite")
    n = np.arange(cfg.antennas_per_ap)
    scale = (2.0 * math.pi / cfg.wavelength) * cfg.antenna_spacing
    return (1j * scale * math.cos(azimuth) * n) * array_response(cfg, azimuth)


def angle_from_position(cfg: SystemConfig, position_x: float) -> float:
    """Angle of the target seen from the origin: arctan(p_x / p_y)."""
    return math.atan(position_x / cfg.corridor_offset)


# ---------------------------------------------------------------------------
# crb

def _samples_from_grid(coeff: np.ndarray, cfg: SystemConfig,
                       doppler_factors: np.ndarray) -> np.ndarray:
    # Per symbol b: (1/sqrt(Nc)) sum_a coeff[a,b] e^{j 2 pi a m / Nc}, then the
    # per-symbol Doppler phase; flattened index is b*Nc + m.
    samples = math.sqrt(cfg.num_subcarriers) * np.fft.ifft(coeff, axis=0)
    samples = samples * doppler_factors[None, :]
    return samples.T.reshape(-1)


def _waveform_terms(spec: WaveformSpec, cfg: SystemConfig, delay: float,
                    doppler: float, with_derivatives: bool):
    """Sample-domain waveform and, optionally, its analytic derivatives.

    Derivatives are applied as per-subcarrier (-j 2 pi a df) and per-symbol
    (j 2 pi b T_sym) factors in the index domain, never numerically.
    """
    _check_waveform(spec, cfg)
    if not (0.0 <= delay < cfg.cp_delay_window):
        raise ValueError(
            f"delay {delay!r} outside the cyclic-prefix window "
            f"[0, {cfg.cp_delay_window!r})")
    if not math.isfinite(doppler):
        raise ValueError("doppler must be finite")
    a = np.arange(cfg.num_subcarriers)
    b = np.arange(cfg.num_symbols)
    delay_ramp = np.exp(-2j * math.pi * a * cfg.subcarrier_spacing * delay)
    doppler_ramp = np.exp(2j * math.pi * b * cfg.symbol_duration * doppler)
    coeff = spec.symbols * delay_ramp[:, None]
    s = _samples_from_grid(coeff, cfg, doppler_ramp)
    if not with_derivatives:
        return s, None, None
    tau_factor = -2j * math.pi * a * cfg.subcarrier_spacing
    d_tau = _samples_from_grid(coeff * tau_factor[:, None], cfg, doppler_ramp)
    nu_factor = 2j * math.pi * b * cfg.symbol_duration
    d_nu = (s.reshape(cfg.num_symbols, cfg.num_subcarriers)
            * nu_factor[:, None]).reshape(-1)
    return s, d_tau, d_nu


def build_waveform_vector(spec: WaveformSpec, cfg: SystemConfig,
                          delay: float, doppler: float) -> np.ndarray:
    """Delayed, Doppler-shifted time-domain waveform of length N_c * N_s.

    Entry b*N_c + m is
    e^{j 2 pi b T_sym doppler} (1/sqrt(N_c)) sum_a gamma_{a,b}
    e^{j 2 pi a m / N_c} e^{-j 2 pi a df delay}.
    The delay must stay inside the cyclic-prefix window.
    """
    s, _, _ = _waveform_terms(spec, cfg, delay, doppler, with_derivatives=False)
    return s


def assemble_measurement_covariance(blocks: list[CrbBlock],
                                    selection: ApSelection) -> np.ndarray:
    """Block-diagonal covariance over the selected APs, ascending AP index.

    Each AP contributes its 2x2 (range, radial velocity) block.
    """
    if selection.cardinality == 0:
        raise ValueError("no sensing receivers selected")
    return block_diagonal(range_velocity_blocks(blocks, selection.indices))


# ---------------------------------------------------------------------------
# tracking

def measurement_model(cfg: SystemConfig, state_mean: np.ndarray,
                      selection: ApSelection) -> np.ndarray:
    """Noiseless (range, radial velocity) per selected AP, ascending index."""
    rows = _linearize(cfg, float(state_mean[0]), float(state_mean[1]),
                      selection.indices)
    return np.array([value for row in rows for value in row[:2]])


# ---------------------------------------------------------------------------
# sensing

def hpbw(cfg: SystemConfig) -> float:
    """Broadside half-power beamwidth of the AP array: 0.886 lambda / (N d)."""
    if cfg.antennas_per_ap < 2:
        raise ValueError("beamwidth undefined for a single-antenna array")
    return 0.886 * cfg.wavelength / (cfg.antennas_per_ap * cfg.antenna_spacing)


def variance_threshold_from_hpbw(beamwidth: float, epsilon: float) -> float:
    """Angle variance keeping the estimate inside the beamwidth w.p. 1-epsilon.

    Returns (beamwidth / q)^2 with q the standard normal quantile at
    1 - epsilon/2.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    quantile = NormalDist().inv_cdf(1.0 - epsilon / 2.0)
    return (beamwidth / quantile) ** 2


def predict_variance_for_selection(cfg: SystemConfig, est: StateEstimate,
                                   model: MotionModel, selection: ApSelection,
                                   crbs: list[CrbBlock]) -> float:
    """Predicted angle error variance after a hypothetical sensing epoch.

    Propagates the estimate one epoch, applies the covariance part of a
    measurement update with the selected APs (no measurement value is
    needed), and maps the position variance through the angle slope. The
    empty selection gives the no-sensing hypothesis.
    """
    predicted = predict(est, model)
    cov = predicted.covariance
    if selection.cardinality > 0:
        jac = measurement_jacobian(cfg, predicted.mean, selection)
        meas_cov = assemble_measurement_covariance(crbs, selection)
        cov = posterior_covariance(cov, jac, meas_cov)
    return _angle_variance(cfg, float(predicted.mean[0]), float(cov[0, 0]))


def score_subsets(cfg: SystemConfig, predicted: StateEstimate,
                  policy: SensingPolicy, crbs: list[CrbBlock]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Candidate receive subsets and their predicted angle variances.

    `predicted` is the estimate already propagated to the sensing epoch.
    Returns an (m, k) array of AP indices, one subset per row in ascending
    bitmask order, and the (m,) angle variances those subsets leave after
    the update: the C(n, k) subsets of the n available APs, from a
    read-only table built once per (available APs, k). At k = 0 the one
    row is every AP that adds information (information never raises the
    variance), or the first AP when none does, since then all subsets tie.
    ValueError names the first available AP whose block is not positive
    definite.
    """
    available = ApSelection.from_indices(cfg.num_aps,
                                         available_rx_aps(cfg, policy))
    blocks = range_velocity_blocks(crbs, available.indices)
    return _score_blocks(cfg, predicted, available, policy.subset_cardinality,
                         _linearize(cfg, *predicted.mean.tolist(),
                                    available.indices),
                         blocks.ravel().tolist())


# ---------------------------------------------------------------------------
# comms

@dataclass(frozen=True, slots=True)
class LinkResult:
    snr: float
    rate: float  # bits per symbol use, log2(1 + snr)


def steered_link(cfg: SystemConfig, truth: TargetTruth, position_x: float,
                 power_fraction: float = 1.0, phase_mode: str = "compensated",
                 angle_mode: str = "per_ap") -> LinkResult:
    """`steered_links` for one epoch; the whole truth must be finite."""
    if not math.isfinite(truth.velocity_x):
        raise ValueError("target truth must be finite")
    snr, rate = steered_links(cfg, [truth.position_x], [position_x],
                              power_fraction, phase_mode, angle_mode)
    return LinkResult(float(snr[0]), float(rate[0]))


# ---------------------------------------------------------------------------
# simulate

@dataclass(frozen=True, slots=True)
class ArmEpoch:
    """Per-epoch snapshot of one filter arm's tracker."""

    action: Action
    selection: ApSelection
    predicted_angle_variance: float
    estimate: StateEstimate


@dataclass(frozen=True, slots=True)
class EpochRecord:
    """One epoch: each filter arm's snapshot by name, in stepping order, and
    each downlink method's rate. The three properties read the proposed arm."""

    epoch: int
    truth: TargetTruth
    traffic_state: str               # "ON" or "OFF"
    rates: dict[str, LinkResult]
    arms: dict[str, ArmEpoch]

    @property
    def action(self) -> Action:
        return self.arms["proposed"].action

    @property
    def estimate(self) -> StateEstimate:
        return self.arms["proposed"].estimate

    @property
    def predicted_angle_variance(self) -> float:
        return self.arms["proposed"].predicted_angle_variance
