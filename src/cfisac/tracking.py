"""Extended Kalman filter over the constant-velocity corridor state."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .geometry import angle_from_position, angle_slope_from_position
from .selection import ApSelection


@dataclass(frozen=True)
class StateEstimate:
    """Filter mean [p_x, v_x], covariance, and epoch bookkeeping."""

    mean: np.ndarray        # shape (2,)
    covariance: np.ndarray  # shape (2, 2)
    epoch: int = 0
    last_sensed_epoch: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean",
                           np.array(self.mean, dtype=float).reshape(2))
        object.__setattr__(self, "covariance",
                           np.array(self.covariance, dtype=float).reshape(2, 2))
        if self.epoch < self.last_sensed_epoch:
            raise ValueError("epoch must not precede last_sensed_epoch")

    @classmethod
    def _built(cls, mean: np.ndarray, covariance: np.ndarray, epoch: int,
               last_sensed_epoch: int) -> "StateEstimate":
        """An estimate from arrays the filter just built, taken as they are:
        skips __post_init__, whose copies and checks are for caller input."""
        est = object.__new__(cls)
        est.__dict__.update(mean=mean, covariance=covariance, epoch=epoch,
                            last_sensed_epoch=last_sensed_epoch)
        return est


@dataclass(frozen=True)
class MotionModel:
    """Constant-velocity transition and discretized acceleration noise."""

    transition: np.ndarray     # F = [[1, dt], [0, 1]]
    process_noise: np.ndarray  # Q with entries dt^4/4, dt^3/2, dt^2 times sigma_q^2

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "MotionModel":
        dt = cfg.epoch_duration
        sq2 = cfg.process_noise_std ** 2
        f = np.array([[1.0, dt], [0.0, 1.0]])
        q = sq2 * np.array([[dt ** 4 / 4.0, dt ** 3 / 2.0],
                            [dt ** 3 / 2.0, dt ** 2]])
        return cls(f, q)


@dataclass(frozen=True)
class MeasurementSet:
    """Stacked (range, radial velocity) pairs with their covariance."""

    values: np.ndarray
    covariance: np.ndarray
    selection: ApSelection

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).reshape(-1)
        cov = np.asarray(self.covariance, dtype=float)
        expected = 2 * self.selection.cardinality
        if values.size != expected:
            raise ValueError(
                f"measurement length {values.size} does not match "
                f"2 x {self.selection.cardinality} selected APs")
        if cov.shape != (expected, expected):
            raise ValueError("measurement covariance has the wrong shape")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "covariance", cov)


def predict(est: StateEstimate, model: MotionModel) -> StateEstimate:
    """Time update: propagate mean and covariance one epoch forward."""
    f = model.transition
    mean = f @ est.mean
    cov = f @ est.covariance @ f.T + model.process_noise
    cov = (cov + cov.T) / 2.0
    return StateEstimate._built(mean, cov, est.epoch + 1,
                                est.last_sensed_epoch)


def measurement_model(cfg: SystemConfig, state_mean: np.ndarray,
                      selection: ApSelection) -> np.ndarray:
    """Noiseless (range, radial velocity) per selected AP, ascending index."""
    if selection.cardinality == 0:
        raise ValueError("no sensing receivers selected")
    p_x, v_x = float(state_mean[0]), float(state_mean[1])
    out = np.empty(2 * selection.cardinality)
    for pos, ap in enumerate(selection.indices):
        dx = p_x - cfg.ap_x(ap)
        dist = math.hypot(dx, cfg.corridor_offset)
        out[2 * pos] = dist
        out[2 * pos + 1] = dx * v_x / dist
    return out


def measurement_jacobian(cfg: SystemConfig, state_mean: np.ndarray,
                         selection: ApSelection) -> np.ndarray:
    """Gradient of measurement_model with respect to [p_x, v_x]."""
    if selection.cardinality == 0:
        raise ValueError("no sensing receivers selected")
    p_x, v_x = float(state_mean[0]), float(state_mean[1])
    p_y = cfg.corridor_offset
    jac = np.empty((2 * selection.cardinality, 2))
    for pos, ap in enumerate(selection.indices):
        dx = p_x - cfg.ap_x(ap)
        dist = math.hypot(dx, p_y)
        if dist == 0.0:
            raise ValueError(f"zero range to AP {ap}: jacobian is singular")
        jac[2 * pos] = (dx / dist, 0.0)
        jac[2 * pos + 1] = (v_x * p_y ** 2 / dist ** 3, dx / dist)
    return jac


def posterior_covariance(prior_cov: np.ndarray, jacobian: np.ndarray,
                         meas_cov: np.ndarray) -> np.ndarray:
    """Covariance part of the measurement update; independent of the values."""
    innovation_cov = jacobian @ prior_cov @ jacobian.T + meas_cov
    gain = np.linalg.solve(innovation_cov.T, (prior_cov @ jacobian.T).T).T
    post = (np.eye(prior_cov.shape[0]) - gain @ jacobian) @ prior_cov
    return (post + post.T) / 2.0


def update(est: StateEstimate, meas: MeasurementSet,
           cfg: SystemConfig) -> StateEstimate:
    """Measurement update; records the epoch as the last sensed one."""
    jac = measurement_jacobian(cfg, est.mean, meas.selection)
    innovation = meas.values - measurement_model(cfg, est.mean, meas.selection)
    innovation_cov = jac @ est.covariance @ jac.T + meas.covariance
    try:
        gain = np.linalg.solve(innovation_cov.T,
                               (est.covariance @ jac.T).T).T
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"singular innovation covariance at epoch {est.epoch} for "
            f"APs {meas.selection.indices}") from exc
    mean = est.mean + gain @ innovation
    cov = (np.eye(2) - gain @ jac) @ est.covariance
    cov = (cov + cov.T) / 2.0
    return StateEstimate._built(mean, cov, est.epoch, est.epoch)


def angle_estimate_and_variance(cfg: SystemConfig,
                                est: StateEstimate) -> tuple[float, float]:
    """Angle of the estimated position and its first-order error variance."""
    p_x = float(est.mean[0])
    slope = angle_slope_from_position(cfg, p_x)
    return angle_from_position(cfg, p_x), float(est.covariance[0, 0]) * slope ** 2
