"""Extended Kalman filter over the constant-velocity corridor state."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import _from_oracles
from .config import SystemConfig
from .geometry import angle_slope_from_position
from .selection import ApSelection

_IDENTITY = np.eye(2)
_IDENTITY.setflags(write=False)


@dataclass(frozen=True, slots=True)
class StateEstimate:
    """Filter mean [p_x, v_x] and covariance; the run counts the epochs."""

    mean: np.ndarray        # shape (2,)
    covariance: np.ndarray  # shape (2, 2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean",
                           np.array(self.mean, dtype=float).reshape(2))
        object.__setattr__(self, "covariance",
                           np.array(self.covariance, dtype=float).reshape(2, 2))

    @classmethod
    def _built(cls, mean: np.ndarray,
               covariance: np.ndarray) -> "StateEstimate":
        """An estimate from float arrays of shapes (2,) and (2, 2) that the
        filter has just built, taken as they are: skips __post_init__,
        whose copies are for caller input."""
        est = object.__new__(cls)
        object.__setattr__(est, "mean", mean)
        object.__setattr__(est, "covariance", covariance)
        return est


@dataclass(frozen=True)
class MotionModel:
    """Constant-velocity transition and discretized acceleration noise.

    Both matrices are copied into read-only float arrays, and their entries
    are kept as Python floats, row by row, for `predict`.
    """

    transition: np.ndarray     # F = [[1, dt], [0, 1]]
    process_noise: np.ndarray  # Q with entries dt^4/4, dt^3/2, dt^2 times sigma_q^2
    _entries: tuple[tuple[float, ...], tuple[float, ...]] = field(
        init=False, repr=False, compare=False)  # (F, Q), each flattened

    def __post_init__(self) -> None:
        matrices = []
        for name in ("transition", "process_noise"):
            matrix = np.array(getattr(self, name), dtype=float).reshape(2, 2)
            matrix.setflags(write=False)
            object.__setattr__(self, name, matrix)
            matrices.append(tuple(matrix.ravel().tolist()))
        object.__setattr__(self, "_entries", tuple(matrices))

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


def _predict_floats(model: MotionModel, m0: float, m1: float, p00: float,
                    p01: float, p10: float, p11: float
                    ) -> tuple[float, float, float, float, float]:
    """`predict` on Python floats: the predicted mean (p, v) and the entries
    P00, P01 = P10 and P11 of the predicted covariance, from the mean
    (m0, m1) and covariance [[p00, p01], [p10, p11]].

    Closed-form 2x2 arithmetic in matmul's operand order: F m, then
    (F P) F^T + Q, then `_symmetrized`'s halving. Each product is the
    plainly rounded two-term dot product, which a BLAS kernel without fused
    multiply-add also computes; one with it can move the last bit.
    """
    (f00, f01, f10, f11), (q00, q01, q10, q11) = model._entries
    a00, a01 = f00 * p00 + f01 * p10, f00 * p01 + f01 * p11
    a10, a11 = f10 * p00 + f11 * p10, f10 * p01 + f11 * p11
    c00 = a00 * f00 + a01 * f01 + q00
    c11 = a10 * f10 + a11 * f11 + q11
    off = ((a00 * f10 + a01 * f11 + q01) + (a10 * f00 + a11 * f01 + q10)) / 2.0
    return (f00 * m0 + f01 * m1, f10 * m0 + f11 * m1, (c00 + c00) / 2.0, off,
            (c11 + c11) / 2.0)


def predict(est: StateEstimate, model: MotionModel) -> StateEstimate:
    """Time update: propagate mean and covariance one epoch forward, as
    `_predict_floats` does."""
    (p00, p01), (p10, p11) = est.covariance.tolist()
    m0, m1, c00, off, c11 = _predict_floats(model, *est.mean.tolist(), p00,
                                            p01, p10, p11)
    return StateEstimate._built(np.array([m0, m1]),
                                np.array([[c00, off], [off, c11]]))


def _symmetrized(m: np.ndarray) -> tuple[float, float, float]:
    """The entries P00, P01 = P10 and P11 of (m + m.T) / 2.0 of a 2x2, bit
    for bit, from one `tolist`: Python and numpy round the same IEEE add and
    halving, so each entry keeps its rounding, overflow and signed zero."""
    (a, b), (c, d) = m.tolist()
    return (a + a) / 2.0, (b + c) / 2.0, (d + d) / 2.0


def _linearize(cfg: SystemConfig, position_x: float, velocity_x: float,
               aps: Sequence[int]) -> list[tuple[float, float, float, float]]:
    """Per AP of `aps`, the row (range, radial velocity, cosine, slope) at
    the state (position_x, velocity_x): with dx = position_x - x_l, the
    range d = hypot(dx, p_y), the radial velocity dx v_x / d, and the
    Jacobian [[cosine, 0], [slope, cosine]] of the pair with respect to
    [p_x, v_x], where cosine = dx / d and slope = v_x p_y^2 / d^3. The
    tracker, the AP scorer and the measurement synthesizer read their model
    values and Jacobians from these rows. A range too short for its cube to
    be a nonzero float raises ValueError naming the AP."""
    if not aps:
        raise ValueError("no sensing receivers selected")
    p_y, positions, hypot = cfg.corridor_offset, cfg.ap_positions, math.hypot
    # A power past the float range is inf, as in IEEE arithmetic, not
    # Python's OverflowError: a state that far out reaches the hop-gain
    # check of `simulate._hops`, which names the fault
    try:
        # over dist^3, the radial velocity's derivative along p_x
        velocity_slope = velocity_x * p_y ** 2
    except OverflowError:
        velocity_slope = velocity_x * math.inf
    rows = []
    for ap in aps:
        dx = position_x - positions[ap]
        dist = hypot(dx, p_y)
        try:
            cube = dist ** 3
        except OverflowError:
            cube = math.inf
        if cube == 0.0:  # a range below about 1.7e-108 m
            raise ValueError(f"range to AP {ap} is too short: its cube "
                             f"underflows and the jacobian is singular")
        rows.append((dist, dx * velocity_x / dist, dx / dist,
                     velocity_slope / cube))
    return rows


def measurement_jacobian(cfg: SystemConfig, state_mean: np.ndarray,
                         selection: ApSelection) -> np.ndarray:
    """Gradient of measurement_model with respect to [p_x, v_x]."""
    rows = _linearize(cfg, float(state_mean[0]), float(state_mean[1]),
                      selection.indices)
    return np.array([(c, 0.0, s, c) for _, _, c, s in rows]).reshape(-1, 2)


def _gain_and_posterior(prior_cov: np.ndarray, jacobian: np.ndarray,
                        meas_cov: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Kalman gain and `_symmetrized` posterior covariance of an update."""
    innovation_cov = jacobian @ prior_cov @ jacobian.T + meas_cov
    gain = np.linalg.solve(innovation_cov.T, (prior_cov @ jacobian.T).T).T
    post = (_IDENTITY - gain @ jacobian) @ prior_cov
    return gain, _symmetrized(post)


def posterior_covariance(prior_cov: np.ndarray, jacobian: np.ndarray,
                         meas_cov: np.ndarray) -> np.ndarray:
    """Covariance part of the measurement update; independent of the values."""
    c00, off, c11 = _gain_and_posterior(prior_cov, jacobian, meas_cov)[1]
    return np.array([[c00, off], [off, c11]])


def _check_selection(cfg: SystemConfig, selection: ApSelection) -> None:
    if selection.num_aps != cfg.num_aps:
        raise ValueError(f"selection is over {selection.num_aps} APs, "
                         f"the system has {cfg.num_aps}")


def _update_floats(m0: float, m1: float, prior_cov: np.ndarray,
                   values: Sequence[float], rows: Sequence[tuple],
                   meas_cov: np.ndarray, aps: tuple) -> tuple[float, ...]:
    """`update` of the mean (m0, m1) and covariance `prior_cov` by the pairs
    `values` of the APs `aps` (covariance `meas_cov`, `_linearize` rows at
    (m0, m1)), to the floats (p, v, P00, P01, P10 = P01, P11). Only
    `_gain_and_posterior` and the gain times the innovation are numpy's."""
    innovation, jac = [], []
    for (dist, radial, cosine, slope), value_r, value_v in zip(
            rows, values[0::2], values[1::2]):
        innovation += (value_r - dist, value_v - radial)
        jac += (cosine, 0.0, slope, cosine)
    try:
        gain, (c00, off, c11) = _gain_and_posterior(
            prior_cov, np.array(jac).reshape(-1, 2), meas_cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular innovation covariance for APs "
                         f"{aps}") from exc
    if all(map(math.isfinite, innovation)):
        d0, d1 = (gain @ np.array(innovation)).tolist()
        posterior = (m0 + d0, m1 + d1, c00, off, off, c11)
        if all(map(math.isfinite, posterior)):
            return posterior
    raise ValueError(f"posterior for APs {aps} is not finite")


def update(est: StateEstimate, meas: MeasurementSet,
           cfg: SystemConfig) -> StateEstimate:
    """Measurement update of a predicted estimate, by `_update_floats`. A
    selection over another AP count, or a posterior that is not finite,
    raises ValueError; the innovation is checked before the gain multiplies
    it, so a measurement at infinity raises that, not a numpy warning."""
    _check_selection(cfg, meas.selection)
    (m0, m1), aps = est.mean.tolist(), meas.selection.indices
    m0, m1, c00, off, _, c11 = _update_floats(
        m0, m1, est.covariance, meas.values.tolist(),
        _linearize(cfg, m0, m1, aps), meas.covariance, aps)
    return StateEstimate._built(np.array([m0, m1]),
                                np.array([[c00, off], [off, c11]]))


def _angle_variance(cfg: SystemConfig, position_x: float,
                    position_variance: float | np.ndarray
                    ) -> float | np.ndarray:
    """First-order error variance of the angle at position_x: the position
    variance, a float or an array, times the squared angle slope. The
    sensing trigger, the AP scorer and its oracle all map through here."""
    return position_variance * angle_slope_from_position(cfg, position_x) ** 2


_LAZY = ("measurement_model",)
__getattr__, __dir__ = _from_oracles(globals(), _LAZY)
