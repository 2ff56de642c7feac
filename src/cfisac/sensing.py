"""Sensing management: when to sense and which APs should listen."""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Sequence
from itertools import combinations
from dataclasses import dataclass

import numpy as np

from . import _from_oracles
from .config import SystemConfig
from .crb import CrbBlock
from .selection import ApSelection
from .tracking import MotionModel, StateEstimate, _angle_variance, predict

__all__ = [
    "Action", "ApSelection", "SensingPolicy", "hpbw",
    "variance_threshold_from_hpbw", "decide_action",
    "predict_variance_for_selection", "available_rx_aps", "score_subsets",
    "select_rx_aps",
]

# Rows one `score_subsets` call may score: C(20, 10), the largest table of
# the 20-AP limit this budget replaced, so every scenario it took loads.
_MAX_SCORED_SUBSETS = math.comb(20, 10)


class Action(enum.Enum):
    SENSING = "Sensing"
    NO_SENSING = "NoSensing"


# The members, read once: reading one through its class is a descriptor call.
_SENSING, _NO_SENSING = Action.SENSING, Action.NO_SENSING


@dataclass(frozen=True)
class SensingPolicy:
    """Trigger threshold and receive-subset constraints."""

    variance_threshold: float = math.radians(3.0) ** 2  # rad^2
    subset_cardinality: int = 2     # 0 means unconstrained
    exclude_tx_ap: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.variance_threshold < np.inf:
            raise ValueError(
                "variance_threshold: must be strictly positive and finite")
        if self.subset_cardinality < 0:
            raise ValueError("subset_cardinality: must be >= 0")

    @classmethod
    def from_config(cls, cfg: SystemConfig, subset_cardinality: int = 2,
                    exclude_tx_ap: bool = False) -> "SensingPolicy":
        """The default-threshold policy with these subset constraints; `cfg`
        is not read, since the threshold belongs to the policy alone."""
        return cls(subset_cardinality=subset_cardinality,
                   exclude_tx_ap=exclude_tx_ap)


def decide_action(predicted_variance: float, policy: SensingPolicy) -> Action:
    """Sense only when the predicted angle variance exceeds the threshold."""
    if not predicted_variance >= 0:  # also NaN, which would never sense
        raise ValueError("predicted variance must be nonnegative")
    if predicted_variance > policy.variance_threshold:
        return _SENSING
    return _NO_SENSING


def available_rx_aps(cfg: SystemConfig, policy: SensingPolicy) -> list[int]:
    """AP indices that may receive the echo; ValueError when the subset
    search is infeasible: too few APs for the cardinality, or more
    k-subsets than one `score_subsets` call may score. At k = 0 nothing is
    searched, so any number of APs is feasible."""
    available = [l for l in range(cfg.num_aps)
                 if not (policy.exclude_tx_ap and l == cfg.tx_ap)]
    k = policy.subset_cardinality
    if k > len(available):
        raise ValueError(
            f"policy.subset_cardinality: no feasible subset: cardinality "
            f"{k} exceeds the {len(available)} available APs")
    if k and math.comb(len(available), k) > _MAX_SCORED_SUBSETS:
        raise ValueError(
            f"policy.subset_cardinality: the {len(available)} available APs "
            f"have {math.comb(len(available), k)} subsets of {k} to score, "
            f"over the budget of {_MAX_SCORED_SUBSETS}")
    return available


@functools.lru_cache(maxsize=1)  # a run reads one table
def _subset_table(available: tuple[int, ...],
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every k-subset of `available`, as read-only arrays: the (k, m)
    positions into `available`, one row per member, and the (m, k) AP
    indices. Subsets ascend by bitmask, so the first of equal scores is the
    one with the lowest bitmask: the k-subsets of the descending positions
    come in descending bitmask order, so reversing the rows and each row
    gives ascending bitmasks with ascending members."""
    descending = combinations(range(len(available) - 1, -1, -1), k)
    positions = np.array(list(descending))[::-1, ::-1]
    columns = np.ascontiguousarray(positions.T)
    subsets = np.asarray(available)[positions]
    columns.setflags(write=False)
    subsets.setflags(write=False)
    return columns, subsets


def _score_blocks(cfg: SystemConfig, predicted: StateEstimate,
                  available: ApSelection, k: int,
                  rows: Sequence[tuple[float, ...]], entries: Sequence[float]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """`score_subsets` over the available APs in ascending AP order: their
    `_linearize` rows at the predicted mean, and the entries r00, r01, r10,
    r11 of each AP's bound block R_l in turn.

    Scored in information form in closed-form 2x2 arithmetic: each AP's
    Jacobian J_l is that of `measurement_jacobian`, read from its row,
    and its I_l = J_l^T R_l^-1 J_l is three floats (s00, s01,
    s11); a subset sums them to S, and leaves P00 of (I + P S)^-1 P,
    needing no P^-1. With M = I + P S that is (m11 p00 - m01 p10) / det M,
    evaluated with the terms that cancel taken out, which keeps a strongly
    correlated P within a few ulp: the numerator is p00 + S11 det P and
    det M = 1 + tr(P S) + det P det S.
    """
    j01 = 0.0  # the range does not depend on the velocity
    info = []
    for ap, (_, _, j00, j10), r00, r01, r10, r11 in zip(
            available.indices, rows, entries[0::4], entries[1::4],
            entries[2::4], entries[3::4]):
        det = r00 * r11 - r01 * r10
        if not (r00 > 0 and det > 0):  # also a NaN block
            raise ValueError(
                f"bound block of AP {ap} is not positive definite")
        j11 = j00
        # R^-1 = [[w00, w01], [w01, w11]], and a = J^T R^-1
        w00, w01, w11 = r11 / det, -r01 / det, r00 / det
        a00, a01 = j00 * w00 + j10 * w01, j00 * w01 + j10 * w11
        a10, a11 = j01 * w00 + j11 * w01, j01 * w01 + j11 * w11
        info.append((a00 * j00 + a01 * j10, a00 * j01 + a01 * j11,
                     a10 * j01 + a11 * j11))
    info = np.array(info).T  # (3, n): s00, s01, s11 of each available AP
    if k:
        columns, subsets = _subset_table(available.indices, k)
    else:
        informs = np.flatnonzero(info.any(axis=0))
        columns = (informs if informs.size else np.zeros(1, int))[:, None]
        subsets = np.asarray(available.indices)[columns.T]
    t00, t01, t11 = sum(info.take(column, axis=1) for column in columns)
    (p00, p01), (p10, p11) = predicted.covariance.tolist()
    det_p = p00 * p11 - p01 * p10
    variance = (p00 + t11 * det_p) / (
        1.0 + (p00 * t00 + (p01 + p10) * t01 + p11 * t11)
        + det_p * (t00 * t11 - t01 * t01))
    return subsets, _angle_variance(cfg, float(predicted.mean[0]), variance)


def _lowest_variance(num_aps: int, subsets: np.ndarray,
                     variances: np.ndarray) -> ApSelection:
    """The row of `score_subsets` with the lowest variance; of equal
    variances the first, which has the lowest bitmask. A NaN variance
    raises ValueError, since it would compare false against every other."""
    best = int(np.argmin(variances))  # the first NaN, if there is one
    if math.isnan(variances[best]):
        raise ValueError("subset variances must not be NaN")
    return ApSelection.from_indices(num_aps, subsets[best])


def select_rx_aps(cfg: SystemConfig, est: StateEstimate, model: MotionModel,
                  policy: SensingPolicy, crbs: list[CrbBlock]) -> ApSelection:
    """Receive-AP subset minimizing the predicted angle variance, one epoch
    after `est`: the lowest-scoring row of `score_subsets`, ties to the
    lowest bitmask. Unconstrained, it selects every AP that adds
    information, or the first AP when none does."""
    from ._oracles import score_subsets

    return _lowest_variance(
        cfg.num_aps, *score_subsets(cfg, predict(est, model), policy, crbs))


_LAZY = ("hpbw", "variance_threshold_from_hpbw",
         "predict_variance_for_selection", "score_subsets")
__getattr__, __dir__ = _from_oracles(globals(), _LAZY)
