"""Reference pieces that only the tests use.

`qpsk_waveform` gives the general-grid tests a random unit-modulus grid, and
`propagate_truth` is the truth step of the reference stepper in
`test_reference_run.py`. `exact_predict`, `exact_score_blocks` and
`exact_update` take the float inputs of the filter's float cores
(`tracking._predict_floats`, `sensing._score_blocks` and
`tracking._update_floats`) and return their results in exact `Fraction`
arithmetic, against which `test_exact_property.py` bounds the floats. The
tests import this module by name, from the tests directory pytest puts on
the path.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from cfisac.config import SystemConfig
from cfisac.crb import WaveformSpec, block_diagonal
from cfisac.geometry import TargetTruth
from cfisac.selection import ApSelection
from cfisac.tracking import MotionModel, StateEstimate


def qpsk_waveform(cfg: SystemConfig, rng: np.random.Generator) -> WaveformSpec:
    """Unit-modulus QPSK grid drawn from the given generator."""
    quadrants = rng.integers(0, 4, size=(cfg.num_subcarriers, cfg.num_symbols))
    return WaveformSpec(np.exp(1j * (math.pi / 2) * quadrants))


def propagate_truth(truth: TargetTruth, cfg: SystemConfig) -> TargetTruth:
    """Noiseless constant-velocity step over one epoch."""
    return TargetTruth(
        truth.position_x + truth.velocity_x * cfg.epoch_duration,
        truth.velocity_x)


def _inverse(m):
    """The exact inverse of a nonsingular 2x2 of Fractions."""
    (a, b), (c, d) = m
    det = a * d - b * c
    return [[d / det, -b / det], [-c / det, a / det]]


def _product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _transpose(m):
    return [list(column) for column in zip(*m)]


def exact_information(rows, entries):
    """Per AP, the exact J^T R^-1 J and J^T R^-1 of its `_linearize` row
    (range, radial velocity, cosine, slope) and bound entries r00, r01,
    r10, r11: J = [[cosine, 0], [slope, cosine]]."""
    out = []
    for i, (_, _, cosine, slope) in enumerate(rows):
        r = [[Fraction(x) for x in entries[4 * i:4 * i + 2]],
             [Fraction(x) for x in entries[4 * i + 2:4 * i + 4]]]
        jac = [[Fraction(cosine), Fraction(0)], [Fraction(slope),
                                                 Fraction(cosine)]]
        weight = _product(_transpose(jac), _inverse(r))
        out.append((_product(weight, jac), weight))
    return out


def exact_predict(model: MotionModel, m0: float, m1: float, p00: float,
                  p01: float, p10: float, p11: float) -> tuple[Fraction, ...]:
    """What `tracking._predict_floats` returns for the same floats, in exact
    arithmetic: F m, and P00, P01 and P11 of the symmetrized
    F P F^T + Q."""
    (f00, f01, f10, f11), (q00, q01, q10, q11) = (
        map(Fraction, entries) for entries in model._entries)
    f = [[f00, f01], [f10, f11]]
    p = [[Fraction(p00), Fraction(p01)], [Fraction(p10), Fraction(p11)]]
    c = _product(_product(f, p), _transpose(f))
    m0, m1 = Fraction(m0), Fraction(m1)
    return (f00 * m0 + f01 * m1, f10 * m0 + f11 * m1, c[0][0] + q00,
            (c[0][1] + c[1][0] + q01 + q10) / 2, c[1][1] + q11)


def exact_score_blocks(cfg: SystemConfig, predicted: StateEstimate,
                       available: ApSelection, k: int, rows, entries
                       ) -> tuple[list[tuple[int, ...]], list[Fraction]]:
    """What `sensing._score_blocks` scores for the same inputs, in exact
    arithmetic: the candidate subsets in ascending bitmask order (at k = 0
    the one subset of every AP that adds information, else the first AP),
    and of each the predicted angle variance, P00 of
    (I + P S)^-1 P times the squared angle slope at the predicted mean,
    with S the subset's summed J^T R^-1 J."""
    info = [s for s, _ in exact_information(rows, entries)]
    aps = available.indices
    if k:
        picks = sorted(combinations(range(len(aps)), k),
                       key=lambda c: sum(1 << aps[i] for i in c))
    else:
        informs = tuple(i for i, s in enumerate(info)
                        if any(x for row in s for x in row))
        picks = [informs or (0,)]
    p = [[Fraction(x) for x in row] for row in predicted.covariance.tolist()]
    x, p_y = Fraction(float(predicted.mean[0])), Fraction(cfg.corridor_offset)
    slope_sq = (p_y / (x * x + p_y * p_y)) ** 2
    variances = []
    for pick in picks:
        s = [[sum(info[i][r][c] for i in pick) for c in range(2)]
             for r in range(2)]
        m = _product(p, s)
        m = [[m[0][0] + 1, m[0][1]], [m[1][0], m[1][1] + 1]]
        variances.append(_product(_inverse(m), p)[0][0] * slope_sq)
    return [tuple(aps[i] for i in pick) for pick in picks], variances


def exact_update(m0: float, m1: float, p00: float, p01: float, p10: float,
                 p11: float, values, rows, meas_cov) -> tuple[Fraction, ...]:
    """What `tracking._update_floats` returns for the same inputs, in exact
    arithmetic, in information form: the posterior covariance
    (P^-1 + sum_l J_l^T R_l^-1 J_l)^-1 and the mean
    m + P+ sum_l J_l^T R_l^-1 (y_l - h_l(m)), as (p, v, P00, P01, P10,
    P11). `meas_cov` must be block diagonal in 2x2 blocks, one per row."""
    cov = np.asarray(meas_cov)
    blocks = [cov[2 * l:2 * l + 2, 2 * l:2 * l + 2] for l in range(len(rows))]
    assert np.array_equal(block_diagonal(np.array(blocks)), cov)
    info = _inverse([[Fraction(p00), Fraction(p01)],
                     [Fraction(p10), Fraction(p11)]])
    score = [Fraction(0), Fraction(0)]
    for (s, weight), (dist, radial, _, _), y_r, y_v in zip(
            exact_information(rows, np.array(blocks).ravel().tolist()), rows,
            values[0::2], values[1::2]):
        nu = (Fraction(y_r) - Fraction(dist), Fraction(y_v) - Fraction(radial))
        for i in range(2):
            score[i] += weight[i][0] * nu[0] + weight[i][1] * nu[1]
            for j in range(2):
                info[i][j] += s[i][j]
    post = _inverse(info)
    step = [post[i][0] * score[0] + post[i][1] * score[1] for i in range(2)]
    return (Fraction(m0) + step[0], Fraction(m1) + step[1], post[0][0],
            post[0][1], post[1][0], post[1][1])
