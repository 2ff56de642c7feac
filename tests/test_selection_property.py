"""select_rx_aps against a brute-force search, and score_subsets against
exact rationals, over random scenarios."""
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cfisac.config import SystemConfig
from cfisac.crb import CrbBlock
from cfisac.selection import ApSelection
from cfisac.sensing import (SensingPolicy, _lowest_variance,
                            predict_variance_for_selection, score_subsets,
                            select_rx_aps)
from cfisac.tracking import MotionModel, StateEstimate
from test_sensing import exact_scores

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

GAMMA_3DEG = math.radians(3.0) ** 2


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data())
def test_selection_is_the_bruteforce_minimum(data):
    num_aps = data.draw(st.integers(2, 7), label="num_aps")
    exclude = data.draw(st.booleans(), label="exclude_tx_ap")
    available = [ap for ap in range(num_aps) if not (exclude and ap == 0)]
    k = data.draw(st.integers(0, len(available)), label="cardinality")
    cfg = SystemConfig(num_aps=num_aps)
    model = MotionModel.from_config(cfg)
    mean = [data.draw(st.floats(-100, 600), label="position"),
            data.draw(st.floats(-40, 40), label="velocity")]
    var_p = data.draw(st.floats(1e-2, 1e3), label="position variance")
    var_v = data.draw(st.floats(1e-3, 10), label="velocity variance")
    rho = data.draw(st.floats(-0.95, 0.95), label="correlation")
    cross = rho * math.sqrt(var_p * var_v)
    est = StateEstimate(np.array(mean), np.array([[var_p, cross],
                                                  [cross, var_v]]))
    blocks = [CrbBlock(np.diag([data.draw(st.floats(0.1, 100)),
                                data.draw(st.floats(1, 100))]), ap)
              for ap in range(num_aps)]
    policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=k,
                           exclude_tx_ap=exclude)
    chosen = select_rx_aps(cfg, est, model, policy, blocks)

    def variance_of(subset):
        return predict_variance_for_selection(
            cfg, est, model, ApSelection.from_indices(num_aps, subset), blocks)

    sizes = [k] if k else range(1, len(available) + 1)
    keyed = sorted((variance_of(subset), r, sum(1 << ap for ap in subset),
                    subset)
                   for r in sizes for subset in combinations(available, r))
    best = keyed[0][0]
    if keyed[1:] and keyed[1][0] <= best * (1 + 1e-9):
        assert set(chosen.indices) <= set(available)
        assert chosen.cardinality in sizes
        assert variance_of(chosen.indices) <= best * (1 + 1e-9)
    else:
        assert chosen.indices == keyed[0][3]


def spd_block(data, ap):
    """A random range-velocity block with correlated errors. Inverting R
    in floats loses about 1 / (1 - rho^2) ulp whatever the method (numpy's
    batched solve is 5e-15 off at rho = 0.99), so |rho| stays at 0.9, far
    past the 0.04 of random unit-power grids."""
    range_var = 10.0 ** data.draw(st.floats(-1, 2), label="log range var")
    velocity_var = 10.0 ** data.draw(st.floats(0, 2), label="log vel var")
    cross = data.draw(st.floats(-0.9, 0.9), label="block correlation") \
        * math.sqrt(range_var * velocity_var)
    return CrbBlock(np.array([[range_var, cross], [cross, velocity_var]]), ap)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_scores_are_exact_and_pick_the_exact_minimum(data):
    num_aps = data.draw(st.integers(2, 7), label="num_aps")
    exclude = data.draw(st.booleans(), label="exclude_tx_ap")
    available = [ap for ap in range(num_aps) if not (exclude and ap == 0)]
    k = data.draw(st.integers(0, len(available)), label="cardinality")
    cfg = SystemConfig(num_aps=num_aps)
    mean = [data.draw(st.floats(-100, 600), label="position"),
            data.draw(st.floats(-40, 40), label="velocity")]
    var_p = 10.0 ** data.draw(st.floats(-2, 3), label="log position var")
    var_v = 10.0 ** data.draw(st.floats(-3, 1), label="log velocity var")
    rho = data.draw(st.floats(-0.999, 0.999), label="correlation")
    cross = rho * math.sqrt(var_p * var_v)
    predicted = StateEstimate(np.array(mean), np.array([[var_p, cross],
                                                        [cross, var_v]]))
    blocks = [spd_block(data, ap) for ap in range(num_aps)]
    policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=k,
                           exclude_tx_ap=exclude)
    subsets, variances = score_subsets(cfg, predicted, policy, blocks)
    rows = [tuple(int(ap) for ap in row) for row in subsets]
    exact = exact_scores(cfg, predicted, blocks, rows)
    for variance, want in zip(variances, exact, strict=True):
        assert abs(Fraction(float(variance)) - want) <= 1e-14 * want
    ranked = sorted(zip(exact, (sum(1 << ap for ap in row) for row in rows),
                        rows))
    if ranked[1:] and ranked[1][0] - ranked[0][0] <= 1e-12 * ranked[0][0]:
        return  # the exact margin is too thin to demand the exact winner
    chosen = _lowest_variance(num_aps, subsets, variances)
    assert chosen.indices == ranked[0][2]
