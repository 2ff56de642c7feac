"""select_rx_aps against a brute-force search over random scenarios."""
import math
from itertools import combinations

import numpy as np
import pytest

from cfisac.config import SystemConfig
from cfisac.crb import CrbBlock
from cfisac.selection import ApSelection
from cfisac.sensing import (SensingPolicy, predict_variance_for_selection,
                            select_rx_aps)
from cfisac.tracking import MotionModel, StateEstimate

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
