import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cfisac.config import SystemConfig
from cfisac.crb import CrbBlock
from cfisac.selection import ApSelection
from cfisac.crb import all_ones_waveform
from cfisac.geometry import angle_slope_from_position
from cfisac.sensing import (Action, SensingPolicy, _lowest_variance,
                            available_rx_aps, decide_action, hpbw,
                            predict_variance_for_selection, score_subsets,
                            select_rx_aps, variance_threshold_from_hpbw)
from cfisac.simulate import crb_blocks_for_state
from cfisac.tracking import (MotionModel, StateEstimate, measurement_jacobian,
                             predict)

GAMMA_3DEG = math.radians(3.0) ** 2


def diag_block(ap_index, range_var, vel_var):
    return CrbBlock(np.diag([range_var, vel_var]).astype(float), ap_index)


def oracle_variance(cfg, est, model, indices, blocks):
    """Information-form re-derivation, independent of the filter code path."""
    f, q = model.transition, model.process_noise
    mean = f @ est.mean
    cov = f @ est.covariance @ f.T + q
    if indices:
        rows = []
        r_diag = []
        for ap in sorted(indices):
            dx = mean[0] - cfg.ap_positions[ap]
            dist = math.hypot(dx, cfg.corridor_offset)
            rows.append([dx / dist, 0.0])
            rows.append([mean[1] * cfg.corridor_offset ** 2 / dist ** 3,
                         dx / dist])
            block = next(b for b in blocks if b.ap_index == ap)
            r_diag.append(block.range_velocity)
        h = np.array(rows)
        r = np.zeros((2 * len(indices), 2 * len(indices)))
        for i, blk in enumerate(r_diag):
            r[2 * i:2 * i + 2, 2 * i:2 * i + 2] = blk
        cov = np.linalg.inv(np.linalg.inv(cov) + h.T @ np.linalg.inv(r) @ h)
    slope = cfg.corridor_offset / (mean[0] ** 2 + cfg.corridor_offset ** 2)
    return cov[0, 0] * slope ** 2


class TestHpbw:
    def test_four_elements_half_wavelength(self):
        cfg = SystemConfig(antennas_per_ap=4)
        assert hpbw(cfg) == pytest.approx(0.443, rel=1e-12)

    def test_eight_elements_halves(self):
        cfg = SystemConfig(antennas_per_ap=8)
        assert hpbw(cfg) == pytest.approx(0.2215, rel=1e-12)

    def test_inverse_in_spacing(self):
        lam = SystemConfig().wavelength
        narrow = SystemConfig(antenna_spacing=lam)
        wide = SystemConfig(antenna_spacing=lam / 2)
        assert hpbw(wide) == pytest.approx(2.0 * hpbw(narrow), rel=1e-15)

    def test_single_antenna_rejected(self):
        with pytest.raises(ValueError):
            hpbw(SystemConfig(antennas_per_ap=1))


class TestVarianceThreshold:
    def test_five_percent_outage(self):
        # quantile-table oracle: Phi^-1(0.975) = 1.959964
        got = variance_threshold_from_hpbw(0.443, 0.05)
        assert got == pytest.approx((0.443 / 1.959964) ** 2, rel=1e-6)
        assert got == pytest.approx(5.109e-2, rel=1e-4)

    def test_unit_quantile_epsilon(self):
        # Phi(1) = 0.841345 -> epsilon = 2 * (1 - 0.841345) = 0.31731
        h = 0.25
        assert variance_threshold_from_hpbw(h, 0.31731) == pytest.approx(
            h ** 2, rel=1e-4)

    def test_large_epsilon(self):
        h = 0.443
        assert variance_threshold_from_hpbw(h, 0.9) == pytest.approx(
            (h / 0.12566) ** 2, rel=1e-4)

    def test_monotone_in_both_arguments(self):
        lo = variance_threshold_from_hpbw(0.2, 0.05)
        assert variance_threshold_from_hpbw(0.3, 0.05) > lo
        assert variance_threshold_from_hpbw(0.2, 0.10) > lo

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_epsilon_rejected(self, eps):
        with pytest.raises(ValueError):
            variance_threshold_from_hpbw(0.443, eps)


class TestDecideAction:
    def test_above_threshold_senses(self):
        policy = SensingPolicy(GAMMA_3DEG)
        assert decide_action(4e-3, policy) is Action.SENSING

    def test_zero_variance_idles(self):
        assert decide_action(0.0, SensingPolicy(GAMMA_3DEG)) is Action.NO_SENSING

    def test_equality_idles(self):
        assert decide_action(GAMMA_3DEG,
                             SensingPolicy(GAMMA_3DEG)) is Action.NO_SENSING

    def test_monotone(self):
        policy = SensingPolicy(GAMMA_3DEG)
        fired = [v for v in np.linspace(0, 3 * GAMMA_3DEG, 50)
                 if decide_action(v, policy) is Action.SENSING]
        assert fired and min(fired) > GAMMA_3DEG
        assert all(decide_action(v * 2, policy) is Action.SENSING
                   for v in fired)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            decide_action(-1e-9, SensingPolicy(GAMMA_3DEG))

    def test_nan_variance_rejected(self):
        # NaN fails every comparison, so it would otherwise never sense
        with pytest.raises(ValueError, match="nonnegative"):
            decide_action(math.nan, SensingPolicy(GAMMA_3DEG))


class TestPredictVariance:
    def setup_method(self):
        self.cfg = SystemConfig()
        self.model = MotionModel.from_config(self.cfg)
        self.est = StateEstimate(np.array([60.0, 25.0]), np.diag([100.0, 1.0]))
        self.blocks = [diag_block(ap, 2.0 + ap, 30.0) for ap in range(4)]

    def test_empty_selection_is_pure_prediction(self):
        got = predict_variance_for_selection(
            self.cfg, self.est, self.model, ApSelection(4, ()), self.blocks)
        assert got == pytest.approx(
            oracle_variance(self.cfg, self.est, self.model, [], []), rel=1e-12)

    def test_any_selection_beats_no_selection(self):
        empty = predict_variance_for_selection(
            self.cfg, self.est, self.model, ApSelection(4, ()), self.blocks)
        for r in range(1, 5):
            for subset in combinations(range(4), r):
                got = predict_variance_for_selection(
                    self.cfg, self.est, self.model,
                    ApSelection.from_indices(4, subset), self.blocks)
                assert got <= empty + 1e-15

    def test_superset_dominance_exhaustive_three_aps(self):
        cfg = SystemConfig(num_aps=3, ap_positions=(100, 200, 300))
        model = MotionModel.from_config(cfg)
        est = StateEstimate(np.array([150.0, 25.0]), np.diag([50.0, 1.0]))
        blocks = [diag_block(ap, 3.0, 40.0) for ap in range(3)]
        variances = {}
        for r in range(0, 4):
            for subset in combinations(range(3), r):
                variances[frozenset(subset)] = predict_variance_for_selection(
                    cfg, est, model, ApSelection.from_indices(3, subset), blocks)
        for small, v_small in variances.items():
            for big, v_big in variances.items():
                if small < big:
                    assert v_big <= v_small + 1e-15

    def test_matches_information_form_oracle(self):
        for subset in ([0], [1, 3], [0, 1, 2, 3]):
            got = predict_variance_for_selection(
                self.cfg, self.est, self.model,
                ApSelection.from_indices(4, subset), self.blocks)
            want = oracle_variance(self.cfg, self.est, self.model, subset,
                                   self.blocks)
            assert got == pytest.approx(want, rel=1e-9)


class TestSelectRxAps:
    def setup_method(self):
        self.cfg = SystemConfig()
        self.model = MotionModel.from_config(self.cfg)
        self.est = StateEstimate(np.array([60.0, 25.0]), np.diag([100.0, 1.0]))
        self.blocks = [diag_block(ap, 2.0, 30.0) for ap in range(4)]

    def test_unconstrained_returns_everything(self):
        policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=0)
        sel = select_rx_aps(self.cfg, self.est, self.model, policy, self.blocks)
        assert sel.indices == (0, 1, 2, 3)

    def test_unconstrained_drops_an_ap_without_information(self):
        # at rest exactly at AP 1's x, neither the range nor the radial
        # velocity to AP 1 moves with the state: it adds no information
        cfg = SystemConfig(process_noise_std=0.0)
        model = MotionModel.from_config(cfg)
        est = StateEstimate(np.array([cfg.ap_positions[1], 0.0]),
                            np.diag([100.0, 1.0]))
        policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=0)
        sel = select_rx_aps(cfg, est, model, policy, self.blocks)
        assert sel.indices == (0, 2, 3)

    def test_unconstrained_without_information_takes_one_ap(self):
        # every subset ties, so the fewest APs and then the lowest bitmask win
        cfg = SystemConfig(num_aps=2, ap_positions=(200.0, 200.0),
                           process_noise_std=0.0)
        model = MotionModel.from_config(cfg)
        est = StateEstimate(np.array([200.0, 0.0]), np.diag([100.0, 1.0]))
        policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=0)
        sel = select_rx_aps(cfg, est, model, policy, self.blocks[:2])
        assert sel.indices == (0,)

    def test_nearest_ap_wins_at_cardinality_one(self):
        # target closest to AP 2 (x = 375); equal cross sections make the
        # range variance scale with the squared distance
        est = StateEstimate(np.array([330.0, 25.0]), np.diag([100.0, 1.0]))
        blocks = []
        for ap in range(4):
            dist_sq = (330.0 - self.cfg.ap_positions[ap]) ** 2 + 40.0 ** 2
            blocks.append(diag_block(ap, 1e-3 * dist_sq, 30.0))
        policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=1)
        sel = select_rx_aps(self.cfg, est, self.model, policy, blocks)
        best = min(
            range(4),
            key=lambda ap: oracle_variance(self.cfg, est, self.model, [ap],
                                           blocks))
        assert sel.indices == (best,) == (2,)

    def test_tie_breaks_to_lower_index(self):
        cfg = SystemConfig(num_aps=2, ap_positions=(200.0, 200.0))
        model = MotionModel.from_config(cfg)
        est = StateEstimate(np.array([150.0, 25.0]), np.diag([100.0, 1.0]))
        blocks = [diag_block(0, 2.0, 30.0), diag_block(1, 2.0, 30.0)]
        policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=1)
        sel = select_rx_aps(cfg, est, model, policy, blocks)
        assert sel.indices == (0,)

    def test_matches_bruteforce_reenumeration(self):
        policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=2)
        rng = np.random.default_rng(21)
        for _ in range(25):
            est = StateEstimate(
                np.array([rng.uniform(0, 500), rng.uniform(10, 40)]),
                np.diag([rng.uniform(10, 200), rng.uniform(0.5, 2)]))
            blocks = [diag_block(ap, rng.uniform(1, 50), rng.uniform(10, 80))
                      for ap in range(4)]
            sel = select_rx_aps(self.cfg, est, self.model, policy, blocks)
            best = min(
                combinations(range(4), 2),
                key=lambda sub: (oracle_variance(self.cfg, est, self.model,
                                                 list(sub), blocks),
                                 sum(1 << i for i in sub)))
            assert sel.indices == best

    def test_never_worse_than_random_subsets(self):
        policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=2)
        sel = select_rx_aps(self.cfg, self.est, self.model, policy, self.blocks)
        chosen = predict_variance_for_selection(
            self.cfg, self.est, self.model, sel, self.blocks)
        rng = np.random.default_rng(9)
        for _ in range(100):
            subset = rng.choice(4, size=2, replace=False)
            random_var = predict_variance_for_selection(
                self.cfg, self.est, self.model,
                ApSelection.from_indices(4, subset), self.blocks)
            assert chosen <= random_var + 1e-12

    def test_exclude_tx_ap(self):
        policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=0,
                               exclude_tx_ap=True)
        sel = select_rx_aps(self.cfg, self.est, self.model, policy, self.blocks)
        assert self.cfg.tx_ap not in sel.indices
        assert sel.cardinality == 3

    def test_infeasible_cardinality_rejected(self):
        policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=5)
        with pytest.raises(ValueError, match="no feasible subset"):
            select_rx_aps(self.cfg, self.est, self.model, policy, self.blocks)


def criterion_4_states(cfg, count, seed):
    """Random estimates with the bound blocks of random cross sections at
    their mean, as the AP-selection criterion draws them."""
    rng = np.random.default_rng(seed)
    waveform = all_ones_waveform(cfg)
    for _ in range(count):
        est = StateEstimate(
            np.array([rng.uniform(-50, 550), rng.uniform(5, 40)]),
            np.diag([rng.uniform(5, 150), rng.uniform(0.2, 2.0)]))
        rcs = rng.exponential(cfg.mean_rcs, size=cfg.num_aps)
        yield est, crb_blocks_for_state(cfg, waveform, float(est.mean[0]),
                                        float(est.mean[1]), rcs)


def exact_inverse(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    return ((d / det, -b / det), (-c / det, a / det))


def exact_scores(cfg, predicted, blocks, rows):
    """Each row's angle variance from the information-form posterior
    (P^-1 + sum_S J_l^T R_l^-1 J_l)^-1 in exact rationals, of the float P,
    J and R the scorer reads, times the float angle slope squared."""
    cov = [[Fraction(x) for x in row] for row in predicted.covariance.tolist()]
    info = {}
    for ap in {ap for row in rows for ap in row}:
        (j00, j01), (j10, j11) = (
            [Fraction(x) for x in row] for row in measurement_jacobian(
                cfg, predicted.mean,
                ApSelection.from_indices(cfg.num_aps, [ap])).tolist())
        (r00, r01), (r10, r11) = exact_inverse(
            [[Fraction(x) for x in row] for row in next(
                b for b in blocks if b.ap_index == ap).range_velocity.tolist()])
        # J^T R^-1 J, entry by entry
        a00, a01 = j00 * r00 + j10 * r10, j00 * r01 + j10 * r11
        a10, a11 = j01 * r00 + j11 * r10, j01 * r01 + j11 * r11
        info[ap] = ((a00 * j00 + a01 * j10, a00 * j01 + a01 * j11),
                    (a10 * j00 + a11 * j10, a10 * j01 + a11 * j11))
    prior_info = exact_inverse(cov)
    slope = Fraction(angle_slope_from_position(cfg, float(predicted.mean[0])))
    scores = []
    for row in rows:
        (t00, t01), (t10, t11) = (
            [prior_info[i][j] + sum(info[ap][i][j] for ap in row)
             for j in range(2)] for i in range(2))
        scores.append(t11 / (t00 * t11 - t01 * t10) * slope ** 2)
    return scores


# (num_aps, subset_cardinality, exclude_tx_ap)
SCORED_POLICIES = [(4, 2, False), (4, 0, False), (6, 3, True), (6, 0, True),
                   (10, 4, False)]


class TestScoreSubsets:
    @pytest.mark.parametrize("num_aps,k,exclude", SCORED_POLICIES)
    def test_rows_scores_and_pick(self, num_aps, k, exclude):
        cfg = SystemConfig(num_aps=num_aps)
        model = MotionModel.from_config(cfg)
        policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=k,
                               exclude_tx_ap=exclude)
        available = available_rx_aps(cfg, policy)
        for est, blocks in criterion_4_states(cfg, 20, 404 + num_aps + k):
            predicted = predict(est, model)
            subsets, variances = score_subsets(cfg, predicted, policy, blocks)
            rows = [tuple(int(ap) for ap in row) for row in subsets]
            assert variances.shape == (len(rows),)
            if k:
                assert len(rows) == math.comb(len(available), k)
                assert sorted(rows) == list(combinations(available, k))
            else:
                assert len(rows) == 1
                assert set(rows[0]) <= set(available)
            exact = exact_scores(cfg, predicted, blocks, rows)
            for row, variance, want in zip(rows, variances, exact):
                assert abs(Fraction(float(variance)) - want) <= 1e-14 * want
                # The covariance form solves an ill-conditioned (2k, 2k)
                # innovation system, so it agrees with the information form
                # only to the 1e-9 that criterion 3 allows between the two.
                oracle = predict_variance_for_selection(
                    cfg, est, model, ApSelection.from_indices(num_aps, row),
                    blocks)
                assert variance == pytest.approx(oracle, rel=1e-9, abs=0)
            best = min(zip(variances, rows),
                       key=lambda pair: (pair[0], sum(1 << ap
                                                      for ap in pair[1])))
            chosen = select_rx_aps(cfg, est, model, policy, blocks)
            assert chosen.indices == best[1]

    @pytest.mark.parametrize("exclude", [False, True])
    @pytest.mark.parametrize("num_aps", range(2, 9))
    def test_rows_ascend_by_bitmask(self, num_aps, exclude):
        # with the transmitter excluded, 1 to 7 APs are available
        cfg = SystemConfig(num_aps=num_aps)
        est, blocks = next(criterion_4_states(cfg, 1, 3))
        available = range(int(exclude), num_aps)
        for k in range(1, len(available) + 1):
            policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=k,
                                   exclude_tx_ap=exclude)
            subsets, _ = score_subsets(cfg, est, policy, blocks)
            rows = [tuple(int(ap) for ap in row) for row in subsets]
            assert rows == sorted(combinations(available, k),
                                  key=lambda row: sum(1 << ap for ap in row))

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("block", [np.zeros((2, 2)), np.diag([4.0, 0.0]),
                                       np.full((2, 2), 3.0)])
    def test_singular_block_names_the_ap(self, block, k):
        # rejected before the closed-form inverse divides by its zero
        # determinant
        cfg = SystemConfig()
        est, blocks = next(criterion_4_states(cfg, 1, 5))
        blocks[2] = CrbBlock(block, 2)
        policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=k)
        with pytest.raises(ValueError,
                           match="bound block of AP 2 is not positive definite"):
            score_subsets(cfg, est, policy, blocks)

    def test_nan_score_rejected(self):
        # NaN compares false against every score, so no pick is the lowest
        subsets = np.array([[0, 1], [0, 2], [1, 2]])
        for variances in ([math.nan, 1.0, 2.0], [1.0, math.nan, 0.5]):
            with pytest.raises(ValueError, match="NaN"):
                _lowest_variance(3, subsets, np.array(variances))

    def test_table_is_cached_and_read_only(self):
        cfg = SystemConfig(num_aps=10)
        policy = SensingPolicy(GAMMA_3DEG, subset_cardinality=4)
        (est_a, blocks_a), (est_b, blocks_b) = criterion_4_states(cfg, 2, 8)
        first, _ = score_subsets(cfg, est_a, policy, blocks_a)
        second, _ = score_subsets(cfg, est_b, policy, blocks_b)
        assert second is first
        with pytest.raises(ValueError, match="read-only"):
            second[0, 0] = 9
        other, _ = score_subsets(
            cfg, est_b, SensingPolicy(GAMMA_3DEG, subset_cardinality=4,
                                      exclude_tx_ap=True), blocks_b)
        assert other is not first and 0 not in other


class TestApSelection:
    def test_bitmask_encoding(self):
        assert ApSelection.from_indices(4, [0, 2]).bitmask == 5
        assert ApSelection(4, ()).bitmask == 0
        assert ApSelection.full(4).bitmask == 15

    def test_from_bitmask_takes_only_the_bits_of_its_aps(self):
        for mask in range(16):
            assert ApSelection.from_bitmask(4, mask).bitmask == mask
        for mask in (16, -1, 2 ** 70):  # a bit of no AP
            with pytest.raises(ValueError, match=f"^bitmask {mask} outside "):
                ApSelection.from_bitmask(4, mask)

    def test_cardinality_and_indices(self):
        sel = ApSelection.from_indices(6, [4, 1])
        assert sel.cardinality == 2
        assert sel.indices == (1, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ApSelection.from_indices(4, [4])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ApSelection.from_indices(4, [1, -1])

    def test_numpy_integers_become_python_ints(self):
        sel = ApSelection.from_indices(np.int64(5), np.array([3, 0]))
        assert sel.indices == (0, 3)
        assert all(type(i) is int for i in sel.indices)
        assert type(sel.num_aps) is int
        assert sel == ApSelection.from_indices(5, [0, 3])

    def test_duplicates_collapse(self):
        sel = ApSelection.from_indices(4, [2, 2, 0, 2])
        assert sel.indices == (0, 2)
        assert sel.cardinality == 2

    def test_unsorted_input_is_sorted(self):
        assert ApSelection.from_indices(8, [7, 3, 5, 1]).indices == (1, 3, 5,
                                                                     7)

    def test_equal_whatever_the_input_order(self):
        a = ApSelection.from_indices(6, [4, 1, 2])
        b = ApSelection.from_indices(6, (2, 4, 1, 4))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, ApSelection.from_indices(6, [1, 2])}) == 2

    def test_bitmask_is_a_python_int(self):
        for sel in (ApSelection(4, ()), ApSelection.full(4),
                    ApSelection.from_indices(4, np.array([1, 3]))):
            assert type(sel.bitmask) is int
        assert ApSelection.from_indices(4, np.array([1, 3])).bitmask == 10
