import copy
import dataclasses
import gc
import inspect
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfisac.cli import scenario_from_dict, write_records
from cfisac.comms import (build_channel, evaluate_link, predictive_precoder,
                          steered_link)
from cfisac.config import SystemConfig
from cfisac import comms, crb, geometry, sensing, tracking
from cfisac.crb import (RankDeficientError, SensingLinkGain, WaveformSpec,
                        all_ones_waveform, assemble_measurement_covariance,
                        crb_block, range_velocity_blocks, sensing_gain)
from cfisac.geometry import TargetTruth, array_response, geometry_for_ap
from cfisac.selection import ApSelection
from cfisac.sensing import (Action, SensingPolicy, available_rx_aps,
                            decide_action, select_rx_aps)
from cfisac import simulate
from cfisac.simulate import (COMPARISON_ARMS, RngStream, Scenario, SimState,
                             TrafficModel, crb_blocks_for_state, draw_rcs,
                             run_epoch, run_scenario, synthesize_measurement)
from cfisac.tracking import (MotionModel, StateEstimate, _angle_variance,
                             _update_floats, measurement_model, predict,
                             update)
from oracles import propagate_truth, qpsk_waveform

CFG = SystemConfig()


def epochs_csv(records, scenario, out_dir):
    write_records(records, out_dir, scenario)
    return (out_dir / "epochs.csv").read_bytes()


def make_scenario(**overrides):
    defaults = dict(
        system=CFG,
        policy=SensingPolicy.from_config(CFG),
        initial_truth=TargetTruth(0.0, 25.0),
        initial_estimate=StateEstimate(np.array([0.0, 25.0]),
                                       np.diag([100.0, 1.0])),
        num_epochs=40,
        seed=7,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestPropagateTruth:
    def test_one_step(self):
        out = propagate_truth(TargetTruth(0.0, 25.0), CFG)
        assert out.position_x == pytest.approx(0.25)
        assert out.velocity_x == 25.0

    def test_two_hundred_steps_cover_fifty_meters(self):
        truth = TargetTruth(0.0, 25.0)
        for _ in range(200):
            truth = propagate_truth(truth, CFG)
        assert truth.position_x == pytest.approx(50.0, rel=1e-12)

    def test_zero_velocity_is_stationary(self):
        out = propagate_truth(TargetTruth(42.0, 0.0), CFG)
        assert out.position_x == 42.0


class TestDrawRcs:
    def test_sample_mean_near_configured_mean(self):
        rng = RngStream(123, "rcs").generator()
        draws = draw_rcs(rng, CFG, 100_000)
        assert 4.9 <= draws.mean() <= 5.1

    def test_nonnegative(self):
        rng = RngStream(9, "rcs").generator()
        assert draw_rcs(rng, CFG, 10_000).min() >= 0.0

    def test_same_stream_same_sequence(self):
        a = draw_rcs(RngStream(5, "rcs").generator(3), CFG, 8)
        b = draw_rcs(RngStream(5, "rcs").generator(3), CFG, 8)
        assert_allclose(a, b, rtol=0, atol=0)

    def test_streams_and_epochs_are_distinct(self):
        a = draw_rcs(RngStream(5, "rcs").generator(0), CFG, 8)
        b = draw_rcs(RngStream(5, "rcs").generator(1), CFG, 8)
        c = draw_rcs(RngStream(6, "rcs").generator(0), CFG, 8)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)


class TestTrafficModel:
    def test_interval_membership(self):
        tm = TrafficModel(mode="intervals", intervals=((2, 5), (9, 10)))
        stream = RngStream(1, "traffic")
        states = tm.on_flags(np.arange(12), stream).tolist()
        assert states == [False, False, True, True, True, False, False,
                          False, False, True, False, False]

    def test_bernoulli_determinism(self):
        tm = TrafficModel(on_probability=0.5)
        a = tm.on_flags(np.arange(20), RngStream(2, "traffic")).tolist()
        b = tm.on_flags(np.arange(20), RngStream(2, "traffic")).tolist()
        assert a == b

    @pytest.mark.parametrize("seed", [0, 2, 2 ** 64 - 1])
    def test_bernoulli_flag_is_the_epochs_first_uniform_below_p(self, seed):
        tm = TrafficModel(on_probability=0.5)
        stream = RngStream(seed, "traffic")
        want = [RngStream(seed, "traffic").generator(k).random() < 0.5
                for k in range(64)]
        assert [bool(tm.on_flags(np.array([k]), stream)[0])
                for k in range(64)] == want
        assert tm.on_flags(np.arange(64), stream).tolist() == want
        assert 0 < sum(want) < 64

    def test_intervals_mode_takes_only_the_default_on_probability(self):
        # no run reads it, but the config digest would
        assert TrafficModel(mode="intervals").on_probability == 0.3
        with pytest.raises(ValueError, match="^on_probability: only read in "
                           "mode 'bernoulli'$"):
            TrafficModel(mode="intervals", on_probability=0.9)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            TrafficModel(mode="carrier-pigeon")

    def test_interval_bounds_checked_by_scenario(self):
        # past the run, empty and reversed: each message states the rule
        for start, end in ((0, 99), (5, 5), (6, 2)):
            with pytest.raises(ValueError) as caught:
                make_scenario(traffic=TrafficModel(mode="intervals",
                                                   intervals=((start, end),)),
                              num_epochs=10)
            assert str(caught.value) == (
                f"traffic interval [{start}, {end}): must satisfy "
                f"0 <= start < end <= num_epochs = 10")


class TestSynthesizeMeasurement:
    def setup_method(self):
        self.waveform = qpsk_waveform(CFG, np.random.default_rng(1))
        self.truth = TargetTruth(60.0, 25.0)
        self.rcs = np.full(CFG.num_aps, CFG.mean_rcs)
        self.sel = ApSelection.from_indices(CFG.num_aps, [0, 1])

    def test_draw_is_cholesky_noise_around_true_geometry(self):
        # values = measurement_model(truth) + cholesky(truth block) @ the
        # AP's own pair of normals, rebuilt here and compared bit for bit
        sel = ApSelection.from_indices(CFG.num_aps, [3, 1])
        meas = synthesize_measurement(
            CFG, self.truth, sel, self.rcs,
            RngStream(3, "measurement").generator(0), waveform=self.waveform)
        blocks = crb_blocks_for_state(CFG, self.waveform, self.truth.position_x,
                                      self.truth.velocity_x, self.rcs)
        noise = range_velocity_blocks(blocks, sel.indices)
        normals = RngStream(3, "measurement").generator(0).standard_normal(
            2 * CFG.num_aps)
        expected = measurement_model(
            CFG, (self.truth.position_x, self.truth.velocity_x), sel)
        for pos, ap in enumerate(sel.indices):
            expected[2 * pos:2 * pos + 2] += (np.linalg.cholesky(noise[pos])
                                              @ normals[2 * ap:2 * ap + 2])
        assert meas.values.tobytes() == expected.tobytes()

    def test_vector_covers_only_selected_aps(self):
        meas = synthesize_measurement(
            CFG, self.truth, self.sel, self.rcs,
            RngStream(3, "measurement").generator(0), waveform=self.waveform)
        assert meas.values.shape == (4,)
        assert meas.covariance.shape == (4, 4)

    def test_sample_covariance_tracks_bound(self):
        blocks = crb_blocks_for_state(CFG, self.waveform, self.truth.position_x,
                                      self.truth.velocity_x, self.rcs)
        sel = ApSelection.from_indices(CFG.num_aps, [0])
        ref = blocks[0].range_velocity
        draws = np.empty((4000, 2))
        for i in range(4000):
            meas = synthesize_measurement(
                CFG, self.truth, sel, self.rcs,
                RngStream(3, "measurement").generator(i),
                waveform=self.waveform, truth_blocks=blocks)
            draws[i] = meas.values
        sample = np.cov(draws.T)
        assert np.linalg.norm(sample - ref) / np.linalg.norm(ref) < 0.1

    def test_shared_normals_across_subsets(self):
        # AP 1's noise must be identical whether or not AP 0 is selected
        kwargs = dict(waveform=self.waveform)
        both = synthesize_measurement(
            CFG, self.truth, self.sel, self.rcs,
            RngStream(3, "measurement").generator(5), **kwargs)
        only1 = synthesize_measurement(
            CFG, self.truth, ApSelection.from_indices(CFG.num_aps, [1]),
            self.rcs, RngStream(3, "measurement").generator(5), **kwargs)
        assert_allclose(both.values[2:], only1.values, rtol=0, atol=0)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            synthesize_measurement(
                CFG, self.truth, ApSelection(CFG.num_aps, ()), self.rcs,
                RngStream(3, "measurement").generator(0),
                waveform=self.waveform)

    def test_filter_mean_shifts_covariance_reference(self):
        truth_r = synthesize_measurement(
            CFG, self.truth, self.sel, self.rcs,
            RngStream(3, "measurement").generator(0), waveform=self.waveform)
        shifted = synthesize_measurement(
            CFG, self.truth, self.sel, self.rcs,
            RngStream(3, "measurement").generator(0), waveform=self.waveform,
            filter_mean=np.array([90.0, 25.0]))
        assert_allclose(truth_r.values, shifted.values, rtol=0, atol=0)
        assert not np.allclose(truth_r.covariance, shifted.covariance)


class TestCrbBlocksForState:
    @pytest.mark.parametrize("tx_ap", [0, 2])
    @pytest.mark.parametrize("power_fraction", [0.5, 1.0])
    def test_matches_matched_precoder_reference(self, tx_ap, power_fraction):
        # the closed-form hop gain against sensing_gain with the matched
        # transmit beam, on both sides of and past every AP (125 m apart)
        cfg = SystemConfig(tx_ap=tx_ap)
        waveform = all_ones_waveform(cfg)
        rcs = np.array([0.5, 5.0, 2.0, 11.0])
        for position_x in (-300.0, 0.0, 124.0, 126.0, 249.0, 251.0, 374.0,
                           376.0, 499.0, 501.0, 900.0):
            state = TargetTruth(position_x, 25.0)
            tx_geom = geometry_for_ap(cfg, state, tx_ap)
            precoder = math.sqrt(
                power_fraction * cfg.tx_power / cfg.antennas_per_ap
            ) * array_response(cfg, tx_geom.azimuth)
            got = crb_blocks_for_state(cfg, waveform, position_x, 25.0, rcs,
                                       power_fraction)
            for ap, block in enumerate(got):
                rx_geom = geometry_for_ap(cfg, state, ap)
                want = crb_block(waveform, cfg,
                                 sensing_gain(cfg, tx_geom, rx_geom, rcs[ap],
                                              precoder), ap)
                assert block.ap_index == ap
                assert_allclose(block.range_velocity, want.range_velocity,
                                rtol=1e-12, atol=0)

    @pytest.mark.parametrize("power_fraction", [0.0, -0.5, 1.5])
    def test_power_fraction_outside_unit_interval_rejected(self,
                                                           power_fraction):
        with pytest.raises(ValueError, match="power_fraction"):
            crb_blocks_for_state(CFG, all_ones_waveform(CFG), 60.0, 25.0,
                                 np.full(CFG.num_aps, CFG.mean_rcs),
                                 power_fraction)

    def test_run_builds_no_precoder_vector(self, monkeypatch):
        calls = {"sensing_gain": 0, "array_response": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for module in (crb, geometry, comms, simulate):
            for name in calls:
                if name in vars(module):
                    monkeypatch.setattr(module, name,
                                        counting(name, vars(module)[name]))
        records = run_scenario(make_scenario(num_epochs=40))
        sensing = [r for r in records
                   if any(a.action is Action.SENSING for a in r.arms.values())]
        assert sensing and any(r.rates for r in records)
        assert calls == {"sensing_gain": 0, "array_response": 0}


def unit_power_waveform(cfg, seed):
    """Random complex grid of unit average power; unlike a unit-modulus
    grid, its bound blocks have nonzero off-diagonal terms."""
    rng = np.random.default_rng(seed)
    shape = (cfg.num_subcarriers, cfg.num_symbols)
    sym = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return WaveformSpec(sym * math.sqrt(sym.size / np.sum(np.abs(sym) ** 2)))


# On both sides of and past every default AP (125 m apart).
POSITIONS = (-300.0, 0.0, 124.0, 126.0, 249.0, 251.0, 374.0, 376.0, 499.0,
             501.0, 900.0)


class TestOneBoundPath:
    """The simulator's bound stack is the unit-gain `crb_block` divided by
    each hop gain, bit for bit, and within 1e-15 of `crb_block` of that
    gain; its stacked noise and covariance are the per-AP pieces, bit for
    bit."""

    @pytest.mark.parametrize("grid", ["ones", "random"])
    @pytest.mark.parametrize("tx_ap", [0, 2])
    @pytest.mark.parametrize("power_fraction", [0.5, 1.0])
    def test_blocks_are_crb_block_of_the_closed_form_gain(
            self, grid, tx_ap, power_fraction):
        cfg = SystemConfig(tx_ap=tx_ap)
        waveform = (all_ones_waveform(cfg) if grid == "ones"
                    else unit_power_waveform(cfg, 5))
        rcs = np.array([0.5, 5.0, 2.0, 11.0])
        unit = crb_block(waveform, cfg, SensingLinkGain(1.0)).range_velocity
        for position_x in POSITIONS:
            state = TargetTruth(position_x, 25.0)
            tx = geometry_for_ap(cfg, state, tx_ap)
            got = crb_blocks_for_state(cfg, waveform, position_x, 25.0, rcs,
                                       power_fraction)
            assert [b.ap_index for b in got] == list(range(cfg.num_aps))
            for ap, block in enumerate(got):
                rx = geometry_for_ap(cfg, state, ap)
                gain = (tx.path_gain * 2.0 * math.pi / cfg.wavelength ** 2
                        * power_fraction * cfg.tx_power * cfg.antennas_per_ap
                        * rx.path_gain * rcs[ap] * rcs[ap])
                assert (block.range_velocity.tobytes()
                        == (unit / gain).tobytes())
                want = crb_block(waveform, cfg, SensingLinkGain(gain), ap)
                assert_allclose(block.range_velocity, want.range_velocity,
                                rtol=1e-15, atol=0)

    @pytest.mark.parametrize("grid", ["ones", "random"])
    @pytest.mark.parametrize("with_filter_mean", [False, True])
    @pytest.mark.parametrize("with_truth_blocks", [False, True])
    @pytest.mark.parametrize("aps", [(2,), (0, 3), (0, 1, 2, 3)])
    def test_stacked_noise_and_covariance_equal_per_ap_references(
            self, grid, with_filter_mean, with_truth_blocks, aps):
        waveform = (all_ones_waveform(CFG) if grid == "ones"
                    else unit_power_waveform(CFG, 6))
        selection = ApSelection.from_indices(CFG.num_aps, aps)
        rcs = np.array([3.0, 0.7, 9.0, 4.0])
        for epoch, position_x in enumerate(POSITIONS):
            truth = TargetTruth(position_x, 25.0)
            filter_mean = np.array([position_x + 7.5, 22.0])
            # a caller's blocks at another state and cross section
            caller = crb_blocks_for_state(CFG, waveform, position_x - 40.0,
                                          30.0, 2.0 * rcs, 0.5)
            meas = synthesize_measurement(
                CFG, truth, selection, rcs,
                RngStream(9, "measurement").generator(epoch),
                waveform=waveform,
                filter_mean=filter_mean if with_filter_mean else None,
                truth_blocks=caller if with_truth_blocks else None)

            truth_side = caller if with_truth_blocks else crb_blocks_for_state(
                CFG, waveform, position_x, 25.0, rcs)
            noise = range_velocity_blocks(truth_side, aps)
            normals = RngStream(9, "measurement").generator(
                epoch).standard_normal(2 * CFG.num_aps)
            values = measurement_model(CFG, (position_x, 25.0), selection)
            # each AP's factor times its pair of normals, written out as the
            # two float sums: a BLAS product rounds them by its kernel
            for pos, ap in enumerate(aps):
                (l00, _), (l10, l11) = np.linalg.cholesky(noise[pos]).tolist()
                z0, z1 = normals[2 * ap:2 * ap + 2].tolist()
                values[2 * pos] += l00 * z0
                values[2 * pos + 1] += l10 * z0 + l11 * z1
            filter_side = truth_side
            if with_filter_mean:
                filter_side = crb_blocks_for_state(
                    CFG, waveform, float(filter_mean[0]),
                    float(filter_mean[1]), rcs)
            covariance = assemble_measurement_covariance(filter_side,
                                                         selection)
            assert meas.values.tobytes() == values.tobytes()
            assert meas.covariance.tobytes() == covariance.tobytes()
            if grid == "random":
                assert np.count_nonzero(covariance) == 4 * len(aps)

    def test_grid_checked_once_per_run_and_noise_factored_per_sensing(
            self, monkeypatch):
        # Every bound of a run, planning or (truth, filter mean), divides
        # the one unit-gain block the run's waveform keeps. Each sensing
        # arm factors each receiver's noise block once, in closed form,
        # and the run makes no LAPACK Cholesky call.
        checks, factorizations, lapack = [], [], []
        check_waveform, cholesky = crb._check_waveform, np.linalg.cholesky
        noise_factor = simulate._noise_factor

        def counting_check(*args):
            checks.append(1)
            return check_waveform(*args)

        def counting_factor(*args):
            factorizations.append(args[0])
            return noise_factor(*args)

        def counting_cholesky(*args):
            lapack.append(1)
            return cholesky(*args)

        monkeypatch.setattr(crb, "_check_waveform", counting_check)
        monkeypatch.setattr(simulate, "_noise_factor", counting_factor)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        records = run_scenario(make_scenario(num_epochs=200))
        planned = sum(r.action is Action.SENSING for r in records)
        receivers = [ap for r in records for a in r.arms.values()
                     if a.action is Action.SENSING
                     for ap in a.selection.indices]
        assert planned and len(receivers) > 2 * len(records)
        assert factorizations == receivers
        assert lapack == []
        assert len(checks) == 1

    def test_direct_call_checks_the_grid_once(self, monkeypatch):
        checks = []
        check_waveform = crb._check_waveform

        def counting_check(*args):
            checks.append(1)
            return check_waveform(*args)

        monkeypatch.setattr(crb, "_check_waveform", counting_check)
        synthesize_measurement(
            CFG, TargetTruth(60.0, 25.0), ApSelection.full(CFG.num_aps),
            np.full(CFG.num_aps, CFG.mean_rcs),
            RngStream(3, "measurement").generator(0),
            waveform=all_ones_waveform(CFG),
            filter_mean=np.array([62.0, 24.0]))
        assert len(checks) == 1

    def test_kept_block_is_per_config(self):
        # a waveform kept for one config gives another config its own
        # block, and its grid error
        waveform, rcs = all_ones_waveform(CFG), np.array([3.0, 0.7, 9.0, 4.0])
        crb_blocks_for_state(CFG, waveform, 60.0, 25.0, rcs)
        noisier = SystemConfig(noise_power=2.0 * CFG.noise_power)
        got = crb_blocks_for_state(noisier, waveform, 60.0, 25.0, rcs)
        want = crb_blocks_for_state(noisier, all_ones_waveform(noisier), 60.0,
                                    25.0, rcs)
        for g, w in zip(got, want, strict=True):
            assert g.range_velocity.tobytes() == w.range_velocity.tobytes()
        assert not np.array_equal(
            got[0].range_velocity,
            crb_blocks_for_state(CFG, waveform, 60.0, 25.0, rcs)[0]
            .range_velocity)
        narrow = SystemConfig(num_subcarriers=128)
        for call in (
                lambda: crb_blocks_for_state(narrow, waveform, 60.0, 25.0,
                                             rcs),
                lambda: synthesize_measurement(
                    narrow, TargetTruth(60.0, 25.0), ApSelection.full(4), rcs,
                    RngStream(3, "measurement").generator(0),
                    waveform=waveform)):
            with pytest.raises(Exception) as caught:
                call()
            assert type(caught.value) is ValueError
            assert str(caught.value) == ("waveform shape (256, 14) does not "
                                         "match the configured grid (128, 14)")


class TestClosedFormFactor:
    """Each receiver's noise block is factored in closed form, bit for bit
    as `np.linalg.cholesky` factors it."""

    def test_equals_lapack_cholesky_bit_for_bit(self):
        # standard deviations 1e-4..1e2, so variances 1e-8..1e4, and
        # correlations up to +-0.999; a unit-modulus grid's blocks are
        # diagonal, so a tenth of them are
        rng = np.random.default_rng(25)
        n = 20000
        std = 10.0 ** rng.uniform(-4.0, 2.0, size=(n, 2))
        rho = rng.uniform(-0.999, 0.999, size=n)
        rho[:n // 10] = 0.0
        rho[n // 10:n // 10 + 2] = (-0.999, 0.999)
        blocks = np.empty((n, 2, 2))
        blocks[:, 0, 0], blocks[:, 1, 1] = std[:, 0] ** 2, std[:, 1] ** 2
        blocks[:, 0, 1] = blocks[:, 1, 0] = rho * std[:, 0] * std[:, 1]
        got = np.array([simulate._noise_factor(ap, r00, r10, r11)
                        for ap, ((r00, _), (r10, r11))
                        in enumerate(blocks.tolist())])
        assert got.tobytes() == np.linalg.cholesky(blocks).tobytes()

    @pytest.mark.parametrize("block", [
        [[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]],
        [[-1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]],
        [[math.nan, 0.0], [0.0, 1.0]]],
        ids=["indefinite", "zero_pivot", "negative", "singular", "nan"])
    def test_caller_block_not_positive_definite_names_the_ap(self, block):
        rcs = np.full(CFG.num_aps, CFG.mean_rcs)
        waveform = all_ones_waveform(CFG)
        blocks = crb_blocks_for_state(CFG, waveform, 60.0, 25.0, rcs)
        blocks[2] = crb.CrbBlock(np.array(block), 2)
        with pytest.raises(Exception) as caught:
            synthesize_measurement(
                CFG, TargetTruth(60.0, 25.0),
                ApSelection.from_indices(CFG.num_aps, [1, 2]), rcs,
                RngStream(3, "measurement").generator(0), waveform=waveform,
                truth_blocks=blocks)
        assert type(caught.value) is ValueError
        assert str(caught.value) == (
            "noise block of AP 2 is not positive definite")


# 200 draws over a random unit-power grid, whose bound blocks and noise
# factors are not diagonal, hashed with the covariance attached to each.
KERNEL_DRAWS = """
import hashlib, math
import numpy as np
from cfisac.config import SystemConfig
from cfisac.crb import WaveformSpec
from cfisac.geometry import TargetTruth
from cfisac.selection import ApSelection
from cfisac.simulate import RngStream, synthesize_measurement
cfg = SystemConfig()
rng = np.random.default_rng(6)
shape = (cfg.num_subcarriers, cfg.num_symbols)
sym = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
waveform = WaveformSpec(sym * math.sqrt(sym.size / np.sum(np.abs(sym) ** 2)))
selection = ApSelection.full(cfg.num_aps)
rcs = np.array([3.0, 0.7, 9.0, 4.0])
stream, digest = RngStream(9, "measurement"), hashlib.sha256()
for epoch in range(200):
    position_x = -300.0 + 6.0 * epoch
    meas = synthesize_measurement(
        cfg, TargetTruth(position_x, 25.0), selection, rcs,
        stream.generator(epoch), waveform=waveform,
        filter_mean=np.array([position_x + 7.5, 22.0]))
    digest.update(meas.values.tobytes() + meas.covariance.tobytes())
print(digest.hexdigest())
"""


def test_draws_over_a_general_grid_are_the_same_on_every_blas_kernel(
        tmp_path):
    # The grid moments under every bound and the noise added to each draw
    # are Python-float sums, so OpenBLAS's default kernel (with fused
    # multiply-add on most hosts) and Nehalem's (without) give the same
    # bits. The children run in tmp_path and write no bytecode.
    path = os.environ.get("PYTHONPATH")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("OPENBLAS_")}
    env.update(PYTHONPATH=os.pathsep.join(
        [str(Path(simulate.__file__).parents[1]), *([path] if path else [])]),
        PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    digests = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Nehalem",
                        "OPENBLAS_VERBOSE": "2"}):
        proc = subprocess.run(
            [sys.executable, "-c", KERNEL_DRAWS], env={**env, **kernel},
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            check=True)
        digests.append(proc.stdout)
    # OPENBLAS_VERBOSE makes the last child name the kernel it loaded
    if "Core: Nehalem" not in proc.stderr:
        pytest.skip("numpy's BLAS is not an OpenBLAS that honours "
                    "OPENBLAS_CORETYPE")
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", ["ref_all", "select_dense"])
def test_planning_scores_equal_score_subsets_of_the_bound_list(monkeypatch,
                                                                workload):
    # the proposed arm scores one pass at its predicted mean; the public
    # scorer of crb_blocks_for_state's list gives the same bytes
    workloads = json.loads((Path(__file__).resolve().parents[1] / "bench"
                            / "workloads.json").read_text())
    scenario = scenario_from_dict(workloads[workload]["overrides"])
    state = SimState(scenario)
    score_blocks, scored = simulate._score_blocks, []

    def checking(cfg, predicted, available, k, rows, entries):
        subsets, variances = score_blocks(cfg, predicted, available, k, rows,
                                          entries)
        planning = crb_blocks_for_state(
            cfg, state.waveform, float(predicted.mean[0]),
            float(predicted.mean[1]), state.planning_rcs)
        want = sensing.score_subsets(cfg, predicted, scenario.policy,
                                     planning)
        assert subsets.tobytes() == want[0].tobytes()
        assert variances.tobytes() == want[1].tobytes()
        scored.append(len(variances))
        return subsets, variances

    monkeypatch.setattr(simulate, "_score_blocks", checking)
    for _ in range(scenario.num_epochs):
        run_epoch(state)
    assert scored and max(scored) > 1


# fault -> (overrides of the valid inputs, exception type, message)
FAULTS = {
    "negative_rcs": ({"rcs": np.array([5.0, -1.0, 5.0, 5.0])}, ValueError,
                     "rcs must be nonnegative"),
    "zero_rcs": ({"rcs": np.array([5.0, 0.0, 5.0, 5.0])}, ValueError,
                 "sensing gain must have positive power"),
    "nan_rcs": ({"rcs": np.array([5.0, math.nan, 5.0, 5.0])}, ValueError,
                "sensing gain must have positive power"),
    # one cross section per AP of the 4-AP config, or a ValueError naming rcs
    "short_rcs": ({"rcs": np.array([5.0])}, ValueError,
                  "rcs: need shape (4,), one cross section per AP, got (1,)"),
    "column_rcs": ({"rcs": np.full((4, 1), 5.0)}, ValueError,
                   "rcs: need shape (4,), one cross section per AP, "
                   "got (4, 1)"),
    "long_rcs": ({"rcs": np.full(6, 5.0)}, ValueError,
                 "rcs: need shape (4,), one cross section per AP, got (6,)"),
    "non_finite_state": ({"position_x": math.nan}, ValueError,
                         "target truth must be finite"),
    # d^3 overflows a float this far out; the hop gain underflows to zero
    "far_state": ({"position_x": 1e110}, ValueError,
                  "sensing gain must have positive power"),
    "zero_power_fraction": ({"power_fraction": 0.0}, ValueError,
                            "power_fraction must lie in (0, 1]"),
    "large_power_fraction": ({"power_fraction": 1.5}, ValueError,
                             "power_fraction must lie in (0, 1]"),
    "waveform_shape": ({"waveform": WaveformSpec(np.ones((8, 4)))},
                       ValueError, "waveform shape (8, 4) does not match the "
                       "configured grid (256, 14)"),
    "waveform_power": ({"waveform": WaveformSpec(2.0 * np.ones((256, 14)))},
                       ValueError, "waveform average power 4.0 is not 1"),
    "rank_deficient_grid": (  # all power on subcarrier 5
        {"waveform": WaveformSpec(np.zeros((256, 14)) + np.sqrt(256.0)
                                  * (np.arange(256) == 5)[:, None])},
        RankDeficientError, "Fisher information is singular: delay "
        "unidentifiable for this waveform grid"),
}


class TestBoundErrors:
    """Each single fault raises what the per-AP `geometry_for_ap` and
    `crb_block` path raised: same type, same message. A cross-section array
    of the wrong shape raises one ValueError naming `rcs`."""

    VALID = {"rcs": np.full(CFG.num_aps, CFG.mean_rcs), "aps": (1, 3),
             "position_x": 60.0, "power_fraction": 1.0,
             "waveform": all_ones_waveform(CFG)}

    def check(self, func, fault, message=None):
        overrides, kind, default = FAULTS[fault]
        with pytest.raises(Exception) as caught:
            func({**self.VALID, **overrides})
        assert type(caught.value) is kind
        assert str(caught.value) == (message or default)

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_crb_blocks_for_state(self, fault):
        self.check(lambda v: crb_blocks_for_state(
            CFG, v["waveform"], v["position_x"], 25.0, v["rcs"],
            v["power_fraction"]), fault)

    @pytest.mark.parametrize("fault, via", [
        (fault, via) for fault in sorted(FAULTS)
        for via in ("truth", "filter_mean")])
    def test_synthesize_measurement(self, fault, via):
        # via the bound at the truth, or, given the caller's truth blocks,
        # via the bound at the filter mean
        good = crb_blocks_for_state(CFG, self.VALID["waveform"], 60.0, 25.0,
                                    self.VALID["rcs"])

        def synthesize(v):
            faulty = TargetTruth(v["position_x"], 25.0)
            extra = {}
            if via == "filter_mean":
                extra = {"truth_blocks": good,
                         "filter_mean": np.array([v["position_x"], 25.0])}
            return synthesize_measurement(
                CFG, faulty if via == "truth" else TargetTruth(60.0, 25.0),
                ApSelection(CFG.num_aps, v["aps"]), v["rcs"],
                RngStream(3, "measurement").generator(0),
                waveform=v["waveform"], power_fraction=v["power_fraction"],
                **extra)

        # the bound at the filter mean names the filter mean, not the truth
        self.check(synthesize, fault,
                   "filter mean must be finite"
                   if (fault, via) == ("non_finite_state", "filter_mean")
                   else None)

    @pytest.mark.parametrize("aps, via", [((1, 3), "truth"),
                                          ((1, 4), "truth_blocks")],
                             ids=["bound_path", "truth_blocks"])
    def test_selection_over_another_ap_count(self, aps, via):
        # a 5-AP selection on the 4-AP config: on the bound path it was
        # taken as APs {1, 3}, and with a 5-AP config's truth blocks AP 4
        # reached the measurement model as a bare IndexError
        five = SystemConfig(num_aps=5)
        extra = {}
        if via == "truth_blocks":
            extra = {"truth_blocks": crb_blocks_for_state(
                five, all_ones_waveform(five), 60.0, 25.0,
                np.full(5, five.mean_rcs))}
        with pytest.raises(Exception) as caught:
            synthesize_measurement(
                CFG, TargetTruth(60.0, 25.0), ApSelection(5, aps),
                self.VALID["rcs"], RngStream(3, "measurement").generator(0),
                waveform=self.VALID["waveform"], **extra)
        assert type(caught.value) is ValueError
        assert str(caught.value) == "selection is over 5 APs, the system has 4"


class TestRunEpoch:
    def test_quiet_epoch_only_predicts(self):
        scenario = make_scenario(
            initial_estimate=StateEstimate(np.array([0.0, 25.0]),
                                           np.diag([0.01, 0.01])),
            traffic=TrafficModel(mode="intervals", intervals=()))
        state = SimState(scenario)
        step = run_epoch(state)
        assert step == (0, Action.NO_SENSING)
        record = state.log[0]
        assert record.action is Action.NO_SENSING
        assert record.arms["proposed"].selection.cardinality == 0
        assert record.estimate.covariance[0, 0] > 0.01  # grew by propagation
        assert record.rates == {}

    def test_high_uncertainty_triggers_sensing_when_idle(self):
        scenario = make_scenario(
            traffic=TrafficModel(mode="intervals", intervals=()))
        state = SimState(scenario)
        step = run_epoch(state)
        assert step.action is Action.SENSING
        assert step.action.value == "Sensing"
        record = state.log[step.epoch]
        assert record.action is Action.SENSING
        assert record.arms["proposed"].selection.cardinality == 2

    def test_traffic_blocks_sensing_and_fills_rates(self):
        scenario = make_scenario(
            traffic=TrafficModel(mode="intervals", intervals=((0, 40),)))
        state = SimState(scenario)
        run_epoch(state)
        record = state.log[0]
        assert record.traffic_state == "ON"
        assert record.action is Action.NO_SENSING
        assert set(record.rates) == {"proposed", "conventional", "perfect"}
        # the first read after the log grows rates the new epoch too
        run_epoch(state)
        assert set(state.log[1].rates) == set(record.rates)
        assert state.log[0].rates == record.rates

    def test_stepping_past_the_last_epoch_raises(self):
        scenario = make_scenario(num_epochs=3)
        state = SimState(scenario)
        for _ in range(3):
            run_epoch(state)
        with pytest.raises(ValueError, match=r"^epoch 3 is past the "
                           r"scenario's last epoch \(num_epochs = 3\)$"):
            run_epoch(state)
        assert state.epoch == 3
        assert len(state.log) == 3


class TestRunScenario:
    def test_deterministic_records(self, tmp_path):
        scenario = make_scenario(num_epochs=25)
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        for ra, rb in zip(a, b):
            assert_allclose(ra.estimate.mean, rb.estimate.mean, rtol=0, atol=0)
            assert ra.predicted_angle_variance == rb.predicted_angle_variance
            assert ra.action is rb.action
        assert (epochs_csv(a, scenario, tmp_path / "a")
                == epochs_csv(b, scenario, tmp_path / "b"))

    def test_no_sensing_during_traffic(self):
        records = run_scenario(make_scenario(num_epochs=60, seed=11))
        for rec in records:
            if rec.traffic_state == "ON":
                assert rec.action is Action.NO_SENSING
                assert rec.arms["random"].action is Action.NO_SENSING

    def test_sensing_strictly_shrinks_position_variance(self):
        scenario = make_scenario(num_epochs=60, seed=11)
        records = run_scenario(scenario)
        model = MotionModel.from_config(scenario.system)
        prev = scenario.initial_estimate
        for rec in records:
            pre_update = predict(prev, model)
            if rec.action is Action.SENSING:
                assert (rec.estimate.covariance[0, 0]
                        < pre_update.covariance[0, 0] - 1e-12)
            prev = rec.estimate

    def test_position_variance_grows_while_idle(self):
        records = run_scenario(make_scenario(num_epochs=60, seed=11))
        for before, after in zip(records, records[1:]):
            if after.action is Action.NO_SENSING:
                assert (after.estimate.covariance[0, 0]
                        >= before.estimate.covariance[0, 0] - 1e-15)

    def test_conventional_arm_updates_every_epoch(self):
        records = run_scenario(make_scenario(num_epochs=30, seed=3))
        gamma = make_scenario().policy.variance_threshold
        for rec in records:
            conv = rec.arms["conventional"]
            assert conv.action is Action.SENSING
            assert conv.selection.cardinality == CFG.num_aps
            assert (conv.predicted_angle_variance
                    <= rec.predicted_angle_variance + gamma)

    def test_replay_reproduces_stored_link_results(self):
        scenario = make_scenario(num_epochs=50, seed=5)
        records = run_scenario(scenario)
        on = [r for r in records if r.traffic_state == "ON"]
        assert on, "expected at least one traffic epoch"
        for rec in on[:10]:
            replay = steered_link(scenario.system, rec.truth,
                                  float(rec.estimate.mean[0]),
                                  phase_mode=scenario.phase_mode,
                                  angle_mode=scenario.angle_mode)
            assert replay.snr == rec.rates["proposed"].snr
            assert replay.rate == rec.rates["proposed"].rate
            channel = build_channel(scenario.system, rec.truth,
                                    scenario.phase_mode)
            precoder = predictive_precoder(scenario.system, rec.estimate,
                                           angle_mode=scenario.angle_mode)
            vector = evaluate_link(scenario.system, channel, precoder)
            assert vector.snr == pytest.approx(replay.snr, rel=1e-12)
            assert vector.rate == pytest.approx(replay.rate, rel=1e-12)

    def test_replay_reproduces_predicted_variance(self):
        scenario = make_scenario(num_epochs=20, seed=5)
        records = run_scenario(scenario)
        model = MotionModel.from_config(scenario.system)
        prev = scenario.initial_estimate
        for rec in records:
            predicted = predict(prev, model)
            variance = _angle_variance(scenario.system,
                                       predicted.mean.item(0),
                                       predicted.covariance.item(0))
            assert variance == rec.predicted_angle_variance
            prev = rec.estimate

    def test_final_truth_position(self):
        records = run_scenario(make_scenario(num_epochs=200))
        assert records[-1].truth.position_x == pytest.approx(50.0, rel=1e-12)

    def test_disabled_arms_are_absent(self):
        records = run_scenario(make_scenario(num_epochs=10,
                                             comparison_arms=("perfect",)))
        assert list(records[0].arms) == ["proposed"]
        on = [r for r in records if r.traffic_state == "ON"]
        for rec in on:
            assert set(rec.rates) == {"proposed", "perfect"}

    def test_infeasible_policy_propagates(self):
        # rejected when the scenario is built, before any epoch runs
        with pytest.raises(ValueError, match="no feasible subset"):
            make_scenario(
                policy=SensingPolicy.from_config(CFG, subset_cardinality=9),
                traffic=TrafficModel(mode="intervals", intervals=()))

    def test_seed_changes_the_run(self, tmp_path):
        one, two = (make_scenario(num_epochs=15, seed=s) for s in (1, 2))
        assert (epochs_csv(run_scenario(one), one, tmp_path / "1")
                != epochs_csv(run_scenario(two), two, tmp_path / "2"))

    @pytest.mark.parametrize("arms", [("perfect",), ("random", "perfect")])
    def test_streams_are_built_only_when_read(self, monkeypatch, arms):
        built = []
        generator = RngStream.generator

        def counting(stream, epoch=0):
            built.append((stream.stream_id, epoch))
            return generator(stream, epoch)

        monkeypatch.setattr(RngStream, "generator", counting)
        # at seed 4 both tracked arms sense at epoch 0, and only the random
        # arm at epoch 1
        records = run_scenario(make_scenario(
            num_epochs=40, seed=4, comparison_arms=arms,
            traffic=TrafficModel(mode="intervals", intervals=((20, 30),))))
        # one cross-section draw per arm that senses, in stepping order
        sensed = [r.epoch for r in records for a in r.arms.values()
                  if a.action is Action.SENSING]
        assert sensed and len(set(sensed)) < len(records)
        assert not [b for b in built if b[0] == "traffic"]
        assert [epoch for name, epoch in built if name == "rcs"] == sensed

    def test_idle_epochs_build_no_generator(self, monkeypatch):
        # the whole run's traffic is drawn at once, so only a draw of an arm
        # that senses builds a generator, however long the run
        built = []
        generator = RngStream.generator

        def counting(stream, epoch=0):
            built.append(stream.stream_id)
            return generator(stream, epoch)

        monkeypatch.setattr(RngStream, "generator", counting)
        records = run_scenario(make_scenario(
            system=SystemConfig(epoch_duration=0.001), num_epochs=2000,
            comparison_arms=("random", "perfect")))
        assert any(r.traffic_state == "ON" for r in records)
        # cross sections and normals for every arm that senses, and the
        # random arm's receive set
        draws = sum(2 + (name == "random") for r in records
                    for name, arm in r.arms.items()
                    if arm.action is Action.SENSING)
        assert 0 < draws < 20
        assert len(built) == draws


class TestArmIndependence:
    @pytest.mark.parametrize("seed", [0, 4, 7])
    @pytest.mark.parametrize("arms", [(), ("random",), ("conventional",),
                                      ("perfect",), COMPARISON_ARMS],
                             ids=["none", "random", "conventional", "perfect",
                                  "all"])
    def test_each_arm_steps_as_in_the_full_run(self, arms, seed):
        full = run_scenario(make_scenario(num_epochs=40, seed=seed))
        scenario = make_scenario(num_epochs=40, seed=seed,
                                 comparison_arms=arms)
        records = run_scenario(scenario)
        tracked = [name for name in ("proposed", "random", "conventional")
                   if name == "proposed" or name in arms]
        rated = [name for name in ("proposed", "conventional", "perfect")
                 if name == "proposed" or name in arms]
        assert scenario.rated_methods == tuple(rated)
        assert all(list(r.rates) == (rated if r.traffic_state == "ON" else [])
                   for r in records)
        assert any(a.action is Action.SENSING
                   for r in records for a in r.arms.values())
        for rec, ref in zip(records, full, strict=True):
            assert list(rec.arms) == tracked
            for name, got in rec.arms.items():
                want = ref.arms[name]
                assert got.action is want.action
                assert got.selection.bitmask == want.selection.bitmask
                assert (got.predicted_angle_variance
                        == want.predicted_angle_variance)
                assert (got.estimate.mean.tobytes()
                        == want.estimate.mean.tobytes())
                assert (got.estimate.covariance.tobytes()
                        == want.estimate.covariance.tobytes())
            assert rec.rates == {tag: ref.rates[tag] for tag in rec.rates}


class TestArmReplay:
    # arm -> (senses only when idle and above the threshold, power fraction)
    ARMS = {"proposed": (True, 1.0), "random": (True, 1.0),
            "conventional": (False, 0.5)}

    def receivers(self, arm, scenario, prior, predicted, epoch):
        cfg, policy = scenario.system, scenario.policy
        if arm == "conventional":
            return ApSelection.full(cfg.num_aps)
        if arm == "random":
            available = available_rx_aps(cfg, policy)
            picked = RngStream(scenario.seed, "selection").generator(
                epoch).choice(len(available), size=policy.subset_cardinality,
                              replace=False)
            return ApSelection.from_indices(cfg.num_aps,
                                            [available[i] for i in picked])
        planning = crb_blocks_for_state(
            cfg, all_ones_waveform(cfg), float(predicted.mean[0]),
            float(predicted.mean[1]), np.full(cfg.num_aps, cfg.mean_rcs))
        return select_rx_aps(cfg, prior, MotionModel.from_config(cfg), policy,
                             planning)

    @pytest.mark.parametrize("seed", [0, 4, 7])
    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_every_arm_replays_bit_for_bit(self, arm, seed):
        scenario = make_scenario(num_epochs=40, seed=seed)
        cfg, policy = scenario.system, scenario.policy
        gated, power_fraction = self.ARMS[arm]
        model = MotionModel.from_config(cfg)
        est, truth = scenario.initial_estimate, scenario.initial_truth
        sensed = 0
        for rec in run_scenario(scenario):
            got = rec.arms[arm]
            k = rec.epoch
            truth = propagate_truth(truth, cfg)
            traffic_on = (RngStream(seed, "traffic").generator(k).random()
                          < scenario.traffic.on_probability)
            assert rec.traffic_state == ("ON" if traffic_on else "OFF")
            predicted = predict(est, model)
            variance = _angle_variance(cfg, predicted.mean.item(0),
                                       predicted.covariance.item(0))
            action = Action.SENSING
            if gated and (traffic_on or decide_action(variance, policy)
                          is Action.NO_SENSING):
                action = Action.NO_SENSING
            selection, posterior = ApSelection(cfg.num_aps, ()), predicted
            if action is Action.SENSING:
                sensed += 1
                selection = self.receivers(arm, scenario, est, predicted, k)
                rcs = draw_rcs(RngStream(seed, "rcs").generator(k), cfg,
                               cfg.num_aps)
                meas = synthesize_measurement(
                    cfg, truth, selection, rcs,
                    RngStream(seed, "measurement").generator(k),
                    waveform=all_ones_waveform(cfg),
                    power_fraction=power_fraction, filter_mean=predicted.mean)
                posterior = update(predicted, meas, cfg)
            assert got.action is action
            assert got.selection.bitmask == selection.bitmask
            assert got.predicted_angle_variance == variance
            assert got.estimate.mean.tobytes() == posterior.mean.tobytes()
            assert (got.estimate.covariance.tobytes()
                    == posterior.covariance.tobytes())
            est = posterior
        assert sensed


def test_each_arm_predicts_once_an_epoch(monkeypatch):
    # every arm steps its prediction once an epoch, on floats; an arm that
    # senses builds its predicted estimate with one `predict`, and selection
    # scores that estimate without predicting again. Each call is counted
    # against the run's epoch
    float_steps, estimates = [], []
    predict_floats = simulate._predict_floats

    def counting_floats(*args):
        float_steps.append(state.epoch)
        return predict_floats(*args)

    def counting_predict(est, model):
        estimates.append(state.epoch)
        return predict(est, model)

    monkeypatch.setattr(simulate, "_predict_floats", counting_floats)
    for module in (tracking, sensing, simulate):
        monkeypatch.setattr(module, "predict", counting_predict)
    scenario = make_scenario(num_epochs=30, seed=0,
                             policy=SensingPolicy(1e-9))
    state = SimState(scenario)
    for _ in range(scenario.num_epochs):
        run_epoch(state)
    records = state.log
    arms = len(records[0].arms)
    assert arms == 3
    assert sum(r.action is Action.SENSING for r in records) > 10
    assert Counter(float_steps) == {k: arms for k in range(scenario.num_epochs)}
    assert Counter(estimates) == Counter(
        r.epoch for r in records for a in r.arms.values()
        if a.action is Action.SENSING)


def test_a_sensing_arm_linearizes_once_per_state(monkeypatch):
    # a sensing arm linearizes once at the truth and once at its predicted
    # mean, whose rows the update reads from the synthesizer's pass; the
    # proposed arm adds its planning pass over the available APs
    passes, arm = Counter(), []
    linearize, plan = tracking._linearize, simulate._plan

    def planning(scenario, state, name, traffic_on):
        arm[:] = [name]
        return plan(scenario, state, name, traffic_on)

    def counting(*args):
        passes[state.epoch, arm[0]] += 1
        return linearize(*args)

    monkeypatch.setattr(simulate, "_plan", planning)
    for module in (tracking, simulate):
        monkeypatch.setattr(module, "_linearize", counting)
    scenario = make_scenario(num_epochs=30, seed=0,
                             policy=SensingPolicy(1e-9))
    state = SimState(scenario)
    for _ in range(scenario.num_epochs):
        run_epoch(state)
    sensing = [(r.epoch, name) for r in state.log
               for name, a in r.arms.items() if a.action is Action.SENSING]
    assert {name for _, name in sensing} == {"proposed", "random",
                                             "conventional"}
    assert passes == {(k, name): 3 if name == "proposed" else 2
                      for k, name in sensing}


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("workload, num_epochs", [("ref_all", 30),
                                                  ("select_dense", 12)])
def test_a_sensing_epoch_posts_what_the_public_chain_posts(
        monkeypatch, workload, num_epochs, seed):
    # the run's float cores and the public functions are one formula: each
    # sensing arm-epoch's posterior floats equal, bit for bit, those of
    # predict -> synthesize_measurement -> update from the same prior, with
    # the run's receive set and the epoch's streams
    acts, act = [], simulate._act

    def recording(scenario, state, name, truth_x, *sense):
        result = act(scenario, state, name, truth_x, *sense)
        acts.append((state.epoch, name, state.estimates[name], truth_x,
                     result))
        return result

    monkeypatch.setattr(simulate, "_act", recording)
    workloads = json.loads((Path(__file__).resolve().parents[1] / "bench"
                            / "workloads.json").read_text())
    scenario = scenario_from_dict({**workloads[workload]["overrides"],
                                   "num_epochs": num_epochs, "seed": seed})
    log = run_scenario(scenario)
    cfg, model = scenario.system, MotionModel.from_config(scenario.system)
    assert {name for _, name, *_ in acts} == set(log.arms)  # each senses
    for k, name, prior, truth_x, (posterior, mask) in acts:
        predicted = predict(StateEstimate(prior[:2], prior[2:]), model)
        meas = synthesize_measurement(
            cfg, TargetTruth(truth_x, scenario.initial_truth.velocity_x),
            ApSelection.from_bitmask(cfg.num_aps, mask),
            draw_rcs(RngStream(seed, "rcs").generator(k), cfg, cfg.num_aps),
            RngStream(seed, "measurement").generator(k),
            waveform=all_ones_waveform(cfg),
            power_fraction=simulate._ARMS[name].power_fraction,
            filter_mean=predicted.mean)
        want = update(predicted, meas, cfg)
        assert np.array(posterior).tobytes() == np.array(
            [*want.mean, *want.covariance.ravel()]).tobytes()


def test_selection_scores_the_bound_stack_without_a_solve(monkeypatch):
    # the proposed arm scores its planning bound stack in closed form: no
    # solve under sensing, and no per-AP CrbBlock list to restack
    solves, solve = Counter(), np.linalg.solve
    block_lists = []

    def counting_solve(*args, **kwargs):
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            callers.add(frame.f_globals.get("__name__"))
            frame = frame.f_back
        solves["sensing" if "cfisac.sensing" in callers else "other"] += 1
        return solve(*args, **kwargs)

    def counting_blocks(*args, **kwargs):
        block_lists.append(args)
        return crb_blocks_for_state(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(simulate, "crb_blocks_for_state", counting_blocks)
    workloads = json.loads((Path(__file__).resolve().parents[1] / "bench"
                            / "workloads.json").read_text())
    records = run_scenario(scenario_from_dict(
        workloads["select_dense"]["overrides"]))
    sensed = sum(r.action is Action.SENSING for r in records)
    assert sensed > 30
    assert solves == {"other": sensed}  # one per update: the counter works
    assert block_lists == []


# The key of every draw is (seed, code << 32 + epoch); codes are part of the
# stored outputs, so they are pinned here.
STREAM_CODES = {"rcs": 1, "measurement": 2, "traffic": 4, "selection": 5}


def fresh_generator(seed, code, epoch):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (code << 32) + epoch],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draws(gen):
    """A mix of the draws the simulator makes, as bytes."""
    return b"".join(a.tobytes() for a in (
        gen.random(3), gen.standard_normal(9), gen.exponential(5.0, size=4),
        gen.integers(0, 1000, size=5), gen.choice(7, size=3, replace=False)))


class TestStreamReuse:
    @pytest.mark.parametrize("stream_id, code", sorted(STREAM_CODES.items()))
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 63, 2 ** 64 - 1])
    def test_reused_generator_draws_like_a_new_one(self, stream_id, code,
                                                   seed):
        stream = RngStream(seed, stream_id)
        for epoch in (0, 1, 4999, 1, 0):
            assert (draws(stream.generator(epoch))
                    == draws(fresh_generator(seed, code, epoch)))

    @pytest.mark.parametrize("stream_id, code", sorted(STREAM_CODES.items()))
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
    def test_first_uniforms_equal_a_new_generators_first_draw(
            self, stream_id, code, seed):
        # runs under error::RuntimeWarning, so no uint64 scalar overflows
        epochs = [*range(64), 2 ** 31, 2 ** 32 - 1]
        got = RngStream(seed, stream_id).first_uniforms(np.array(epochs))
        want = np.array([fresh_generator(seed, code, epoch).random()
                         for epoch in epochs])
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_same_epoch_restarts_the_counter(self):
        stream = RngStream(3, "measurement")
        first = stream.generator(12)
        head = first.standard_normal(8)
        first.random(1001)  # leave a partly used buffer behind
        again = stream.generator(12)
        got = again.bit_generator.state
        want = fresh_generator(3, 2, 12).bit_generator.state
        for name in ("counter", "key"):
            assert np.array_equal(got["state"][name], want["state"][name])
        for name in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[name] == want[name]
        assert np.array_equal(again.standard_normal(8), head)

    @pytest.mark.parametrize("epoch", [-1, 2 ** 32, 2 ** 33 + 5])
    def test_an_epoch_outside_32_bits_is_rejected(self, epoch):
        # its key (code << 32) + epoch would be another stream's
        stream = RngStream(7, "rcs")
        with pytest.raises(ValueError, match=f"^epoch {epoch} outside "):
            stream.generator(epoch)
        with pytest.raises(ValueError, match=f"^epoch {epoch} outside "):
            stream.first_uniforms(np.array([0, epoch, 1]))

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 + 7])
    def test_a_seed_outside_64_bits_is_rejected(self, seed):
        with pytest.raises(ValueError, match=f"^seed {seed} outside "):
            RngStream(seed, "traffic")

    def test_an_unknown_stream_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="^unknown stream_id 'noise'"):
            RngStream(7, "noise")

    def test_a_run_builds_one_stream_per_name(self, monkeypatch):
        used = set()
        generator = RngStream.generator

        def recording(stream, epoch=0):
            used.add(id(stream))
            return generator(stream, epoch)

        monkeypatch.setattr(RngStream, "generator", recording)
        run_scenario(make_scenario(num_epochs=30, seed=4))
        assert 0 < len(used) <= len(STREAM_CODES)

    def test_arms_that_sense_together_draw_the_same_normals(self,
                                                            monkeypatch):
        seen = {}
        original = simulate._measure

        def peeking(cfg, aps, rows, entries, rng):
            saved = rng.bit_generator.state
            epoch = int(saved["state"]["key"][1]) - (2 << 32)
            seen.setdefault(epoch, []).append(
                rng.standard_normal(2 * cfg.num_aps))
            rng.bit_generator.state = saved
            return original(cfg, aps, rows, entries, rng)

        monkeypatch.setattr(simulate, "_measure", peeking)
        # at seed 4 all three sensing arms sense at epoch 0
        records = run_scenario(make_scenario(
            num_epochs=5, seed=4,
            traffic=TrafficModel(mode="intervals", intervals=())))
        assert records[0].action is Action.SENSING
        assert records[0].arms["random"].action is Action.SENSING
        assert len(seen[0]) == 3
        for epoch, normals in seen.items():
            want = fresh_generator(4, 2, epoch).standard_normal(
                2 * CFG.num_aps)
            for got in normals:
                assert got.tobytes() == want.tobytes()


class TestOpenLoopRates:
    def test_batched_rates_equal_epoch_by_epoch_rates(self):
        scenario = make_scenario(num_epochs=60, seed=11)
        cfg = scenario.system
        batched = run_scenario(scenario)
        assert any(rec.rates for rec in batched)
        for rec in batched:
            assert list(rec.rates) == (list(scenario.rated_methods)
                                       if rec.traffic_state == "ON" else [])
            for tag, link in rec.rates.items():
                if tag == "perfect":
                    alone = steered_link(cfg, rec.truth, rec.truth.position_x)
                else:
                    alone = steered_link(
                        cfg, rec.truth, float(rec.arms[tag].estimate.mean[0]),
                        0.5 if tag == "conventional" else 1.0,
                        scenario.phase_mode, scenario.angle_mode)
                assert link == alone

    def test_idle_epochs_share_one_empty_selection(self):
        scenario = make_scenario(num_epochs=60, seed=11)
        state = SimState(scenario)
        for _ in range(60):
            run_epoch(state)
        arm = state.log.arms["proposed"]
        idle = [k for k, mask in enumerate(arm.bitmask) if not mask]
        assert idle
        assert all(state.log[k].action is Action.NO_SENSING for k in idle)
        assert all(state.log[k].arms["proposed"].selection
                   == ApSelection(CFG.num_aps, ()) for k in idle)

    def test_conventional_epochs_share_one_full_selection(self):
        scenario = make_scenario(num_epochs=60, seed=11)
        state = SimState(scenario)
        for _ in range(60):
            run_epoch(state)
        arm = state.log.arms["conventional"]
        assert arm.bitmask == [state.full_selection.bitmask] * 60
        assert all(r.arms["conventional"].action is Action.SENSING
                   for r in state.log)
        assert all(r.arms["conventional"].selection == state.full_selection
                   for r in state.log)
        assert state.full_selection == ApSelection.full(CFG.num_aps)


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_every_arm_covariance_is_exactly_symmetric(seed):
    records = run_scenario(make_scenario(num_epochs=200, seed=seed))
    arms = [a for r in records for a in r.arms.values()]
    assert len(arms) == 3 * len(records)
    assert any(a.action is Action.SENSING for a in arms)
    for arm in arms:
        cov = arm.estimate.covariance
        assert cov[0, 1] == cov[1, 0]


def same_value(a, b):
    """Equal field by field, arrays by dtype and entries, every other value
    by its exact type too (a float is not an np.float64): the generated
    `__eq__` of a dataclass holding arrays is ambiguous."""
    if isinstance(a, np.ndarray):
        return (type(b) is np.ndarray and a.dtype == b.dtype
                and np.array_equal(a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_value(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return (type(b) is dict and list(a) == list(b)
                and all(same_value(a[k], b[k]) for k in a))
    return type(a) is type(b) and a == b


PER_EPOCH_VALUES = ("EpochRecord", "ArmEpoch", "StateEstimate",
                    "StateEstimate._built by predict",
                    "StateEstimate._built by update", "LinkResult",
                    "TargetTruth")


@pytest.fixture(scope="module")
def per_epoch_values():
    """One instance of each per-epoch value type: the records as the run's
    log builds them on access, and the filter's own `_built` estimates."""
    records = run_scenario(make_scenario(num_epochs=30, seed=3))
    record = next(r for r in records if r.rates)
    model = MotionModel.from_config(CFG)
    predicted = predict(record.estimate, model)
    meas = synthesize_measurement(
        CFG, record.truth, ApSelection.full(CFG.num_aps),
        np.full(CFG.num_aps, CFG.mean_rcs),
        RngStream(3, "measurement").generator(0),
        waveform=all_ones_waveform(CFG), filter_mean=predicted.mean)
    return {
        "EpochRecord": record,
        "ArmEpoch": record.arms["conventional"],
        "StateEstimate": StateEstimate([1.0, 2.0], np.eye(2)),
        "StateEstimate._built by predict": predicted,
        "StateEstimate._built by update": update(predicted, meas, CFG),
        "LinkResult": record.rates["proposed"],
        "TargetTruth": record.truth,
    }


class TestSlottedRecords:
    @pytest.mark.parametrize("name", PER_EPOCH_VALUES)
    def test_has_no_instance_dict(self, per_epoch_values, name):
        value = per_epoch_values[name]
        assert not hasattr(value, "__dict__")
        with pytest.raises(TypeError):
            vars(value)
        assert dataclasses.asdict(value)

    @pytest.mark.parametrize("name", PER_EPOCH_VALUES)
    def test_assignment_raises(self, per_epoch_values, name):
        value = per_epoch_values[name]
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
        # nor can a new name be added: the generated __setattr__ of a
        # slotted class raises TypeError for it on some Python versions
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 1
        assert not hasattr(value, "extra")

    @pytest.mark.parametrize("name", PER_EPOCH_VALUES)
    def test_round_trips_through_pickle_and_copy(self, per_epoch_values, name):
        value = per_epoch_values[name]
        for again in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
            assert again is not value
            assert same_value(again, value)


# The per-epoch types the run's log builds on access, each with distinct
# field values.
RECORD_FIELDS = {
    TargetTruth: (1.5, -2.25),
    simulate.ArmEpoch: (Action.SENSING, ApSelection.full(4), 0.125,
                        StateEstimate([1.0, 2.0], np.eye(2))),
    simulate.EpochRecord: (9, TargetTruth(1.0, 2.0), "ON",
                           {"proposed": comms.LinkResult(1.0, 1.0)}, {}),
    comms.LinkResult: (3.0, 2.0),
}


class TestRecordConstruction:
    """The record types check and convert nothing, and `StateEstimate._built`
    skips the public constructor: each value must land in its own field,
    and each record of a run's log is its epoch's entry of every column."""

    @pytest.mark.parametrize("cls", RECORD_FIELDS,
                             ids=lambda cls: cls.__name__)
    def test_each_value_lands_in_its_own_field(self, cls):
        values = RECORD_FIELDS[cls]
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(inspect.signature(cls).parameters) == names
        for value in (cls(*values), cls(**dict(zip(names, values)))):
            assert type(value) is cls
            for name, expected in zip(names, values):
                assert getattr(value, name) is expected

    def test_built_estimate_lands_in_its_own_fields(self):
        values = (np.array([1.0, 2.0]), np.array([[3.0, 0.5], [0.5, 4.0]]))
        est = StateEstimate._built(*values)
        assert type(est) is StateEstimate
        assert same_value(est, StateEstimate(*values))
        for f, value in zip(dataclasses.fields(est), values):
            assert getattr(est, f.name) is value

    def test_each_record_reads_its_epoch_of_the_columns(self):
        log = run_scenario(make_scenario(num_epochs=30, seed=3))
        assert isinstance(log, simulate.RunLog) and len(log) == 30
        assert any(r.rates for r in log)
        on = 0
        for k, rec in enumerate(log):
            assert rec.epoch == k
            assert rec.truth == TargetTruth(log.truth_x[k], log.velocity_x)
            assert rec.traffic_state == ("ON" if log.traffic_on[k] else "OFF")
            assert list(rec.arms) == list(log.arms)
            for name, arm in rec.arms.items():
                columns = log.arms[name]
                p01 = columns.p01[k]
                assert arm.action is (Action.SENSING if columns.bitmask[k]
                                      else Action.NO_SENSING)
                assert arm.selection == ApSelection.from_bitmask(
                    CFG.num_aps, columns.bitmask[k])
                assert arm.predicted_angle_variance == columns.variance[k]
                assert arm.estimate.mean.tolist() == [columns.mean_p[k],
                                                      columns.mean_v[k]]
                assert arm.estimate.covariance.tolist() == [
                    [columns.p00[k], p01], [p01, columns.p11[k]]]
            if log.traffic_on[k]:
                assert log.rated_epochs[on] == k
                assert rec.rates == {
                    tag: comms.LinkResult(float(snr[on]), float(rate[on]))
                    for tag, (snr, rate) in log.rates.items()}
                on += 1
        assert on == len(log.rated_epochs)
        assert [r.epoch for r in log[-3:]] == [27, 28, 29]
        assert same_value(log[-1], log[29]) and same_value(log[0], log[-30])
        for k in (30, -31):
            with pytest.raises(IndexError):
                log[k]

    @pytest.mark.parametrize("name", ["StateEstimate._built by predict",
                                      "StateEstimate._built by update"])
    def test_filter_estimates_survive_the_public_constructor(
            self, per_epoch_values, name):
        # __post_init__'s conversions (float arrays of shape (2,) and
        # (2, 2)) find nothing to change
        est = per_epoch_values[name]
        assert same_value(est, StateEstimate(est.mean, est.covariance))

    def test_run_floats_are_python_floats(self):
        records = run_scenario(make_scenario(num_epochs=60, seed=11))
        assert any(r.rates for r in records)
        for rec in records:
            assert type(rec.truth.position_x) is float
            assert type(rec.truth.velocity_x) is float
            for arm in rec.arms.values():
                assert type(arm.predicted_angle_variance) is float
            for link in rec.rates.values():
                assert type(link.snr) is float and type(link.rate) is float


def test_run_log_holds_at_most_400_bytes_an_epoch():
    # the heap a long run's log keeps: what deleting it frees. Per-epoch
    # record objects held about 1010 bytes an epoch here; the columns hold
    # a few floats, two pointers and the rates
    workloads = json.loads((Path(__file__).resolve().parents[1] / "bench"
                            / "workloads.json").read_text())
    scenario = scenario_from_dict(workloads["long_sparse"]["overrides"])
    assert scenario.num_epochs == 5000
    gc.collect()
    tracemalloc.start()
    try:
        log = run_scenario(scenario)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        assert len(log) == scenario.num_epochs and log.rates
        del log
        gc.collect()
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (held - left) / scenario.num_epochs <= 400


@pytest.mark.parametrize("p00", [math.nan, -1.0])
def test_traffic_on_epoch_still_checks_the_predicted_variance(monkeypatch,
                                                              p00):
    # traffic overrides the action only after decide_action has checked the
    # variance of the float prediction an idle epoch makes
    scenario = make_scenario(traffic=TrafficModel(mode="intervals",
                                                  intervals=((0, 40),)))
    state = SimState(scenario)
    assert state.log.traffic_on[0]
    monkeypatch.setattr(simulate, "_predict_floats",
                        lambda model, *prior: (0.0, 25.0, p00, 0.0, 1.0))
    with pytest.raises(ValueError,
                       match=r"^epoch 0, proposed arm: .*predicted variance"):
        run_epoch(state)


@pytest.mark.parametrize("error", [ValueError, RankDeficientError])
def test_stepping_error_names_the_epoch_and_the_arm(monkeypatch, error):
    # an update of the conventional arm fails at epoch 3; the proposed arm
    # never senses, so every update is the conventional arm's
    calls = []

    def failing_update(m0, m1, prior_cov, values, rows, meas_cov, aps):
        calls.append(aps)
        if len(calls) < 4:
            return _update_floats(m0, m1, prior_cov, values, rows, meas_cov,
                                  aps)
        if error is RankDeficientError:
            raise RankDeficientError("stand-in")
        # a zero prior and zero noise make the innovation covariance zero
        return _update_floats(m0, m1, np.zeros((2, 2)), values, rows,
                              0 * meas_cov, aps)

    monkeypatch.setattr(simulate, "_update_floats", failing_update)
    scenario = make_scenario(policy=SensingPolicy(1e9),
                             comparison_arms=("conventional",))
    state = SimState(scenario)
    for _ in range(3):
        run_epoch(state)
    estimates = dict(state.estimates)
    # the proposed arm steps before the failing one, and a retry fails
    # again: neither leaves an arm an epoch ahead
    for _ in range(2):
        with pytest.raises(error) as caught:
            run_epoch(state)
        assert type(caught.value) is error
        assert str(caught.value) == "epoch 3, conventional arm: " + (
            "stand-in" if error is RankDeficientError
            else "singular innovation covariance for APs (0, 1, 2, 3)")
        assert type(caught.value.__cause__) is error
        assert state.epoch == len(state.log) == 3
        assert state.estimates == estimates
        for columns in state.log.arms.values():
            assert [len(c) for c in vars(columns).values()] == [3] * 7
    assert calls == [(0, 1, 2, 3)] * 5


def test_an_error_that_is_not_a_value_error_propagates_as_it_is(monkeypatch):
    # a TypeError from the conventional arm's update at epoch 3 takes no
    # epoch prefix, and the epoch leaves the log and the estimates as they
    # were
    error = TypeError("stand-in")
    calls = []

    def failing_update(*args):
        calls.append(args[-1])
        if len(calls) < 4:
            return _update_floats(*args)
        raise error

    monkeypatch.setattr(simulate, "_update_floats", failing_update)
    scenario = make_scenario(policy=SensingPolicy(1e9),
                             comparison_arms=("conventional",))
    state = SimState(scenario)
    for _ in range(3):
        run_epoch(state)
    estimates = dict(state.estimates)

    def columns():
        return {name: [list(c) for c in vars(arm).values()]
                for name, arm in state.log.arms.items()}

    before = columns()
    with pytest.raises(TypeError) as caught:
        run_epoch(state)
    assert caught.value is error
    assert str(caught.value) == "stand-in"
    assert state.epoch == len(state.log) == 3
    assert state.estimates == estimates
    assert columns() == before


def test_plan_and_act_leave_the_state_as_they_found_it():
    # the deterministic half reads no stream, and neither half commits: an
    # epoch's plan can be evaluated, and its act replayed, without stepping
    scenario = scenario_from_dict({})
    state = SimState(scenario)

    def snapshot():
        return (dict(state.estimates),
                {name: [list(c) for c in vars(arm).values()]
                 for name, arm in state.log.arms.items()},
                (len(state.log), list(state.log.truth_x), state.truth_x))

    before = snapshot()
    plans = {name: simulate._plan(scenario, state, name,
                                  state.log.traffic_on[0])
             for name in state.estimates}
    assert snapshot() == before
    assert [stream._generator for stream in state.streams.values()] == [
        None] * 3
    truth_x = propagate_truth(scenario.initial_truth,
                              scenario.system).position_x
    # every arm senses at epoch 0 of the default scenario
    assert all(sense is not None for _, _, sense in plans.values())
    posteriors = {name: simulate._act(scenario, state, name, truth_x, *sense)
                  for name, (_, _, sense) in plans.items()}
    assert snapshot() == before
    # and the two halves are what run_epoch steps and commits
    run_epoch(state)
    for name, (estimate, mask) in posteriors.items():
        assert state.estimates[name] == estimate
        assert state.log.arms[name].bitmask[0] == mask
        assert state.log.arms[name].variance[0] == plans[name][1]
