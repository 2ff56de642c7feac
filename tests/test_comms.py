import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfisac.comms import (LinkError, LinkResult, build_channel,
                          conventional_baseline, evaluate_link,
                          perfect_angle_bound, predictive_precoder,
                          steered_link, steered_links)
from cfisac.config import SystemConfig
from cfisac.geometry import (TargetTruth, angle_from_position, array_response,
                             geometry_for_ap)
from cfisac.sensing import SensingPolicy
from cfisac.simulate import Scenario, TrafficModel, run_scenario
from cfisac.tracking import StateEstimate

CFG = SystemConfig()


def est_at(px, vx=25.0):
    return StateEstimate(np.array([px, vx]), np.eye(2))


class TestBuildChannel:
    def test_compensated_blocks_are_scaled_steering_vectors(self):
        truth = TargetTruth(80.0, 25.0)
        h = build_channel(CFG, truth, "compensated")
        n = CFG.antennas_per_ap
        for ap in range(CFG.num_aps):
            geo = geometry_for_ap(CFG, truth, ap)
            expected = math.sqrt(geo.path_gain) * array_response(CFG, geo.azimuth)
            assert_allclose(h[ap * n:(ap + 1) * n], expected, rtol=1e-14)

    def test_total_energy(self):
        truth = TargetTruth(200.0, 25.0)
        h = build_channel(CFG, truth)
        total_gain = sum(geometry_for_ap(CFG, truth, ap).path_gain
                         for ap in range(CFG.num_aps))
        assert np.vdot(h, h).real == pytest.approx(
            total_gain * CFG.antennas_per_ap, rel=1e-12)

    def test_geometric_mode_carries_los_phase(self):
        truth = TargetTruth(80.0, 25.0)
        h_comp = build_channel(CFG, truth, "compensated")
        h_geo = build_channel(CFG, truth, "geometric")
        n = CFG.antennas_per_ap
        for ap in range(CFG.num_aps):
            geo = geometry_for_ap(CFG, truth, ap)
            assert_allclose(h_geo[ap * n:(ap + 1) * n],
                            h_comp[ap * n:(ap + 1) * n] * np.exp(1j * geo.phase),
                            rtol=1e-12)

    def test_unknown_phase_mode_rejected(self):
        with pytest.raises(ValueError):
            build_channel(CFG, TargetTruth(0.0, 0.0), "psychic")


class TestPredictivePrecoder:
    def test_power_split(self):
        w = predictive_precoder(CFG, est_at(100.0), power_fraction=0.5)
        for vec in w.reshape(CFG.num_aps, -1):
            assert np.vdot(vec, vec).real == pytest.approx(CFG.tx_power / 2,
                                                           rel=1e-12)

    def test_full_power_respects_limit(self):
        w = predictive_precoder(CFG, est_at(100.0), power_fraction=1.0)
        assert w.shape == (CFG.num_aps * CFG.antennas_per_ap,)
        for vec in w.reshape(CFG.num_aps, -1):
            assert np.vdot(vec, vec).real <= CFG.tx_power + 1e-12

    def test_single_antenna_is_a_scalar(self):
        cfg = SystemConfig(antennas_per_ap=1)
        for px in (0.0, 250.0):
            w = predictive_precoder(cfg, est_at(px))
            assert w.shape == (cfg.num_aps,)
            assert_allclose(w, math.sqrt(cfg.tx_power), rtol=1e-12)

    def test_exact_estimate_gives_coherent_mr_snr(self):
        # each AP contributes sqrt(beta_l rho N); oracle from MR algebra
        truth = TargetTruth(140.0, 25.0)
        h = build_channel(CFG, truth, "compensated")
        w = predictive_precoder(CFG, est_at(truth.position_x), 1.0, "per_ap")
        res = evaluate_link(CFG, h, w)
        amp = sum(math.sqrt(geometry_for_ap(CFG, truth, ap).path_gain)
                  for ap in range(CFG.num_aps))
        want = amp ** 2 * CFG.tx_power * CFG.antennas_per_ap / CFG.noise_power
        assert res.snr == pytest.approx(want, rel=1e-9)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            predictive_precoder(CFG, est_at(0.0), power_fraction=0.0)
        with pytest.raises(ValueError):
            predictive_precoder(CFG, est_at(0.0), power_fraction=1.1)

    @pytest.mark.parametrize("angle_mode", ["per_ap", "global"])
    def test_stacked_ap_by_ap_like_the_channel(self, angle_mode):
        px = 130.0
        w = predictive_precoder(CFG, est_at(px), 0.5, angle_mode)
        amplitude = math.sqrt(0.5 * CFG.tx_power / CFG.antennas_per_ap)
        for ap, vec in enumerate(w.reshape(CFG.num_aps, -1)):
            angle = (math.atan2(px - CFG.ap_positions[ap], CFG.corridor_offset)
                     if angle_mode == "per_ap"
                     else angle_from_position(CFG, px))
            assert_allclose(vec, amplitude * array_response(CFG, angle),
                            rtol=0, atol=0)

    def test_global_mode_uses_one_angle(self):
        w = predictive_precoder(CFG, est_at(0.0), angle_mode="global")
        per_ap = w.reshape(CFG.num_aps, -1)
        for vec in per_ap[1:]:
            assert_allclose(vec, per_ap[0], rtol=0, atol=0)


class TestEvaluateLink:
    def test_unit_snr_gives_one_bit(self):
        n = CFG.antennas_per_ap
        channel = np.zeros(CFG.num_aps * n, dtype=complex)
        channel[0] = math.sqrt(CFG.noise_power)
        precoder = np.zeros(CFG.num_aps * n, dtype=complex)
        precoder[0] = 1.0
        res = evaluate_link(CFG, channel, precoder)
        assert res.snr == pytest.approx(1.0, rel=1e-12)
        assert res.rate == pytest.approx(1.0, rel=1e-12)

    def test_zero_precoder(self):
        channel = build_channel(CFG, TargetTruth(50.0, 0.0))
        zeros = np.zeros(CFG.num_aps * CFG.antennas_per_ap, dtype=complex)
        res = evaluate_link(CFG, channel, zeros)
        assert res.snr == 0.0
        assert res.rate == 0.0

    def test_single_ap_matched_snr_chain(self):
        # beta * rho * N / sigma^2 with beta at 100 m and -75 dBm noise
        cfg = SystemConfig(num_aps=2, ap_positions=(0.0, 1e6))
        px = math.sqrt(100.0 ** 2 - 40.0 ** 2)
        truth = TargetTruth(px, 0.0)
        h = build_channel(cfg, truth)
        geo = geometry_for_ap(cfg, truth, 0)
        w0 = math.sqrt(cfg.tx_power / cfg.antennas_per_ap) * array_response(
            cfg, geo.azimuth)
        precoder = np.concatenate(
            [w0, np.zeros(cfg.antennas_per_ap, dtype=complex)])
        res = evaluate_link(cfg, h, precoder)
        beta = (0.01 / (4 * math.pi * 100.0)) ** 2
        sigma2 = 10 ** (-7.5) / 1e3  # -75 dBm in watts
        assert res.snr == pytest.approx(beta * 1.0 * 4 / sigma2, rel=1e-9)
        assert res.snr == pytest.approx(8.01, rel=1e-3)
        assert res.rate == pytest.approx(math.log2(1 + res.snr), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        channel = np.zeros(3, dtype=complex)
        with pytest.raises(ValueError, match="^channel length"):
            evaluate_link(CFG, channel,
                          predictive_precoder(CFG, est_at(0.0)))

    def test_scaling_precoder_scales_snr_quadratically(self):
        truth = TargetTruth(90.0, 25.0)
        h = build_channel(CFG, truth)
        w = predictive_precoder(CFG, est_at(88.0))
        base = evaluate_link(CFG, h, w).snr
        assert evaluate_link(CFG, h, 0.5 * w).snr == pytest.approx(
            base / 4, rel=1e-12)


class TestConventionalBaseline:
    def test_half_power_halves_snr(self):
        truth = TargetTruth(120.0, 25.0)
        est = est_at(118.0)
        conv = conventional_baseline(CFG, est, truth)
        h = build_channel(CFG, truth)
        full = evaluate_link(CFG, h, predictive_precoder(CFG, est, 1.0))
        assert conv.snr == pytest.approx(full.snr / 2, rel=1e-12)

    def test_high_snr_gap_approaches_one_bit(self):
        truth = TargetTruth(140.0, 25.0)
        est = est_at(truth.position_x)
        # shrink the noise so the link runs at very high SNR
        cfg = SystemConfig(noise_power=1e-16)
        prop = evaluate_link(cfg, build_channel(cfg, truth),
                             predictive_precoder(cfg, est, 1.0))
        conv = conventional_baseline(cfg, est, truth)
        assert prop.rate - conv.rate == pytest.approx(1.0, abs=1e-3)

    def test_low_snr_gap_vanishes(self):
        truth = TargetTruth(140.0, 25.0)
        est = est_at(truth.position_x)
        cfg = SystemConfig(noise_power=1.0)  # crush the link
        prop = evaluate_link(cfg, build_channel(cfg, truth),
                             predictive_precoder(cfg, est, 1.0))
        conv = conventional_baseline(cfg, est, truth)
        assert prop.rate - conv.rate == pytest.approx(0.0, abs=1e-8)


class TestPerfectAngleBound:
    def test_equals_proposed_at_exact_estimate(self):
        truth = TargetTruth(75.0, 25.0)
        perfect = perfect_angle_bound(CFG, truth)
        proposed = evaluate_link(CFG, build_channel(CFG, truth),
                                 predictive_precoder(CFG,
                                                     est_at(truth.position_x)))
        assert perfect.snr == pytest.approx(proposed.snr, rel=1e-12)

    def test_upper_bounds_any_estimate(self):
        truth = TargetTruth(75.0, 25.0)
        perfect = perfect_angle_bound(CFG, truth).snr
        h = build_channel(CFG, truth, "compensated")
        rng = np.random.default_rng(17)
        for _ in range(1000):
            est = est_at(truth.position_x + rng.normal(0, 30))
            snr = evaluate_link(CFG, h, predictive_precoder(CFG, est)).snr
            assert snr <= perfect * (1 + 1e-12)

    def test_coherent_snr_formula(self):
        truth = TargetTruth(220.0, 25.0)
        amp = sum(math.sqrt(geometry_for_ap(CFG, truth, ap).path_gain)
                  for ap in range(CFG.num_aps))
        want = CFG.tx_power * CFG.antennas_per_ap * amp ** 2 / CFG.noise_power
        assert perfect_angle_bound(CFG, truth).snr == pytest.approx(want,
                                                                    rel=1e-9)

    def test_zero_error_is_a_local_maximum(self):
        truth = TargetTruth(75.0, 25.0)
        h = build_channel(CFG, truth, "compensated")
        best = evaluate_link(CFG, h, predictive_precoder(
            CFG, est_at(truth.position_x))).snr
        rng = np.random.default_rng(4)
        for _ in range(200):
            perturbed = est_at(truth.position_x + rng.normal(0, 5))
            snr = evaluate_link(CFG, h, predictive_precoder(CFG, perturbed)).snr
            assert snr <= best * (1 + 1e-12)

    def test_rate_monotone_in_snr(self):
        results = sorted(
            (evaluate_link(CFG, build_channel(CFG, TargetTruth(px, 0.0)),
                           predictive_precoder(CFG, est_at(px)))
             for px in (50.0, 150.0, 250.0, 350.0)),
            key=lambda r: r.snr)
        rates = [r.rate for r in results]
        assert rates == sorted(rates)


def vector_link(cfg, truth, position_x, power_fraction=1.0,
                phase_mode="compensated", angle_mode="per_ap"):
    return evaluate_link(cfg, build_channel(cfg, truth, phase_mode),
                         predictive_precoder(cfg, est_at(position_x),
                                             power_fraction, angle_mode))


class TestSteeredLink:
    """The closed form against the stacked channel and precoder vectors."""

    @pytest.mark.parametrize("phase_mode", ["compensated", "geometric"])
    @pytest.mark.parametrize("angle_mode", ["per_ap", "global"])
    @pytest.mark.parametrize("n", [2, 4, 16])
    @pytest.mark.parametrize("num_aps", [2, 5, 8])
    @pytest.mark.parametrize("power_fraction", [0.5, 1.0])
    def test_matches_the_vector_path(self, phase_mode, angle_mode, n,
                                     num_aps, power_fraction):
        cfg = SystemConfig(num_aps=num_aps, antennas_per_ap=n)
        for truth_x, est_x in ((-30.0, -20.0), (80.0, 83.5), (140.0, 140.0),
                               (260.0, 230.0), (480.0, 510.0)):
            truth = TargetTruth(truth_x, 25.0)
            got = steered_link(cfg, truth, est_x, power_fraction, phase_mode,
                               angle_mode)
            want = vector_link(cfg, truth, est_x, power_fraction, phase_mode,
                               angle_mode)
            assert got.snr == pytest.approx(want.snr, rel=1e-12)
            assert got.rate == pytest.approx(want.rate, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_exact_estimate_gives_the_full_kernel(self, n):
        # per-AP steering at the truth: every phase step error is exactly 0,
        # so each AP adds sqrt(beta_l) A N in phase
        cfg = SystemConfig(num_aps=3, antennas_per_ap=n)
        truth = TargetTruth(140.0, 25.0)
        amp = sum(math.sqrt(geometry_for_ap(cfg, truth, ap).path_gain)
                  for ap in range(cfg.num_aps))
        want = amp ** 2 * cfg.tx_power * n / cfg.noise_power
        got = steered_link(cfg, truth, truth.position_x)
        assert got.snr == pytest.approx(want, rel=1e-14)
        assert got.snr == pytest.approx(
            vector_link(cfg, truth, truth.position_x).snr, rel=1e-12)

    def test_dirichlet_null(self):
        # one AP far off, so the other's kernel sets the link; steer AP 0 so
        # that its phase step is off by exactly 2 pi / N, the kernel's null
        n = 4
        cfg = SystemConfig(num_aps=2, antennas_per_ap=n,
                           ap_positions=(0.0, 1e7))
        truth = TargetTruth(0.0, 0.0)
        scale = 2.0 * math.pi / cfg.wavelength * cfg.antenna_spacing
        est_x = cfg.corridor_offset * math.tan(math.asin(2 * math.pi / n
                                                        / scale))
        peak = steered_link(cfg, truth, truth.position_x).snr
        got = steered_link(cfg, truth, est_x).snr
        want = vector_link(cfg, truth, est_x).snr
        assert want < 1e-6 * peak
        assert got == pytest.approx(want, abs=1e-12 * peak)

    @pytest.mark.parametrize("kwargs", [
        dict(phase_mode="psychic"), dict(angle_mode="sideways"),
        dict(power_fraction=0.0), dict(power_fraction=1.1)])
    def test_bad_arguments_rejected_like_the_vector_path(self, kwargs):
        truth = TargetTruth(50.0, 25.0)
        with pytest.raises(ValueError):
            vector_link(CFG, truth, 50.0, **kwargs)
        with pytest.raises(ValueError):
            steered_link(CFG, truth, 50.0, **kwargs)

    @pytest.mark.parametrize("truth, est_x", [
        (TargetTruth(float("nan"), 25.0), 50.0),
        (TargetTruth(50.0, float("inf")), 50.0),
        (TargetTruth(50.0, 25.0), float("nan"))])
    def test_non_finite_truth_or_steering_rejected(self, truth, est_x):
        with pytest.raises(ValueError, match="finite"):
            vector_link(CFG, truth, est_x)
        with pytest.raises(ValueError, match="finite"):
            steered_link(CFG, truth, est_x)


MODES = [(phase_mode, angle_mode)
         for phase_mode in ("compensated", "geometric")
         for angle_mode in ("per_ap", "global")]


def null_steering(cfg, n):
    """Estimate that puts AP 0 (at x = 0) off by 2 pi / N in phase step,
    the first null of its Dirichlet kernel, for a target at x = 0."""
    scale = 2.0 * math.pi / cfg.wavelength * cfg.antenna_spacing
    return cfg.corridor_offset * math.tan(math.asin(2 * math.pi / n / scale))


class TestSteeredLinks:
    """The batched kernel: per-entry accuracy, batch independence, checks."""

    @pytest.mark.parametrize("phase_mode, angle_mode", MODES)
    @pytest.mark.parametrize("power_fraction", [0.5, 1.0])
    def test_mixed_batch_matches_the_vector_path(self, phase_mode, angle_mode,
                                                 power_fraction):
        n = 4
        cfg = SystemConfig(num_aps=3, antennas_per_ap=n,
                           ap_positions=(0.0, 60.0, 130.0))
        pairs = [
            # exact estimates: sin(x / 2) is exactly 0 for AP 0 here in both
            # angle modes, and for every AP with per-AP angles
            (0.0, 0.0), (140.0, 140.0),
            (0.0, null_steering(cfg, n)),  # AP 0 at its Dirichlet null
            (-30.0, -20.0), (80.0, 83.5), (260.0, 230.0), (480.0, 510.0)]
        truth_x, position_x = zip(*pairs)
        snr, rate = steered_links(cfg, truth_x, position_x, power_fraction,
                                  phase_mode, angle_mode)
        assert snr.shape == rate.shape == (len(pairs),)
        for i, (t_x, p_x) in enumerate(pairs):
            want = vector_link(cfg, TargetTruth(t_x, 25.0), p_x,
                               power_fraction, phase_mode, angle_mode)
            assert snr[i] == pytest.approx(want.snr, rel=1e-12)
            assert rate[i] == pytest.approx(want.rate, rel=1e-12)

    @pytest.mark.parametrize("phase_mode, angle_mode", MODES)
    def test_an_epoch_does_not_depend_on_its_batch(self, phase_mode,
                                                   angle_mode):
        cfg = SystemConfig(num_aps=10, antennas_per_ap=8)
        rng = np.random.default_rng(21)
        truth_x = rng.uniform(-100.0, 600.0, size=2000)
        position_x = truth_x + rng.normal(0.0, 5.0, size=2000)
        position_x[::50] = truth_x[::50]
        snr, rate = steered_links(cfg, truth_x, position_x, 1.0, phase_mode,
                                  angle_mode)
        back_snr, back_rate = steered_links(cfg, truth_x[::-1],
                                            position_x[::-1], 1.0,
                                            phase_mode, angle_mode)
        assert np.array_equal(back_snr[::-1], snr)
        assert np.array_equal(back_rate[::-1], rate)
        for i in [0, 1, 50, 777, 1998, 1999]:
            one_snr, one_rate = steered_links(cfg, truth_x[i:i + 1],
                                              position_x[i:i + 1], 1.0,
                                              phase_mode, angle_mode)
            assert one_snr[0] == snr[i] and one_rate[0] == rate[i]
            link = steered_link(cfg, TargetTruth(float(truth_x[i]), 25.0),
                                float(position_x[i]), 1.0, phase_mode,
                                angle_mode)
            assert link == (LinkResult(float(snr[i]), float(rate[i])))

    @pytest.mark.parametrize("which", ["truth", "position"])
    @pytest.mark.parametrize("index", [0, 3, 6])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_entry_rejected(self, which, index, bad):
        truth_x = np.linspace(0.0, 300.0, 7)
        position_x = truth_x + 1.0
        (truth_x if which == "truth" else position_x)[index] = bad
        with pytest.raises(ValueError, match="finite"):
            steered_links(CFG, truth_x, position_x)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            steered_links(CFG, [1.0, 2.0], [1.0])

    def test_a_non_finite_snr_names_the_link(self):
        # a truth on AP 0, 1e-300 m off the corridor, overflows the gain;
        # the tests turn a numpy RuntimeWarning into an error
        cfg = SystemConfig(corridor_offset=1e-300)
        with pytest.raises(LinkError) as caught:
            steered_links(cfg, [0.0, 125.0, 125.0], [0.0, 125.0, 0.0])
        assert isinstance(caught.value, ValueError)
        assert str(caught.value) == "downlink SNR is not finite"
        assert caught.value.link == 1

    def test_run_without_traffic_has_no_rates(self):
        scenario = Scenario(
            system=CFG, policy=SensingPolicy.from_config(CFG),
            initial_truth=TargetTruth(0.0, 25.0),
            initial_estimate=StateEstimate(np.array([0.0, 25.0]),
                                           np.diag([100.0, 1.0])),
            num_epochs=30, traffic=TrafficModel(mode="intervals"))
        records = run_scenario(scenario)
        assert len(records) == 30
        assert all(rec.rates == {} for rec in records)
