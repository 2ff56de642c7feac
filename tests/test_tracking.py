import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfisac.config import SystemConfig
from cfisac.selection import ApSelection
from cfisac.tracking import (MeasurementSet, MotionModel, StateEstimate,
                             angle_estimate_and_variance, measurement_jacobian,
                             measurement_model, predict, update)

CFG = SystemConfig()


def estimate(mean, cov, epoch=0, last=0):
    return StateEstimate(np.asarray(mean, float), np.asarray(cov, float),
                         epoch, last)


class TestMotionModel:
    def test_matrices(self):
        model = MotionModel.from_config(SystemConfig(epoch_duration=0.01,
                                                     process_noise_std=0.1))
        assert_allclose(model.transition, [[1.0, 0.01], [0.0, 1.0]])
        sq2 = 0.01
        assert_allclose(model.process_noise,
                        sq2 * np.array([[1e-8 / 4, 1e-6 / 2], [1e-6 / 2, 1e-4]]),
                        rtol=1e-15)


class TestPredict:
    def test_mean_propagation(self):
        model = MotionModel.from_config(SystemConfig(epoch_duration=0.01))
        out = predict(estimate([0.0, 25.0], np.eye(2)), model)
        assert_allclose(out.mean, [0.25, 25.0])
        assert out.epoch == 1
        assert out.last_sensed_epoch == 0

    def test_covariance_propagation_matches_matrix_arithmetic(self):
        cfg = SystemConfig(epoch_duration=0.01, process_noise_std=0.1)
        model = MotionModel.from_config(cfg)
        out = predict(estimate([0.0, 25.0], np.diag([100.0, 1.0])), model)
        f = np.array([[1.0, 0.01], [0.0, 1.0]])
        oracle = f @ np.diag([100.0, 1.0]) @ f.T + model.process_noise
        assert_allclose(out.covariance, oracle, rtol=1e-15)
        assert out.covariance[0, 0] == pytest.approx(100.0001 + 2.5e-11)
        assert out.covariance[0, 1] == pytest.approx(0.01 + 5e-9)
        assert out.covariance[1, 1] == pytest.approx(1.0 + 1e-6)

    def test_zero_noise_zero_covariance_stays_zero(self):
        cfg = SystemConfig(process_noise_std=0.0)
        model = MotionModel.from_config(cfg)
        out = predict(estimate([5.0, 1.0], np.zeros((2, 2))), model)
        assert_allclose(out.covariance, np.zeros((2, 2)), atol=0)


    def test_matches_the_validated_constructor_bit_for_bit(self):
        model = MotionModel.from_config(SystemConfig(process_noise_std=3.0))
        est = estimate([10.0, -4.0], [[9.0, 0.3], [0.3, 2.0]], 5, 2)
        for _ in range(100):
            out = predict(est, model)
            f = model.transition
            cov = f @ est.covariance @ f.T + model.process_noise
            want = StateEstimate(f @ est.mean, (cov + cov.T) / 2.0,
                                 est.epoch + 1, est.last_sensed_epoch)
            assert type(out) is StateEstimate
            assert out.mean.shape == (2,) and out.covariance.shape == (2, 2)
            assert out.mean.tobytes() == want.mean.tobytes()
            assert out.covariance.tobytes() == want.covariance.tobytes()
            assert (out.epoch, out.last_sensed_epoch) == (want.epoch, 2)
            assert out.mean is not est.mean
            assert out.covariance is not est.covariance
            est = out


class TestMeasurementModel:
    def test_directly_over_ap(self):
        sel = ApSelection.from_indices(CFG.num_aps, [0])
        vals = measurement_model(CFG, np.array([CFG.ap_x(0), 25.0]), sel)
        assert_allclose(vals, [CFG.corridor_offset, 0.0])

    def test_diagonal_values(self):
        sel = ApSelection.from_indices(CFG.num_aps, [0])
        vals = measurement_model(CFG, np.array([CFG.ap_x(0) + 40.0, 25.0]), sel)
        assert vals[0] == pytest.approx(56.568542494923804)
        assert vals[1] == pytest.approx(17.67766952966369)

    def test_two_aps_stack_in_index_order(self):
        sel = ApSelection.from_indices(CFG.num_aps, [2, 0])
        vals = measurement_model(CFG, np.array([100.0, 25.0]), sel)
        assert vals.shape == (4,)
        only0 = measurement_model(CFG, np.array([100.0, 25.0]),
                                  ApSelection.from_indices(CFG.num_aps, [0]))
        only2 = measurement_model(CFG, np.array([100.0, 25.0]),
                                  ApSelection.from_indices(CFG.num_aps, [2]))
        assert_allclose(vals, np.concatenate([only0, only2]))

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            measurement_model(CFG, np.zeros(2), ApSelection.empty(CFG.num_aps))


class TestMeasurementJacobian:
    def test_rows_at_zero_offset(self):
        sel = ApSelection.from_indices(CFG.num_aps, [0])
        jac = measurement_jacobian(CFG, np.array([CFG.ap_x(0), 25.0]), sel)
        assert_allclose(jac[0], [0.0, 0.0], atol=1e-15)
        assert_allclose(jac[1], [25.0 / CFG.corridor_offset, 0.0], rtol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        sel = ApSelection.from_indices(CFG.num_aps, [0, 2])
        h = 1e-5
        for _ in range(100):
            state = np.array([rng.uniform(-100, 600), rng.uniform(-40, 40)])
            jac = measurement_jacobian(CFG, state, sel)
            for col in range(2):
                delta = np.zeros(2)
                delta[col] = h
                numeric = (measurement_model(CFG, state + delta, sel)
                           - measurement_model(CFG, state - delta, sel)) / (2 * h)
                assert np.max(np.abs(jac[:, col] - numeric)) <= 1e-5

    def test_zero_velocity_kills_position_sensitivity_of_radvel(self):
        sel = ApSelection.from_indices(CFG.num_aps, [0, 1, 2, 3])
        jac = measurement_jacobian(CFG, np.array([123.0, 0.0]), sel)
        assert_allclose(jac[1::2, 0], np.zeros(4), atol=0)


class TestUpdate:
    def make_measurement(self, state, sel, r_scale=1.0):
        vals = measurement_model(CFG, state, sel)
        cov = r_scale * np.diag([2.0, 30.0] * sel.cardinality)
        return MeasurementSet(vals, cov, sel)

    def test_infinite_noise_is_a_no_op(self):
        sel = ApSelection.from_indices(CFG.num_aps, [0, 1])
        prior = estimate([100.0, 20.0], np.diag([50.0, 2.0]), epoch=3)
        meas = self.make_measurement(np.array([101.0, 21.0]), sel, r_scale=1e12)
        post = update(prior, meas, CFG)
        assert_allclose(post.mean, prior.mean, rtol=1e-6)
        assert_allclose(post.covariance, prior.covariance, rtol=1e-6,
                        atol=1e-6 * np.trace(prior.covariance))
        assert post.last_sensed_epoch == 3

    def test_perfect_prior_ignores_measurement(self):
        sel = ApSelection.from_indices(CFG.num_aps, [0])
        prior = estimate([100.0, 20.0], np.zeros((2, 2)))
        meas = self.make_measurement(np.array([140.0, 0.0]), sel)
        post = update(prior, meas, CFG)
        assert_allclose(post.mean, prior.mean, atol=1e-12)
        assert_allclose(post.covariance, np.zeros((2, 2)), atol=1e-15)

    def test_posterior_matches_information_form(self):
        sel = ApSelection.from_indices(CFG.num_aps, [0, 3])
        prior_cov = np.array([[80.0, 3.0], [3.0, 4.0]])
        prior = estimate([90.0, 22.0], prior_cov)
        meas = self.make_measurement(np.array([92.0, 20.0]), sel)
        post = update(prior, meas, CFG)
        jac = measurement_jacobian(CFG, prior.mean, sel)
        oracle = np.linalg.inv(np.linalg.inv(prior_cov)
                               + jac.T @ np.linalg.inv(meas.covariance) @ jac)
        assert_allclose(post.covariance, oracle, rtol=1e-9)

    def test_update_never_inflates_covariance(self):
        rng = np.random.default_rng(8)
        sel = ApSelection.from_indices(CFG.num_aps, [1, 2])
        for _ in range(30):
            a = rng.standard_normal((2, 2))
            prior_cov = a @ a.T + 0.1 * np.eye(2)
            prior = estimate([rng.uniform(0, 500), rng.uniform(-30, 30)],
                             prior_cov)
            meas = self.make_measurement(prior.mean, sel)
            post = update(prior, meas, CFG)
            gap_eigs = np.linalg.eigvalsh(prior_cov - post.covariance)
            assert gap_eigs.min() >= -1e-9 * np.trace(prior_cov)
            assert_allclose(post.covariance, post.covariance.T, rtol=0, atol=0)

    def test_singular_innovation_names_epoch_and_selection(self):
        sel = ApSelection.from_indices(CFG.num_aps, [1])
        prior = estimate([100.0, 20.0], np.zeros((2, 2)), epoch=7)
        vals = measurement_model(CFG, prior.mean, sel)
        meas = MeasurementSet(vals, np.zeros((2, 2)), sel)
        with pytest.raises(ValueError, match="epoch 7"):
            update(prior, meas, CFG)

    def test_deterministic(self):
        sel = ApSelection.from_indices(CFG.num_aps, [0, 1])
        prior = estimate([100.0, 20.0], np.diag([50.0, 2.0]))
        meas = self.make_measurement(np.array([101.0, 21.0]), sel)
        a = update(prior, meas, CFG)
        b = update(prior, meas, CFG)
        assert_allclose(a.mean, b.mean, rtol=0, atol=0)
        assert_allclose(a.covariance, b.covariance, rtol=0, atol=0)


class TestAngleEstimate:
    def test_at_origin(self):
        angle, var = angle_estimate_and_variance(
            CFG, estimate([0.0, 25.0], np.diag([1.0, 1.0])))
        assert angle == 0.0
        assert var == pytest.approx(6.25e-4, rel=1e-12)  # (1/40)^2

    def test_zero_position_variance(self):
        _, var = angle_estimate_and_variance(
            CFG, estimate([55.0, 25.0], np.zeros((2, 2))))
        assert var == 0.0

    def test_variance_vanishes_far_away(self):
        _, near = angle_estimate_and_variance(
            CFG, estimate([10.0, 0.0], np.eye(2)))
        _, far = angle_estimate_and_variance(
            CFG, estimate([1e6, 0.0], np.eye(2)))
        assert far < near
        assert far == pytest.approx(0.0, abs=1e-15)


class TestCovarianceHealth:
    def test_long_predict_update_cycle_stays_psd(self):
        model = MotionModel.from_config(CFG)
        sel = ApSelection.from_indices(CFG.num_aps, [0, 1])
        est = estimate([0.0, 25.0], np.diag([100.0, 1.0]))
        rng = np.random.default_rng(5)
        for k in range(200):
            est = predict(est, model)
            if k % 7 == 0:
                vals = measurement_model(CFG, est.mean, sel)
                vals = vals + rng.standard_normal(vals.size)
                meas = MeasurementSet(vals, np.diag([2.0, 30.0, 2.0, 30.0]), sel)
                est = update(est, meas, CFG)
            eigs = np.linalg.eigvalsh(est.covariance)
            assert eigs.min() >= -1e-9 * np.trace(est.covariance)
            assert_allclose(est.covariance, est.covariance.T, rtol=0, atol=0)
