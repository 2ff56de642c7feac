import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfisac.cli import write_records
from cfisac.comms import (build_channel, evaluate_link, predictive_precoder,
                          steered_link)
from cfisac.config import SystemConfig
from cfisac.crb import qpsk_waveform
from cfisac.geometry import TargetTruth
from cfisac.selection import ApSelection
from cfisac.sensing import Action, SensingPolicy
from cfisac import simulate
from cfisac.simulate import (RngStream, Scenario, TrafficModel,
                             crb_blocks_for_state, draw_rcs, initial_sim_state,
                             propagate_truth, run_epoch, run_scenario,
                             synthesize_measurement)
from cfisac.tracking import (MotionModel, StateEstimate,
                             angle_estimate_and_variance, measurement_model,
                             predict)

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
        states = [tm.is_on(k, stream) for k in range(12)]
        assert states == [False, False, True, True, True, False, False,
                          False, False, True, False, False]

    def test_bernoulli_determinism(self):
        tm = TrafficModel(on_probability=0.5)
        a = [tm.is_on(k, RngStream(2, "traffic")) for k in range(20)]
        b = [tm.is_on(k, RngStream(2, "traffic")) for k in range(20)]
        assert a == b

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            TrafficModel(mode="carrier-pigeon")

    def test_interval_bounds_checked_by_scenario(self):
        with pytest.raises(ValueError, match="interval"):
            make_scenario(traffic=TrafficModel(mode="intervals",
                                               intervals=((0, 99),)),
                          num_epochs=10)


class TestSynthesizeMeasurement:
    def setup_method(self):
        self.waveform = qpsk_waveform(CFG, np.random.default_rng(1))
        self.truth = TargetTruth(60.0, 25.0)
        self.rcs = np.full(CFG.num_aps, CFG.mean_rcs)
        self.sel = ApSelection.from_indices(CFG.num_aps, [0, 1])

    def test_zero_noise_scale_recovers_exact_geometry(self):
        meas = synthesize_measurement(
            CFG, self.truth, self.sel, self.rcs,
            RngStream(3, "measurement").generator(0),
            waveform=self.waveform, noise_scale=0.0)
        expected = measurement_model(
            CFG, (self.truth.position_x, self.truth.velocity_x), self.sel)
        assert_allclose(meas.values, expected, rtol=0, atol=0)

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
                CFG, self.truth, ApSelection.empty(CFG.num_aps), self.rcs,
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


class TestRunEpoch:
    def test_quiet_epoch_only_predicts(self):
        scenario = make_scenario(
            initial_estimate=StateEstimate(np.array([0.0, 25.0]),
                                           np.diag([0.01, 0.01])),
            traffic=TrafficModel(mode="intervals", intervals=()))
        state = initial_sim_state(scenario)
        record = run_epoch(state, scenario)
        assert record.action is Action.NO_SENSING
        assert record.selection.cardinality == 0
        assert record.estimate.covariance[0, 0] > 0.01  # grew by propagation
        assert record.estimate.last_sensed_epoch == 0
        assert record.rates == {}

    def test_high_uncertainty_triggers_sensing_when_idle(self):
        scenario = make_scenario(
            traffic=TrafficModel(mode="intervals", intervals=()))
        state = initial_sim_state(scenario)
        record = run_epoch(state, scenario)
        assert record.action is Action.SENSING
        assert record.selection.cardinality == 2
        assert record.estimate.last_sensed_epoch == record.epoch + 1

    def test_traffic_blocks_sensing_and_fills_rates(self):
        scenario = make_scenario(
            traffic=TrafficModel(mode="intervals", intervals=((0, 40),)))
        state = initial_sim_state(scenario)
        record = run_epoch(state, scenario)
        assert record.traffic_state == "ON"
        assert record.action is Action.NO_SENSING
        assert set(record.rates) == {"proposed", "conventional", "perfect"}


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
            assert conv.estimate.last_sensed_epoch == rec.epoch + 1
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
            _, variance = angle_estimate_and_variance(scenario.system,
                                                      predict(prev, model))
            assert variance == rec.predicted_angle_variance
            prev = rec.estimate

    def test_final_truth_position(self):
        records = run_scenario(make_scenario(num_epochs=200))
        assert records[-1].truth.position_x == pytest.approx(50.0, rel=1e-12)

    def test_disabled_arms_are_absent(self):
        records = run_scenario(make_scenario(num_epochs=10,
                                             comparison_arms=("perfect",)))
        assert records[0].arms == {}
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
        sensed = [r.epoch for r in records
                  if Action.SENSING in (r.action, *(a.action for a
                                                    in r.arms.values()))]
        assert sensed and len(sensed) < len(records)
        assert not [b for b in built if b[0] == "traffic"]
        assert [epoch for name, epoch in built if name == "rcs"] == sensed


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
        original = simulate.synthesize_measurement

        def peeking(cfg, truth, selection, rcs, rng, **kwargs):
            saved = rng.bit_generator.state
            epoch = int(saved["state"]["key"][1]) - (2 << 32)
            seen.setdefault(epoch, []).append(
                rng.standard_normal(2 * cfg.num_aps))
            rng.bit_generator.state = saved
            return original(cfg, truth, selection, rcs, rng, **kwargs)

        monkeypatch.setattr(simulate, "synthesize_measurement", peeking)
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
        batched = run_scenario(scenario)
        state = initial_sim_state(scenario)
        stepped = [run_epoch(state, scenario) for _ in range(60)]
        assert any(rec.rates for rec in batched)
        for a, b in zip(batched, stepped):
            assert a.rates == b.rates

    def test_idle_epochs_share_one_empty_selection(self):
        scenario = make_scenario(num_epochs=60, seed=11)
        state = initial_sim_state(scenario)
        records = [run_epoch(state, scenario) for _ in range(60)]
        idle = [r for r in records if r.action is Action.NO_SENSING]
        assert idle
        assert all(r.selection is state.idle_selection for r in idle)
        assert state.idle_selection.bitmask == 0
