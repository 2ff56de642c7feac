import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfisac.config import SPEED_OF_LIGHT, SystemConfig
from cfisac.crb import (CrbBlock, RankDeficientError, SensingLinkGain,
                        WaveformSpec, all_ones_waveform,
                        assemble_measurement_covariance, block_diagonal,
                        build_waveform_vector, crb_angle, crb_block,
                        crb_delay_doppler, sensing_gain,
                        transform_to_range_velocity)
from cfisac.geometry import ApGeometry, array_response
from cfisac.selection import ApSelection
from oracles import qpsk_waveform

GAIN = SensingLinkGain.from_amplitude(math.sqrt(2.52e-14))


def small_cfg(n_c=16, n_s=4, n=4, **kw):
    return SystemConfig(num_subcarriers=n_c, num_symbols=n_s,
                        antennas_per_ap=n, **kw)


def unit_power_symbols(cfg, rng):
    """Random complex grid normalized to unit average power (test oracle)."""
    sym = (rng.standard_normal((cfg.num_subcarriers, cfg.num_symbols))
           + 1j * rng.standard_normal((cfg.num_subcarriers, cfg.num_symbols)))
    sym *= math.sqrt(sym.size / np.sum(np.abs(sym) ** 2))
    return WaveformSpec(sym)


class TestBuildWaveformVector:
    def test_two_point_inverse_dft_by_hand(self):
        # (1/sqrt(2)) * [1+1, 1+e^{j pi}] = [sqrt(2), 0]
        cfg = small_cfg(n_c=2, n_s=1)
        vec = build_waveform_vector(all_ones_waveform(cfg), cfg, 0.0, 0.0)
        assert_allclose(vec, [math.sqrt(2.0), 0.0], atol=1e-12)

    def test_energy_preserved_for_any_shift(self):
        cfg = small_cfg(n_c=32, n_s=6)
        spec = unit_power_symbols(cfg, np.random.default_rng(1))
        for delay, doppler in ((0.0, 0.0), (1e-7, 0.0), (2e-7, 3000.0)):
            vec = build_waveform_vector(spec, cfg, delay, doppler)
            assert np.vdot(vec, vec).real == pytest.approx(
                cfg.num_subcarriers * cfg.num_symbols, rel=1e-9)

    def test_one_sample_delay_is_a_circular_shift(self):
        cfg = small_cfg(n_c=16, n_s=1)
        spec = all_ones_waveform(cfg)
        base = build_waveform_vector(spec, cfg, 0.0, 0.0)
        shifted = build_waveform_vector(
            spec, cfg, 1.0 / (cfg.num_subcarriers * cfg.subcarrier_spacing), 0.0)
        assert_allclose(shifted, np.roll(base, 1), atol=1e-12)

    def test_delay_outside_cp_window_rejected(self):
        cfg = small_cfg()
        spec = all_ones_waveform(cfg)
        with pytest.raises(ValueError, match="cyclic-prefix"):
            build_waveform_vector(spec, cfg, cfg.cp_delay_window, 0.0)
        with pytest.raises(ValueError):
            build_waveform_vector(spec, cfg, -1e-9, 0.0)

    def test_wrong_grid_shape_rejected(self):
        cfg = small_cfg(n_c=16, n_s=4)
        bad = WaveformSpec(np.ones((8, 4)))
        with pytest.raises(ValueError, match="shape"):
            build_waveform_vector(bad, cfg, 0.0, 0.0)

    def test_grid_that_is_not_2d_rejected(self):
        with pytest.raises(ValueError, match=r"^waveform grid must be 2-D, "
                           r"got shape \(16,\)$"):
            WaveformSpec(np.ones(16))

    @pytest.mark.parametrize("doppler", [math.nan, math.inf])
    def test_non_finite_doppler_rejected(self, doppler):
        cfg = small_cfg()
        with pytest.raises(ValueError, match=r"^doppler must be finite$"):
            build_waveform_vector(all_ones_waveform(cfg), cfg, 0.0, doppler)

    def test_non_unit_power_grid_rejected(self):
        cfg = small_cfg(n_c=16, n_s=4)
        bad = WaveformSpec(2.0 * np.ones((16, 4)))
        with pytest.raises(ValueError, match="power"):
            build_waveform_vector(bad, cfg, 0.0, 0.0)


def closed_form_delay_var(cfg, gain):
    n = cfg.antennas_per_ap
    n_c, n_s = cfg.num_subcarriers, cfg.num_symbols
    return (cfg.noise_power * 12.0
            / (2 * gain.magnitude_sq * n * (2 * math.pi * cfg.subcarrier_spacing) ** 2
               * n_c * n_s * (n_c ** 2 - 1)))


def closed_form_doppler_var(cfg, gain):
    n = cfg.antennas_per_ap
    n_c, n_s = cfg.num_subcarriers, cfg.num_symbols
    return (cfg.noise_power * 12.0
            / (2 * gain.magnitude_sq * n * (2 * math.pi * cfg.symbol_duration) ** 2
               * n_c * n_s * (n_s ** 2 - 1)))


class TestDelayDopplerBound:
    def test_unit_modulus_closed_forms(self):
        cfg = small_cfg()
        for spec in (all_ones_waveform(cfg),
                     qpsk_waveform(cfg, np.random.default_rng(5))):
            crb = crb_delay_doppler(spec, cfg, GAIN, 0.2, 0.0, 0.0)
            assert crb[0, 0] == pytest.approx(closed_form_delay_var(cfg, GAIN),
                                              rel=1e-9)
            assert crb[1, 1] == pytest.approx(closed_form_doppler_var(cfg, GAIN),
                                              rel=1e-9)
            cross_scale = math.sqrt(crb[0, 0] * crb[1, 1])
            assert abs(crb[0, 1]) <= 1e-9 * cross_scale

    def test_matches_finite_difference_fim(self):
        # Joint numeric FIM over (delay, doppler, Re alpha, Im alpha) from
        # central differences of the full mean signal; invert and compare
        # the (delay, doppler) block.
        cfg = small_cfg(n_c=16, n_s=4)
        rng = np.random.default_rng(11)
        spec = unit_power_symbols(cfg, rng)
        azimuth = 0.35
        alpha = math.sqrt(GAIN.magnitude_sq) * np.exp(1j * 0.7)
        steer = array_response(cfg, azimuth)

        def mean_signal(tau, nu, re_a, im_a):
            wave = build_waveform_vector(spec, cfg, tau, nu)
            return (re_a + 1j * im_a) * np.kron(steer, wave)

        params = [1e-7, 500.0, alpha.real, alpha.imag]
        steps = [1e-11, 1e-3, abs(alpha) * 1e-6, abs(alpha) * 1e-6]
        cols = []
        for i in range(4):
            hi, lo = list(params), list(params)
            hi[i] += steps[i]
            lo[i] -= steps[i]
            cols.append((mean_signal(*hi) - mean_signal(*lo)) / (2 * steps[i]))
        jac = np.stack(cols, axis=1)
        fim = (2.0 / cfg.noise_power) * (jac.conj().T @ jac).real
        oracle = np.linalg.inv(fim)[:2, :2]

        crb = crb_delay_doppler(spec, cfg, GAIN, azimuth, params[0], params[1])
        assert_allclose(crb, oracle, rtol=1e-5)

    def test_invariant_to_global_phase_rotation(self):
        cfg = small_cfg()
        rng = np.random.default_rng(2)
        spec = unit_power_symbols(cfg, rng)
        rotated = WaveformSpec(spec.symbols * np.exp(1j * 1.234))
        a = crb_delay_doppler(spec, cfg, GAIN, 0.1, 0.0, 0.0)
        b = crb_delay_doppler(rotated, cfg, GAIN, 0.1, 0.0, 0.0)
        assert_allclose(a, b, rtol=1e-12)

    def test_gain_scaling_divides_bound(self):
        cfg = small_cfg()
        spec = qpsk_waveform(cfg, np.random.default_rng(3))
        base = crb_delay_doppler(spec, cfg, GAIN, 0.1, 0.0, 0.0)
        doubled = SensingLinkGain(GAIN.magnitude_sq * 2.0)
        assert np.array_equal(
            crb_delay_doppler(spec, cfg, doubled, 0.1, 0.0, 0.0), base / 2.0)
        tripled = SensingLinkGain.from_amplitude(
            math.sqrt(GAIN.magnitude_sq) * math.sqrt(3.0))
        assert_allclose(crb_delay_doppler(spec, cfg, tripled, 0.1, 0.0, 0.0),
                        base / 3.0, rtol=1e-12)

    def test_symmetric_positive_definite(self):
        cfg = small_cfg()
        rng = np.random.default_rng(4)
        for trial in range(5):
            spec = unit_power_symbols(cfg, rng)
            crb = crb_delay_doppler(spec, cfg, GAIN, 0.1, 0.0, 0.0)
            assert_allclose(crb, crb.T, rtol=0, atol=0)
            eigs = np.linalg.eigvalsh(crb)
            assert eigs.min() >= -1e-12 * eigs.max()
            assert eigs.min() > 0

    def test_single_symbol_flags_doppler(self):
        cfg = small_cfg(n_s=1)
        spec = all_ones_waveform(cfg)
        with pytest.raises(RankDeficientError, match="doppler"):
            crb_delay_doppler(spec, cfg, GAIN, 0.0, 0.0, 0.0)

    def test_zero_gain_rejected(self):
        cfg = small_cfg()
        spec = all_ones_waveform(cfg)
        with pytest.raises(ValueError):
            crb_delay_doppler(spec, cfg, SensingLinkGain.from_amplitude(0.0),
                              0.0, 0.0, 0.0)


def closed_form_angle_var(cfg, gain, energy, azimuth):
    n = cfg.antennas_per_ap
    return (cfg.noise_power * cfg.wavelength ** 2 * 12.0
            / (2 * gain.magnitude_sq * energy
               * (2 * math.pi * cfg.antenna_spacing * math.cos(azimuth)) ** 2
               * n * (n ** 2 - 1)))


class TestAngleBound:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_ula_closed_form(self, n):
        cfg = small_cfg(n=n)
        spec = qpsk_waveform(cfg, np.random.default_rng(6))
        energy = cfg.num_subcarriers * cfg.num_symbols
        rng = np.random.default_rng(7)
        for azimuth in rng.uniform(-1.4, 1.4, size=20):
            got = crb_angle(spec, cfg, GAIN, azimuth, 0.0, 0.0)
            want = closed_form_angle_var(cfg, GAIN, energy, azimuth)
            assert got == pytest.approx(want, rel=1e-9)

    def test_doubling_gain_halves_bound(self):
        cfg = small_cfg()
        spec = all_ones_waveform(cfg)
        doubled = SensingLinkGain(GAIN.magnitude_sq * 2.0)
        assert crb_angle(spec, cfg, doubled, 0.3, 0.0, 0.0) == pytest.approx(
            crb_angle(spec, cfg, GAIN, 0.3, 0.0, 0.0) / 2.0, rel=1e-12)

    def test_cosine_squared_ratio(self):
        cfg = small_cfg()
        spec = all_ones_waveform(cfg)
        at_zero = crb_angle(spec, cfg, GAIN, 0.0, 0.0, 0.0)
        at_sixty = crb_angle(spec, cfg, GAIN, math.pi / 3, 0.0, 0.0)
        assert at_sixty / at_zero == pytest.approx(4.0, rel=1e-9)

    def test_single_antenna_rejected(self):
        cfg = small_cfg(n=1)
        with pytest.raises(RankDeficientError):
            crb_angle(all_ones_waveform(cfg), cfg, GAIN, 0.0, 0.0, 0.0)

    def test_zero_gain_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ValueError,
                           match=r"^sensing gain must have positive power$"):
            crb_angle(all_ones_waveform(cfg), cfg, SensingLinkGain(0.0),
                      0.0, 0.0, 0.0)

    @pytest.mark.parametrize("cfg, azimuth, message", [
        # 2 |alpha|^2 ||s||^2 / sigma_n^2 of the smallest positive gain
        # underflows to zero against a noise power of 1e10
        (small_cfg(noise_power=1e10), 0.0,
         "angle Fisher information is not positive"),
        # with the default noise power it is subnormal near endfire, and
        # its inverse overflows
        (SystemConfig(), 1.5, "angle bound is not finite")],
        ids=["zero", "subnormal"])
    def test_underflowing_information_rejected(self, cfg, azimuth, message):
        with pytest.raises(RankDeficientError, match=f"^{message}$"):
            crb_angle(all_ones_waveform(cfg), cfg, SensingLinkGain(5e-324),
                      azimuth, 0.0, 0.0)

    def test_endfire_singularity_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            crb_angle(all_ones_waveform(cfg), cfg, GAIN, math.pi / 2, 0.0, 0.0)


class TestRangeVelocityTransform:
    def test_identity_maps_to_diagonal_scales(self):
        cfg = small_cfg(carrier_frequency=30e9)
        block = transform_to_range_velocity(np.eye(2), cfg)
        c = SPEED_OF_LIGHT
        assert_allclose(np.diag(block.range_velocity),
                        [c ** 2, c ** 2 / (4 * 30e9 ** 2)])

    def test_velocity_scale_value(self):
        cfg = small_cfg(carrier_frequency=30e9)
        block = transform_to_range_velocity(np.diag([0.0, 1.0]), cfg)
        # (3e8 / 6e10)^2 = 0.005^2, worked out by hand
        assert block.range_velocity[1, 1] == pytest.approx(2.5e-5, rel=1e-12)

    def test_off_diagonal_bilinear_scaling(self):
        cfg = small_cfg(carrier_frequency=30e9)
        q = 3.7e-3
        block = transform_to_range_velocity(np.array([[1.0, q], [q, 2.0]]),
                                            cfg)
        c = SPEED_OF_LIGHT
        assert block.range_velocity[0, 1] == pytest.approx(
            q * c * c / (2 * 30e9), rel=1e-12)

    def test_rejects_asymmetric_input(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            transform_to_range_velocity(np.array([[1.0, 0.5], [0.0, 1.0]]),
                                        cfg)

    def test_rejects_a_bound_that_is_not_2x2(self):
        with pytest.raises(ValueError,
                           match=r"^delay-Doppler bound must be 2x2$"):
            transform_to_range_velocity(np.eye(3), small_cfg())

    def test_full_chain_block_structure(self):
        # blocks produced by the real bound chain stay symmetric positive definite
        cfg = small_cfg()
        spec = qpsk_waveform(cfg, np.random.default_rng(31))
        for azimuth in (-0.8, 0.0, 0.6):
            dd = crb_delay_doppler(spec, cfg, GAIN, azimuth, 0.0, 0.0)
            block = transform_to_range_velocity(dd, cfg, ap_index=1)
            rv = block.range_velocity
            assert_allclose(rv, rv.T, rtol=0, atol=0)
            assert np.linalg.eigvalsh(rv).min() > 0


def fft_block(spec, cfg, gain, azimuth, ap_index=0):
    """The general-grid FFT chain the closed form must reproduce."""
    return transform_to_range_velocity(
        crb_delay_doppler(spec, cfg, gain, azimuth, 0.0, 0.0), cfg, ap_index)


def assert_blocks_match(got, want, rtol):
    # Range and velocity variances differ by orders of magnitude, so compare
    # in correlation units: diagonals relative to themselves, off-diagonals
    # relative to the geometric mean of their diagonals.
    sd = np.sqrt(np.diag(want.range_velocity))
    scale = np.outer(sd, sd)
    assert_allclose(got.range_velocity / scale, want.range_velocity / scale,
                    rtol=0, atol=rtol)
    assert got.ap_index == want.ap_index


class TestClosedFormBlock:
    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("grid", ["ones", "qpsk", "random"])
    def test_matches_fft_oracle(self, n, grid):
        cfg = small_cfg(n=n)
        rng = np.random.default_rng(40 + n)
        spec = {"ones": lambda: all_ones_waveform(cfg),
                "qpsk": lambda: qpsk_waveform(cfg, rng),
                "random": lambda: unit_power_symbols(cfg, rng)}[grid]()
        if grid == "random":
            # not unit-modulus: the delay-Doppler coupling must be exercised
            cov_aa, cov_bb, cov_ab = spec.index_cov
            assert abs(cov_ab) > 1e-3 * math.sqrt(cov_aa * cov_bb)
        for azimuth in rng.uniform(-1.4, 1.4, size=20):
            assert_blocks_match(crb_block(spec, cfg, GAIN, 2),
                                fft_block(spec, cfg, GAIN, azimuth, 2),
                                rtol=1e-12)

    def test_default_grid_matches_fft_oracle(self):
        cfg = SystemConfig()
        spec = qpsk_waveform(cfg, np.random.default_rng(8))
        for azimuth in (-1.2, -0.3, 0.0, 0.9):
            assert_blocks_match(crb_block(spec, cfg, GAIN),
                                fft_block(spec, cfg, GAIN, azimuth), rtol=1e-12)

    def test_unit_modulus_block_is_diagonal(self):
        cfg = small_cfg()
        block = crb_block(all_ones_waveform(cfg), cfg, GAIN)
        rv = block.range_velocity
        assert rv[0, 1] == 0.0 and rv[1, 0] == 0.0
        assert rv[0, 0] == pytest.approx(
            SPEED_OF_LIGHT ** 2 * closed_form_delay_var(cfg, GAIN), rel=1e-12)

    @pytest.mark.parametrize("case", ["one_symbol", "one_subcarrier",
                                      "first_subcarrier"])
    def test_singular_grids_rejected_like_the_oracle(self, case):
        if case == "one_symbol":
            cfg = small_cfg(n_s=1)
            spec, weak = all_ones_waveform(cfg), "doppler"
        else:
            cfg = small_cfg()
            sym = np.zeros((cfg.num_subcarriers, cfg.num_symbols), complex)
            row = 5 if case == "one_subcarrier" else 0
            sym[row] = math.sqrt(cfg.num_subcarriers)
            spec, weak = WaveformSpec(sym), "delay"
        with pytest.raises(RankDeficientError, match=weak) as oracle:
            fft_block(spec, cfg, GAIN, 0.2)
        with pytest.raises(RankDeficientError, match=weak) as closed:
            crb_block(spec, cfg, GAIN)
        assert str(closed.value) == str(oracle.value)

    @pytest.mark.parametrize("spec_fn, gain", [
        (all_ones_waveform, SensingLinkGain.from_amplitude(0.0)),
        (lambda cfg: WaveformSpec(np.ones((8, 4))), GAIN),
        (lambda cfg: WaveformSpec(2.0 * np.ones((16, 4))), GAIN),
        # the products of the information's entries underflow to zero
        (all_ones_waveform, SensingLinkGain(1e-300)),
    ], ids=["zero_gain", "shape", "power", "underflow"])
    def test_same_errors_as_oracle(self, spec_fn, gain):
        cfg = small_cfg()
        spec = spec_fn(cfg)
        with pytest.raises(ValueError) as oracle:
            fft_block(spec, cfg, gain, 0.0)
        with pytest.raises(ValueError) as closed:
            crb_block(spec, cfg, gain)
        assert type(closed.value) is type(oracle.value)
        assert str(closed.value) == str(oracle.value)

    def test_delay_doppler_bound_does_not_depend_on_azimuth(self):
        # ||a(az)||^2 = N at every azimuth, which is why crb_block takes none
        cfg = small_cfg(n=8)
        spec = unit_power_symbols(cfg, np.random.default_rng(12))
        at_broadside = crb_delay_doppler(spec, cfg, GAIN, 0.0, 0.0, 0.0)
        for azimuth in (0.7, -1.2):
            assert_allclose(
                crb_delay_doppler(spec, cfg, GAIN, azimuth, 0.0, 0.0),
                at_broadside, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("grid", ["ones", "random"])
    def test_unit_gain_block_over_gain_is_the_block_of_the_gain(self, grid):
        # the Fisher information is linear in |alpha|^2, so the simulator
        # divides one unit-gain block by each hop gain
        cfg = SystemConfig()
        spec = (all_ones_waveform(cfg) if grid == "ones"
                else unit_power_symbols(cfg, np.random.default_rng(14)))
        unit = crb_block(spec, cfg, SensingLinkGain(1.0)).range_velocity
        for gain in np.logspace(-40, 5, 2000).tolist():
            want = crb_block(spec, cfg, SensingLinkGain(gain)).range_velocity
            assert_allclose(unit / gain, want, rtol=1e-15, atol=0)

    def test_single_antenna_block_matches_fft_chain(self):
        cfg = small_cfg(n=1)
        spec = unit_power_symbols(cfg, np.random.default_rng(13))
        assert_blocks_match(crb_block(spec, cfg, GAIN, 1),
                            fft_block(spec, cfg, GAIN, 0.0, 1), rtol=1e-12)


class TestSensingLinkGainInvariant:
    def test_from_amplitude_consistent(self):
        gain = SensingLinkGain.from_amplitude(3.0 - 4.0j)
        assert gain.magnitude_sq == pytest.approx(25.0, rel=1e-15)


def geometry_with_gain(path_gain, azimuth=0.0):
    return ApGeometry(range=100.0, azimuth=azimuth, path_gain=path_gain,
                      phase=0.0)


class TestSensingGain:
    def test_matched_precoder_inner_product(self):
        cfg = small_cfg()
        tx = geometry_with_gain(1e-10, azimuth=0.4)
        w = math.sqrt(cfg.tx_power / cfg.antennas_per_ap) * array_response(
            cfg, tx.azimuth)
        gain = sensing_gain(cfg, tx, geometry_with_gain(1e-10), 1.0, w)
        inner_sq = gain.magnitude_sq / (
            tx.path_gain * tx.path_gain * 2 * math.pi / cfg.wavelength ** 2)
        assert inner_sq == pytest.approx(
            cfg.tx_power * cfg.antennas_per_ap, rel=1e-12)

    def test_zero_rcs_zero_gain(self):
        cfg = small_cfg()
        tx = geometry_with_gain(1e-10)
        w = math.sqrt(cfg.tx_power / cfg.antennas_per_ap) * array_response(cfg, 0.0)
        gain = sensing_gain(cfg, tx, geometry_with_gain(1e-10), 0.0, w)
        assert gain.magnitude_sq == 0.0

    def test_magnitude_chain(self):
        # |alpha|^2 = rho * N * beta1 * betal * (2 pi / lambda^2) * rcs^2,
        # assembled by independent arithmetic
        cfg = small_cfg(carrier_frequency=30e9)
        beta = (0.01 / (4 * math.pi * 100.0)) ** 2
        tx = geometry_with_gain(beta, azimuth=0.0)
        rx = geometry_with_gain(beta)
        w = math.sqrt(cfg.tx_power / cfg.antennas_per_ap) * array_response(cfg, 0.0)
        gain = sensing_gain(cfg, tx, rx, 5.0, w)
        expected = (cfg.tx_power * cfg.antennas_per_ap * beta * beta
                    * (2 * math.pi / cfg.wavelength ** 2) * 25.0)
        assert gain.magnitude_sq == pytest.approx(expected, rel=1e-12)
        assert gain.magnitude_sq == pytest.approx(2.52e-14, rel=1e-3)

    def test_precoder_power_limit_enforced(self):
        cfg = small_cfg()
        w = math.sqrt(2.0 * cfg.tx_power / cfg.antennas_per_ap) * array_response(
            cfg, 0.0)
        with pytest.raises(ValueError, match="power"):
            sensing_gain(cfg, geometry_with_gain(1e-10),
                         geometry_with_gain(1e-10), 1.0, w)

    def test_negative_rcs_rejected(self):
        cfg = small_cfg()
        w = array_response(cfg, 0.0) * 0.1
        with pytest.raises(ValueError):
            sensing_gain(cfg, geometry_with_gain(1e-10),
                         geometry_with_gain(1e-10), -1.0, w)


def block_with(ap_index, diag2):
    return CrbBlock(np.diag(np.asarray(diag2, dtype=float)), ap_index)


class TestAssembleCovariance:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_block_diagonal_places_each_block(self, k):
        stack = np.random.default_rng(k).normal(size=(k, 2, 2))
        want = np.zeros((2 * k, 2 * k))
        for pos, block in enumerate(stack):
            want[2 * pos:2 * pos + 2, 2 * pos:2 * pos + 2] = block
        assert_allclose(block_diagonal(stack), want, rtol=0, atol=0)

    def test_two_aps_make_4x4(self):
        blocks = [block_with(0, (1, 2)), block_with(1, (4, 5))]
        sel = ApSelection.from_indices(4, [0, 1])
        out = assemble_measurement_covariance(blocks, sel)
        assert out.shape == (4, 4)
        assert_allclose(np.diag(out), [1, 2, 4, 5])

    def test_single_ap_drops_angle_row(self):
        blocks = [block_with(2, (1, 2))]
        sel = ApSelection.from_indices(4, [2])
        assert_allclose(assemble_measurement_covariance(blocks, sel),
                        np.diag([1.0, 2.0]))

    def test_permutation_invariant(self):
        blocks = [block_with(0, (1, 2)), block_with(2, (7, 8))]
        sel = ApSelection.from_indices(4, [0, 2])
        a = assemble_measurement_covariance(blocks, sel)
        b = assemble_measurement_covariance(list(reversed(blocks)), sel)
        assert_allclose(a, b, rtol=0, atol=0)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="no sensing receivers"):
            assemble_measurement_covariance([], ApSelection(4, ()))

    def test_missing_block_rejected(self):
        blocks = [block_with(0, (1, 2))]
        with pytest.raises(ValueError, match="AP"):
            assemble_measurement_covariance(
                blocks, ApSelection.from_indices(4, [0, 3]))
