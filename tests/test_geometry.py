import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfisac.config import SPEED_OF_LIGHT, SystemConfig
from cfisac.geometry import (TargetTruth, angle_from_position,
                             angle_slope_from_position, array_response,
                             array_response_derivative, geometry_for_ap)


def make_cfg(**overrides):
    return SystemConfig(**overrides)


class TestSystemConfig:
    def test_wavelength_derived_from_carrier(self):
        cfg = make_cfg(carrier_frequency=30e9)
        assert cfg.wavelength == pytest.approx(0.01, rel=1e-12)
        cfg60 = make_cfg(carrier_frequency=60e9)
        assert cfg60.wavelength == pytest.approx(SPEED_OF_LIGHT / 60e9, rel=1e-12)

    def test_symbol_duration_is_derived(self):
        cfg = make_cfg(subcarrier_spacing=120e3, num_subcarriers=256, cp_length=18)
        expected = 1 / 120e3 + 18 / (256 * 120e3)
        assert cfg.symbol_duration == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("field,value", [
        ("num_aps", 1),
        ("antennas_per_ap", 0),
        ("num_subcarriers", 1),
        ("num_symbols", 0),
        ("tx_power", -1.0),
        ("noise_power", 0.0),
        ("corridor_offset", -40.0),
        ("tx_ap", 9),
        ("carrier_frequency", 0.0),
        ("process_noise_std", math.nan),
        ("mean_rcs", math.inf),
    ])
    def test_invariant_violations_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_cfg(**{field: value})

    def test_default_ap_layout(self):
        cfg = make_cfg(num_aps=4)
        assert cfg.ap_positions == (125.0, 250.0, 375.0, 500.0)


class TestGeometryForAp:
    def test_target_directly_abeam(self):
        cfg = make_cfg(ap_positions=(250.0, 500.0), num_aps=2)
        geo = geometry_for_ap(cfg, TargetTruth(250.0, 25.0), 0)
        assert geo.range == pytest.approx(40.0)
        assert geo.azimuth == pytest.approx(0.0)

    def test_diagonal_geometry_matches_calculator(self):
        # sqrt(40^2 + 40^2), worked out independently
        cfg = make_cfg(ap_positions=(125.0, 500.0), num_aps=2)
        geo = geometry_for_ap(cfg, TargetTruth(165.0, 25.0), 0)
        assert geo.range == pytest.approx(56.568542494923804, rel=1e-12)

    def test_path_gain_at_100m(self):
        cfg = make_cfg(ap_positions=(0.0, 500.0), num_aps=2)
        px = math.sqrt(100.0 ** 2 - 40.0 ** 2)
        geo = geometry_for_ap(cfg, TargetTruth(px, 0.0), 0)
        expected = (0.01 / (4 * math.pi * 100.0)) ** 2  # 6.3326e-11
        assert geo.path_gain == pytest.approx(expected, rel=1e-12)
        assert geo.path_gain == pytest.approx(6.3326e-11, rel=1e-4)

    def test_rejects_non_finite_truth(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            geometry_for_ap(cfg, TargetTruth(math.nan, 25.0), 0)
        with pytest.raises(ValueError):
            geometry_for_ap(cfg, TargetTruth(0.0, math.inf), 0)

    def test_ap_index_bounds(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            geometry_for_ap(cfg, TargetTruth(0.0, 0.0), cfg.num_aps)

    def test_path_gain_decreases_with_range(self):
        cfg = make_cfg()
        gains = [geometry_for_ap(cfg, TargetTruth(x, 25.0), 3).path_gain
                 for x in (490.0, 400.0, 300.0, 100.0)]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_phase_is_geometric(self):
        cfg = make_cfg()
        geo = geometry_for_ap(cfg, TargetTruth(10.0, 25.0), 0)
        expected = (-2 * math.pi * geo.range / cfg.wavelength) % (2 * math.pi)
        assert geo.phase == pytest.approx(expected)
        assert 0 <= geo.phase < 2 * math.pi


class TestArrayResponse:
    def test_broadside_all_ones(self):
        cfg = make_cfg(antennas_per_ap=4)
        assert_allclose(array_response(cfg, 0.0), np.ones(4), rtol=0, atol=0)

    def test_endfire_alternates(self):
        cfg = make_cfg(antennas_per_ap=4)
        assert_allclose(array_response(cfg, math.pi / 2),
                        [1, -1, 1, -1], atol=1e-12)

    def test_thirty_degrees_two_elements(self):
        cfg = make_cfg(antennas_per_ap=2)
        assert_allclose(array_response(cfg, math.pi / 6), [1, 1j], atol=1e-12)

    def test_first_entry_exactly_one(self):
        cfg = make_cfg(antennas_per_ap=8)
        assert array_response(cfg, 0.7)[0] == 1.0 + 0.0j

    def test_unit_modulus_and_norm(self):
        cfg = make_cfg(antennas_per_ap=8)
        for az in np.linspace(-1.5, 1.5, 11):
            a = array_response(cfg, az)
            assert_allclose(np.abs(a), 1.0, rtol=1e-14)
            assert np.vdot(a, a).real == pytest.approx(8.0, rel=1e-14)


class TestArrayResponseDerivative:
    def test_broadside_two_elements(self):
        cfg = make_cfg(antennas_per_ap=2)
        assert_allclose(array_response_derivative(cfg, 0.0),
                        [0, 1j * math.pi], atol=1e-12)

    def test_endfire_vanishes(self):
        cfg = make_cfg(antennas_per_ap=4)
        assert_allclose(array_response_derivative(cfg, math.pi / 2),
                        np.zeros(4), atol=1e-12)

    def test_first_entry_exactly_zero(self):
        cfg = make_cfg(antennas_per_ap=4)
        assert array_response_derivative(cfg, 0.3)[0] == 0.0 + 0.0j

    def test_matches_finite_differences(self):
        cfg = make_cfg(antennas_per_ap=4)
        h = 1e-6
        for az in (-1.1, -0.4, 0.0, 0.3, 0.9):
            numeric = (array_response(cfg, az + h)
                       - array_response(cfg, az - h)) / (2 * h)
            analytic = array_response_derivative(cfg, az)
            assert np.max(np.abs(numeric - analytic)) <= 1e-6

    @pytest.mark.parametrize("azimuth", [math.nan, math.inf, -math.inf])
    def test_non_finite_azimuth_rejected(self, azimuth):
        with pytest.raises(ValueError, match=r"^azimuth must be finite$"):
            array_response_derivative(make_cfg(), azimuth)

    def test_inner_product_with_response_is_imaginary(self):
        cfg = make_cfg(antennas_per_ap=6)
        for az in np.linspace(-1.4, 1.4, 9):
            inner = np.vdot(array_response(cfg, az),
                            array_response_derivative(cfg, az))
            assert abs(inner.real) < 1e-9 * max(1.0, abs(inner.imag))


class TestAngleMap:
    def test_origin(self):
        cfg = make_cfg(corridor_offset=40.0)
        assert angle_from_position(cfg, 0.0) == 0.0
        assert angle_slope_from_position(cfg, 0.0) == pytest.approx(0.025)

    def test_quarter_pi_symmetry(self):
        cfg = make_cfg(corridor_offset=40.0)
        assert angle_from_position(cfg, 40.0) == pytest.approx(math.pi / 4)
        assert angle_from_position(cfg, -40.0) == pytest.approx(-math.pi / 4)

    def test_strictly_increasing_and_odd(self):
        cfg = make_cfg()
        xs = np.linspace(-300, 300, 101)
        vals = [angle_from_position(cfg, x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        for x in xs:
            assert angle_from_position(cfg, -x) == pytest.approx(
                -angle_from_position(cfg, x), abs=1e-15)

    def test_slope_matches_finite_difference(self):
        cfg = make_cfg()
        h = 1e-3
        for x in (-120.0, -3.0, 0.0, 55.0, 400.0):
            numeric = (angle_from_position(cfg, x + h)
                       - angle_from_position(cfg, x - h)) / (2 * h)
            assert angle_slope_from_position(cfg, x) == pytest.approx(
                numeric, rel=1e-6)
