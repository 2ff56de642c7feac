"""Every public name of the package and its modules stays importable.

The reference oracles and record types that no run executes live in
`cfisac._oracles`, which loads on first use; the package and the modules
that defined them resolve their names through a module `__getattr__`. The
literal below is every public cfisac object each module exposed before that
move, its own definitions and what it imported from the others alike.
"""

import importlib

import pytest

import cfisac

PUBLIC = {
    "cfisac": (
        "Action", "ApGeometry", "ApSelection", "ArmColumns", "ArmEpoch",
        "CrbBlock", "EpochRecord", "EpochStep", "LinkError", "LinkResult",
        "MeasurementSet", "MotionModel", "RankDeficientError", "RngStream",
        "RunLog", "SPEED_OF_LIGHT", "Scenario", "SensingLinkGain",
        "SensingPolicy", "SimState", "StateEstimate", "SystemConfig",
        "TargetTruth", "TrafficModel", "WaveformSpec", "all_ones_waveform",
        "angle_estimate_and_variance", "angle_from_position",
        "angle_slope_from_position", "array_response",
        "array_response_derivative", "assemble_measurement_covariance",
        "build_channel", "build_waveform_vector", "comms", "config",
        "conventional_baseline", "crb", "crb_angle", "crb_block",
        "crb_blocks_for_state", "crb_delay_doppler", "decide_action",
        "draw_rcs", "evaluate_link", "geometry", "geometry_for_ap", "hpbw",
        "measurement_jacobian", "measurement_model", "perfect_angle_bound",
        "predict", "predict_variance_for_selection", "predictive_precoder",
        "propagate_truth", "qpsk_waveform", "run_epoch", "run_scenario",
        "select_rx_aps", "selection", "sensing", "sensing_gain", "simulate",
        "steered_link", "steered_links", "synthesize_measurement",
        "tracking", "transform_to_range_velocity", "update",
        "variance_threshold_from_hpbw"),
    "cfisac.config": ("SPEED_OF_LIGHT", "SystemConfig",
                      "default_ap_positions"),
    "cfisac.geometry": (
        "ApGeometry", "SystemConfig", "TargetTruth", "angle_from_position",
        "angle_slope_from_position", "array_response",
        "array_response_derivative", "geometry_for_ap"),
    "cfisac.selection": ("ApSelection",),
    "cfisac.crb": (
        "ApGeometry", "ApSelection", "CrbBlock", "RankDeficientError",
        "SPEED_OF_LIGHT", "SensingLinkGain", "SystemConfig", "WaveformSpec",
        "all_ones_waveform", "array_response", "array_response_derivative",
        "assemble_measurement_covariance", "block_diagonal",
        "build_waveform_vector", "crb_angle", "crb_block",
        "crb_delay_doppler", "qpsk_waveform", "range_velocity_blocks",
        "sensing_gain", "transform_to_range_velocity"),
    "cfisac.tracking": (
        "ApSelection", "MeasurementSet", "MotionModel", "StateEstimate",
        "SystemConfig", "angle_estimate_and_variance", "angle_from_position",
        "angle_slope_from_position", "measurement_jacobian",
        "measurement_model", "posterior_covariance", "predict", "update"),
    "cfisac.sensing": (
        "Action", "ApSelection", "CrbBlock", "MotionModel", "SensingPolicy",
        "StateEstimate", "SystemConfig", "assemble_measurement_covariance",
        "available_rx_aps", "decide_action", "hpbw", "measurement_jacobian",
        "posterior_covariance", "predict", "predict_variance_for_selection",
        "range_velocity_blocks", "score_subsets", "select_rx_aps",
        "variance_threshold_from_hpbw"),
    "cfisac.comms": (
        "ANGLE_MODES", "LinkError", "LinkResult", "PHASE_MODES",
        "StateEstimate", "SystemConfig", "TargetTruth", "angle_from_position",
        "array_response", "build_channel", "conventional_baseline",
        "evaluate_link", "geometry_for_ap", "perfect_angle_bound",
        "predictive_precoder", "steered_link", "steered_links"),
    "cfisac.simulate": (
        "ANGLE_MODES", "Action", "ApSelection", "ArmColumns", "ArmEpoch",
        "COMPARISON_ARMS", "CrbBlock", "EpochRecord", "EpochStep",
        "LinkError", "LinkResult", "MeasurementSet", "MotionModel",
        "PHASE_MODES", "RngStream", "RunLog", "Scenario", "SensingPolicy",
        "SimState", "StateEstimate", "SystemConfig", "TargetTruth",
        "TrafficModel", "WaveformSpec", "all_ones_waveform",
        "available_rx_aps", "block_diagonal", "crb_blocks_for_state",
        "decide_action", "draw_rcs", "predict", "propagate_truth",
        "range_velocity_blocks", "run_epoch", "run_scenario",
        "steered_links", "synthesize_measurement", "update"),
    "cfisac.cli": (
        "Action", "COMPARISON_ARMS", "CSV_COLUMNS", "ConfigError", "RunLog",
        "Scenario", "SensingPolicy", "StateEstimate", "SystemConfig",
        "TargetTruth", "TrafficModel", "config_digest", "default_scenario",
        "emit_plots", "load_scenario", "main", "run_scenario",
        "scenario_from_dict", "scenario_to_dict", "summarize_records",
        "write_records"),
}


@pytest.mark.parametrize("module_name", PUBLIC)
def test_every_public_name_resolves(module_name):
    module = importlib.import_module(module_name)
    listed = dir(module)
    for name in PUBLIC[module_name]:
        namespace = {}
        exec(f"from {module_name} import {name}", namespace)
        assert namespace[name] is getattr(module, name), name
        assert name in listed, name


def test_a_name_is_one_object_wherever_it_is_exposed():
    # through the package and through every module that exposes it
    seen = {}
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(module_name)
        for name in names:
            value = getattr(module, name)
            assert seen.setdefault(name, value) is value, (module_name, name)


@pytest.mark.parametrize("module_name", PUBLIC)
def test_an_unknown_name_raises_attribute_error(module_name):
    module = importlib.import_module(module_name)
    assert not hasattr(module, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {module_name} import no_such_name", {})


def test_star_import_of_sensing_honours_its_all():
    sensing = importlib.import_module("cfisac.sensing")
    namespace = {}
    exec("from cfisac.sensing import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sensing.__all__)
    for name, value in namespace.items():
        assert value is getattr(cfisac, name, value) is getattr(sensing, name)
