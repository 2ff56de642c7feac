"""Every public name of the package and its modules stays importable.

A module exposes what it defines, and the package its main names and the
union of the modules' lazy names. The reference oracles and record types
that no run executes live in `cfisac._oracles`, which loads on first use:
each module declares the ones it is home to in its `_LAZY` and resolves
them through a module `__getattr__`, and the package's `_LAZY` is the
union of those. The literal below is the package's names and each
module's own definitions, its lazy names included, with what
`sensing.__all__` lists.
"""

import importlib
from collections import Counter

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
        "angle_from_position", "angle_slope_from_position", "array_response",
        "array_response_derivative", "assemble_measurement_covariance",
        "build_channel", "build_waveform_vector", "comms", "config",
        "conventional_baseline", "crb", "crb_angle", "crb_block",
        "crb_blocks_for_state", "crb_delay_doppler", "decide_action",
        "draw_rcs", "evaluate_link", "geometry", "geometry_for_ap", "hpbw",
        "measurement_jacobian", "measurement_model", "perfect_angle_bound",
        "predict", "predict_variance_for_selection", "predictive_precoder",
        "run_epoch", "run_scenario", "score_subsets", "select_rx_aps",
        "selection", "sensing", "sensing_gain", "simulate", "steered_link",
        "steered_links", "synthesize_measurement", "tracking",
        "transform_to_range_velocity", "update",
        "variance_threshold_from_hpbw"),
    "cfisac.config": ("SPEED_OF_LIGHT", "SystemConfig",
                      "default_ap_positions"),
    "cfisac.geometry": (
        "ApGeometry", "TargetTruth", "angle_from_position",
        "angle_slope_from_position", "array_response",
        "array_response_derivative", "geometry_for_ap"),
    "cfisac.selection": ("ApSelection",),
    "cfisac.crb": (
        "CrbBlock", "RankDeficientError", "SensingLinkGain", "WaveformSpec",
        "all_ones_waveform", "assemble_measurement_covariance",
        "block_diagonal", "build_waveform_vector", "crb_angle", "crb_block",
        "crb_delay_doppler", "range_velocity_blocks", "sensing_gain",
        "transform_to_range_velocity"),
    "cfisac.tracking": (
        "MeasurementSet", "MotionModel", "StateEstimate",
        "measurement_jacobian", "measurement_model", "posterior_covariance",
        "predict", "update"),
    "cfisac.sensing": (  # ApSelection through its __all__
        "Action", "ApSelection", "SensingPolicy", "available_rx_aps",
        "decide_action", "hpbw", "predict_variance_for_selection",
        "score_subsets", "select_rx_aps", "variance_threshold_from_hpbw"),
    "cfisac.comms": (
        "ANGLE_MODES", "LinkError", "LinkResult", "PHASE_MODES",
        "build_channel", "conventional_baseline", "evaluate_link",
        "perfect_angle_bound", "predictive_precoder", "steered_link",
        "steered_links"),
    "cfisac.simulate": (
        "ArmColumns", "ArmEpoch", "COMPARISON_ARMS", "EpochRecord",
        "EpochStep", "RngStream", "RunLog", "Scenario", "SimState",
        "TrafficModel", "crb_blocks_for_state", "draw_rcs", "run_epoch",
        "run_scenario", "synthesize_measurement"),
    "cfisac.cli": (
        "CSV_COLUMNS", "ConfigError", "config_digest", "default_scenario",
        "emit_plots", "load_scenario", "main", "scenario_from_dict",
        "scenario_to_dict", "summarize_records", "write_records"),
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
    # through the package and through the module that defines it
    seen = {}
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(module_name)
        for name in names:
            value = getattr(module, name)
            assert seen.setdefault(name, value) is value, (module_name, name)


def test_a_module_exposes_only_what_it_defines():
    # a class or function is defined in its module, or for a lazy name in
    # `_oracles`; only what `sensing.__all__` lists comes from elsewhere
    sensing = importlib.import_module("cfisac.sensing")
    for module_name, names in PUBLIC.items():
        if module_name == "cfisac":
            continue
        module = importlib.import_module(module_name)
        lazy = getattr(module, "_LAZY", ())
        for name in names:
            home = "cfisac._oracles" if name in lazy else module_name
            if module is sensing and name == "ApSelection":
                home = "cfisac.selection"
            value = getattr(module, name)
            assert getattr(value, "__module__", home) == home, (module_name,
                                                                name)


def test_each_lazy_name_is_declared_once():
    oracles = importlib.import_module("cfisac._oracles")
    declared = []
    for module_name in PUBLIC:
        if module_name == "cfisac":
            continue
        module = importlib.import_module(module_name)
        for name in getattr(module, "_LAZY", ()):
            declared.append(name)
            # defined in `_oracles`, not imported there from a module, and
            # resolved on access rather than bound in the module
            assert getattr(vars(oracles).get(name), "__module__", None) == (
                "cfisac._oracles"), (module_name, name)
            assert name not in vars(module), (module_name, name)
    assert [name for name, n in Counter(declared).items() if n > 1] == []
    assert sorted(cfisac._LAZY) == sorted(declared)


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
    assert set(sensing.__all__) <= set(PUBLIC["cfisac.sensing"])
    namespace = {}
    exec("from cfisac.sensing import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sensing.__all__)
    for name, value in namespace.items():
        assert value is getattr(cfisac, name, value) is getattr(sensing, name)
