import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from array import array
from datetime import datetime, timezone
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
import yaml

from cfisac import cli, plots, simulate
from cfisac.cli import (CSV_COLUMNS, ConfigError, config_digest,
                        default_scenario, emit_plots, load_scenario, main,
                        scenario_from_dict, scenario_to_dict,
                        summarize_records, write_records)
from cfisac.config import SystemConfig
from cfisac.geometry import TargetTruth
from cfisac.selection import ApSelection
from cfisac.sensing import Action, SensingPolicy
from cfisac.simulate import (RunLog, SimState, TrafficModel, run_epoch,
                             run_scenario)
from cfisac.tracking import StateEstimate

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = json.loads((REPO / "bench" / "workloads.json").read_text())


@pytest.fixture(scope="module")
def short_run():
    scenario = dataclasses.replace(default_scenario(), num_epochs=30)
    return scenario, run_scenario(scenario)


@pytest.fixture(scope="module")
def long_run():
    scenario = scenario_from_dict(WORKLOADS["long_sparse"]["overrides"])
    assert scenario.num_epochs == 5000
    return scenario, run_scenario(scenario)


def rate_svg_per_point(log):
    """`plots._rate_svg` mapping each rated point through the scalers on
    Python floats, one run of traffic-ON epochs at a time."""
    n = len(log)
    colors = {"proposed": "#1f77b4", "conventional": "#ff7f0e",
              "perfect": "#2ca02c"}
    rates = {t: log.rates[t][1].tolist() for t in colors
             if t in log.rates and len(log.rates[t][1])}
    hi = max(map(max, rates.values())) * 1.1 if rates else 1.0
    to_x = plots._scaler(0, max(n - 1, 1), plots._MARGIN_L,
                         plots._WIDTH - plots._MARGIN_R)
    to_y = plots._scaler(0.0, hi, plots._HEIGHT - plots._MARGIN_B,
                         plots._MARGIN_T)
    elems = plots._axes("epoch", "instantaneous rate [bit/symbol]")
    for k in range(0, n, max(1, n // 8)):
        elems.append(f'<text x="{to_x(k):.2f}" '
                     f'y="{plots._HEIGHT - plots._MARGIN_B + 16}" '
                     f'text-anchor="middle" font-size="11">{k}</text>')
    for i in range(6):
        v = hi * i / 5
        elems.append(f'<text x="{plots._MARGIN_L - 8}" y="{to_y(v) + 4:.2f}" '
                     f'text-anchor="end" font-size="11">{v:.1f}</text>')
    for idx, tag in enumerate(rates):
        values = iter(rates[tag])
        for rated, run in groupby(range(n), key=log.traffic_on.__getitem__):
            if not rated:
                continue
            segment = [v for k in run for v in (to_x(k), to_y(next(values)))]
            if len(segment) > 2:
                coords = " ".join(["%.2f,%.2f"] * (len(segment) // 2))
                elems.append(f'<polyline fill="none" stroke="{colors[tag]}" '
                             f'stroke-width="1.5" points="'
                             f'{coords % tuple(segment)}"/>')
            else:
                x, y = segment
                elems.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" '
                             f'fill="{colors[tag]}"/>')
        elems.append(f'<text x="{plots._MARGIN_L + 8}" '
                     f'y="{plots._MARGIN_T + 14 + 14 * idx}" '
                     f'font-size="12" fill="{colors[tag]}">{tag}</text>')
    return plots._svg(elems)


def pure_unique_key_loader():
    """cli's duplicate-key loader rebuilt on PyYAML's pure-Python
    SafeLoader, the base it takes where PyYAML lacks libyaml."""
    return type("PureUniqueKeyLoader", (yaml.SafeLoader,),
                {"construct_mapping": cli._UniqueKeyLoader.construct_mapping})


@pytest.fixture(params=["libyaml", "pure"])
def loader_base(request, monkeypatch):
    """Loads configs through cli's loader on each base PyYAML offers."""
    if request.param == "pure":
        monkeypatch.setattr(cli, "_UniqueKeyLoader", pure_unique_key_loader())
    elif yaml.__with_libyaml__:
        assert issubclass(cli._UniqueKeyLoader, yaml.CSafeLoader)
    else:
        pytest.skip("PyYAML was built without libyaml")


def typed(value):
    """A loaded or canonical value with each leaf as its type and repr, so
    that 1 differs from 1.0 and True, and -0.0 from 0.0."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value), [typed(item) for item in value]
    return type(value), repr(value)


def plain_oracle(obj) -> dict:
    """The canonical config's former build of a dataclass section."""
    return json.loads(json.dumps(dataclasses.asdict(obj)))


class TestLoadScenario:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        scenario = load_scenario(path)
        assert scenario_to_dict(scenario) == scenario_to_dict(default_scenario())
        assert scenario.system.num_aps == 4
        assert scenario.num_epochs == 200
        assert scenario.initial_truth.position_x == 0.0
        assert scenario.system.corridor_offset == 40.0

    def test_null_document_gives_defaults(self, tmp_path):
        path = tmp_path / "null.yaml"
        path.write_text("~\n")
        assert config_digest(load_scenario(path)) == config_digest(
            default_scenario())

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(tmp_path / "nope.yaml")

    def test_carrier_override_rederives_wavelength(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("system:\n  carrier_frequency: 60.0e9\n")
        assert load_scenario(path).system.wavelength == pytest.approx(0.005)

    def test_negative_power_names_the_field(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("system:\n  tx_power: -1.0\n")
        with pytest.raises(ConfigError, match="tx_power"):
            load_scenario(path)

    def test_unknown_key_names_the_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("system:\n  antennae: 4\n")
        with pytest.raises(ConfigError, match="antennae"):
            load_scenario(path)

    @pytest.mark.parametrize("raw", [{"initial_truth": {"position_x": 1.0}},
                                     {"comparison_arms": ["random"]},
                                     {"rated_methods": ["proposed"]}])
    def test_built_fields_are_not_keys(self, raw):
        # the loader builds these from `target` and `arms`, and the rated
        # methods are a property read from the arms
        with pytest.raises(ConfigError, match="unknown key"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("text, seed", [
        ('"9007199254740993"', 2 ** 53 + 1),
        ('"18446744073709551615"', 2 ** 64 - 1),
        ('"1e3"', 1000), ('"4.0"', 4),
    ], ids=["past_2_53", "largest_seed", "exponent", "point_zero"])
    def test_quoted_seed_is_read_exactly(self, tmp_path, text, seed):
        # through float, 2**53 + 1 would load as 2**53 and run another
        # seed, and 2**64 - 1 would round to 2**64 and be rejected
        path = tmp_path / "s.yaml"
        path.write_text(f"seed: {text}\n")
        assert load_scenario(path).seed == seed

    def test_arms_normalized_like_the_flag(self):
        scenario = scenario_from_dict({"arms": "proposed, perfect"})
        assert scenario.comparison_arms == ("perfect",)

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("system: [unclosed\n")
        with pytest.raises(ConfigError, match="parse"):
            load_scenario(path)

    def test_merge_key_is_not_a_repeated_key(self, tmp_path, loader_base):
        # YAML merge keys still load; a key given next to them overrides
        path = tmp_path / "m.yaml"
        path.write_text("system:\n  <<: {num_aps: 6, tx_power: 2.0}\n"
                        "  num_aps: 5\n")
        system = load_scenario(path).system
        assert (system.num_aps, system.tx_power) == (5, 2.0)

    def test_round_trip_through_yaml(self, tmp_path):
        base = default_scenario()
        path = tmp_path / "rt.yaml"
        path.write_text(yaml.safe_dump(scenario_to_dict(base)))
        again = load_scenario(path)
        assert scenario_to_dict(again) == scenario_to_dict(base)
        assert config_digest(again) == config_digest(base)

    def test_traffic_intervals_parse(self, tmp_path):
        path = tmp_path / "t.yaml"
        path.write_text(
            "num_epochs: 20\ntraffic:\n  mode: intervals\n"
            "  intervals: [[0, 5], [10, 12]]\n")
        scenario = load_scenario(path)
        assert scenario.traffic.intervals == ((0, 5), (10, 12))

    def test_default_digest_is_pinned(self):
        # the canonical form of the defaults (the threshold only under
        # policy, one x per AP under ap_positions); a schema change must
        # move it
        assert config_digest(default_scenario()) == (
            "b5426abc6674c35e4b9a247b8b09d0e8a4f40f623fc80f26efd9d89bc10cf1f3")

    @pytest.mark.parametrize("workload", [None, *sorted(WORKLOADS)])
    def test_canonical_config_matches_a_json_round_trip(self, monkeypatch,
                                                        workload):
        # the digest hashes this text, and an int must not become a float
        overrides = WORKLOADS[workload]["overrides"] if workload else {}
        canonical = scenario_to_dict(scenario_from_dict(overrides))
        monkeypatch.setattr(cli, "_plain", plain_oracle)
        want = scenario_to_dict(scenario_from_dict(overrides))
        assert (json.dumps(canonical, sort_keys=True)
                == json.dumps(want, sort_keys=True))
        assert typed(canonical) == typed(want)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_workload_round_trip_through_yaml(self, tmp_path, workload):
        base = scenario_from_dict(WORKLOADS[workload]["overrides"])
        path = tmp_path / "rt.yaml"
        path.write_text(yaml.safe_dump(scenario_to_dict(base)))
        again = load_scenario(path)
        assert scenario_to_dict(again) == scenario_to_dict(base)
        assert config_digest(again) == config_digest(base)

    def test_readme_example_loads(self):
        # the documented schema must stay what the loader accepts
        readme = (REPO / "README.md").read_text()
        example = re.search(r"```yaml\n(.*?)```", readme, re.DOTALL).group(1)
        scenario = scenario_from_dict(yaml.safe_load(example))
        assert scenario.system.num_aps == 4
        assert scenario.policy.subset_cardinality == 2
        # it documents the defaults, every value to the last digit
        assert config_digest(scenario) == config_digest(default_scenario())

    def test_readme_library_example_runs(self):
        readme = (REPO / "README.md").read_text()
        example = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
        namespace = {}
        exec(example, namespace)
        assert len(namespace["records"]) == namespace["scenario"].num_epochs
        assert namespace["sensed"]


# An epochs.csv row rendered from one record, the oracle of the CLI's
# writer, which reads the run's columns: the state cells of the proposed
# arm, then one cell per (method, LinkResult field), empty where the record
# has no such rate.
ORACLE_STATE_CELLS = "%d" + ",%.17e" * 7 + ",%s,%s,%d"
ORACLE_LINK_CELLS = (("proposed", "rate"), ("conventional", "rate"),
                     ("perfect", "rate"), ("proposed", "snr"))


def oracle_row(rec) -> str:
    arm, rates = rec.arms["proposed"], rec.rates
    est = arm.estimate
    (var_p, _), (_, var_v) = est.covariance.tolist()
    template = ORACLE_STATE_CELLS + "".join(
        ",%.17e" if tag in rates else "," for tag, _ in ORACLE_LINK_CELLS)
    return template % (
        rec.epoch, rec.truth.position_x, rec.truth.velocity_x,
        *est.mean.tolist(), var_p, var_v,
        arm.predicted_angle_variance, arm.action.value, rec.traffic_state,
        arm.selection.bitmask,
        *(getattr(rates[tag], field) for tag, field in ORACLE_LINK_CELLS
          if tag in rates))


# Each workload's smoke run, and a still target whose filter starts at the
# velocity -0.0 and, out of reach of the threshold, never senses, so that
# every row's v_x_est keeps the sign of that zero.
CSV_RUNS = {name: {**spec["overrides"], "num_epochs": spec["smoke_epochs"]}
            for name, spec in WORKLOADS.items()}
CSV_RUNS["signed_zero_velocity"] = {
    "target": {"position_x": -100.0, "velocity_x": 0.0},
    "initial_estimate": {"mean": [-100.0, -0.0]}, "num_epochs": 40}


@pytest.mark.parametrize("seed", [0, 13])
@pytest.mark.parametrize("run", sorted(CSV_RUNS))
def test_epochs_csv_equals_the_per_record_oracle(tmp_path, run, seed):
    # the CLI writes epochs.csv from the run's columns; the oracle renders
    # the records the same run builds on access
    overrides = CSV_RUNS[run]
    config = tmp_path / "s.yaml"
    config.write_text(json.dumps(overrides))
    assert main(["run", "--config", str(config), "--seed", str(seed),
                 "--out", str(tmp_path / "out")]) == 0
    scenario = dataclasses.replace(scenario_from_dict(overrides), seed=seed)
    records = list(run_scenario(scenario))
    assert {r.traffic_state for r in records} == {"ON", "OFF"}
    want = [",".join(CSV_COLUMNS)] + [oracle_row(rec) for rec in records]
    got = (tmp_path / "out" / "epochs.csv").read_text()
    assert got.endswith("\n")
    # compared line by line, so that a failure reports the first row that
    # differs rather than a diff of the whole file
    assert got.splitlines() == want
    if run == "signed_zero_velocity":
        assert {row.split(",")[4] for row in got.splitlines()[1:]} == {
            "-0.00000000000000000e+00"}
    else:
        assert any(r.action is Action.SENSING for r in records)


def test_repeated_velocities_keep_their_own_text(tmp_path):
    # the writer formats a run of equal estimated velocities once; 0.0 and
    # -0.0 compare equal but are written apart
    scenario = dataclasses.replace(default_scenario(), num_epochs=12)
    log = run_scenario(scenario)
    log.arms["proposed"].mean_v[3:9] = array(
        "d", [0.0, -0.0, -0.0, 0.0, 7.25, 7.25])
    write_records(log, tmp_path, scenario)
    rows = (tmp_path / "epochs.csv").read_text().splitlines()
    assert rows[1:] == [oracle_row(rec) for rec in log]
    assert [row.split(",")[4] for row in rows[4:10]] == [
        "0.00000000000000000e+00", "-0.00000000000000000e+00",
        "-0.00000000000000000e+00", "0.00000000000000000e+00",
        "7.25000000000000000e+00", "7.25000000000000000e+00"]


class TestWriteRecords:
    def test_csv_shape(self, short_run, tmp_path):
        scenario, records = short_run
        write_records(records, tmp_path, scenario)
        lines = (tmp_path / "epochs.csv").read_text().splitlines()
        assert len(lines) == scenario.num_epochs + 1
        assert all(len(line.split(",")) == 15 for line in lines)
        header = lines[0].split(",")
        assert header[0] == "epoch" and header[-1] == "snr_proposed"

    def test_rerun_is_byte_identical(self, short_run, tmp_path):
        scenario, records = short_run
        write_records(records, tmp_path / "a", scenario)
        write_records(run_scenario(scenario), tmp_path / "b", scenario)
        assert ((tmp_path / "a" / "epochs.csv").read_bytes()
                == (tmp_path / "b" / "epochs.csv").read_bytes())

    def test_off_epochs_leave_rate_cells_empty(self, short_run, tmp_path):
        scenario, records = short_run
        write_records(records, tmp_path, scenario)
        rows = (tmp_path / "epochs.csv").read_text().splitlines()[1:]
        for rec, row in zip(records, rows):
            cells = row.split(",")
            if rec.traffic_state == "OFF":
                assert cells[11] == "" and cells[14] == ""
            else:
                assert cells[11] != "" and float(cells[14]) > 0

    def test_cells_hold_the_record_values_exactly(self, short_run, tmp_path):
        scenario, records = short_run
        assert {r.traffic_state for r in records} == {"ON", "OFF"}
        assert scenario.comparison_arms == ("conventional", "random",
                                            "perfect")
        write_records(records, tmp_path, scenario)
        rows = (tmp_path / "epochs.csv").read_text().splitlines()[1:]
        assert len(rows) == len(records)
        for rec, row in zip(records, rows):
            cells = row.split(",")
            arm = rec.arms["proposed"]
            est = arm.estimate
            values = [rec.truth.position_x, rec.truth.velocity_x, *est.mean,
                      est.covariance[0, 0], est.covariance[1, 1],
                      arm.predicted_angle_variance]
            float_cells = cells[1:8]
            if rec.traffic_state == "ON":
                values += [rec.rates[tag].rate for tag in
                           ("proposed", "conventional", "perfect")]
                values.append(rec.rates["proposed"].snr)
                float_cells += cells[11:15]
            else:
                assert cells[11:15] == ["", "", "", ""]
            assert ([float(cell).hex() for cell in float_cells]
                    == [float(value).hex() for value in values])
            assert int(cells[0]) == rec.epoch
            assert int(cells[10]) == arm.selection.bitmask
            assert cells[8:10] == [arm.action.value, rec.traffic_state]

    def test_selection_bitmask_encoding(self):
        assert ApSelection.from_indices(4, [0, 2]).bitmask == 5

    def test_summary_contents(self, short_run, tmp_path):
        scenario, records = short_run
        write_records(records, tmp_path, scenario)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["num_epochs"] == scenario.num_epochs
        sensing = [r.epoch for r in records if r.action is Action.SENSING]
        assert sensing
        assert summary["sensing_epochs"] == len(sensing)
        assert summary["sensing_epoch_indices"] == sensing
        assert set(summary["mean_rates"]) == {"proposed", "conventional",
                                              "perfect"}
        assert summary["threshold_crossing_epoch"]["proposed"] is not None

    def test_manifest_digest_tracks_config(self, short_run, tmp_path):
        scenario, records = short_run
        manifest = write_records(records, tmp_path, scenario)
        assert manifest["config_digest"] == config_digest(scenario)
        changed = dataclasses.replace(scenario, seed=scenario.seed + 1)
        assert config_digest(changed) != manifest["config_digest"]
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["config_digest"] == manifest["config_digest"]
        assert payload["tool_version"] == manifest["tool_version"]
        assert set(payload["outputs"]) == {"epochs.csv", "summary.json"}

    def test_digest_recomputes_from_stored_config(self, short_run, tmp_path):
        import hashlib
        scenario, records = short_run
        write_records(records, tmp_path, scenario)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        canonical = json.dumps(payload["canonical_config"], sort_keys=True,
                               separators=(",", ":"))
        assert (hashlib.sha256(canonical.encode()).hexdigest()
                == payload["config_digest"])

    def test_plots_of_an_empty_log_write_nothing(self, tmp_path):
        scenario = default_scenario()
        with pytest.raises(ValueError, match=r"^no records to plot$"):
            write_records(RunLog(scenario), tmp_path / "out", scenario,
                          plots=True)
        assert not (tmp_path / "out").exists()

    def test_epochs_csv_is_streamed(self, long_run, tmp_path):
        # writing holds less than the file it writes, so the text of
        # epochs.csv is never built whole
        scenario, records = long_run
        tracemalloc.start()
        try:
            write_records(records, tmp_path, scenario, plots=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = (tmp_path / "epochs.csv").stat().st_size
        assert size > 500_000
        assert peak < size


class TestStepsAfterARead:
    """A log stepped 20 epochs by hand, read whole, then stepped 10 more:
    every traffic-ON epoch of the 30 has rates, those of a 30-epoch run,
    and every reader of the log agrees on them."""

    @pytest.fixture(scope="class")
    def stepped(self):
        scenario = default_scenario()
        state = SimState(scenario)
        for _ in range(20):
            run_epoch(state)
        first = [r.rates for r in state.log]
        for _ in range(10):
            run_epoch(state)
        whole = dataclasses.replace(scenario, num_epochs=30)
        return scenario, first, state.log, whole, run_scenario(whole)

    def test_every_on_epoch_has_rates(self, stepped):
        _, first, log, _, _ = stepped
        records = list(log)
        on = [r.epoch for r in records if r.traffic_state == "ON"]
        assert len(records) == 30 and max(on) >= 20
        assert [r.epoch for r in records if r.rates] == on
        assert log.rated_epochs.tolist() == on
        assert all(list(r.rates) == ["proposed", "conventional", "perfect"]
                   for r in records if r.rates)
        assert first == [r.rates for r in records[:20]]

    def test_rates_are_those_of_a_whole_run(self, stepped):
        _, _, log, _, whole = stepped
        assert [r.rates for r in log] == [r.rates for r in whole]
        assert log.rated_epochs.tolist() == whole.rated_epochs.tolist()

    def test_outputs_are_those_of_a_whole_run(self, stepped, tmp_path):
        scenario, _, log, whole_scenario, whole = stepped
        write_records(log, tmp_path / "stepped", scenario)
        write_records(whole, tmp_path / "whole", whole_scenario)
        for name in ("epochs.csv", "summary.json"):
            assert ((tmp_path / "stepped" / name).read_bytes()
                    == (tmp_path / "whole" / name).read_bytes())

    def test_outputs_have_the_records_rates(self, stepped, tmp_path):
        scenario, _, log, _, _ = stepped
        write_records(log, tmp_path, scenario, plots=True)
        with open(tmp_path / "epochs.csv") as f:
            rows = list(csv.DictReader(f))
        records = list(log)
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            assert row["traffic"] == record.traffic_state
            for tag in ("proposed", "conventional", "perfect"):
                assert row[f"rate_{tag}"] == ("%.17e" % record.rates[tag].rate
                                              if record.rates else "")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["on_epochs"] == sum(r.traffic_state == "ON"
                                           for r in records)
        assert list(summary["mean_rates"]) == ["conventional", "perfect",
                                               "proposed"]
        for tag, mean in summary["mean_rates"].items():
            assert mean == float(np.mean([r.rates[tag].rate for r in records
                                          if r.rates]))


def test_a_read_rates_only_the_epochs_stepped_since_the_last_read(
        monkeypatch, tmp_path):
    # a log read after every step passes each traffic-ON epoch to
    # steered_links once per method, and writes the outputs of a whole run,
    # whose one read after the loop makes one call per method
    rows, steered_links = [], simulate.steered_links

    def counting(cfg, truth_x, *args):
        rows.append(len(truth_x))
        return steered_links(cfg, truth_x, *args)

    monkeypatch.setattr(simulate, "steered_links", counting)
    scenario = dataclasses.replace(default_scenario(), num_epochs=120)
    state = SimState(scenario)
    for _ in range(scenario.num_epochs):
        run_epoch(state)
        state.log[-1]
    on, methods = sum(state.log.traffic_on), len(scenario.rated_methods)
    assert methods == 3 and on > 20
    assert sum(rows) == on * methods
    rows.clear()
    whole = run_scenario(scenario)
    write_records(whole, tmp_path / "whole", scenario, plots=True)
    assert rows == [on] * methods
    write_records(state.log, tmp_path / "stepped", scenario, plots=True)
    assert rows == [on] * methods
    for name in ("epochs.csv", "summary.json", "variance.svg", "rate.svg"):
        assert ((tmp_path / "stepped" / name).read_bytes()
                == (tmp_path / "whole" / name).read_bytes()), name


class TestEmitPlots:
    def test_variance_plot_contents(self, short_run, tmp_path):
        _, records = short_run
        paths = emit_plots(records, tmp_path)
        svg = paths[0].read_text()
        assert "threshold" in svg
        sensing = sum(r.action is Action.SENSING for r in records)
        assert sensing
        # one marker per sensing epoch, and no other circle of that radius
        assert svg.count('r="3.5"') == sensing
        assert "stroke-dasharray" in svg  # the threshold line

    @pytest.mark.parametrize("run", ["short_run", "long_run"])
    def test_variance_traces_match_a_per_point_reference(self, request, run,
                                                         tmp_path):
        # the traces are mapped to pixels on arrays; mapping and formatting
        # each point on Python floats must give the same text
        scenario, records = request.getfixturevalue(run)
        threshold = scenario.policy.variance_threshold
        svg = emit_plots(records, tmp_path)[0].read_text()
        series = [[math.log10(max(r.arms[tag].predicted_angle_variance, 1e-12))
                   for r in records]
                  for tag in ("proposed", "random") if tag in records[0].arms]
        logs = [v for values in series for v in values]
        logs.append(math.log10(threshold))
        to_x = plots._scaler(0, max(len(records) - 1, 1), plots._MARGIN_L,
                             plots._WIDTH - plots._MARGIN_R)
        to_y = plots._scaler(min(logs) - 0.2, max(logs) + 0.2,
                             plots._HEIGHT - plots._MARGIN_B, plots._MARGIN_T)
        want = [" ".join(f"{to_x(k):.2f},{to_y(v):.2f}"
                         for k, v in enumerate(values)) for values in series]
        # the threshold line's dash attribute keeps it out of this match
        assert re.findall(r'stroke-width="1.5" points="([^"]*)"', svg) == want

    def test_an_empty_log_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"^no records to plot$"):
            emit_plots(RunLog(default_scenario()), tmp_path / "plots")
        assert not (tmp_path / "plots").exists()

    def test_rate_plot_with_gaps(self, short_run, tmp_path):
        _, records = short_run
        paths = emit_plots(records, tmp_path)
        svg = paths[1].read_text()
        for tag in ("proposed", "conventional", "perfect"):
            assert tag in svg

    @pytest.mark.parametrize("arms, gated", [
        (simulate.COMPARISON_ARMS, ["proposed", "random"]),
        (("perfect", "random"), ["proposed", "random"]),
        (("conventional",), ["proposed"]),
    ])
    def test_variance_series_are_the_gated_arms_in_log_order(self, arms,
                                                             gated):
        # the arm table says which arms are gated; the summary's crossing
        # epochs and the variance plot read them in the log's order
        log = RunLog(dataclasses.replace(default_scenario(),
                                         comparison_arms=arms))
        assert list(cli._variance_series(log)) == gated
        for tag, values in cli._variance_series(log).items():
            assert values is log.arms[tag].variance

    @pytest.mark.parametrize("arms, rated", [
        (None, ["proposed", "conventional", "perfect"]),
        ("random", ["proposed"]),
        ("perfect", ["proposed", "perfect"]),
    ], ids=["default", "random", "perfect"])
    def test_rate_legend_lists_the_rated_methods(self, tmp_path, arms, rated):
        cfg = tmp_path / "s.yaml"
        cfg.write_text("num_epochs: 30\n")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg), "--out", str(out), "--emit-plots"]
        assert main(argv + (["--arms", arms] if arms else [])) == 0
        svg = (out / "rate.svg").read_text()
        legend = re.findall(r'<text x="\d+" y="(\d+)" font-size="12" '
                            r'fill="#\w+">(\w+)</text>', svg)
        assert [tag for _, tag in legend] == rated
        # the entries close up, one line apart
        assert [int(y) for y, _ in legend] == [34 + 14 * i
                                               for i in range(len(rated))]
        # one colour per method, on its legend entry and its traces alone
        assert len(set(re.findall(r'"(#[0-9a-f]{6})"', svg))) == len(rated)

    @pytest.mark.parametrize("overrides", [
        {"num_epochs": 40},
        {"num_epochs": 12,
         "traffic": {"mode": "intervals", "intervals": [[5, 6]]}},
        {"num_epochs": 12,
         "traffic": {"mode": "intervals", "intervals": [[0, 12]]}},
        {"num_epochs": 12, "traffic": {"mode": "intervals", "intervals": []}},
        {"num_epochs": 1,
         "traffic": {"mode": "intervals", "intervals": [[0, 1]]}},
    ], ids=["bernoulli", "one_epoch_interval", "all_on", "all_off",
            "one_epoch_run"])
    def test_rate_plot_matches_a_per_point_reference(self, overrides):
        scenario = scenario_from_dict(overrides)
        log = run_scenario(scenario)
        on = (False, *log.traffic_on, False)
        lone = [k for k in range(len(log))
                if on[k + 1] and not (on[k] or on[k + 2])]
        svg = plots._rate_svg(log)
        # a lone ON epoch is a dot of each of the three rated methods
        assert svg.count("<circle") == 3 * len(lone)
        if overrides["num_epochs"] == 40:
            assert lone and len(lone) < sum(on)
        assert svg == rate_svg_per_point(log)

    def test_long_rate_plot_matches_a_per_point_reference(self, long_run):
        _, log = long_run
        assert plots._rate_svg(log) == rate_svg_per_point(log)

    def test_all_off_traffic_still_emits_rate_plot(self, tmp_path):
        scenario = dataclasses.replace(
            default_scenario(), num_epochs=10,
            traffic=TrafficModel(mode="intervals", intervals=()))
        records = run_scenario(scenario)
        paths = emit_plots(records, tmp_path)
        assert paths[1].exists()
        assert "<svg" in paths[1].read_text()


class TestMainEntry:
    def test_run_and_validate_succeed(self, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_text("num_epochs: 12\nseed: 3\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--emit-plots"]) == 0
        for name in ("epochs.csv", "summary.json", "manifest.json",
                     "variance.svg", "rate.svg"):
            assert (out / name).exists()

    def test_manifest_lists_the_plots(self, tmp_path):
        # written last, so it lists every output, the plots included
        cfg = tmp_path / "s.yaml"
        cfg.write_text("num_epochs: 5\n")
        for flags, plots in (([], []),
                             (["--emit-plots"], ["variance.svg", "rate.svg"])):
            out = tmp_path / f"out{len(flags)}"
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         *flags]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["outputs"] == ["epochs.csv", "summary.json",
                                           *plots]

    def test_plots_are_written_inside_the_manifest_window(self, tmp_path,
                                                          monkeypatch):
        spans = []

        def timed_emit_plots(*args, **kwargs):
            start = datetime.now(timezone.utc)
            paths = emit_plots(*args, **kwargs)
            spans.append((start, datetime.now(timezone.utc)))
            return paths

        monkeypatch.setattr("cfisac.cli.emit_plots", timed_emit_plots)
        cfg = tmp_path / "s.yaml"
        cfg.write_text("num_epochs: 5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--emit-plots"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        [(start, end)] = spans
        assert datetime.fromisoformat(manifest["started_at"]) <= start
        assert end <= datetime.fromisoformat(manifest["finished_at"])

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_flag_outside_64_bits_rejected(self, tmp_path, capsys, seed):
        # the streams key on the seed's low 64 bits, so such a seed would
        # repeat another seed's run under a different config digest
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--seed", str(seed)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(f"num_epochs: 3\nseed: {2 ** 64 - 1}\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 2 ** 64 - 1

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "s.yaml"
        cfg.write_text("num_epochs: 8\nseed: 3\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a),
                     "--seed", "99"]) == 0
        assert main(["run", "--out", str(out_b), "--seed", "99"]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("system:\n  tx_power: -2\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "tx_power" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_text("num_epochs: 5\n")
        # a valid scenario, but the output directory cannot be created
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "runtime error" in capsys.readouterr().err

    def test_stepping_error_names_the_epoch_and_the_arm(self, tmp_path,
                                                        capsys):
        # the proposed arm's first planning bound squares a cross section
        # of 1e-200 to zero gain, in Python floats
        cfg = tmp_path / "s.yaml"
        cfg.write_text("system: {mean_rcs: 1.0e-200}\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "runtime error: epoch 0, proposed arm: "
            "sensing gain must have positive power\n")

    def test_non_finite_posterior_names_the_arm(self, tmp_path, capsys):
        # a transmit power of 1e-300 leaves hop gains so small that the
        # conventional arm's measurement noise and values overflow; the
        # update rejects the posterior rather than keep a NaN mean
        cfg = tmp_path / "s.yaml"
        cfg.write_text("system: {tx_power: 1.0e-300}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "runtime error: epoch 162, conventional arm: posterior for APs "
            "(0, 1, 2, 3) is not finite\n")
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("position_x, message", [
        (124.75, "path gain to transmitting AP 0 overflows: the range is "
                 "too short"),
        (249.75, "range to AP 1 is too short: its cube underflows and the "
                 "jacobian is singular"),
    ], ids=["on_the_transmitter", "on_a_receiver"])
    def test_a_hop_too_short_names_the_ap(self, tmp_path, capsys,
                                          position_x, message):
        # epoch 0's truth lands on the AP, 1e-300 m off the corridor: the
        # transmit hop's path gain overflows, or a range cubed underflows
        cfg = tmp_path / "s.yaml"
        cfg.write_text(f"target: {{position_x: {position_x}}}\n"
                       "system: {corridor_offset: 1.0e-300}\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"runtime error: epoch 0, conventional arm: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ("system: {noise_power: 1.0e+300}",
         "proposed arm: Fisher information for (delay, doppler) is not "
         "positive definite"),
        ("system: {corridor_offset: 1.0e+200}",
         "conventional arm: sensing gain must have positive power"),
        ("system: {mean_rcs: 1.0e+200}",
         "proposed arm: bound block of AP 0 is not positive definite"),
        ("initial_estimate: {covariance_diag: [1.0e+300, 1.0e+300]}",
         "proposed arm: subset variances must not be NaN"),
    ], ids=["noise_power", "corridor_offset", "mean_rcs", "covariance_diag"])
    def test_a_bound_past_the_float_range_names_the_arm(self, tmp_path,
                                                        capsys, text,
                                                        message):
        # a noise power of 1e300 underflows the unit-gain block's Fisher
        # information to a zero determinant; a corridor offset of 1e200
        # overflows the squared offset of the range-rate slope, which
        # _linearize takes as inf, and underflows every hop gain to zero;
        # a mean cross-section of 1e200 underflows every entry of the
        # planning bound blocks to zero; a prior variance of 1e300
        # overflows the scorer's det P, and its variances are NaN. These
        # configs pass validate today, and fail only when run.
        cfg = tmp_path / "s.yaml"
        cfg.write_text(text + "\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"runtime error: epoch 0, {message}\n")
        assert caught == []
        assert not (tmp_path / "o").exists()

    def test_a_non_finite_rate_names_the_method_and_the_epoch(self, tmp_path,
                                                              capsys):
        # epoch 0 carries traffic, so no arm senses, and its truth lands on
        # AP 0, 1e-300 m off the corridor: the downlink SNR overflows
        cfg = tmp_path / "s.yaml"
        cfg.write_text("num_epochs: 2\narms: [perfect]\n"
                       "target: {position_x: 124.75}\n"
                       "system: {corridor_offset: 1.0e-300}\n"
                       "traffic: {mode: intervals, intervals: [[0, 1]]}\n")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "runtime error: epoch 0, proposed rates: downlink SNR is not "
            "finite\n")
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        cfg = tmp_path / "s.yaml"
        cfg.write_text("num_epochs: 60\n")
        for hash_seed in ("1", "2"):
            subprocess.run(
                [sys.executable, "-m", "cfisac.cli", "run", "--config",
                 str(cfg), "--out", str(tmp_path / hash_seed), "--emit-plots"],
                env={**src_env(), "PYTHONHASHSEED": hash_seed},
                capture_output=True, timeout=60, check=True)
        for name in ("epochs.csv", "summary.json", "variance.svg",
                     "rate.svg"):
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name

    def test_arms_flag(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--seed", "4",
                     "--arms", "proposed,perfect"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["mean_rates"]) == {"proposed", "perfect"}

    @pytest.mark.parametrize("flag", ["", "proposed"])
    def test_arms_flag_without_comparison_arms(self, tmp_path, flag):
        # read the same way as `arms: ""` in the scenario file
        cfg = tmp_path / "s.yaml"
        cfg.write_text("num_epochs: 3\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--arms", flag]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["canonical_config"]["arms"] == []
        cfg.write_text('num_epochs: 3\narms: ""\n')
        assert load_scenario(cfg).comparison_arms == ()

    @pytest.mark.parametrize("text, field", [
        ("system:\n  num_symbols: 1\n", "num_symbols"),
        ("system:\n  antennas_per_ap: 1\n", "antennas_per_ap"),
        ("initial_estimate:\n  covariance_diag: [-1, 1]\n", "semidefinite"),
        ("initial_estimate:\n  covariance: [[1, 5], [0, 1]]\n", "symmetric"),
        ("initial_estimate:\n  mean: [.nan, 25]\n", "finite"),
        ("system:\n  process_noise_std: .nan\n", "process_noise_std"),
        ("system:\n  tx_power: .inf\n", "tx_power"),
        ("system:\n  mean_rcs: .inf\n", "mean_rcs"),
        ("system:\n  epoch_duration: .inf\n", "epoch_duration"),
        ("system:\n  ap_positions: [125, .nan, 375, 500]\n", "ap_positions"),
        ("target:\n  position_x: .nan\n"
         "initial_estimate:\n  mean: [0, 25]\n", "target"),
        ("target:\n  velocity_x: .inf\n"
         "initial_estimate:\n  mean: [0, 25]\n", "target"),
        ("system:\n  num_aps: .inf\n", "num_aps"),
        ("system:\n  num_aps: 0\n", "num_aps"),
        ("system:\n  carrier_frequency: 0\n", "carrier_frequency"),
        ("num_epochs: [3]\n", "num_epochs"),
        ("policy:\n  subset_cardinality: [2]\n", "subset_cardinality"),
        ("target:\n  position_x: [1]\n", "position_x"),
        ("traffic:\n  on_probability: [1]\n", "on_probability"),
        ("traffic:\n  intervals: 5\n", "traffic"),
        ("system:\n  ap_positions: 5\n", "ap_positions"),
        ("system:\n  ap_positions: \"1234\"\n", "ap_positions"),
        ("arms: 5\n", "arms"),
        ("system:\n  num_aps: 4.7\n", "num_aps"),
        ("num_epochs: 2.9\n", "num_epochs"),
        ("seed: 2.5\n", "seed"),
        ("seed: -1\n", "seed"),
        (f"seed: {2 ** 64}\n", "seed"),
        # never reaches run: validate must reject it first, or run would
        # draw 2**32 + 1 traffic flags
        (f"num_epochs: {2 ** 32 + 1}\n", "num_epochs"),
        ("policy:\n  exclude_tx_ap: \"false\"\n", "exclude_tx_ap"),
        ("phase_mode: bogus\n", "phase_mode"),
        ("angle_mode: bogus\n", "angle_mode"),
        ("policy:\n  subset_cardinality: 9\n", "subset_cardinality"),
        ("system:\n  num_aps: 24\npolicy:\n  subset_cardinality: 12\n",
         "subset_cardinality"),
        ("traffic:\n  mode: intervals\n  intervals: [[0, 5.5]]\n",
         "intervals"),
        ("system:\n  tx_power: true\n", "tx_power"),
        ("target:\n  position_x: false\n", "position_x"),
        ("traffic:\n  on_probability: true\n", "on_probability"),
        ("traffic:\n  mode: intervals\n  intervals: [[true, 3]]\n",
         "intervals"),
        ("system:\n  ap_positions: [true, 250, 375, 500]\n", "ap_positions"),
        ("initial_estimate:\n  covariance_diag: [true, 1]\n",
         "covariance_diag"),
        # the (x, y) pairs of an earlier schema, whose y had to be 0
        ("system:\n  ap_positions: [[125, 0], [250, 0], [375, 0], [500, 0]]\n",
         "ap_positions"),
        ("initial_estimate:\n  mean: [0, 25]\n  offset: [300, 0]\n",
         "offset"),
        ("initial_estimate:\n  covariance: [[100, 0], [0, 1]]\n"
         "  covariance_diag: [1.0e6, 1.0e6]\n", "covariance_diag"),
        ("traffic:\n  intervals: [[0, 2]]\n", "intervals"),
        ("policy:\n  variance_threshold: .inf\n", "variance_threshold"),
        ("traffic:\n  mode: intervals\n  intervals: [[0, 2]]\n"
         "  on_probability: 0.9\n", "on_probability"),
        ("system: {epoch_duration: 1.0e80}\n", "epoch_duration**4"),
        ("system: {process_noise_std: 1.0e160}\n", "process_noise_std**2"),
        ("system: {epoch_duration: 1.0e70, process_noise_std: 1.0e20}\n",
         "times the epoch_duration terms"),
        ("system: {carrier_frequency: 1.0e300}\n", "carrier_frequency"),
        ("system: {carrier_frequency: 1.0e-150}\n", "carrier_frequency"),
        ("system: 5\n", "system"),
        ("initial_estimate: {foo: 1}\n", "foo"),
        ("initial_estimate: {mean: [1, 2, 3]}\n", "initial_estimate"),
        ("system: {cp_length: -1}\n", "cp_length"),
        ("system: {process_noise_std: -0.1}\n", "process_noise_std"),
        ("system: {num_aps: 3, ap_positions: [1, 2]}\n", "ap_positions"),
        ("policy: {subset_cardinality: -1}\n", "subset_cardinality"),
        ("traffic: {on_probability: 1.5}\n", "on_probability"),
    ], ids=["one_symbol", "one_antenna", "negative_variance", "asymmetric",
            "nan_mean", "nan_process_noise", "inf_tx_power", "inf_mean_rcs",
            "inf_epoch_duration", "nan_ap_position", "nan_target_position",
            "inf_target_velocity", "inf_num_aps", "zero_num_aps",
            "zero_carrier", "list_num_epochs", "list_cardinality",
            "list_target_position", "list_on_probability", "scalar_intervals",
            "scalar_ap_positions", "string_ap_positions", "scalar_arms",
            "fractional_num_aps", "fractional_num_epochs", "fractional_seed",
            "negative_seed", "seed_past_64_bits", "epochs_past_32_bits",
            "string_bool", "unknown_phase_mode", "unknown_angle_mode",
            "infeasible_cardinality", "too_many_aps", "fractional_interval",
            "bool_tx_power", "bool_target_position", "bool_on_probability",
            "bool_interval", "bool_ap_position", "bool_covariance_diag",
            "pair_ap_positions", "mean_and_offset",
            "covariance_and_diag", "bernoulli_intervals",
            "inf_policy_threshold", "intervals_on_probability",
            "epoch_duration_overflows_q", "process_noise_overflows_q",
            "product_overflows_q",
            "wavelength_sq_underflows", "wavelength_sq_overflows",
            "scalar_system", "unknown_estimate_key", "three_entry_mean",
            "negative_cp_length", "negative_process_noise",
            "ap_positions_short_of_num_aps", "negative_cardinality",
            "on_probability_above_one"])
    def test_run_time_failures_rejected_by_validate(self, tmp_path, capsys,
                                                    text, field):
        # sensing with these would fail mid-run, run on a meaningless prior
        # or a truncated value, or crash the loader, so both commands must
        # stop at load with a config error
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({"num_epochs": 3,
                                       **yaml.safe_load(text)}))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 2 and field in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, key", [
        ("symbol_alphabet: ones\n", "symbol_alphabet"),
        ("system:\n  wavelength: 0.01\n", "wavelength"),
        ("system:\n  outage_probability: 0.05\n", "outage_probability"),
        ("policy:\n  outage_probability: 0.05\n", "outage_probability"),
    ], ids=["symbol_alphabet", "system_wavelength", "system_outage",
            "policy_outage"])
    def test_removed_keys_rejected(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "old.yaml"
        cfg.write_text("num_epochs: 3\n" + text)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("unknown key") == 2 and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, key", [
        ("num_epochs: 10\nnum_epochs: 20\n", "num_epochs"),
        ("system: {num_aps: 4, num_aps: 6}\n", "num_aps"),
        ("policy:\n  subset_cardinality: 2\n  subset_cardinality: 3\n",
         "subset_cardinality"),
    ], ids=["top_level", "nested_flow", "nested_block"])
    def test_repeated_keys_rejected(self, tmp_path, capsys, loader_base,
                                    text, key):
        # PyYAML would keep the last value and run with it
        cfg = tmp_path / "dup.yaml"
        cfg.write_text(text)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"found duplicate key '{key}'") == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, kind", [
        ("[]\n", "list"), ("0\n", "int"), ("false\n", "bool"),
        ("''\n", "str"),
    ], ids=["empty_list", "zero", "false", "empty_string"])
    def test_falsy_document_is_not_the_defaults(self, tmp_path, capsys,
                                                 text, kind):
        # only an empty file or `~` stands for the defaults
        cfg = tmp_path / "falsy.yaml"
        cfg.write_text(text)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"config: expected a mapping, got {kind}") == 2
        assert not (tmp_path / "o").exists()

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        # a directory; a file without read permission takes the same path,
        # but cannot be made unreadable to a root user
        assert main(["validate", "--config", str(tmp_path)]) == 2
        assert main(["run", "--config", str(tmp_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"config error: cannot read {tmp_path}") == 2
        assert not (tmp_path / "o").exists()

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bin.yaml"
        cfg.write_bytes(b"num_epochs: \xff\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"config error: cannot read {cfg}: 'utf-8'") == 2
        assert not (tmp_path / "o").exists()

    def test_threshold_is_a_policy_key_only(self, tmp_path, capsys):
        # a system threshold would be a second owner of the sensing trigger
        cfg = tmp_path / "s.yaml"
        cfg.write_text("num_epochs: 5\nsystem:\n  variance_threshold: 0.5\n"
                       "policy:\n  variance_threshold: 0.001\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("system: unknown key(s) ['variance_threshold']") == 2
        assert not (tmp_path / "o").exists()
        # far above the prior's angle variance, so no epoch senses
        cfg.write_text("num_epochs: 5\npolicy:\n  variance_threshold: 10.0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        canonical = json.loads(
            (out / "manifest.json").read_text())["canonical_config"]
        assert canonical["policy"]["variance_threshold"] == 10.0
        assert "variance_threshold" not in canonical["system"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sensing_epochs"] == 0
        cfg.write_text("num_epochs: 5\n")  # the default threshold senses
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sensing_epochs"] > 0

    def test_bad_arms_flag_is_config_error(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "o"),
                     "--arms", "proposed,telepathy"]) == 2

    def test_num_aps_defaults_to_the_number_of_positions(self, tmp_path,
                                                         capsys):
        positions = "ap_positions: [100, 200, 300, 400, 500]"
        cfg = tmp_path / "s.yaml"
        cfg.write_text(f"num_epochs: 5\nsystem: {{{positions}}}\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        system = json.loads(
            (out / "manifest.json").read_text())["canonical_config"]["system"]
        assert system["num_aps"] == 5 and type(system["num_aps"]) is int
        # the canonical config states the count, as a scenario giving it does
        stated = scenario_from_dict({"num_epochs": 5, "system": {
            "num_aps": 5, "ap_positions": [100, 200, 300, 400, 500]}})
        assert config_digest(load_scenario(cfg)) == config_digest(stated)
        for num_aps in (4, 6):
            cfg.write_text(
                f"num_epochs: 5\nsystem: {{num_aps: {num_aps}, {positions}}}\n")
            assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.count(
            "ap_positions: length must equal num_aps") == 2


class TestApBudget:
    """The AP count is bounded only where a search or a draw needs it: by
    the rows one `score_subsets` call may score, C(20, 10) = 184756, and
    by the random arm's 64-bit mask at k = 0."""

    def validate(self, tmp_path, text):
        cfg = tmp_path / "aps.yaml"
        cfg.write_text(text)
        return main(["validate", "--config", str(cfg)])

    def test_subset_table_over_the_budget_rejected(self, tmp_path, capsys):
        code = self.validate(tmp_path, "system:\n  num_aps: 24\n"
                             "policy:\n  subset_cardinality: 12\n")
        assert code == 2
        err = capsys.readouterr().err
        assert ("the 24 available APs have 2704156 subsets of 12 to score, "
                "over the budget of 184756") in err

    @pytest.mark.parametrize("text", [
        "system:\n  num_aps: 20\npolicy:\n  subset_cardinality: 10\n",
        "system:\n  num_aps: 64\npolicy:\n  subset_cardinality: 0\n"
        "arms: [conventional, perfect]\n",
        "system:\n  num_aps: 64\npolicy:\n  subset_cardinality: 0\n"
        "  exclude_tx_ap: true\n",
    ], ids=["budget_exactly", "unconstrained_64_without_random",
            "random_63_available"])
    def test_within_the_budget_loads(self, tmp_path, capsys, text):
        assert self.validate(tmp_path, text) == 0, capsys.readouterr().err

    def test_random_arm_unconstrained_past_63_aps_rejected(self, tmp_path,
                                                         capsys):
        # its draw, rng.integers(1, 2 ** 64), would raise at the first
        # sensing epoch
        code = self.validate(tmp_path, "system:\n  num_aps: 64\n"
                             "policy:\n  subset_cardinality: 0\n")
        assert code == 2
        err = capsys.readouterr().err
        assert ("the random arm draws an unconstrained receive set from at "
                "most 63 available APs, not 64") in err

    @pytest.mark.parametrize("text, num_epochs, first_pick", [
        ("arms: [random]\npolicy: {subset_cardinality: 0}\n", 40, None),
        ("arms: [random]\nsystem: {num_aps: 64}\n"
         "policy: {subset_cardinality: 0, exclude_tx_ap: true}\n", 3, 38),
    ], ids=["four_aps", "63_available"])
    def test_random_arm_unconstrained_runs(self, text, num_epochs,
                                           first_pick):
        # at k = 0 the random arm draws its receive set as a bitmask over
        # the available APs
        raw = {"num_epochs": num_epochs, **yaml.safe_load(text)}
        scenario = scenario_from_dict(raw)
        available = sum(1 << l for l in range(scenario.system.num_aps)
                        if not (scenario.policy.exclude_tx_ap
                                and l == scenario.system.tx_ap))
        arm = run_scenario(scenario).arms["random"]
        picks = [mask for mask in arm.bitmask if mask]
        assert picks and picks[0] == arm.bitmask[0]
        assert all(mask & ~available == 0 for mask in picks)
        if first_pick is not None:
            assert bin(picks[0]).count("1") == first_pick
        again = run_scenario(scenario_from_dict(raw)).arms["random"]
        assert again.bitmask == arm.bitmask
        assert [again.mean_p.tobytes(), again.p00.tobytes()] == [
            arm.mean_p.tobytes(), arm.p00.tobytes()]

    def test_thirty_two_aps_run_every_arm(self, tmp_path):
        cfg, out = tmp_path / "aps.yaml", tmp_path / "out"
        cfg.write_text("num_epochs: 5\nsystem:\n  num_aps: 32\n"
                       "policy:\n  subset_cardinality: 2\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "epochs.csv").read_text().splitlines()
        assert len(rows) == 6
        assert "rate_conventional" in rows[0]


class TestSummarize:
    def test_crossing_epochs_reported_per_arm(self, short_run):
        scenario, records = short_run
        summary = summarize_records(records, scenario)
        crossing = summary["threshold_crossing_epoch"]
        gamma = scenario.policy.variance_threshold
        k = crossing["proposed"]
        assert records[k].predicted_angle_variance < gamma
        assert all(r.predicted_angle_variance >= gamma for r in records[:k])
        assert crossing["random"] is not None


    def test_another_scenarios_config_is_rejected(self, short_run, tmp_path):
        # the threshold, the digest and the columns would come from two
        # configs; a copy of the log's own scenario is accepted
        scenario, records = short_run
        other = dataclasses.replace(scenario, policy=SensingPolicy(1e9))
        message = r"^scenario: not the config of the run in the log$"
        with pytest.raises(ValueError, match=message):
            summarize_records(records, other)
        with pytest.raises(ValueError, match=message):
            write_records(records, tmp_path / "out", other)
        assert not (tmp_path / "out").exists()
        assert (summarize_records(records, dataclasses.replace(scenario))
                == summarize_records(records, scenario))

# (phase_mode, angle_mode): every combination a scenario can set
MODES = [("compensated", "per_ap"), ("compensated", "global"),
         ("geometric", "per_ap"), ("geometric", "global")]


@pytest.mark.parametrize("phase_mode, angle_mode", MODES)
@pytest.mark.parametrize("workload", ["ref_all", "select_dense"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scaling_tx_and_noise_power_together_leaves_the_run(
        tmp_path, workload, seed, phase_mode, angle_mode):
    # power enters the bound and the downlink SNR only as a ratio to the
    # noise, and scaling both by a power of two is exact in binary floats
    overrides = {**WORKLOADS[workload]["overrides"],
                 "phase_mode": phase_mode, "angle_mode": angle_mode}
    defaults = SystemConfig()

    def epochs_csv(scale):
        system = {**overrides.get("system", {}),
                  "tx_power": defaults.tx_power * scale,
                  "noise_power": defaults.noise_power * scale}
        scenario = scenario_from_dict({**overrides, "system": system,
                                       "seed": seed})
        out = tmp_path / f"scale{scale}"
        write_records(run_scenario(scenario), out, scenario, plots=False)
        return (out / "epochs.csv").read_bytes()

    base = epochs_csv(1.0)
    for exponent in (-3, 2, 7):
        assert epochs_csv(2.0 ** exponent) == base, exponent


def mirrored(scenario):
    """AP i at -x_i, in the same order and with the same transmitter, and
    the target and the prior negated."""
    system = scenario.system
    truth, prior = scenario.initial_truth, scenario.initial_estimate
    return dataclasses.replace(
        scenario,
        system=dataclasses.replace(system, ap_positions=tuple(
            -x for x in system.ap_positions)),
        initial_truth=TargetTruth(-truth.position_x, -truth.velocity_x),
        initial_estimate=StateEstimate(-prior.mean, prior.covariance))


@pytest.mark.parametrize("phase_mode, angle_mode", MODES)
@pytest.mark.parametrize("workload", ["ref_all", "select_dense"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mirroring_the_deployment_mirrors_the_run(tmp_path, workload, seed,
                                                  phase_mode, angle_mode):
    # the mirrored geometry is a mirror image, so the states flip sign and
    # nothing else moves. In geometric mode each array keeps its +x
    # orientation and element-0 phase reference, so the mirror conjugates
    # the steering kernel but not the LOS phase: the steered rates move,
    # and only the filter columns and the perfect-knowledge
    # rate, whose steering error is zero, stay mirrored or equal.
    scenario = scenario_from_dict({**WORKLOADS[workload]["overrides"],
                                   "seed": seed, "phase_mode": phase_mode,
                                   "angle_mode": angle_mode})
    mirror = mirrored(scenario)

    def rows(run, name):
        write_records(run_scenario(run), tmp_path / name, run, plots=False)
        text = (tmp_path / name / "epochs.csv").read_text()
        return [dict(zip(CSV_COLUMNS, line.split(",")))
                for line in text.splitlines()[1:]]

    states = ("p_x_true", "v_x_true", "p_x_est", "v_x_est")
    unchecked = (("rate_proposed", "rate_conventional", "snr_proposed")
                 if phase_mode == "geometric" else ())
    for got, want in zip(rows(mirror, "mirror"), rows(scenario, "base"),
                         strict=True):
        for column in states:
            assert float(got[column]) == -float(want[column]), column
        rest = set(CSV_COLUMNS) - set(states) - set(unchecked)
        assert {c: got[c] for c in rest} == {c: want[c] for c in rest}


def src_env() -> dict[str, str]:
    """The environment with this checkout's `src` first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO / "src"), *([path] if path else [])])}


def test_importing_the_cli_leaves_statistics_unloaded():
    # statistics, with the fractions and decimal it imports, costs about
    # 2 ms at every start; only variance_threshold_from_hpbw needs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cfisac.cli; print('statistics' in sys.modules)"],
        env=src_env(), capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


# Loads and runs each scenario file given, then one with plots, in a fresh
# interpreter; prints what the runs without plots left loaded, and which
# modules the run with plots loaded anew.
_RUN_AND_REPORT = """
import json, sys
import cfisac.cli as cli
import cfisac.crb as crb

out, configs = sys.argv[1], sys.argv[2:]
for i, config in enumerate(configs):
    cli.load_scenario(config)
    assert cli.main(["validate", "--config", config]) == 0
    assert cli.main(["run", "--config", config, "--out", f"{out}/{i}"]) == 0
report = {"oracles": "cfisac._oracles" in sys.modules,
          "plots": "cfisac.plots" in sys.modules,
          "crb_holds_oracle": "build_waveform_vector" in vars(crb)}
loaded = set(sys.modules)
assert cli.main(["run", "--config", configs[0], "--out", f"{out}/plots",
                 "--emit-plots"]) == 0
report["loaded_by_plots"] = sorted(set(sys.modules) - loaded)
print(json.dumps(report))
"""


def test_a_run_loads_neither_the_oracles_nor_the_plots(tmp_path):
    # the code no run executes stays off the import path: the oracles and
    # record types of `_oracles` on every run, the SVG writers of `plots`
    # until a run emits plots, and then nothing else
    scenarios = [*(w["overrides"] for w in WORKLOADS.values()),
                 {"num_epochs": 30, "phase_mode": "geometric",
                  "angle_mode": "global", "policy": {"subset_cardinality": 0}}]
    configs = []
    for i, overrides in enumerate(scenarios):
        configs.append(tmp_path / f"scenario{i}.yaml")
        configs[-1].write_text(json.dumps(overrides))  # JSON is YAML
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_REPORT, str(tmp_path / "out"),
         *map(str, configs)],
        env=src_env(), capture_output=True, text=True, timeout=120,
        check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "oracles": False, "plots": False, "crb_holds_oracle": False,
        "loaded_by_plots": ["cfisac.plots"]}
