"""The power-scaling and mirror symmetries of a whole run, over random seeds
and scalings of the selection-heavy `select_dense` scenario; and the config
loader's agreement across PyYAML's parsers."""
import json
import math
import tempfile
from pathlib import Path

import pytest
import yaml

from cfisac import cli
from cfisac.cli import CSV_COLUMNS, scenario_from_dict, write_records
from cfisac.config import SystemConfig
from cfisac.simulate import run_scenario
from test_cli import mirrored, pure_unique_key_loader, typed

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
SELECT_DENSE = json.loads(
    (REPO / "bench" / "workloads.json").read_text())["select_dense"][
        "overrides"]
SEEDS = st.integers(0, 2 ** 64 - 1)
MODES = st.tuples(st.sampled_from(["compensated", "geometric"]),
                  st.sampled_from(["per_ap", "global"]))


def epochs_csv(scenario) -> str:
    with tempfile.TemporaryDirectory() as out:
        write_records(run_scenario(scenario), Path(out), scenario)
        return (Path(out) / "epochs.csv").read_text()


def select_dense(seed, modes, system=None):
    phase_mode, angle_mode = modes
    return scenario_from_dict({
        **SELECT_DENSE, "seed": seed, "phase_mode": phase_mode,
        "angle_mode": angle_mode,
        "system": {**SELECT_DENSE["system"], **(system or {})}})


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=SEEDS, modes=MODES,
       exponent=st.integers(-30, 30).filter(bool))
def test_scaling_tx_and_noise_power_together_leaves_the_run(seed, modes,
                                                            exponent):
    # power enters the bound and the downlink SNR only as a ratio to the
    # noise, and scaling both by a power of two is exact in binary floats
    defaults, scale = SystemConfig(), 2.0 ** exponent
    scaled = select_dense(seed, modes, {
        "tx_power": defaults.tx_power * scale,
        "noise_power": defaults.noise_power * scale})
    assert epochs_csv(scaled) == epochs_csv(select_dense(seed, modes))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=SEEDS, modes=MODES)
def test_mirroring_the_deployment_mirrors_the_run(seed, modes):
    # the columns test_cli's mirror test checks in geometric mode, where the
    # steered rates move: the states flip sign and the rest stays equal
    scenario = select_dense(seed, modes)
    mirror = mirrored(scenario)

    def rows(run):
        return [dict(zip(CSV_COLUMNS, line.split(",")))
                for line in epochs_csv(run).splitlines()[1:]]

    states = ("p_x_true", "v_x_true", "p_x_est", "v_x_est")
    rest = (set(CSV_COLUMNS) - set(states)
            - {"rate_proposed", "rate_conventional", "snr_proposed"})
    for got, want in zip(rows(mirror), rows(scenario), strict=True):
        for column in states:
            assert float(got[column]) == -float(want[column]), column
        assert {c: got[c] for c in rest} == {c: want[c] for c in rest}


# strings that a YAML 1.1 resolver could read as another type, which the
# dumper must quote
AMBIGUOUS = st.sampled_from([
    "yes", "No", "on", "OFF", "y", "~", "null", "", "1e-09", "1.0e-9", ".5",
    "0x1F", "0o17", "017", "1_000", "190:20:30", ".inf", "-.Inf", ".NaN",
    "2001-12-14", "2001-12-14t21:59:43.10-05:00", "<<", "=", "- a", "a: b",
    "#c", " lead", "trail ", "@x", "'q'", '"q"'])
SCALARS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e-9, 5e-324]),
    st.integers(), st.booleans(), st.none(), st.dates(), AMBIGUOUS,
    st.text(max_size=12))
KEYS = AMBIGUOUS | st.text(max_size=8)
DOCUMENTS = st.dictionaries(KEYS, st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4), max_leaves=12), max_size=6)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(document=DOCUMENTS)
def test_both_loader_bases_load_the_same_values(document):
    # libyaml's parser must hand SafeConstructor what PyYAML's own does
    pure_loader = pure_unique_key_loader()
    for flow in (False, True):
        text = yaml.safe_dump(document, default_flow_style=flow)
        assert (typed(yaml.load(text, Loader=cli._UniqueKeyLoader))
                == typed(yaml.load(text, Loader=pure_loader))), text
