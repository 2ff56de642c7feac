"""The power-scaling and mirror symmetries of a whole run, over random seeds
and scalings of the selection-heavy `select_dense` scenario."""
import json
import tempfile
from pathlib import Path

import pytest

from cfisac.cli import CSV_COLUMNS, scenario_from_dict, write_records
from cfisac.config import SystemConfig
from cfisac.simulate import run_scenario
from test_cli import mirrored

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
