"""tools/same_outputs.py: a tree matches itself, and a difference is
reported by its first cell and each column's worst relative difference."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_matches_itself_at_the_smoke_lengths():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--seeds", "0",
         "--smoke"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == [
        f"{workload}: 1 of 1 seeds byte-identical"
        for workload in ("ref_all", "select_dense", "long_sparse")]


def test_a_difference_names_its_first_cell_and_worst_columns(tmp_path):
    tool = load_tool()
    header = "epoch,p_x_est,action\n"
    sides = {"a": header + "0,1.0,Sensing\n1,2.0,Sensing\n",
             "b": header + "0,1.0,Sensing\n1,2.5,NoSensing\n"}
    for side, csv_text in sides.items():
        (tmp_path / side).mkdir()
        for name in tool.OUTPUTS:
            (tmp_path / side / name).write_text(
                csv_text if name == "epochs.csv" else "{}\n")
    assert tool.compare(tmp_path / "a", tmp_path / "b") == [
        "epochs.csv differs",
        "  first difference: row 2, p_x_est: 2.0 != 2.5",
        "  p_x_est: worst relative difference 0.2",
        "  action: non-numeric cells differ"]
    assert tool.compare(tmp_path / "a", tmp_path / "a") == []


def test_seed_ranges():
    assert load_tool().parse_seeds("0-3,7,9-10") == [0, 1, 2, 3, 7, 9, 10]
