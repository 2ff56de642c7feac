"""tools/same_outputs.py: a tree matches itself, and a difference is
reported by its first cell and each column's worst relative difference."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_a_directory_side_resolves_to_itself(tmp_path):
    assert load_tool().resolve(str(ROOT), tmp_path) == ROOT


@pytest.mark.skipif(not (ROOT / ".git").exists(),
                    reason="revisions need a git checkout")
def test_a_revision_side_is_exported_from_git(tmp_path):
    tree = load_tool().resolve("HEAD", tmp_path)
    assert tree.parent == tmp_path
    want = subprocess.run(
        ["git", "-C", str(ROOT), "show", "HEAD:src/cfisac/simulate.py"],
        capture_output=True, check=True).stdout
    assert (tree / "src" / "cfisac" / "simulate.py").read_bytes() == want
    assert not list(tree.rglob("__pycache__"))


def test_an_unknown_side_exits_2():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "no-such-revision", "--seeds",
         "0", "--smoke"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "no-such-revision: neither a directory" in done.stderr
    assert done.stdout == ""
