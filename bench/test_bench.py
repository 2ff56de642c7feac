"""Self-test of the benchmark in smoke mode (tiny epoch counts)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_output_names_every_metric_with_its_unit(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = _bench("--workload", "ref_all", "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace == 0:
        assert any(line.startswith("[ref_all seed 3] fail_ratio = 0 ")
                   for line in lines)


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from layertrace import MODULES, Tracer
    import cfisac
    import cfisac.cli
    from cfisac.simulate import RngStream

    namespaces = [cfisac] + [getattr(cfisac, m) for m in MODULES]
    before = [dict(vars(ns)) for ns in namespaces]
    generator = RngStream.__dict__["generator"]
    config = tmp_path / "scenario.yaml"
    config.write_text("num_epochs: 4\n")
    with Tracer() as tracer:
        assert cfisac.simulate.predict is not before[0]["predict"]
        assert cfisac.cli.main(["run", "--config", str(config),
                                "--out", str(tmp_path / "out")]) == 0
    layers = tracer.summary()["layers"]
    assert layers["simulate.run_epoch"]["calls"] == 4
    assert layers["simulate.RngStream.generator"]["calls"] > 0
    assert layers["tracking.predict"]["calls"] > 0
    assert RngStream.__dict__["generator"] is generator
    for ns, saved in zip(namespaces, before):
        assert all(vars(ns)[k] is v for k, v in saved.items()), ns.__name__


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "ref_all", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
