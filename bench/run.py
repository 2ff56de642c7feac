#!/usr/bin/env python3
"""Benchmark of the cfisac simulator.

Run from the repository root:

    python3 bench/run.py --workload ref_all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30
    python3 bench/run.py --workload ref_all --seconds 1 --smoke
    python3 bench/run.py --record --seeds 0-19

Each timed sample is one ``cfisac run`` call, through ``cfisac.cli.main``, in
a fresh child interpreter (``bench/child.py``) that imports cfisac from
``src/``. Children run one at a time, with one BLAS/OpenMP thread each.
Samples repeat until ``--seconds`` have passed; every sample's outputs are
checked, and a failed sample's time is never counted.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (the run call),
``epochs_per_s``, ``setup_s`` (importing ``cfisac.cli`` and loading the
scenario in the fresh interpreter) and ``peak_rss_mb``, each the median over
the samples. On a shared host the speed of all code swings by up to a factor
of two, in phases from under a second to minutes, so each sample also times
a fixed yardstick computation right before and right after its run, and
``run_s`` and ``setup_s`` are scaled by the host factor: the mean of the two
yardstick times over ``YARDSTICK_REF_S``. They are seconds at the reference
host speed; the unscaled wall times are printed beside them.
``--trace 1`` alternates untraced samples with samples run
under ``bench/layertrace.py`` and reports per-layer calls, self and
inclusive times, and the tracing overhead. The workloads, their overrides
of the reference scenario and the layers each is meant to load are in
``bench/workloads.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record`` runs each workload once per seed and stores, in
``bench/reference.json``, the digest of the categorical columns of
``epochs.csv`` and a sample of its float columns; later runs must match them
(floats within a relative 1e-12). A seed without a stored reference only has
to give a byte-identical ``epochs.csv`` on every sample of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"

# Small matrices only: extra BLAS threads add scheduling noise, no speed.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
CHILD_TIMEOUT_S = 120
# Yardstick seconds (bench/child.py) at the reference host speed: about its
# median time on the 2-vCPU Xeon VM the benchmark was tuned on.
YARDSTICK_REF_S = 0.09
REL_TOL = 1e-12
REFERENCE_ROWS = 8
CATEGORICAL = ("action", "traffic", "selection_bitmask")

END_TO_END = {"run_s": "s", "epochs_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# (metric prefix, traced span name, statistics reported)
LAYERS = (
    ("crb.delay_doppler", "crb.crb_delay_doppler", ("calls", "self_s")),
    ("crb.angle", "crb.crb_angle", ("calls", "self_s")),
    ("crb.transform", "crb.transform_to_range_velocity", ("calls", "self_s")),
    ("crb.sensing_gain", "crb.sensing_gain", ("calls", "self_s")),
    ("simulate.crb_blocks", "simulate.crb_blocks_for_state",
     ("calls", "self_s", "total_s")),
    ("simulate.synthesize_measurement", "simulate.synthesize_measurement",
     ("calls", "self_s", "total_s")),
    ("sensing.select_rx_aps", "sensing.select_rx_aps",
     ("calls", "self_s", "total_s")),
    ("tracking.predict", "tracking.predict", ("calls", "self_s")),
    ("tracking.update", "tracking.update", ("calls", "self_s")),
    ("tracking.posterior_covariance", "tracking.posterior_covariance",
     ("calls", "self_s")),
    ("tracking.measurement_jacobian", "tracking.measurement_jacobian",
     ("calls", "self_s")),
    ("simulate.rng_generator", "simulate.RngStream.generator",
     ("calls", "self_s")),
    ("simulate.run_epoch", "simulate.run_epoch", ("calls", "self_s")),
    ("comms.build_channel", "comms.build_channel", ("calls", "self_s")),
    ("comms.predictive_precoder", "comms.predictive_precoder",
     ("calls", "self_s")),
    ("comms.evaluate_link", "comms.evaluate_link", ("calls", "self_s")),
    # Counts only: some workloads never call these, and a time that reads
    # exactly 0 on every run carries no measurement.
    ("comms.perfect_angle_bound", "comms.perfect_angle_bound", ("calls",)),
    ("comms.conventional_baseline", "comms.conventional_baseline",
     ("calls",)),
    ("geometry.array_response", "geometry.array_response",
     ("calls", "self_s")),
    ("geometry.geometry_for_ap", "geometry.geometry_for_ap",
     ("calls", "self_s")),
    ("cli.load_scenario", "cli.load_scenario", ("total_s",)),
    ("cli.write_records", "cli.write_records", ("total_s",)),
    ("cli.emit_plots", "cli.emit_plots", ("calls",)),
)
DERIVED = {"sensing.subsets_scored": "count",
           "sensing.subsets_per_select": "ratio",
           "simulate.sense_epoch_ms.p50": "ms",
           "simulate.idle_epoch_ms.p50": "ms",
           "cli.bytes_written": "bytes",
           "trace.overhead_s": "s",
           "trace.base_run_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {f"{prefix}.{stat}": "count" if stat == "calls" else "s"
             for prefix, _, stats in LAYERS for stat in stats}
    units.update(DERIVED)
    return units


def group_of(span: str) -> str:
    """Coarse layer groups used for the time shares of a traced run."""
    if span.startswith("crb.") or span == "simulate.crb_blocks_for_state":
        return "bounds"
    if span.startswith(("sensing.", "tracking.")):
        return "selection_tracking"
    if span.startswith("comms."):
        return "rates"
    if span.startswith("cli."):
        return "output"
    return "epoch_loop"


# ---------------------------------------------------------------------------
# child processes and output checks

def run_child(args: list[str], result_path: Path) -> tuple[dict | None, str]:
    """Run child.py to completion; returns its result or a failure reason."""
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), "--src", str(SRC),
             "--result", str(result_path), *args],
            env={**os.environ, **CHILD_ENV}, cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"child exited {proc.returncode}: {tail[0]}"
    return json.loads(result_path.read_text()), ""


def read_epochs(out_dir: Path) -> tuple[bytes, list[str], list[list[str]]]:
    data = (out_dir / "epochs.csv").read_bytes()
    lines = data.decode().splitlines()
    return data, lines[0].split(","), [line.split(",") for line in lines[1:]]


def categorical_digest(header: list[str], rows: list[list[str]]) -> str:
    cols = [header.index(c) for c in CATEGORICAL]
    text = "\n".join(",".join(row[i] for i in cols) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def reference_entry(header: list[str], rows: list[list[str]]) -> dict:
    n = len(rows)
    picks = sorted({round(i * (n - 1) / (REFERENCE_ROWS - 1))
                    for i in range(REFERENCE_ROWS)})
    floats = [c for c in header if c != "epoch" and c not in CATEGORICAL]
    cols = [header.index(c) for c in floats]
    return {"num_epochs": n,
            "categorical_sha256": categorical_digest(header, rows),
            "float_columns": floats,
            "rows": {str(i): [rows[i][c] for c in cols] for i in picks}}


def compare_reference(header: list[str], rows: list[list[str]],
                      ref: dict) -> str:
    if categorical_digest(header, rows) != ref["categorical_sha256"]:
        return "action/traffic/selection_bitmask differ from the reference"
    for name in ref["float_columns"]:
        if name not in header:
            return f"float column {name} missing"
    cols = [header.index(c) for c in ref["float_columns"]]
    for idx, expected in ref["rows"].items():
        row = rows[int(idx)]
        for name, col, want in zip(ref["float_columns"], cols, expected):
            got = row[col]
            if got == want:
                continue
            if not (got and want and math.isclose(
                    float(got), float(want), rel_tol=REL_TOL, abs_tol=0.0)):
                return (f"epoch {idx} {name}: {got!r} vs reference {want!r}"
                        f" (relative tolerance {REL_TOL})")
    return ""


def check_outputs(out_dir: Path, num_epochs: int, reference: dict | None,
                  first_sha: str | None) -> tuple[str, str]:
    """Returns (failure reason or "", sha256 of epochs.csv)."""
    manifest = out_dir / "manifest.json"
    if not manifest.is_file():
        return "manifest.json missing", ""
    listed = json.loads(manifest.read_text()).get("outputs") or []
    if "epochs.csv" not in listed:
        return "manifest.json does not list epochs.csv", ""
    missing = [name for name in listed if not (out_dir / name).is_file()]
    if missing:
        return f"manifest lists missing outputs {missing}", ""
    data, header, rows = read_epochs(out_dir)
    sha = hashlib.sha256(data).hexdigest()
    if len(rows) != num_epochs:
        return f"epochs.csv has {len(rows)} rows, expected {num_epochs}", sha
    if first_sha is not None and sha != first_sha:
        return "epochs.csv differs from the first sample of this seed", sha
    if reference is not None:
        if reference["num_epochs"] != num_epochs:
            return "reference was recorded for another epoch count", sha
        return compare_reference(header, rows, reference), sha
    return "", sha


# ---------------------------------------------------------------------------
# one workload

def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def host_factor(result: dict) -> float:
    """How much slower than the reference speed the host ran the sample."""
    return ((result["yardstick_before_s"] + result["yardstick_after_s"])
            / (2 * YARDSTICK_REF_S))


def scaled(result: dict, key: str) -> float:
    return result[key] / host_factor(result)


class WorkloadRun:
    """Samples one workload at one seed and checks every sample's outputs."""

    def __init__(self, name: str, spec: dict, seed: int, smoke: bool) -> None:
        self.name, self.spec, self.seed = name, spec, seed
        self.work = WORK / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "scenario.yaml"
        overrides = dict(spec["overrides"])
        if smoke:
            overrides["num_epochs"] = spec["smoke_epochs"]
        # JSON is a subset of YAML.
        self.config.write_text(json.dumps(overrides))
        self.reference = None
        if not smoke and REFERENCE.is_file():
            stored = json.loads(REFERENCE.read_text())["workloads"]
            self.reference = stored.get(name, {}).get(str(seed))
        self.first_sha: str | None = None
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.failures: list[str] = []

    def warm_up(self) -> dict:
        """Untimed set-up in a child: fills the bytecode cache, reads versions."""
        result, reason = run_child(["--config", str(self.config),
                                    "--setup-only"], self.work / "warm.json")
        if result is None:
            raise RuntimeError(f"{self.name}: warm-up failed: {reason}")
        return result

    def sample(self, traced: bool) -> None:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = ["--config", str(self.config), "--out", str(out),
                "--seed", str(self.seed)]
        if self.spec["emit_plots"]:
            args.append("--emit-plots")
        if traced:
            args += ["--spans", str(self.work / "spans.json")]
        result, reason = run_child(args, self.work / "sample.json")
        if result is not None and result["exit_code"] != 0:
            reason = f"cfisac run exited {result['exit_code']}"
        if not reason:
            reason, sha = check_outputs(out, result["num_epochs"],
                                        self.reference, self.first_sha)
        if reason:
            self.failures.append(reason)
            return
        self.first_sha = sha
        result["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
        (self.traced if traced else self.plain).append(result)

    def measure(self, seconds: float, trace: bool) -> None:
        kinds = (False, True) if trace else (False,)
        deadline = time.monotonic() + seconds
        count = 0
        while True:
            self.sample(kinds[count % len(kinds)])
            count += 1
            if count >= len(kinds) and time.monotonic() >= deadline:
                return

    @property
    def attempted(self) -> int:
        return len(self.plain) + len(self.traced) + len(self.failures)

    def end_to_end(self) -> dict[str, dict]:
        return {
            "run_s": spread([scaled(r, "run_s") for r in self.plain]),
            "epochs_per_s": spread([r["num_epochs"] / scaled(r, "run_s")
                                    for r in self.plain]),
            "setup_s": spread([scaled(r, "setup_s") for r in self.plain]),
            "peak_rss_mb": spread([r["peak_rss_mb"] for r in self.plain]),
        }

    def unscaled(self) -> dict[str, dict]:
        return {"wall_run_s": spread([r["run_s"] for r in self.plain]),
                "wall_setup_s": spread([r["setup_s"] for r in self.plain]),
                "host_factor": spread([host_factor(r) for r in self.plain])}

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer values and the flags raised while deriving them."""
        flags: list[str] = []
        traces = [r["trace"] for r in self.traced]
        values: dict[str, float] = {}

        def exact(metric: str, counts: list[int]) -> int:
            if len(set(counts)) > 1:
                flags.append(f"{metric} differs between traced samples: "
                             f"{counts}")
            return counts[0]

        for prefix, span, stats in LAYERS:
            if span not in traces[0]["hooked"]:
                flags.append(f"hook not found: {span} (for {prefix})")
            for stat in stats:
                seen = [t["layers"].get(span, {}).get(stat, 0) for t in traces]
                metric = f"{prefix}.{stat}"
                values[metric] = (exact(metric, seen) if stat == "calls"
                                  else statistics.median(seen))
        scored = exact("sensing.subsets_scored",
                       [t["subsets_scored"] for t in traces])
        selects = values["sensing.select_rx_aps.calls"]
        values["sensing.subsets_scored"] = scored
        values["sensing.subsets_per_select"] = scored / selects if selects else 0
        for action, metric in (("Sensing", "simulate.sense_epoch_ms.p50"),
                               ("NoSensing", "simulate.idle_epoch_ms.p50")):
            values[metric] = statistics.median(
                statistics.median(t["epoch_ms"].get(action) or [0.0])
                for t in traces)
        values["cli.bytes_written"] = statistics.median(
            r["bytes_written"] for r in self.traced)
        base = statistics.median(scaled(r, "run_s") for r in self.plain)
        values["trace.base_run_s"] = base
        values["trace.overhead_s"] = statistics.median(
            scaled(r, "run_s") for r in self.traced) - base
        return values, flags

    def shares(self) -> dict[str, float]:
        """Median share of traced self time per layer group."""
        per_sample = []
        for r in self.traced:
            groups: dict[str, float] = {}
            for span, stats in r["trace"]["layers"].items():
                groups[group_of(span)] = (groups.get(group_of(span), 0.0)
                                          + stats["self_s"])
            total = sum(groups.values())
            per_sample.append({g: v / total for g, v in groups.items()})
        names = sorted({g for s in per_sample for g in s})
        return {g: statistics.median(s.get(g, 0.0) for s in per_sample)
                for g in names}

    def expectations(self, values: dict[str, float],
                     shares: dict[str, float]) -> list[str]:
        """Hook coverage and the workload's expected layer shares."""
        notes = [f"missing layer: {metric} is 0 on {self.name}"
                 for metric in self.spec["loads"] if not values.get(metric)]
        expect = self.spec["expect"]
        if "largest_group" in expect:
            largest = max(shares, key=shares.get)
            verdict = ("holds" if largest == expect["largest_group"]
                       else f"does not hold (largest is {largest})")
            notes.append(f"expected largest share {expect['largest_group']}: "
                         f"{verdict}")
        for metric, bound in expect.get("at_most", {}).items():
            verdict = "holds" if values[metric] <= bound else "does not hold"
            notes.append(f"expected {metric} <= {bound} "
                         f"(is {values[metric]}): {verdict}")
        return notes


# ---------------------------------------------------------------------------
# reporting

def environment(versions: dict, load_start: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_start": load_start, "loadavg_end": loadavg(),
            **versions, "child_env": CHILD_ENV}


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def run_workload(name: str, spec: dict, args) -> tuple[WorkloadRun, dict]:
    load_start = loadavg()
    run = WorkloadRun(name, spec, args.seed, args.smoke)
    versions = run.warm_up()["versions"]
    run.measure(args.seconds, args.trace == 1)
    tag = f"[{name} seed {args.seed}]"
    report = {"workload": name, "seed": args.seed, "trace": args.trace,
              "overrides": spec["overrides"], "emit_plots": spec["emit_plots"],
              "moves_run_s": spec["moves_run_s"],
              "attempted": run.attempted, "failed": len(run.failures),
              "failures": run.failures,
              "reference": "stored" if run.reference else "byte-identical"}
    if not run.plain or (args.trace and not run.traced):
        return run, report
    report["end_to_end"] = run.end_to_end()
    report["unscaled"] = run.unscaled()
    units = {**END_TO_END, "wall_run_s": "s", "wall_setup_s": "s",
             "host_factor": "ratio"}
    for metric, s in (report["end_to_end"] | report["unscaled"]).items():
        print(f"{tag} {metric} = {s['median']:.6g} {units[metric]} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
    print(f"{tag} fail_ratio = {len(run.failures) / run.attempted:.6g} ratio "
          f"({len(run.failures)} of {run.attempted} runs failed)")
    for reason in sorted(set(run.failures)):
        print(f"{tag} failure: {reason}")
    if args.trace:
        values, flags = run.per_layer()
        shares = run.shares()
        flags += run.expectations(values, shares)
        units = per_layer_units()
        for metric, value in values.items():
            print(f"{tag} {metric} = {value:.6g} {units[metric]}")
        print(f"{tag} self-time shares: " + ", ".join(
            f"{g} {100 * v:.1f}%" for g, v in shares.items()))
        overhead = values["trace.overhead_s"]
        print(f"{tag} tracing adds {overhead:.4g} s to a "
              f"{values['trace.base_run_s']:.4g} s run "
              f"({100 * overhead / values['trace.base_run_s']:.1f}%)")
        for flag in flags:
            print(f"{tag} {flag}")
        report.update(per_layer=values, shares=shares, flags=flags)
    report["environment"] = environment(versions, load_start)
    print(f"{tag} environment: {json.dumps(report['environment'])}")
    path = run.work / f"result-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return run, report


def metrics_of(report: dict) -> dict[str, dict]:
    if "per_layer" in report:
        units = per_layer_units()
        return {m: {"value": v, "unit": units[m]}
                for m, v in report["per_layer"].items()}
    return {m: {"value": s["median"], "unit": END_TO_END[m]}
            for m, s in report["end_to_end"].items()}


def record(workloads: dict, seeds: list[int]) -> int:
    """Store reference outputs for each workload and seed."""
    stored: dict[str, dict] = {}
    for name, spec in workloads.items():
        stored[name] = {}
        for seed in seeds:
            run = WorkloadRun(name, spec, seed, smoke=False)
            run.reference = None  # recording replaces it
            run.sample(traced=False)
            if run.failures:
                print(f"{name} seed {seed}: {run.failures[0]}",
                      file=sys.stderr)
                return 1
            _, header, rows = read_epochs(run.work / "out")
            stored[name][str(seed)] = reference_entry(header, rows)
            print(f"{name} seed {seed}: recorded", flush=True)
    REFERENCE.write_text(json.dumps(
        {"relative_tolerance": REL_TOL, "workloads": stored}, indent=1) + "\n")
    return 0


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    workloads = json.loads((BENCH_DIR / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*workloads, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny epoch counts, no stored reference")
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/reference.json")
    parser.add_argument("--seeds", default="0-19",
                        help="seed range for --record, e.g. 0-19")
    args = parser.parse_args(argv)

    if not (SRC / "cfisac" / "cli.py").is_file():
        print(f"no cfisac sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record(workloads, parse_seeds(args.seeds))

    names = list(workloads) if args.workload == "all" else [args.workload]
    runs, metrics = [], {}
    for name in names:
        try:
            run, report = run_workload(name, workloads[name], args)
        except RuntimeError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        if "end_to_end" not in report:
            print(f"{name}: too few samples succeeded: {run.failures[:3]}",
                  file=sys.stderr)
            return 1
        runs.append(run)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: v for m, v in metrics_of(report).items()})
    failed = sum(len(r.failures) for r in runs)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r.attempted for r in runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
