"""Command-line front end: scenario loading, batch runs, CSV/JSON/SVG output.

The SVG writers are in `plots`, which `emit_plots` imports on its first
call, so a run without plots never loads them."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from array import array
from datetime import datetime, timezone
from itertools import count
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .config import SystemConfig
from .geometry import TargetTruth
from .sensing import Action, SensingPolicy
from .simulate import (COMPARISON_ARMS, RunLog, Scenario, TrafficModel,
                       run_scenario)
from .tracking import StateEstimate

CSV_COLUMNS = (
    "epoch", "p_x_true", "v_x_true", "p_x_est", "v_x_est", "P00", "P11",
    "pred_angle_var_rad2", "action", "traffic", "selection_bitmask",
    "rate_proposed", "rate_conventional", "rate_perfect", "snr_proposed",
)


class ConfigError(ValueError):
    """Scenario file is missing, malformed, or violates an invariant."""


# ---------------------------------------------------------------------------
# scenario loading

# libyaml's parser where PyYAML was built with it. Both bases share
# SafeConstructor and Resolver, so a document loads to the same values; only
# the wording of a parse error differs.
class _UniqueKeyLoader(yaml.CSafeLoader if yaml.__with_libyaml__
                       else yaml.SafeLoader):
    """SafeLoader that rejects a key repeated in one mapping, which PyYAML
    would otherwise resolve silently to its last value."""

    def construct_mapping(self, node, deep=False):
        seen = []  # a list, so an unhashable key reaches SafeLoader's error
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.append(key)
        return yaml.constructor.SafeConstructor.construct_mapping(
            self, node, deep)


# Top-level keys read into Scenario's built fields, not its scalars.
_SECTIONS = {"system", "policy", "target", "initial_estimate", "traffic",
             "arms"}
_ESTIMATE_KEYS = {"mean", "covariance", "offset", "covariance_diag"}


def _whole_number(value) -> int:
    if isinstance(value, str):
        try:  # exactly: float() would round past 2**53
            return int(value)
        except ValueError:
            pass  # "1e3" or "4.0"
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError("not a whole number")
    return value if isinstance(value, int) else int(float(value))


def _number(value) -> float:
    if isinstance(value, bool):
        raise TypeError("not a number")
    return float(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("not a YAML boolean")
    return value


def _no_booleans(value):
    """A value as given, unless it is a list that holds a YAML boolean."""
    if isinstance(value, list):
        for item in value:
            if isinstance(item, bool):
                raise TypeError("a boolean is not a number")
            _no_booleans(item)
    return value


# Declared scalar field type -> (conversion of a YAML value, what it expects);
# list fields hold numbers, so they take no booleans either.
# float() also takes strings: YAML reads e.g. 60.0e9 as one.
_SCALARS = {
    "int": (_whole_number, "an integer"),
    "int | None": (lambda v: None if v is None else _whole_number(v), "an integer"),
    "float": (_number, "a number"),
    "float | None": (lambda v: None if v is None else _number(v), "a number"),
    "bool": (_boolean, "a boolean"),
}


def _require_mapping(value, name: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected a mapping, got {type(value).__name__}")
    return value


def _build(cls, raw, name: str, **sections):
    """Build dataclass `cls` from config section `raw`.

    Keys must name fields of `cls`, except the fields that the caller's
    built `sections` fill. Numeric and boolean values are converted by the
    field's declared type; the rest go to `cls`, which normalizes and
    validates them.
    """
    raw = _require_mapping(raw, name)
    types = {f.name: f.type for f in dataclasses.fields(cls)
             if f.name not in sections}
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {sorted(unknown)}")
    values = dict(sections)
    for key, value in raw.items():
        convert, kind = _SCALARS.get(types[key],
                                     (_no_booleans, "a list of numbers"))
        try:
            values[key] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name}.{key}: not {kind}: {value!r}") from exc
    try:
        return cls(**values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _initial_estimate(raw, truth: TargetTruth) -> StateEstimate:
    """Mean and covariance, or an offset from the truth and a diagonal."""
    raw = _require_mapping(raw, "initial_estimate")
    unknown = set(raw) - _ESTIMATE_KEYS
    if unknown:
        raise ConfigError(f"initial_estimate: unknown key(s) {sorted(unknown)}")
    for given, ignored in (("mean", "offset"), ("covariance", "covariance_diag")):
        if given in raw and ignored in raw:
            raise ConfigError(
                f"initial_estimate: give {given} or {ignored}, not both")
    try:
        for key, value in raw.items():
            _no_booleans(value)
    except TypeError as exc:
        raise ConfigError(f"initial_estimate.{key}: not a list of numbers: "
                          f"{value!r}") from exc
    try:
        if "mean" in raw:
            mean = np.asarray(raw["mean"], dtype=float)
        else:
            offset = np.asarray(raw.get("offset", (0.0, 0.0)), dtype=float)
            mean = np.array([truth.position_x, truth.velocity_x]) + offset
        if "covariance" in raw:
            cov = np.asarray(raw["covariance"], dtype=float)
        else:
            cov = np.diag(np.asarray(raw.get("covariance_diag", (100.0, 1.0)),
                                     dtype=float))
        return StateEstimate(mean, cov)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"initial_estimate: {exc}") from exc


def _parse_arms(value) -> tuple[str, ...]:
    """Comparison arms from a list or a comma list; 'proposed' always runs."""
    names = value.split(",") if isinstance(value, str) else value
    if (not isinstance(names, (list, tuple))
            or not all(isinstance(a, str) for a in names)):
        raise ConfigError(f"arms: expected a list of arm names, got {value!r}")
    return tuple(a for a in map(str.strip, names) if a not in ("", "proposed"))


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from a plain nested dict; unset fields take defaults."""
    raw = _require_mapping(raw, "config")
    system = _build(SystemConfig, raw.get("system"), "system")
    truth = _build(TargetTruth, raw.get("target"), "target")
    return _build(
        Scenario, {k: v for k, v in raw.items() if k not in _SECTIONS},
        "config", system=system, initial_truth=truth,
        initial_estimate=_initial_estimate(raw.get("initial_estimate"), truth),
        policy=_build(SensingPolicy, raw.get("policy"), "policy"),
        traffic=_build(TrafficModel, raw.get("traffic"), "traffic"),
        comparison_arms=_parse_arms(raw.get("arms", COMPARISON_ARMS)))


def load_scenario(path: str | Path | None) -> Scenario:
    """Load a YAML scenario file; None, an empty file or a document that is
    only `~` yields the defaults, and any other document must be a mapping."""
    if path is None:
        return scenario_from_dict({})
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"),
                        Loader=_UniqueKeyLoader)
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {path}: {reason}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return scenario_from_dict(raw)


def default_scenario() -> Scenario:
    return scenario_from_dict({})


def _plain(obj) -> dict:
    """A dataclass's fields as JSON types (tuples become lists)."""
    return {f.name: _listed(getattr(obj, f.name))
            for f in dataclasses.fields(obj)}


def _listed(value):
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-type representation (digests, round trips)."""
    return {
        "seed": scenario.seed,
        "num_epochs": scenario.num_epochs,
        "phase_mode": scenario.phase_mode,
        "angle_mode": scenario.angle_mode,
        "arms": list(scenario.comparison_arms),
        "system": _plain(scenario.system),
        "policy": _plain(scenario.policy),
        "target": _plain(scenario.initial_truth),
        "initial_estimate": {
            "mean": [float(x) for x in scenario.initial_estimate.mean],
            "covariance": [[float(x) for x in row]
                           for row in scenario.initial_estimate.covariance],
        },
        "traffic": _plain(scenario.traffic),
    }


def config_digest(scenario: Scenario) -> str:
    return _digest(scenario_to_dict(scenario))


def _digest(canonical: dict) -> str:
    """SHA-256 of a `scenario_to_dict` dict's compact, key-sorted JSON."""
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# record output

# One cell per rate column of an epochs.csv row: (method, index into its
# (snr, rate) arrays), empty where the method has no rate (every traffic-OFF
# epoch, and arms that did not run).
_SNR, _RATE = 0, 1
_LINK_CELLS = (("proposed", _RATE), ("conventional", _RATE),
               ("perfect", _RATE), ("proposed", _SNR))
_ACTION_TEXT = (Action.NO_SENSING.value, Action.SENSING.value)


def _repeat_texts(values):
    """Each value as "%.17e", formatted once per run of equal nonzero values.
    Equal nonzero floats have the same bits; 0.0 == -0.0 does not."""
    last = text = None
    for value in values:
        if value != last or not value:
            last, text = value, "%.17e" % value
        yield text


def _csv_rows(log: RunLog):
    """The lines of epochs.csv, one per epoch, from the log's columns: the
    proposed arm's state, then, in traffic-ON epochs, the rate cells. The
    run's one velocity is formatted once, into the row templates, and the
    estimated velocity, which the predict keeps between sensing epochs,
    once per run of repeats."""
    arm, rates = log.arms["proposed"], log.rates
    head = ("%d,%.17e," + ("%.17e" % log.velocity_x) + ",%.17e,%s"
            + ",%.17e" * 3 + ",%s,")
    off_row = head + "OFF,%d,,,,\n"
    on_row = head + "ON,%d" + "".join(",%.17e" if tag in rates else ","
                                      for tag, _ in _LINK_CELLS) + "\n"
    links = zip(*(rates[tag][index].tolist() for tag, index in _LINK_CELLS
                  if tag in rates))
    states = zip(count(), log.truth_x, arm.mean_p, _repeat_texts(arm.mean_v),
                 arm.p00, arm.p11, arm.variance,
                 (_ACTION_TEXT[mask != 0] for mask in arm.bitmask), arm.bitmask)
    for on, state in zip(log.traffic_on, states):
        yield on_row % (state + next(links)) if on else off_row % state


def _variance_series(log: RunLog) -> dict[str, array]:
    """Predicted angle variance per epoch of each threshold-gated arm run."""
    return {tag: log.arms[tag].variance for tag in ("proposed", "random")
            if tag in log.arms}


def _threshold_crossing(variances: array, threshold: float) -> int | None:
    for k, v in enumerate(variances):
        if v < threshold:
            return k
    return None


def summarize_records(log: RunLog, scenario: Scenario) -> dict:
    """The run's summary.json; each of `mean_rates` averages a method's
    rates over the traffic-ON epochs. A config other than the log's raises."""
    if (scenario is not log.scenario
            and config_digest(scenario) != config_digest(log.scenario)):
        raise ValueError("scenario: not the config of the run in the log")
    mean_rates = {tag: float(np.mean(rate)) if len(rate) else None
                  for tag, (_, rate) in log.rates.items()}
    crossings = {tag: _threshold_crossing(values,
                                          scenario.policy.variance_threshold)
                 for tag, values in _variance_series(log).items()}
    sensing = [k for k, mask in enumerate(log.arms["proposed"].bitmask) if mask]
    return {
        "num_epochs": len(log),
        "on_epochs": sum(log.traffic_on[:len(log)]),
        "sensing_epochs": len(sensing),
        "sensing_epoch_indices": sensing,
        "mean_rates": mean_rates,
        "threshold_crossing_epoch": crossings,
    }


def write_records(log: RunLog, out_dir: str | Path, scenario: Scenario,
                  plots: bool = False) -> dict:
    """Write every output of the run `log`, as `run_scenario` returns it:
    epochs.csv, summary.json, variance.svg and rate.svg if `plots`, then
    manifest.json last. Each reads the log's columns. The manifest's
    started_at-finished_at window spans every output it lists; it is
    returned as written. The summary checks `scenario` and reads the log's
    rates before any file is created, so a run whose links fail, a
    scenario the log was not run from, or plots of a log with no epochs,
    write nothing."""
    summary = summarize_records(log, scenario)
    if plots and not log:
        raise ValueError("no records to plot")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()

    with open(out_dir / "epochs.csv", "w", newline="") as csv_file:
        csv_file.write(",".join(CSV_COLUMNS) + "\n")
        csv_file.writelines(_csv_rows(log))
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    outputs = ["epochs.csv", "summary.json"]
    if plots:
        outputs.extend(path.name for path in emit_plots(log, out_dir))

    canonical = scenario_to_dict(scenario)
    manifest = {
        "config_digest": _digest(canonical), "seed": scenario.seed,
        "tool_version": __version__, "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs, "canonical_config": canonical}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def emit_plots(log: RunLog, out_dir: str | Path) -> list[Path]:
    """Write variance.svg and rate.svg of the run `log`, with its scenario's
    variance threshold; returns the created paths. The SVG writers, in
    `plots`, load on the first call."""
    from . import plots

    if not log:
        raise ValueError("no records to plot")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    variance_path = out_dir / "variance.svg"
    variance_path.write_text(
        plots._variance_svg(log, log.scenario.policy.variance_threshold))
    rate_path = out_dir / "rate.svg"
    rate_path.write_text(plots._rate_svg(log))
    return [variance_path, rate_path]


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfisac",
        description="Cell-free ISAC tracking and predictive beamforming simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write outputs")
    run_p.add_argument("--config", help="YAML scenario file (defaults if omitted)")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--emit-plots", action="store_true",
                       help="also write variance.svg and rate.svg")
    run_p.add_argument("--arms",
                       help="comma list among proposed,conventional,random,perfect")

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("--config", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        if args.command == "run":
            if args.seed is not None:
                scenario = dataclasses.replace(scenario, seed=args.seed)
            if args.arms is not None:
                scenario = dataclasses.replace(
                    scenario, comparison_arms=_parse_arms(args.arms))
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"ok: {args.config} (digest {config_digest(scenario)[:12]})")
        return 0

    try:
        write_records(run_scenario(scenario), args.out, scenario,
                      args.emit_plots)
    except Exception as exc:  # noqa: BLE001 - report and signal runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {scenario.num_epochs} epochs to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
