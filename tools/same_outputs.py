#!/usr/bin/env python3
"""Check that two cfisac source trees write the same run outputs.

Run from anywhere, with two sides, each a repository root (a directory
holding `src/cfisac`) or a git revision of this tool's repository:

    python3 tools/same_outputs.py SRC_A SRC_B --seeds 0-19
    python3 tools/same_outputs.py HEAD~1 . --seeds 0-19
    python3 tools/same_outputs.py . . --seeds 0 --smoke

A revision is exported with `git archive` into the tool's temporary
directory, so it runs from committed files alone, with no bytecode cache.

For every workload of `bench/workloads.json` (next to this tool; only its
overrides and smoke lengths are read) and every seed, each tree runs
`cfisac run --emit-plots` in a fresh interpreter that imports cfisac from
that tree, and `epochs.csv`, `summary.json`, `variance.svg` and `rate.svg`
are compared byte for byte. `--smoke` runs each workload for its
`smoke_epochs`. The environment is passed on, so `OPENBLAS_CORETYPE` and
the like select the kernel both trees run on.

For each file that differs it prints the first differing cell and, per
column, the worst relative difference of the numeric cells. Exit status:
0 when every file is byte-identical, 1 when some file differs, 2 when a run
fails or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = REPO / "bench" / "workloads.json"
OUTPUTS = ("epochs.csv", "summary.json", "variance.svg", "rate.svg")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def parse_seeds(text: str) -> list[int]:
    """Seeds from "0-19", "3" or "0,5,7-9"."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _leaves(value, path: str = ""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, json.dumps(value)


def cells(name: str, text: str) -> list[tuple[str, str, str]]:
    """The (where, column, cell) triples of an output file: a CSV cell per
    header column, a JSON leaf per key path, an SVG number per line."""
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        return [(f"row {r}", column, cell) for r, row in enumerate(rows, 1)
                for column, cell in zip(header, row)]
    if name.endswith(".json"):
        return [(path, path, leaf) for path, leaf in _leaves(json.loads(text))]
    return [(f"line {i}", "numbers", number)
            for i, line in enumerate(text.splitlines(), 1)
            for number in _NUMBER.findall(line)]


def _relative(a: str, b: str) -> float | None:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    scale = max(abs(x), abs(y))
    return 0.0 if x == y else abs(x - y) / scale


def report(name: str, text_a: str, text_b: str) -> list[str]:
    """Lines describing how output `name` differs between the trees."""
    a, b = cells(name, text_a), cells(name, text_b)
    lines = []
    if len(a) != len(b):
        lines.append(f"  {len(a)} cells against {len(b)}")
    worst: dict[str, float | None] = {}
    for (where, column, x), (_, _, y) in zip(a, b):
        if x == y:
            continue
        if not worst:
            place = column if where == column else f"{where}, {column}"
            lines.append(f"  first difference: {place}: {x} != {y}")
        rel, seen = _relative(x, y), worst.get(column, 0.0)
        worst[column] = (None if rel is None or seen is None
                         else max(rel, seen))
    for column, rel in worst.items():
        lines.append(f"  {column}: " + ("non-numeric cells differ"
                                        if rel is None else
                                        f"worst relative difference {rel:.3g}"))
    if not lines:  # the same cells, laid out differently
        lines.append("  same cells, different bytes")
    return lines


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """Report lines for every output that differs between two run dirs."""
    lines = []
    for name in OUTPUTS:
        bytes_a, bytes_b = (dir_a / name).read_bytes(), (dir_b / name).read_bytes()
        if bytes_a != bytes_b:
            lines.append(f"{name} differs")
            lines += report(name, bytes_a.decode(), bytes_b.decode())
    return lines


def resolve(side: str, work: Path) -> Path:
    """The tree of `side`: a directory holding `src/cfisac` as it is, or
    else the `git archive` export of revision `side` of this tool's
    repository, in a new directory under `work`. Raises ValueError if
    `side` is neither."""
    if (Path(side) / "src" / "cfisac").is_dir():
        return Path(side).resolve()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", side],
                             capture_output=True)
    if archive.returncode != 0:
        raise ValueError(f"{side}: neither a directory holding src/cfisac "
                         f"nor a revision: {archive.stderr.decode().strip()}")
    tree = Path(tempfile.mkdtemp(prefix="revision-", dir=work))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    if not (tree / "src" / "cfisac").is_dir():
        raise ValueError(f"{side}: revision holds no src/cfisac")
    return tree


def run(tree: Path, config: Path, seed: int, out: Path) -> None:
    """`cfisac run --emit-plots` of `config` at `seed`, from `tree`'s src."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "cfisac.cli", "run", "--config", str(config),
         "--seed", str(seed), "--out", str(out), "--emit-plots"],
        env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: cfisac run failed ({done.returncode}): "
                           f"{done.stderr.strip()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", help="repository root or git revision")
    parser.add_argument("src_b", help="repository root or git revision")
    parser.add_argument("--seeds", default="0-19", type=parse_seeds)
    parser.add_argument("--smoke", action="store_true",
                        help="run each workload for its smoke_epochs")
    args = parser.parse_args(argv)

    differ = False
    workloads = json.loads(WORKLOADS.read_text())
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        try:
            trees = [resolve(side, work) for side in (args.src_a, args.src_b)]
        except ValueError as exc:
            parser.error(str(exc))
        for workload, spec in workloads.items():
            overrides = dict(spec["overrides"])
            if args.smoke:
                overrides["num_epochs"] = spec["smoke_epochs"]
            config = work / f"{workload}.yaml"
            config.write_text(json.dumps(overrides))
            same = 0
            for seed in args.seeds:
                outs = [work / f"{workload}-{seed}-{side}" for side in "ab"]
                try:
                    for tree, out in zip(trees, outs):
                        run(tree, config, seed, out)
                except RuntimeError as exc:
                    print(f"{workload} seed {seed}: {exc}", file=sys.stderr)
                    return 2
                lines = compare(*outs)
                if lines:
                    differ = True
                    print(f"{workload} seed {seed}:")
                    print("\n".join(lines))
                else:
                    same += 1
            print(f"{workload}: {same} of {len(args.seeds)} seeds "
                  f"byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
