"""One benchmark sample in a fresh interpreter.

Imports cfisac from the given source tree, loads the scenario (timed as
set-up), then makes one ``cfisac run`` call through ``cfisac.cli.main``
(timed as the run), optionally under the layer tracer, and writes a JSON
result. A fixed yardstick computation is timed right before and right after
the run, so that ``bench/run.py`` can tell how fast the host was meanwhile.
``bench/run.py`` starts it; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path


def _blas_version(numpy) -> str:
    try:
        config = numpy.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["version"])
    except (KeyError, TypeError, ValueError):
        return "unknown"


def yardstick(numpy) -> float:
    """Seconds taken by a fixed mix of small matrix solves and FFTs, the
    kind of work cfisac does, so it slows with the host as cfisac does."""
    rng = numpy.random.default_rng(0)
    a, eye = rng.standard_normal((8, 8)), numpy.eye(8)
    signal = rng.standard_normal(512)
    start = time.perf_counter()
    for _ in range(2000):
        a = numpy.linalg.solve(a @ a.T + eye, eye)
        numpy.abs(numpy.fft.fft(signal * a[0, 0])).sum()
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--emit-plots", action="store_true")
    parser.add_argument("--spans", help="trace the run and write spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import cfisac.cli
    scenario = cfisac.cli.load_scenario(args.config)
    setup_s = time.perf_counter() - start
    if not Path(cfisac.__file__).resolve().is_relative_to(src):
        print(f"cfisac imported from {cfisac.__file__}, not {src}",
              file=sys.stderr)
        return 3

    import numpy
    result = {"setup_s": setup_s, "num_epochs": scenario.num_epochs}
    if args.setup_only:
        result["versions"] = {"python": platform.python_version(),
                              "numpy": numpy.__version__,
                              "openblas": _blas_version(numpy),
                              "cfisac": cfisac.__version__}
    else:
        argv = ["run", "--config", args.config, "--seed", str(args.seed),
                "--out", args.out] + (["--emit-plots"] if args.emit_plots
                                      else [])
        result["yardstick_before_s"] = yardstick(numpy)
        tracer = None
        if args.spans:
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            start = time.perf_counter()
            result["exit_code"] = cfisac.cli.main(argv)
            result["run_s"] = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["yardstick_after_s"] = yardstick(numpy)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
