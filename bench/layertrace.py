"""Layer tracing of cfisac from outside the program.

`Tracer` wraps every public function of the cfisac modules, in every module
namespace that holds a reference to it (``cfisac.simulate.predict`` is the
same object as ``cfisac.tracking.predict`` and both are replaced), plus
``RngStream.generator`` on its class. Each call records a span: name, start,
end and the span that was open when it began. Spans stay in memory until the
run ends; ``uninstall`` (or leaving the ``with`` block) puts every original
function back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("config", "geometry", "crb", "selection", "tracking", "sensing",
           "comms", "simulate", "cli")
METHODS = (("simulate", "RngStream", "generator"),)

# Span name -> function of the return value kept as the span's tag.
TAGS = {"simulate.run_epoch": lambda record: record.action.value}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.tags: dict[int, str] = {}
        self.originals: dict[str, object] = {}  # span name -> wrapped function
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module("cfisac")
        modules = [importlib.import_module(f"cfisac.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for short, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"cfisac.{short}"), cls_name)
            self._patch(cls, attr, self._wrap(cls.__dict__[attr],
                                              f"{short}.{cls_name}.{attr}"))
        for namespace in (package, *modules):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str):
        names, parents, starts, ends = (self.names, self.parents, self.starts,
                                        self.ends)
        stack, tags, tag_of = self._stack, self.tags, TAGS.get(name)
        clock = time.perf_counter_ns
        self.originals[name] = fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if tag_of is not None:
                tags[idx] = tag_of(result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are strictly nested on one thread, so that is the
        part of the interval the children cover.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[idx]
        acc: dict[str, list[int]] = {}
        for name, dur, cov in zip(self.names, durations, covered):
            entry = acc.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - cov
        layers = {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                  for name, (c, t, s) in acc.items()}
        epoch_ms: dict[str, list[float]] = {}
        for idx, tag in self.tags.items():
            epoch_ms.setdefault(tag, []).append(durations[idx] / 1e6)
        scored = sum(1 for name, parent in zip(self.names, self.parents)
                     if name == "sensing.predict_variance_for_selection"
                     and parent >= 0
                     and self.names[parent] == "sensing.select_rx_aps")
        return {"layers": layers, "epoch_ms": epoch_ms,
                "subsets_scored": scored, "spans": len(durations),
                "hooked": sorted(self.originals)}

    def write(self, path) -> None:
        """Write every span as [name id, parent index, start ns, end ns]."""
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        spans = [[ids[n], p, s, e] for n, p, s, e
                 in zip(self.names, self.parents, self.starts, self.ends)]
        with open(path, "w") as fh:
            json.dump({"names": table, "spans": spans,
                       "tags": {str(k): v for k, v in self.tags.items()}},
                      fh, separators=(",", ":"))
