"""Outside-in layer tracer for the microtopo package.

Wraps every module-level public function of the layer modules and rebinds
the name in each loaded ``microtopo`` module that imported it, so that a
call made through any module is timed and attributed to the layer that
defines the function. A span's self time is its duration minus the time of
the spans it encloses, so the layers' self times add up to the time spent
inside traced calls.

Methods (``PowerFlowSolution.va_at``, ``DetectionRateReport.record``, ...)
are not wrapped: accessors run ~10^5 times per run and wrapping them would
swamp what is measured. Their time counts as self time of the enclosing
function's layer.

Worker processes forked while the tracer is installed inherit the wrappers.
Each worker starts from zeroed statistics and writes them to ``dump_dir``
when it exits; ``merge_worker_dumps`` folds them into the parent's.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

PACKAGE = "microtopo"
LAYERS = ("network", "powerflow", "profiles", "measurements", "detector",
          "scenario", "cli")

# Per-function statistics, kept as a mutable list the wrapper closes over.
CALLS, TOTAL_S, SELF_S, FAILED = range(4)


class Tracer:
    """Self time, call and failure counts per traced function.

    ``observers`` maps a qualified name (``"powerflow.solve_newton_raphson"``)
    to ``callback(tracer, args, kwargs, result)``, run after each successful
    call outside the timed interval. Observers add to ``tracer.counters``.
    """

    def __init__(self, layers=LAYERS, package=PACKAGE, observers=None,
                 dump_dir: str | Path | None = None):
        self.layers = tuple(layers)
        self.package = package
        self.observers = dict(observers or {})
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.root_s = 0.0  # time inside outermost traced calls, this process
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._installed = False
        self._fork_hook_registered = False

    # -- installation ----------------------------------------------------

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{self.package}.{layer}")
                   for layer in self.layers]
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == self.package
                                        or name.startswith(self.package + "."))]
        for layer, module in zip(self.layers, modules):
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for target in loaded:
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            self._patches.append((target, attr, fn))
                            setattr(target, attr, wrapper)
        if self.dump_dir is not None and not self._fork_hook_registered:
            # Runs in multiprocessing children after their finalizer registry
            # is cleared, so the Finalize it adds survives.
            mp_util.register_after_fork(self, Tracer._after_fork_in_child)
            self._fork_hook_registered = True
        self._installed = True

    def remove(self):
        for target, attr, fn in reversed(self._patches):
            setattr(target, attr, fn)
        self._patches.clear()
        self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _wrap(self, qualname: str, fn):
        stat = self.stats.setdefault(qualname, [0, 0.0, 0.0, 0])
        stack = self._stack
        observer = self.observers.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[FAILED] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stat[CALLS] += 1
                stat[TOTAL_S] += elapsed
                stat[SELF_S] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_s += elapsed
            if observer is not None:
                observer(self, args, kwargs, result)
            return result

        return wrapper

    # -- statistics --------------------------------------------------------

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0]
        self.counters.clear()
        self.root_s = 0.0

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters), "root_s": self.root_s}

    def since(self, before: dict) -> dict:
        """Statistics accumulated after ``before = self.snapshot()``."""
        now = self.snapshot()
        stats = {k: [a - b for a, b in zip(v, before["stats"].get(k, [0, 0.0, 0.0, 0]))]
                 for k, v in now["stats"].items()}
        counters = Counter(now["counters"])
        counters.subtract(before["counters"])
        return {"stats": stats, "counters": dict(counters),
                "root_s": now["root_s"] - before["root_s"]}

    # -- worker processes --------------------------------------------------

    def _after_fork_in_child(self):
        if not self._installed:
            return
        self._stack.clear()
        self.reset()
        mp_util.Finalize(None, self._dump, exitpriority=0)

    def _dump(self):
        path = self.dump_dir / f"{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def merge_worker_dumps(self) -> int:
        """Add the statistics of exited workers; returns how many merged."""
        if self.dump_dir is None:
            return 0
        merged = 0
        for path in sorted(self.dump_dir.glob("*.json")):
            dump = json.loads(path.read_text())
            path.unlink()
            for qualname, values in dump["stats"].items():
                stat = self.stats.setdefault(qualname, [0, 0.0, 0.0, 0])
                for i, v in enumerate(values):
                    stat[i] += v
            self.counters.update(dump["counters"])
            merged += 1
        return merged


def layer_totals(view: dict, layers=LAYERS) -> dict[str, dict[str, float]]:
    """Per-layer calls, self seconds and failures from a snapshot or since()."""
    totals = {layer: {"calls": 0, "self_s": 0.0, "failed": 0} for layer in layers}
    for qualname, stat in view["stats"].items():
        layer = qualname.split(".", 1)[0]
        totals[layer]["calls"] += stat[CALLS]
        totals[layer]["self_s"] += stat[SELF_S]
        totals[layer]["failed"] += stat[FAILED]
    return totals


def calls_of(view: dict, qualname: str) -> int:
    return view["stats"].get(qualname, [0])[CALLS]


def total_s_of(view: dict, qualname: str) -> float:
    return view["stats"].get(qualname, [0, 0.0])[TOTAL_S]
