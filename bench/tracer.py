"""In-memory span tracer that wraps bellshrink's public functions from outside.

Modules bind functions by name at import (``cli``, ``montecarlo`` and
``application`` each hold their own ``fit``), so installing a wrapper means
replacing every binding of the original function in every loaded
``bellshrink`` module, and uninstalling means putting each one back.

A span records its name, start, end and parent span.  Self time is a span's
duration minus the durations of its direct children; the program is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Each layer target: (module, attribute, span name).  Attribute "Class.method"
# patches a method on the class instead of module bindings.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("bellshrink.special_fn", "lambert_w0", "special_fn.lambert_w0"),
    ("bellshrink.special_fn", "log_bell", "special_fn.log_bell"),
    ("bellshrink.special_fn", "noncentral_chisq_cdf", "special_fn.ncx2"),
    ("bellshrink.special_fn", "inv_moment", "special_fn.ncx2"),
    ("bellshrink.special_fn", "truncated_inv_moment", "special_fn.ncx2"),
    ("bellshrink.bell_dist", "sample_counts", "bell_dist.sample_counts"),
    ("bellshrink.bell_glm", "fit", "bell_glm.fit"),
    ("bellshrink.linalg", "spd_solve", "linalg.spd_solve"),
    ("bellshrink.shrinkage", "compute_all", "shrinkage.compute_all"),
    ("bellshrink.asymptotics", "LocalAlternative.__post_init__", "asymptotics.local_alternative"),
    ("bellshrink.asymptotics", "asymptotic_amse", "asymptotics.amse"),
    ("bellshrink.asymptotics", "asymptotic_bias", "asymptotics.bias"),
    ("bellshrink.montecarlo", "run_simulation", "montecarlo.run_simulation"),
    ("bellshrink.montecarlo", "generate_dataset", "montecarlo.generate_dataset"),
    ("bellshrink.application", "load_dataset", "application.load_dataset"),
    ("bellshrink.application", "bootstrap_bre", "application.bootstrap_bre"),
    ("bellshrink.cli", "main", "cli.main"),
)


def _count_elems(tracer: "Tracer", args, kwargs, result) -> None:
    x = args[0] if args else kwargs["x"]
    tracer.counters["special_fn.lambert_w0.elems"] += int(np.size(x))


def _count_fit(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["bell_glm.fit.iters"] += int(result.n_iter)
    tracer.counters["bell_glm.fit.unconverged"] += 0 if result.converged else 1


def _count_sim_retries(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["montecarlo.retries"] += sum(int(gp.n_retry) for gp in result.grid)


def _count_boot_retries(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["application.retries"] += int(result.n_retry)


# Counters read from a wrapped call's arguments or result.
HOOKS: dict[str, Callable] = {
    "special_fn.lambert_w0": _count_elems,
    "bell_glm.fit": _count_fit,
    "montecarlo.run_simulation": _count_sim_retries,
    "application.bootstrap_bre": _count_boot_retries,
}

# Per-layer metrics the benchmark reports: name -> (kind, span name).
# kind "calls", "s" and "self_s" are read from spans, "count" from a counter.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "special_fn.lambert_w0.calls": ("calls", "special_fn.lambert_w0"),
    "special_fn.lambert_w0.elems": ("count", "special_fn.lambert_w0.elems"),
    "special_fn.lambert_w0.s": ("s", "special_fn.lambert_w0"),
    "special_fn.log_bell.calls": ("calls", "special_fn.log_bell"),
    "special_fn.log_bell.s": ("s", "special_fn.log_bell"),
    "special_fn.ncx2.calls": ("calls", "special_fn.ncx2"),
    "special_fn.ncx2.s": ("s", "special_fn.ncx2"),
    "bell_dist.sample_counts.calls": ("calls", "bell_dist.sample_counts"),
    "bell_dist.sample_counts.s": ("s", "bell_dist.sample_counts"),
    "bell_glm.fit.calls": ("calls", "bell_glm.fit"),
    "bell_glm.fit.s": ("s", "bell_glm.fit"),
    "bell_glm.fit.self_s": ("self_s", "bell_glm.fit"),
    "bell_glm.fit.iters": ("count", "bell_glm.fit.iters"),
    "bell_glm.fit.unconverged": ("count", "bell_glm.fit.unconverged"),
    "linalg.spd_solve.calls": ("calls", "linalg.spd_solve"),
    "linalg.spd_solve.s": ("s", "linalg.spd_solve"),
    "shrinkage.compute_all.calls": ("calls", "shrinkage.compute_all"),
    "shrinkage.compute_all.s": ("s", "shrinkage.compute_all"),
    "asymptotics.local_alternative.calls": ("calls", "asymptotics.local_alternative"),
    "asymptotics.local_alternative.s": ("s", "asymptotics.local_alternative"),
    "asymptotics.amse.calls": ("calls", "asymptotics.amse"),
    "asymptotics.amse.s": ("s", "asymptotics.amse"),
    "asymptotics.bias.calls": ("calls", "asymptotics.bias"),
    "asymptotics.bias.s": ("s", "asymptotics.bias"),
    "montecarlo.run_simulation.s": ("s", "montecarlo.run_simulation"),
    "montecarlo.run_simulation.self_s": ("self_s", "montecarlo.run_simulation"),
    "montecarlo.generate_dataset.s": ("s", "montecarlo.generate_dataset"),
    "montecarlo.retries": ("count", "montecarlo.retries"),
    "application.load_dataset.s": ("s", "application.load_dataset"),
    "application.bootstrap_bre.s": ("s", "application.bootstrap_bre"),
    "application.bootstrap_bre.self_s": ("self_s", "application.bootstrap_bre"),
    "application.retries": ("count", "application.retries"),
    "cli.main.calls": ("calls", "cli.main"),
    "cli.main.s": ("s", "cli.main"),
    "cli.main.self_s": ("self_s", "cli.main"),
}


@dataclass(frozen=True)
class Binding:
    owner: Any  # module or class whose attribute was replaced
    attr: str
    original: Any


class Tracer:
    """Collects spans and counters; `install` wraps TARGETS, `uninstall` restores."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._bindings: list[Binding] = []

    def reset(self) -> None:
        """Drop recorded spans and counters; installed wrappers stay."""
        self.span_names.clear()
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        self.counters.clear()
        self._stack.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        names, starts, ends, parents, stack = (
            self.span_names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "bellshrink" or key.startswith("bellshrink."))
        ]
        try:
            for module_name, attr, span in TARGETS:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(span, original))
                    self._bindings.append(Binding(cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(span, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._bindings.append(Binding(mod, key, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._bindings:
            b = self._bindings.pop()
            setattr(b.owner, b.attr, b.original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, float]:
        """Every LAYER_METRICS value over the spans and counters recorded
        since the last reset."""
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child_time = np.zeros(len(durations))
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], durations[has_parent])
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        for name, dur, child in zip(self.span_names, durations, child_time):
            calls[name] += 1
            total[name] += dur
            self_total[name] += dur - child
        out: dict[str, float] = {}
        for metric, (kind, key) in LAYER_METRICS.items():
            if kind == "calls":
                out[metric] = calls[key]
            elif kind == "s":
                out[metric] = float(total[key])
            elif kind == "self_s":
                out[metric] = float(self_total[key])
            else:
                out[metric] = self.counters[key]
        return out
