"""Span recorder that wraps chainbounds' public functions, layer by layer.

A layer is a set of chainbounds modules.  `Tracer.install()` replaces every
public function of every layer module, in every chainbounds namespace that
binds it (the defining module, the package top level, `cli`, and any sibling
module that imported it), by a wrapper that records one span per call:
(id, parent id, function, start, end).  Spans stay in memory; `save()` writes
them out once, when the benchmark ends.

Per-layer figures are accumulated as the spans close:

* a layer's self time is its spans' duration minus the part covered by
  child spans (of any layer);
* a group's busy time is the time during which at least one of its
  functions is on the call stack, so nested calls are not counted twice;
* a group's call count and counters are taken at its outermost calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
from time import perf_counter_ns

import numpy as np

# layer -> chainbounds modules
LAYERS = {
    "procsim": ("processes",),
    "validation": ("validation",),
    "metric": ("metric",),
    "chaining": ("chaining",),
    "rip": ("rip",),
    "tailcalc": ("bounds", "conversions"),
    "schatten": ("schatten",),
    "serialize": ("serialize",),
    "cli": ("cli",),
}

_SIMULATORS = tuple(
    f"processes.{name}"
    for name in (
        "simulate_gaussian",
        "simulate_martingale_family",
        "simulate_empirical",
        "simulate_squares",
        "simulate_squares_increment",
        "simulate_chaos",
    )
)
_WRITES = ("serialize.write_json", "serialize.write_csv")
_BUILDS = ("metric.build_metric_space", "metric.space_from_points")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# group -> (qualified functions, counter(args, kwargs, result) or None).
# A tuple of modules instead of functions means every public function there.
GROUPS = {
    "procsim.sim": (_SIMULATORS, lambda a, k, r: r.replications),
    "procsim.rng": (("processes.replication_rng",), None),
    "procsim.exact_law": (
        (
            "processes.sign_patterns",
            "processes.exact_martingale_distribution",
            "processes.exact_empirical_distribution",
            "processes.exact_chaos_distribution",
        ),
        None,
    ),
    "validation.validate": (("validation.validate_bound",), None),
    "validation.cp": (
        ("validation.exceedance_upper_bound", "validation.exceedance_lower_bound"),
        None,
    ),
    "validation.bootstrap": (
        ("validation.estimate_moments",),
        lambda a, k, r: r[0].resamples if r else 0,
    ),
    "metric.build": (_BUILDS, lambda a, k, r: r.size),
    "metric.cover_number": (("metric.covering_number",), None),
    "metric.cover": (("metric.covering_number", "metric.covering_profile"), None),
    "metric.entropy": (("metric.entropy_integral",), None),
    "chaining.greedy": (("chaining.gamma_greedy", "chaining.greedy_admissible_sequence"), None),
    "chaining.exact": (("chaining.gamma_exact",), None),
    "chaining.prime": (("chaining.gamma_prime",), None),
    "rip.enum": (
        ("rip.restricted_isometry_constant",),
        lambda a, k, r: math.comb(r.witness_direction.size, r.s),
    ),
    "rip.curve": (("rip.estimate_failure_probability",), None),
    "tailcalc.bound": (("bounds", "conversions"), None),
    "schatten.radii": (("schatten.schatten_radii",), None),
    "serialize.write": (_WRITES, lambda a, k, r: os.path.getsize(_first_arg(a, k, "path"))),
}

# per-layer metric -> (group, statistic); statistic is busy_s, calls or count
GROUP_METRICS = {
    "procsim.sim_s": ("procsim.sim", "busy_s"),
    "procsim.reps": ("procsim.sim", "count"),
    "procsim.rng_streams": ("procsim.rng", "calls"),
    "procsim.rng_s": ("procsim.rng", "busy_s"),
    "procsim.exact_law_s": ("procsim.exact_law", "busy_s"),
    "validation.validate_s": ("validation.validate", "busy_s"),
    "validation.validate_calls": ("validation.validate", "calls"),
    "validation.cp_calls": ("validation.cp", "calls"),
    "validation.bootstrap_s": ("validation.bootstrap", "busy_s"),
    "validation.bootstrap_resamples": ("validation.bootstrap", "count"),
    "metric.build_s": ("metric.build", "busy_s"),
    "metric.build_points": ("metric.build", "count"),
    "metric.cover_calls": ("metric.cover_number", "calls"),
    "metric.cover_s": ("metric.cover", "busy_s"),
    "metric.entropy_s": ("metric.entropy", "busy_s"),
    "chaining.greedy_s": ("chaining.greedy", "busy_s"),
    "chaining.exact_s": ("chaining.exact", "busy_s"),
    "chaining.exact_calls": ("chaining.exact", "calls"),
    "chaining.prime_s": ("chaining.prime", "busy_s"),
    "rip.enum_s": ("rip.enum", "busy_s"),
    "rip.supports": ("rip.enum", "count"),
    "rip.curve_s": ("rip.curve", "busy_s"),
    "tailcalc.bound_s": ("tailcalc.bound", "busy_s"),
    "tailcalc.bound_calls": ("tailcalc.bound", "calls"),
    "schatten.radii_s": ("schatten.radii", "busy_s"),
    "serialize.write_s": ("serialize.write", "busy_s"),
    "serialize.bytes_written": ("serialize.write", "count"),
}


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    return list(GROUP_METRICS) + [f"{layer}.self_s" for layer in LAYERS]


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _groups_of(qualname: str) -> tuple:
    module = qualname.split(".")[0]
    return tuple(g for g, (members, _) in GROUPS.items() if qualname in members or module in members)


class Tracer:
    """Installs span-recording wrappers and accumulates per-pass figures."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []  # qualified function names, by index
        self.spans: list[tuple] = []  # (id, parent, fn index, start ns, end ns)
        self._patches: list[tuple] = []
        self._stack: list[list] = []  # open spans: [id, start, child ns]
        self._next_id = 1
        self.layer_self_ns = dict.fromkeys(LAYERS, 0)
        self.group_busy_ns = dict.fromkeys(GROUPS, 0)
        self.group_calls = dict.fromkeys(GROUPS, 0)
        self.group_count = dict.fromkeys(GROUPS, 0)
        self._depth = dict.fromkeys(GROUPS, 0)
        self._group_start = dict.fromkeys(GROUPS, 0)

    # ------------------------------------------------------------ figures

    def reset_pass(self):
        """Zero the per-pass figures (the wrappers hold these dicts)."""
        for figures in (self.layer_self_ns, self.group_busy_ns, self.group_calls,
                        self.group_count):
            figures.update(dict.fromkeys(figures, 0))

    def pass_metrics(self) -> dict:
        out = {}
        for metric, (group, stat) in GROUP_METRICS.items():
            if stat == "busy_s":
                out[metric] = self.group_busy_ns[group] / 1e9
            elif stat == "calls":
                out[metric] = self.group_calls[group]
            else:
                out[metric] = self.group_count[group]
        for layer, ns in self.layer_self_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        return out

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, qualname: str, layer: str):
        index = len(self.names)
        self.names.append(qualname)
        groups = _groups_of(qualname)
        counters = {g: GROUPS[g][1] for g in groups if GROUPS[g][1] is not None}
        stack, spans = self._stack, self.spans
        depth, group_start = self._depth, self._group_start

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            start = perf_counter_ns()
            frame = [span_id, start, 0]
            stack.append(frame)
            for g in groups:
                if depth[g] == 0:
                    group_start[g] = start
                depth[g] += 1
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][2] += elapsed
                self.layer_self_ns[layer] += elapsed - frame[2]
                for g in groups:
                    depth[g] -= 1
                    if depth[g] == 0:
                        self.group_busy_ns[g] += end - group_start[g]
                        self.group_calls[g] += 1
                        if ok and g in counters:
                            self.group_count[g] += counters[g](args, kwargs, result)
                spans.append((span_id, parent, index, start, end))

        return traced

    def install(self):
        """Wrap every layer's public functions in every namespace binding them."""
        if not self._patches:
            pkg = self.package.__name__
            namespaces = [m for name, m in sorted(sys.modules.items())
                          if m is not None and (name == pkg or name.startswith(pkg + "."))]
            for layer, modules in LAYERS.items():
                for short in modules:
                    module = sys.modules[f"{pkg}.{short}"]
                    for name, fn in _public_functions(module):
                        wrapper = self._wrap(fn, f"{short}.{name}", layer)
                        for ns in namespaces:
                            for attr, value in list(vars(ns).items()):
                                if value is fn:
                                    self._patches.append((ns, attr, fn, wrapper))
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, fn, _ in self._patches:
            setattr(ns, attr, fn)

    # ------------------------------------------------------------ output

    def save(self, path):
        """Write the recorded spans: names as JSON, spans as an int64 .npy."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        if spans.size:
            spans[:, 3:] -= spans[:, 3].min()
        np.save(path + ".spans.npy", spans)
        with open(path + ".names.json", "w", encoding="utf-8") as fh:
            json.dump(
                {"columns": ["id", "parent", "function", "start_ns", "end_ns"],
                 "functions": self.names},
                fh,
                indent=1,
            )
