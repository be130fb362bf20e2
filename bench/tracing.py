"""Outside-in tracing of hyperconn's layers from the benchmark's own files.

``Tracer.install`` wraps the public functions of ``model``, ``connectivity``,
``symmetry`` and ``constructions``, plus ``cli.main`` as the root span of an
operation.  A wrapper replaces every module attribute that refers to the
original, because callers look functions up in their own module globals:
``hyperconn.cli`` holds the names it imported, and a module's inner calls
(``edge_connectivity`` -> ``st_edge_connectivity``) go through its own
globals.  ``Tracer.restore`` puts every attribute back.

A span's self time is its duration minus the durations of the spans it
caused.  A group's ``ms`` counts only its outermost spans, so a predicate
calling another predicate is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("model", "connectivity", "symmetry", "constructions")

# Function -> reported group; other public functions are traced under
# their own name and appear only in the printed table.
GROUPS = {
    "cli.main": "cli",
    "model.parse_hypergraph": "model.parse",
    "model.degree_extremes": "model.predicates",
    "model.is_uniform": "model.predicates",
    "model.is_linear": "model.predicates",
    "model.components": "model.predicates",
    "model.is_connected": "model.predicates",
    "model.boundary": "model.boundary",
    "connectivity.edge_connectivity": "connectivity.kappa",
    "connectivity.st_edge_connectivity": "connectivity.flow",
    "connectivity.edge_atom": "connectivity.atom",
    "connectivity.edge_connectivity_oracle": "connectivity.oracle",
    "symmetry.transitivity_generators": "symmetry.transitivity",
    "symmetry.find_automorphism_mapping": "symmetry.search",
    "constructions.random_uniform_hypergraph": "constructions.random",
}

# (metric name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("model.parse.ms", "ms"),
    ("model.predicates.ms", "ms"),
    ("model.boundary.calls", "count"),
    ("model.boundary.ms", "ms"),
    ("connectivity.kappa.calls", "count"),
    ("connectivity.kappa.ms", "ms"),
    ("connectivity.flow.calls", "count"),
    ("connectivity.flow.ms", "ms"),
    ("connectivity.flow.self_ms", "ms"),
    ("connectivity.flow.ms_per_call", "ms"),
    ("connectivity.atom.ms", "ms"),
    ("connectivity.oracle.ms", "ms"),
    ("connectivity.sides", "count"),
    ("symmetry.transitivity.ms", "ms"),
    ("symmetry.search.calls", "count"),
    ("symmetry.search.found", "count"),
    ("symmetry.search.refuted", "count"),
    ("symmetry.search.ms", "ms"),
    ("symmetry.search.max_ms", "ms"),
    ("symmetry.targets_free", "count"),
    ("constructions.random.ms", "ms"),
    ("cli.self_ms", "ms"),
)


class _Group:
    __slots__ = ("calls", "ms", "self_ms", "max_ms", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.ms = 0.0
        self.self_ms = 0.0
        self.max_ms = 0.0
        self.active = 0


class Tracer:
    """Per-group call counts and times for traced calls, plus the counts
    that need a call's arguments or result."""

    def __init__(self) -> None:
        self.groups: dict[str, _Group] = defaultdict(_Group)
        self.found = 0
        self.refuted = 0
        self.targets_free = 0
        self.targets_base = 0
        self.sides = 0
        self._stack: list[list[float]] = []
        self._last_target = 0
        self._patched: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        """Wrap the traced functions in every loaded module of ``package``."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for short in LAYER_MODULES:
            module = getattr(package, short)
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        main = package.cli.main
        wrappers[id(main)] = self._wrap("cli.main", main)
        prefix = package.__name__
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def _wrap(self, name: str, fn):
        group_name = GROUPS.get(name, name)
        group = self.groups[group_name]
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = tracer._enter(name, args)
            frame = [0.0]
            stack.append(frame)
            group.calls += 1
            group.active += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ms = (time.perf_counter() - start) * 1000.0
                stack.pop()
                group.active -= 1
                if stack:
                    stack[-1][0] += ms
                group.self_ms += ms - frame[0]
                if not group.active:
                    group.ms += ms
            # Only completed calls: an interrupted one reads as its budget.
            group.max_ms = max(group.max_ms, ms)
            tracer._exit(name, args, result, before)
            return result

        return traced

    def _enter(self, name: str, args) -> int:
        if name == "symmetry.find_automorphism_mapping":
            self._last_target = args[2]
        return self.groups["symmetry.search"].calls

    def _exit(self, name: str, args, result, searches_before: int) -> None:
        if name == "symmetry.find_automorphism_mapping":
            if result is None:
                self.refuted += 1
            else:
                self.found += 1
        elif name == "symmetry.transitivity_generators":
            n = args[0].n
            searched = self.groups["symmetry.search"].calls - searches_before
            examined = n - 1 if result is not None else self._last_target
            self.targets_free += examined - searched
            self.targets_base += n - 1
        elif name in ("connectivity.edge_atom", "connectivity.edge_connectivity_oracle"):
            # Computed, not counted: both loop over the 2^(n-1) - 1 sides
            # that contain vertex 0 (the oracle stops early only on a
            # disconnected input, which the workloads never give it).
            self.sides += (1 << (args[0].n - 1)) - 1

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of every PER_LAYER metric."""
        g = self.groups
        flow = g["connectivity.flow"]
        values = {
            "model.parse.ms": g["model.parse"].ms,
            "model.predicates.ms": g["model.predicates"].ms,
            "model.boundary.calls": g["model.boundary"].calls,
            "model.boundary.ms": g["model.boundary"].ms,
            "connectivity.kappa.calls": g["connectivity.kappa"].calls,
            "connectivity.kappa.ms": g["connectivity.kappa"].ms,
            "connectivity.flow.calls": flow.calls,
            "connectivity.flow.ms": flow.ms,
            "connectivity.flow.self_ms": flow.self_ms,
            "connectivity.atom.ms": g["connectivity.atom"].ms,
            "connectivity.oracle.ms": g["connectivity.oracle"].ms,
            "connectivity.sides": self.sides,
            "symmetry.transitivity.ms": g["symmetry.transitivity"].ms,
            "symmetry.search.calls": g["symmetry.search"].calls,
            "symmetry.search.found": self.found,
            "symmetry.search.refuted": self.refuted,
            "symmetry.search.ms": g["symmetry.search"].ms,
            "symmetry.targets_free": self.targets_free,
            "symmetry.targets_base": self.targets_base,
            "constructions.random.ms": g["constructions.random"].ms,
            "cli.self_ms": g["cli"].self_ms,
        }
        values = {name: value / passes for name, value in values.items()}
        values["connectivity.flow.ms_per_call"] = flow.ms / flow.calls if flow.calls else 0.0
        values["symmetry.search.max_ms"] = g["symmetry.search"].max_ms
        return values

    def table(self, passes: int) -> list[str]:
        """Every traced group, per pass, for the printed report."""
        lines = [f"{'group':40s} {'calls':>9s} {'ms':>11s} {'self_ms':>11s}"]
        for name, group in sorted(self.groups.items()):
            if group.calls:
                lines.append(
                    f"{name:40s} {group.calls / passes:9.1f} {group.ms / passes:11.2f}"
                    f" {group.self_ms / passes:11.2f}"
                )
        return lines
