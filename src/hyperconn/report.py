"""The analysis report of ``hyperconn analyze`` and its two views.

The ``--machine`` view prints exactly ten fixed ``key=value`` lines and
never includes timings, so identical inputs give byte-identical machine
output.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from .connectivity import CutResult, edge_atom, edge_connectivity
from .model import Hypergraph, HypergraphError, degree_extremes, is_linear
from .symmetry import transitivity_generators

__all__ = ["AnalysisReport", "analyze", "render_machine", "render_human"]


@dataclass
class AnalysisReport:
    """Everything one analysis run established about an instance.

    Optional fields stay None when their phase was not requested or hit a
    per-field guard (see ``notes``); ``maximal`` is kappa == delta whenever
    kappa is known.  ``timings_ms`` is per-phase wall time, rendered only in
    the human view.
    """

    n: int
    m: int
    edge_sizes: tuple[tuple[int, int], ...]
    delta: int
    Delta: int
    uniform_k: int | None
    linear: bool
    linear_witness: tuple[tuple[int, int], int, int] | None
    connected: bool
    component_count: int
    kappa: int | None = None
    cut: CutResult | None = None
    maximal: bool | None = None
    transitive: bool | None = None
    generators: tuple[tuple[int, ...], ...] = ()
    atom: CutResult | None = None
    notes: tuple[str, ...] = ()
    timings_ms: dict[str, float] = field(default_factory=dict)


def analyze(
    H: Hypergraph,
    *,
    connectivity: bool = False,
    transitivity: bool = False,
    atom: bool = False,
) -> AnalysisReport:
    """Run the requested phases; guard violations become notes, not failures."""
    notes: list[str] = []
    timings: dict[str, float] = {}

    with _timed(timings, "base"):
        sizes = tuple(sorted(Counter(len(e) for e in H.edges).items()))
        delta, big_delta = degree_extremes(H)
        uniform_k = sizes[0][0] if len(sizes) == 1 else None
        if not sizes:
            notes.append("uniformity: undefined (no edges)")
        verdict = is_linear(H)
        component_count = len(H._components)

    report = AnalysisReport(
        n=H.n,
        m=H.m,
        edge_sizes=sizes,
        delta=delta,
        Delta=big_delta,
        uniform_k=uniform_k,
        linear=verdict.linear,
        linear_witness=verdict.witness,
        connected=component_count == 1,
        component_count=component_count,
    )

    # transitivity runs first, so that its generators can bound the flows
    if transitivity:
        with _timed(timings, "transitivity"):
            gens = transitivity_generators(H)
            report.transitive = gens is not None
            report.generators = tuple(gens) if gens else ()

    if connectivity:
        with _timed(timings, "connectivity"):
            try:
                cut = edge_connectivity(H, automorphisms=report.generators)
                report.kappa = cut.value
                report.cut = cut
                report.maximal = cut.value == delta
            except HypergraphError as exc:
                notes.append(f"edge connectivity: skipped ({exc})")

    if atom:
        with _timed(timings, "atom"):
            try:
                report.atom = edge_atom(H)
            except HypergraphError as exc:
                notes.append(f"edge atom: skipped ({exc})")

    report.notes = tuple(notes)
    phases = ("base", "connectivity", "transitivity", "atom")
    report.timings_ms = {name: timings[name] for name in phases if name in timings}
    return report


@contextmanager
def _timed(timings: dict[str, float], name: str):
    """Record the wall time of the ``with`` block as ``timings[name]`` in ms."""
    start = time.perf_counter()
    yield
    timings[name] = (time.perf_counter() - start) * 1000.0


def render_machine(report: AnalysisReport) -> str:
    fields = (
        ("n", report.n),
        ("m", report.m),
        ("delta", report.delta),
        ("Delta", report.Delta),
        ("uniform_k", report.uniform_k),
        ("linear", report.linear),
        ("connected", report.connected),
        ("kappa", report.kappa),
        ("transitive", report.transitive),
        ("maximal", report.maximal),
    )
    return "".join(f"{key}={_render(value)}\n" for key, value in fields)


def render_human(report: AnalysisReport) -> str:
    size_text = ", ".join(f"{s} (x{c})" for s, c in report.edge_sizes) or "none"
    lines = [
        f"vertices: {report.n}",
        f"edges: {report.m}",
        f"edge sizes: {size_text}",
        f"degree: min {report.delta}, max {report.Delta}",
        "uniform: " + (f"k={report.uniform_k}" if report.uniform_k is not None else "no"),
    ]
    if report.linear:
        lines.append("linear: yes")
    else:
        pair, i, j = report.linear_witness
        lines.append(f"linear: no (pair {pair[0]},{pair[1]} repeats in edges {i} and {j})")
    components = f"no ({report.component_count} components)"
    lines.append("connected: " + ("yes" if report.connected else components))
    if report.kappa is not None:
        lines.append(f"edge connectivity: {report.kappa}")
        lines.append("  witness side: " + _render_ints(report.cut.side))
        lines.append("  cut edges: " + (_render_ints(report.cut.cut_edges) or "(none)"))
        lines.append("maximally edge-connected: " + ("yes" if report.maximal else "no"))
    if report.transitive is not None:
        lines.append("vertex-transitive: " + ("yes" if report.transitive else "no"))
        for gen in report.generators:
            lines.append("  generator: p " + _render_ints(gen))
    if report.atom is not None:
        lines.append(
            f"edge atom: {_render_ints(report.atom.side)} (boundary {report.atom.value})"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    if report.timings_ms:
        lines.append(
            "timings [ms]: "
            + " ".join(f"{name}={ms:.1f}" for name, ms in report.timings_ms.items())
        )
    return "\n".join(lines) + "\n"


def _render(value) -> str:
    """A value as the machine view and the provenance lines print it: None
    as ``none``, a bool as ``true`` or ``false``, a tuple comma-separated."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _render_ints(values) -> str:
    return " ".join(str(v) for v in values)
