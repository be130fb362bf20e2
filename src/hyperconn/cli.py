"""Command-line surface: generation, analysis, oracle runs, verification.

Commands communicate through text and exit codes only: 0 for success,
1 for a verification finding, 2 for usage or parse errors.  The analysis
report and its views live in :mod:`hyperconn.report`.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from math import comb
from pathlib import Path

from .connectivity import (
    _check_enumeration_guard,
    edge_atom,
    edge_connectivity,
    edge_connectivity_oracle,
)
from .constructions import (
    SplitMix64,
    _lemma_trials,
    affine_doubled_family,
    affine_hypergraph,
    builtin_corpus,
    circulant_graph,
    complete_uniform,
    cyclic_difference_hypergraph,
    glued_complete_family,
    random_uniform_hypergraph,
)
from .model import (
    Hypergraph,
    _MAX_EDGES,
    _MAX_INCIDENCES,
    HypergraphError,
    _check_vertex_count,
    _first_uncrossing_violation,
    _mask_vertices,
    boundary,
    degree_extremes,
    is_connected,
    is_linear,
    is_uniform,
    parse_hypergraph,
    serialize_hypergraph,
)
from .report import _render, _render_ints, _timed, analyze, render_human, render_machine
from .symmetry import transitivity_generators

__all__ = ["main"]


def _subsets(n: int, k: int) -> int:
    """C(n, k), or 0 unless 0 <= k <= n.  When k and n - k both pass 21,
    C(n, 21) >= C(42, 21), about 5 * 10^11, stands in: it is far past the
    edge cap, and the exact count can take seconds (12 s for k = n/2 at the
    vertex cap)."""
    return comb(n, min(k, n - k, 21)) if 0 <= k <= n else 0


# generate's families: each name maps to its parameters (in the order the
# generator takes them and the first provenance line names them), its
# generator, (vertex count, most edges, most incidences) as a function of
# the parameters, and the further provenance lines as a function of the
# instance.
_FAMILIES = {
    "complete": (
        ("n", "k"),
        complete_uniform,
        lambda n, k: (n, _subsets(n, k), k * _subsets(n, k)),
        lambda H: (),
    ),
    "glued-complete": (
        ("n", "k"),
        glued_complete_family,
        lambda n, k: (n * k, k * _subsets(n, k) + n, k * (k * _subsets(n, k) + n)),
        lambda H: ("labels: block i (1-based) holds vertices (i-1)*n..i*n-1; label (v,i) -> (i-1)*n+(v-1)",),
    ),
    "affine": (
        ("k",),
        affine_hypergraph,
        lambda k: (k * k, k * k, k**3),
        lambda H: ("labels: 1-based grid point p -> vertex p-1",),
    ),
    "affine-doubled": (
        ("k",),
        affine_doubled_family,
        lambda k: (2 * k * k, 2 * k * k + k, 2 * k**3 + 2 * k * k),
        lambda H: ("labels: 1-based grid point p -> vertex p-1; twin copy at offset k*k",),
    ),
    "cyclic-difference": (
        ("n", "base"),
        cyclic_difference_hypergraph,
        lambda n, base: (n, n, n * len(set(base))),
        lambda H: (f"linear={_render(is_linear(H).linear)}",),
    ),
    "circulant": (
        ("n", "offsets"),
        circulant_graph,
        lambda n, offsets: (n, n * len(set(offsets)), 2 * n * len(set(offsets))),
        lambda H: (f"connected={_render(is_connected(H))}",),
    ),
    "random": (
        ("n", "k", "m", "seed"),
        random_uniform_hypergraph,
        lambda n, k, m, seed: (n, m, m * k),
        lambda H: (),
    ),
}


def cmd_generate(args: argparse.Namespace) -> int:
    H, provenance = _build_instance(args)
    text = "".join(f"# {line}\n" for line in provenance) + serialize_hypergraph(H)
    out = Path(args.out)
    out.write_text(text, encoding="utf-8", newline="\n")
    print(f"wrote {out} (n={H.n}, m={H.m})")
    return 0


def _build_instance(args: argparse.Namespace) -> tuple[Hypergraph, list[str]]:
    params, generator, counts, provenance = _FAMILIES[args.family]
    values = [_require(args, name) for name in params]
    # refuse an over-cap instance before building it, checking vertices,
    # then edges, then incidences; a count below 1 is left to the
    # generator, whose message names the parameter
    vertices, edges, incidences = counts(*values)
    _check_vertex_count(max(vertices, 1))
    for what, count, cap in (("edges", edges, _MAX_EDGES), ("incidences", incidences, _MAX_INCIDENCES)):
        if count > cap:
            raise HypergraphError(f"too many {what}, family {args.family!r} asks for more than {cap}")
    H = generator(*values)
    settings = "".join(f" {name}={_render(value)}" for name, value in zip(params, values))
    return H, [f"family={args.family}{settings}", *provenance(H)]


def cmd_analyze(args: argparse.Namespace) -> int:
    timings: dict[str, float] = {}
    with _timed(timings, "parse"):
        H = _read_instance(args.path)
    report = analyze(
        H, connectivity=args.connectivity, transitivity=args.transitivity, atom=args.atom
    )
    report.timings_ms = {**timings, **report.timings_ms}
    sys.stdout.write((render_machine if args.machine else render_human)(report))
    return 0


def _read_instance(path) -> Hypergraph:
    """Parse an instance file; a file that is not UTF-8 or does not parse
    raises a HypergraphError whose message starts with the path."""
    try:
        return parse_hypergraph(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, HypergraphError) as exc:
        raise HypergraphError(f"{path}: {exc}") from None


def cmd_verify_lemma(args: argparse.Namespace) -> int:
    # random sides are drawn below 2**nmax, and SplitMix64 draws below 2**64 at most
    if args.trials < 0 or not 2 <= args.nmax <= 64:
        raise HypergraphError("lemma check needs --trials >= 0 and 2 <= --nmax <= 64")
    exhaustive = [
        (name, H)
        for name, H in builtin_corpus()
        if H.n <= 8 and H.m > 0 and is_uniform(H) is not None
    ]
    pair_count = 0
    for name, H in exhaustive:
        size = 1 << H.n
        pair_count += size * (size + 1) // 2  # the pairs x_mask <= y_mask checked below
        pair = _first_uncrossing_violation(_boundary_size_table(H))
        if pair:
            _print_uncrossing_violation(name, H, *pair)
            print("FAIL")
            return 1
    print(
        f"uncrossing exhaustive: {len(exhaustive)} uniform corpus instances with n <= 8, "
        f"{pair_count} (X, Y) pairs, 0 violations"
    )

    trials = _lemma_trials(SplitMix64(args.seed), args.trials, args.nmax)
    for trial, (n, masks, x_mask, y_mask) in enumerate(trials):
        if not _uncrosses_edgewise(masks, x_mask, y_mask):
            H = Hypergraph._trusted(n, sorted(_mask_vertices(em, n) for em in set(masks) if em & (em - 1)))
            _print_uncrossing_violation(f"random trial {trial}", H, x_mask, y_mask)
            print("FAIL")
            return 1
    print(
        f"uncrossing random: {args.trials} trials (seed={args.seed}, nmax={args.nmax}), "
        "0 violations"
    )
    print("PASS")
    return 0


def cmd_verify_theorem(args: argparse.Namespace) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise HypergraphError(f"corpus directory not found: {corpus}")
    files = sorted(p for p in corpus.iterdir() if p.is_file())
    if not files:
        raise HypergraphError(f"corpus directory is empty: {corpus}")
    rows = []
    for path in files:
        H = _read_instance(path)
        gap = _hypothesis_gap(H, args.which)
        gens = transitivity_generators(H) if gap is None else None
        if gens is not None:
            kappa = edge_connectivity(H, automorphisms=gens).value
            delta = degree_extremes(H)[0]
            verdict = "pass" if kappa == delta else "FAIL"
            rows.append((path.name, "ok", str(kappa), str(delta), verdict))
        else:
            rows.append((path.name, gap or "not vertex-transitive", "-", "-", "skipped (hypothesis)"))
    print(f"which={args.which} corpus={corpus}")
    for line in _format_table(("instance", "gate", "kappa", "delta", "verdict"), rows):
        print(line)
    gated = [r for r in rows if r[1] == "ok"]
    failed = [r for r in rows if r[4] == "FAIL"]
    print(
        f"summary: {len(rows)} instances, {len(gated)} gated, "
        f"{len(gated) - len(failed)} pass, {len(failed)} fail, {len(rows) - len(gated)} skipped"
    )
    for row in failed:
        print(f"critical: {row[0]} violates kappa == delta under satisfied hypotheses")
    return 1 if failed else 0


def _hypothesis_gap(H: Hypergraph, which: str) -> str | None:
    """None when every hypothesis of the selected statement but
    transitivity holds, else the first one that fails; the caller checks
    transitivity last and keeps its generators."""
    try:
        k = is_uniform(H)
    except HypergraphError:
        return "no edges"
    if which == "mader":
        if k != 2:
            return "not 2-uniform"
    else:
        if k is None:
            return "not uniform"
        if k < 3:
            return "edge size below 3"
        if not is_linear(H):
            return "not linear"
    if not is_connected(H):
        return "not connected"
    return None


def cmd_oracle(args: argparse.Namespace) -> int:
    H = _read_instance(args.path)
    # refuse an instance beyond the guard before walking it
    _check_enumeration_guard(H, "oracle")
    if is_connected(H):
        # the atom's boundary is a minimum one, so one enumeration gives both
        result, label = edge_atom(H), "atom"
    else:
        result, label = edge_connectivity_oracle(H), "side"
    print(f"kappa={result.value}")
    print(f"{label}=" + _render_ints(result.side))
    print("cut=" + _render_ints(result.cut_edges))
    return 0


def _boundary_size_table(H: Hypergraph) -> list[int]:
    """|boundary(X)| for every vertex subset X, indexed by bitmask."""
    edge_masks = [sum(1 << v for v in e) for e in H.edges]
    # an edge crosses side s when 0 < |s & e| < |e|
    return [sum(0 < s & em != em for em in edge_masks) for s in range(1 << H.n)]


def _uncrosses_edgewise(masks: list[int], x_mask: int, y_mask: int) -> bool:
    """Whether no edge, given by its vertex bitmask, crosses X u Y and X n Y
    more often than X and Y; summed over the edges, that gives
    |boundary(X u Y)| + |boundary(X n Y)| <= |boundary(X)| + |boundary(Y)|."""
    union, meet = x_mask | y_mask, x_mask & y_mask
    for em in masks:
        if (0 < union & em != em) + (0 < meet & em != em) > (0 < x_mask & em != em) + (0 < y_mask & em != em):
            return False
    return True


def _print_uncrossing_violation(name: str, H: Hypergraph, x_mask: int, y_mask: int) -> None:
    xs = frozenset(_mask_vertices(x_mask, H.n))
    ys = frozenset(_mask_vertices(y_mask, H.n))
    print(f"violation in {name}:")
    print("  X = " + _render_ints(sorted(xs)))
    print("  Y = " + _render_ints(sorted(ys)))
    print(
        f"  |boundary(X u Y)|={len(boundary(H, xs | ys))}"
        f" |boundary(X n Y)|={len(boundary(H, xs & ys))}"
        f" |boundary(X)|={len(boundary(H, xs))}"
        f" |boundary(Y)|={len(boundary(H, ys))}"
    )
    sys.stdout.write(serialize_hypergraph(H))


def _format_table(headers: tuple[str, ...], rows) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return lines


def _require(args: argparse.Namespace, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise HypergraphError(f"family {args.family!r} requires --{name}")
    return value


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing reads it and never changes it, and building it costs
    about a millisecond, which an in-process caller would pay per command."""
    parser = argparse.ArgumentParser(
        prog="hyperconn",
        description="Edge-connectivity, boundary, and symmetry toolkit for small hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a generated instance to a file")
    gen.add_argument("--family", required=True, choices=_FAMILIES)
    gen.add_argument("--n", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--offsets", type=_int_tuple, help="comma-separated, e.g. 1,2")
    gen.add_argument("--base", type=_int_tuple, help="comma-separated residues, e.g. 0,1,4")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="report structure of an instance file")
    ana.add_argument("path")
    ana.add_argument("--connectivity", action="store_true")
    ana.add_argument("--transitivity", action="store_true")
    ana.add_argument("--atom", action="store_true")
    ana.add_argument("--machine", action="store_true")
    ana.set_defaults(func=cmd_analyze)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver_sub = ver.add_subparsers(dest="check", required=True)
    lem = ver_sub.add_parser("lemma", help="uncrossing inequality for boundaries")
    lem.add_argument("--trials", type=int, default=1000)
    lem.add_argument("--seed", type=int, default=0)
    lem.add_argument("--nmax", type=int, default=10)
    lem.set_defaults(func=cmd_verify_lemma)
    thm = ver_sub.add_parser("theorem", help="kappa == delta on gated corpus files")
    thm.add_argument("--corpus", required=True)
    thm.add_argument("--which", required=True, choices=("mader", "main"))
    thm.set_defaults(func=cmd_verify_theorem)

    orc = sub.add_parser("oracle", help="brute-force connectivity and edge atom")
    orc.add_argument("path")
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HypergraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())
