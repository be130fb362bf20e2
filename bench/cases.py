"""The three workloads: instance generation (the timed set-up) and the
expected answer of every operation.

Each operation is one ``hyperconn.cli.main(argv)`` call.  Set-up writes the
instance files and corpus directories the calls read; afterwards every
expected answer is derived by a route that does not run the program's own
engines (see ``reference``):

* family theory for the fixed families: Mader's theorem for connected
  vertex-transitive graphs (circulants, cycles), the paper's theorem for the
  linear uniform transitive instances, kappa' = k for the doubled affine
  family and kappa' = n for the glued family, trees have kappa' = 1, and
  every fixed family has an explicit transitive group;
* the reference flow route for the seeded random instances and for every
  oracle answer (n <= 20);
* submodularity of the boundary size for the lemma suite (no violations).

Random instances are the first connected draw from a stream derived from
the workload seed and the case name.  A disconnected draw would skip the
flow route and the oracle enumeration altogether, so every seed runs the
same code path at about the same cost.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import reference

WORKLOADS = ("flow", "search", "enumerate")

# Per-case wall-time budget.  Each is far above the slowest case of its
# workload that completes at the seed commit, even in the slow state of a
# shared host (circulant n=400 at 4-6 s, the n=20 oracle at 4-5 s,
# verify theorem --which main at 1.1-1.6 s), so a case that completes never
# flips to a timeout.
BUDGET_S = {"flow": 30.0, "search": 4.0, "enumerate": 30.0}

LEMMA_TRIALS = 5000
LEMMA_NMAX = 16

_MACHINE_KEYS = (
    "n", "m", "delta", "Delta", "uniform_k", "linear", "connected",
    "kappa", "transitive", "maximal",
)

# Sentinel: kappa derived by the reference flow route, not by theory.
COMPUTED = "computed"

Check = Callable[[int, str], "str | None"]


@dataclass
class Case:
    """One operation: its argv and a check that returns None when the exit
    code and output are right, else a short description of the difference."""

    name: str
    argv: list[str]
    check: Check
    budget_s: float


@dataclass
class Pending:
    """An operation whose expected answer is derived after the timed set-up."""

    name: str
    argv: list[str]
    derive: Callable[[], Check]


def setup(workload: str, hc, seed: int, work: Path) -> list[Pending]:
    """Generate and write the workload's inputs under ``work``.

    ``hc`` is the imported ``hyperconn`` package; only its generators and
    serializer run here.
    """
    work.mkdir(parents=True)
    return _SETUPS[workload](_Writer(hc, seed, work))


def derive(workload: str, pending: list[Pending]) -> list[Case]:
    return [Case(p.name, p.argv, p.derive(), BUDGET_S[workload]) for p in pending]


def subseed(seed: int, label: str) -> int:
    """A 63-bit seed for one use of the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class _Writer:
    def __init__(self, hc, seed: int, work: Path) -> None:
        self.hc = hc
        self.seed = seed
        self.work = work

    def write(self, name: str, H, directory: Path | None = None) -> Path:
        path = (directory or self.work) / f"{name}.txt"
        path.write_text(self.hc.model.serialize_hypergraph(H), encoding="utf-8")
        return path

    def corpus(self, name: str, items) -> Path:
        directory = self.work / name
        directory.mkdir()
        for item_name, H in items:
            self.write(item_name, H, directory)
        return directory

    def random(self, name: str, n: int, k: int, m: int):
        """First connected draw of random_uniform_hypergraph(n, k, m)."""
        for attempt in range(1000):
            H = self.hc.constructions.random_uniform_hypergraph(
                n, k, m, subseed(self.seed, f"{name}/{attempt}")
            )
            if len(reference.component_of(H.n, H.edges, 0)) == H.n:
                return H
        raise RuntimeError(f"no connected draw for {name}")


def _setup_flow(w: _Writer) -> list[Pending]:
    c = w.hc.constructions
    path = w.hc.model.Hypergraph(700, tuple((i, i + 1) for i in range(699)))
    # (name, instance, kappa by theory or COMPUTED)
    items = [
        ("circulant_100_12", c.circulant_graph(100, (1, 2)), 4),
        ("circulant_200_12", c.circulant_graph(200, (1, 2)), 4),
        ("circulant_400_12", c.circulant_graph(400, (1, 2)), 4),
        ("cycle_300", c.circulant_graph(300, (1,)), 2),
        ("path_700", path, 1),
        ("affine_doubled_7", c.affine_doubled_family(7), 7),
        ("random_200_3_400", w.random("random_200_3_400", 200, 3, 400), COMPUTED),
        ("pg_2_5", _pg25(c), 6),
    ]
    out = []
    for name, H, kappa in items:
        file = w.write(name, H)
        out.append(
            Pending(
                name,
                ["analyze", str(file), "--connectivity", "--machine"],
                partial(_machine_check, file, kappa=kappa, transitive=None),
            )
        )
    return out


def _setup_search(w: _Writer) -> list[Pending]:
    c = w.hc.constructions
    items = [
        ("affine_5", c.affine_hypergraph(5)),
        ("affine_7", c.affine_hypergraph(7)),
        ("affine_11", c.affine_hypergraph(11)),
        ("pg_2_5", _pg25(c)),
        ("affine_doubled_5", c.affine_doubled_family(5)),
        ("glued_complete_7_4", c.glued_complete_family(7, 4)),
        ("cycle_1200", c.circulant_graph(1200, (1,))),
    ]
    out = []
    for name, H in items:
        file = w.write(name, H)
        out.append(
            Pending(
                name,
                ["analyze", str(file), "--transitivity", "--machine"],
                partial(_machine_check, file, kappa=None, transitive=True),
            )
        )
    # Corpus file names mapped to their transitivity by theory; None means
    # derive it (a random instance, not regular, hence not transitive).
    main_items = [*c.linear_uniform_corpus(), ("pg_2_5", _pg25(c))]
    controls = [
        ("affine_doubled_3", c.affine_doubled_family(3)),
        ("affine_doubled_5", c.affine_doubled_family(5)),
        ("glued_complete_6_3", c.glued_complete_family(6, 3)),
    ]
    random_control = ("random_30_3_90", w.random("random_30_3_90", 30, 3, 90))
    main_dir = w.corpus("corpus_main", [*main_items, *controls, random_control])
    main_theory = {name: True for name, _ in main_items + controls}
    main_theory[random_control[0]] = None
    mader_items = [
        *c.transitive_graph_corpus(),
        ("circulant_60_125", c.circulant_graph(60, (1, 2, 5))),
        ("circulant_100_13", c.circulant_graph(100, (1, 3))),
    ]
    mader_dir = w.corpus("corpus_mader", mader_items)
    mader_theory = {name: True for name, _ in mader_items}
    for which, directory, theory in (
        ("main", main_dir, main_theory),
        ("mader", mader_dir, mader_theory),
    ):
        out.append(
            Pending(
                f"theorem_{which}",
                ["verify", "theorem", "--corpus", str(directory), "--which", which],
                partial(_theorem_check, directory, which, theory),
            )
        )
    return out


def _setup_enumerate(w: _Writer) -> list[Pending]:
    c = w.hc.constructions
    items = [
        *(
            (f"random_{n}_3_{3 * n}", w.random(f"random_{n}_3_{3 * n}", n, 3, 3 * n))
            for n in (16, 18, 20)
        ),
        ("circulant_20_12", c.circulant_graph(20, (1, 2))),
        ("glued_complete_6_3", c.glued_complete_family(6, 3)),
        ("affine_doubled_3", c.affine_doubled_family(3)),
    ]
    out = []
    for name, H in items:
        file = w.write(name, H)
        out.append(Pending(f"oracle_{name}", ["oracle", str(file)], partial(_oracle_check, file)))
    lemma_seed = subseed(w.seed, "lemma")
    out.append(
        Pending(
            "lemma",
            [
                "verify", "lemma", "--trials", str(LEMMA_TRIALS),
                "--seed", str(lemma_seed), "--nmax", str(LEMMA_NMAX),
            ],
            partial(_lemma_check, w.hc, lemma_seed),
        )
    )
    return out


_SETUPS = {"flow": _setup_flow, "search": _setup_search, "enumerate": _setup_enumerate}


def _pg25(c):
    """PG(2,5) from the perfect difference set {0,1,3,8,12,18} mod 31."""
    return c.cyclic_difference_hypergraph(31, (0, 1, 3, 8, 12, 18))


def exact(text: str) -> Check:
    """Exit code 0 and exactly ``text`` on standard output."""

    def check(code: int, got: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        if got != text:
            return f"output {got!r}, expected {text!r}"
        return None

    return check


def _machine_check(file: Path, *, kappa, transitive) -> Check:
    n, edges = reference.read_instance(file.read_text(encoding="utf-8"))
    lines = reference.machine_base(n, edges)
    if kappa == COMPUTED:
        kappa = reference.edge_connectivity(n, edges)
    lines["kappa"] = "none" if kappa is None else str(kappa)
    lines["transitive"] = "none" if transitive is None else _flag(transitive)
    lines["maximal"] = "none" if kappa is None else _flag(kappa == int(lines["delta"]))
    return exact("".join(f"{key}={lines[key]}\n" for key in _MACHINE_KEYS))


def _oracle_check(file: Path) -> Check:
    n, edges = reference.read_instance(file.read_text(encoding="utf-8"))
    kappa = reference.edge_connectivity(n, edges)
    atom = reference.edge_atom(n, edges, kappa)
    cut = reference.boundary(edges, atom)
    return exact(f"kappa={kappa}\natom={_ints(atom)}\ncut={_ints(cut)}\n")


def _lemma_check(hc, seed: int) -> Check:
    # Boundary size is submodular, so no pair violates uncrossing.
    exhaustive = [
        H for _, H in hc.constructions.builtin_corpus()
        if H.n <= 8 and H.edges and reference.uniform_k(H.edges) is not None
    ]
    pairs = sum((1 << H.n) * ((1 << H.n) + 1) // 2 for H in exhaustive)
    return exact(
        f"uncrossing exhaustive: {len(exhaustive)} uniform corpus instances with n <= 8, "
        f"{pairs} (X, Y) pairs, 0 violations\n"
        f"uncrossing random: {LEMMA_TRIALS} trials (seed={seed}, nmax={LEMMA_NMAX}), "
        "0 violations\nPASS\n"
    )


def _theorem_check(directory: Path, which: str, theory: dict[str, bool | None]) -> Check:
    rows = []
    for file in sorted(directory.iterdir()):
        n, edges = reference.read_instance(file.read_text(encoding="utf-8"))
        gap = _hypothesis_gap(n, edges, which, theory[file.stem])
        if gap is None:
            # The statement under test holds on its hypotheses (Mader's
            # theorem, or the paper's theorem): kappa' = delta.
            delta = str(min(reference.degrees(n, edges)))
            rows.append((file.name, "ok", delta, delta, "pass"))
        else:
            rows.append((file.name, gap, "-", "-", "skipped (hypothesis)"))
    gated = sum(row[1] == "ok" for row in rows)
    header = f"which={which} corpus={directory}"
    summary = (
        f"summary: {len(rows)} instances, {gated} gated, {gated} pass, 0 fail, "
        f"{len(rows) - gated} skipped"
    )

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        lines = out.splitlines()
        if len(lines) < 3 or lines[0] != header or lines[-1] != summary:
            return f"header or summary differs: {out!r}"
        got = [tuple(re.split(r"\s{2,}", line.strip())) for line in lines[2:-1]]
        if got != rows:
            return f"rows {got!r}, expected {rows!r}"
        return None

    return check


def _hypothesis_gap(n: int, edges, which: str, transitive: bool | None) -> str | None:
    """The first failing hypothesis, checked in the order the suite reports."""
    if not edges:
        return "no edges"
    k = reference.uniform_k(edges)
    if which == "mader":
        if k != 2:
            return "not 2-uniform"
    elif k is None:
        return "not uniform"
    elif k < 3:
        return "edge size below 3"
    elif not reference.is_linear(edges):
        return "not linear"
    if len(reference.component_of(n, edges, 0)) < n:
        return "not connected"
    if transitive is None:
        degs = reference.degrees(n, edges)
        if min(degs) == max(degs):
            raise ValueError("transitivity of a regular random instance has no derivation")
        transitive = False
    return None if transitive else "not vertex-transitive"


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _ints(values) -> str:
    return " ".join(str(v) for v in values)
