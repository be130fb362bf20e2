"""Command-line behavior: output formats, exit codes, determinism."""

import os
import subprocess
import sys
import time
import tracemalloc
from itertools import islice, product
from math import comb

import pytest

import hyperconn
from hyperconn import (
    Hypergraph,
    SplitMix64,
    boundary,
    builtin_corpus,
    cli,
    connectivity,
    edge_atom,
    edge_connectivity_oracle,
    is_connected,
    is_uniform,
    parse_hypergraph,
    report,
    serialize_hypergraph,
    transitivity_generators,
)
from hyperconn.cli import _subsets, main
from hyperconn.constructions import _LANES, _lemma_trials, affine_hypergraph, complete_uniform
from hyperconn.connectivity import _side_blocks
from hyperconn.report import analyze, render_machine

from helpers import run_cli

MACHINE_KEY_ORDER = [
    "n",
    "m",
    "delta",
    "Delta",
    "uniform_k",
    "linear",
    "connected",
    "kappa",
    "transitive",
    "maximal",
]


def gen(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, out, err = run_cli(capsys, "generate", *argv, "--out", str(path))
    assert code == 0, err
    return path


def test_generate_writes_provenance_and_canonical_body(capsys, tmp_path):
    path = gen(capsys, tmp_path, "a3.hg", "--family", "affine", "--k", "3")
    text = path.read_text()
    assert text.startswith("# family=affine k=3\n")
    assert "# labels:" in text
    H = parse_hypergraph(text)
    assert H == affine_hypergraph(3)
    body = "".join(
        line + "\n" for line in text.splitlines() if not line.startswith("#")
    )
    assert body == serialize_hypergraph(H)


def test_generate_all_families_round_trip(capsys, tmp_path):
    specs = [
        ("complete", ["--family", "complete", "--n", "5", "--k", "3"], 5, 10),
        ("glued", ["--family", "glued-complete", "--n", "5", "--k", "3"], 15, 35),
        ("affine", ["--family", "affine", "--k", "5"], 25, 25),
        ("doubled", ["--family", "affine-doubled", "--k", "3"], 18, 21),
        (
            "cyc",
            ["--family", "cyclic-difference", "--n", "13", "--base", "0,1,4"],
            13,
            13,
        ),
        ("circ", ["--family", "circulant", "--n", "8", "--offsets", "1,2"], 8, 16),
        (
            "rand",
            ["--family", "random", "--n", "8", "--k", "3", "--m", "10", "--seed", "42"],
            8,
            10,
        ),
    ]
    for name, argv, n, m in specs:
        path = gen(capsys, tmp_path, name + ".hg", *argv)
        H = parse_hypergraph(path.read_text())
        assert H.n == n, name
        assert H.m == m, name


def test_generate_linearity_and_connectivity_comments(capsys, tmp_path):
    linear = gen(
        capsys, tmp_path, "lin.hg",
        "--family", "cyclic-difference", "--n", "13", "--base", "0,1,4",
    )
    assert "# linear=true" in linear.read_text()
    nonlinear = gen(
        capsys, tmp_path, "nonlin.hg",
        "--family", "cyclic-difference", "--n", "6", "--base", "0,1,2",
    )
    assert "# linear=false" in nonlinear.read_text()
    conn = gen(capsys, tmp_path, "c1.hg", "--family", "circulant", "--n", "6", "--offsets", "1")
    assert "# connected=true" in conn.read_text()
    split = gen(capsys, tmp_path, "c3.hg", "--family", "circulant", "--n", "6", "--offsets", "3")
    assert "# connected=false" in split.read_text()


def test_generate_missing_parameter_exits_2(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "generate", "--family", "affine", "--out", str(tmp_path / "x.hg")
    )
    assert code == 2
    assert "requires --k" in err


def test_generate_invalid_parameter_exits_2(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "generate", "--family", "affine", "--k", "4", "--out", str(tmp_path / "x.hg"),
    )
    assert code == 2
    assert "odd prime" in err


def test_generate_refuses_an_instance_over_the_vertex_cap(capsys, tmp_path):
    """generate writes no file that its own parser would refuse."""
    path = tmp_path / "big.hg"
    code, out, err = run_cli(
        capsys,
        "generate", "--family", "random", "--n", "1048577", "--k", "2", "--m", "1",
        "--out", str(path),
    )
    assert (code, out) == (2, "")
    assert err == "error: too many vertices, header declares 1048577, limit 1048576\n"
    assert not path.exists()


def test_generate_checks_the_vertex_count_before_building(capsys, tmp_path):
    """Each family's vertex count (n, n*k, k*k or 2*k*k) is checked against
    the cap before its generator runs.  Building circulant(2^20 + 1, {1})
    before the refusal took about 3 s and 190 MB; the complete and affine
    families at these sizes would not finish."""
    path = tmp_path / "big.hg"
    cases = (
        ("circulant --n 1048577 --offsets 1", 1048577),
        ("cyclic-difference --n 1048577 --base 0,1", 1048577),
        ("complete --n 1048577 --k 2", 1048577),
        ("random --n 1048577 --k 2 --m 4", 1048577),
        ("glued-complete --n 349526 --k 3", 1048578),
        ("affine --k 1031", 1062961),
        ("affine-doubled --k 727", 1057058),
    )
    start = time.perf_counter()
    for spec, count in cases:
        code, out, err = run_cli(capsys, "generate", "--family", *spec.split(), "--out", str(path))
        assert (code, out) == (2, ""), spec
        assert err == f"error: too many vertices, header declares {count}, limit 1048576\n"
        assert not path.exists()
    assert time.perf_counter() - start < 1.0


def test_generate_refuses_an_instance_over_the_edge_cap(capsys, tmp_path):
    """Each family's edge count is checked against the cap before its
    generator runs, so no family under the vertex cap asks for unbounded
    edges: complete --n 100000 --k 3 asks for about 1.7 * 10^14, and
    C(1449, 2) is 1 048 876.  The count of the complete families stops once
    it passes the cap (the exact C(2^20, 2^19) takes about 12 s).  The
    largest instance CI builds, a circulant with 40 000 edges, is admitted."""
    for n in range(30):
        for k in range(-2, n + 3):
            got, want = _subsets(n, k), comb(n, k) if k >= 0 else 0
            assert got == want if want <= 1 << 20 else got > 1 << 20, (n, k)
    path = tmp_path / "dense.hg"
    cases = (
        "complete --n 100000 --k 3",
        "complete --n 1048576 --k 524288",
        "complete --n 1449 --k 2",
        "glued-complete --n 40 --k 10",
        "circulant --n 1048576 --offsets 1,2",
        "random --n 10 --k 2 --m 1048577",
    )
    start = time.perf_counter()
    for spec in cases:
        code, out, err = run_cli(capsys, "generate", "--family", *spec.split(), "--out", str(path))
        assert (code, out) == (2, ""), spec
        assert err == f"error: too many edges, family {spec.split()[0]!r} asks for more than 1048576\n"
        assert not path.exists()
    assert time.perf_counter() - start < 1.0
    code, out, err = run_cli(
        capsys, "generate", "--family", "circulant", "--n", "20000", "--offsets", "1,2", "--out", str(path)
    )
    assert (code, out, err) == (0, f"wrote {path} (n=20000, m=40000)\n", "")


def test_generate_refuses_an_instance_over_the_incidence_cap(capsys, tmp_path):
    """Each family's incidences are checked after its vertices and edges and
    before its generator runs: affine --k 1021 passes both other caps with
    1021^2 lines of 1021 points, about 10^9 incidences.  Each row's counts
    are the built instance's where no edge repeats, and bound them where
    repeats are dropped."""
    built = (
        ("complete", (6, 3)),
        ("glued-complete", (5, 3)),
        ("affine", (5,)),
        ("affine-doubled", (3,)),
        ("cyclic-difference", (13, (0, 1, 4))),
        ("cyclic-difference", (6, (0, 3))),
        ("circulant", (8, (1, 2))),
        ("circulant", (6, (3,))),
        ("random", (6, 3, 40, 1)),
    )
    for family, values in built:
        _, generator, counts, _ = cli._FAMILIES[family]
        H = generator(*values)
        got = (H.n, H.m, sum(len(e) for e in H.edges))
        vertices, edges, incidences = counts(*values)
        assert vertices == H.n and edges >= H.m and incidences >= got[2], (family, values)
        assert (got == (vertices, edges, incidences)) == (H.m == edges), (family, values)
    path = tmp_path / "wide.hg"
    base = ",".join(str(v) for v in range(100))
    cases = (
        ("affine --k 1021", "incidences"),
        ("affine-doubled --k 257", "incidences"),
        (f"cyclic-difference --n 1000000 --base {base}", "incidences"),
        ("random --n 64 --k 32 --m 600000", "incidences"),
        ("random --n 64 --k 32 --m 1048577", "edges"),
    )
    start = time.perf_counter()
    for spec, what in cases:
        code, out, err = run_cli(capsys, "generate", "--family", *spec.split(), "--out", str(path))
        assert (code, out) == (2, ""), spec
        cap = 1 << 24 if what == "incidences" else 1 << 20
        assert err == f"error: too many {what}, family {spec.split()[0]!r} asks for more than {cap}\n"
        assert not path.exists()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "family, option, text",
    [("circulant", "--offsets", "1,x"), ("cyclic-difference", "--base", "0,y")],
)
def test_generate_refuses_a_list_that_is_not_integers(capsys, tmp_path, family, option, text):
    out_path = tmp_path / "x.hg"
    with pytest.raises(SystemExit) as err:
        main(["generate", "--family", family, "--n", "9", option, text, "--out", str(out_path)])
    assert err.value.code == 2
    assert f"argument {option}: expected comma-separated integers, got '{text}'" in capsys.readouterr().err
    assert not out_path.exists()


def test_generate_rejects_unknown_family(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--family", "petersen", "--out", str(tmp_path / "x.hg")])
    assert err.value.code == 2


# Every family at small parameters, byte for byte: the file (provenance
# comments, then the canonical body) and the `wrote` line, with `random`
# both at its default seed and at an explicit one.
GENERATE_GOLDENS = [
    (
        "complete --n 4 --k 3",
        "(n=4, m=4)",
        """\
# family=complete n=4 k=3
h 4 4
e 0 1 2
e 0 1 3
e 0 2 3
e 1 2 3
""",
    ),
    (
        "glued-complete --n 5 --k 3",
        "(n=15, m=35)",
        """\
# family=glued-complete n=5 k=3
# labels: block i (1-based) holds vertices (i-1)*n..i*n-1; label (v,i) -> (i-1)*n+(v-1)
h 15 35
e 0 1 2
e 0 1 3
e 0 1 4
e 0 2 3
e 0 2 4
e 0 3 4
e 0 5 10
e 1 2 3
e 1 2 4
e 1 3 4
e 1 6 11
e 2 3 4
e 2 7 12
e 3 8 13
e 4 9 14
e 5 6 7
e 5 6 8
e 5 6 9
e 5 7 8
e 5 7 9
e 5 8 9
e 6 7 8
e 6 7 9
e 6 8 9
e 7 8 9
e 10 11 12
e 10 11 13
e 10 11 14
e 10 12 13
e 10 12 14
e 10 13 14
e 11 12 13
e 11 12 14
e 11 13 14
e 12 13 14
""",
    ),
    (
        "affine --k 3",
        "(n=9, m=9)",
        """\
# family=affine k=3
# labels: 1-based grid point p -> vertex p-1
h 9 9
e 0 3 6
e 0 4 8
e 0 5 7
e 1 3 8
e 1 4 7
e 1 5 6
e 2 3 7
e 2 4 6
e 2 5 8
""",
    ),
    (
        "affine-doubled --k 3",
        "(n=18, m=21)",
        """\
# family=affine-doubled k=3
# labels: 1-based grid point p -> vertex p-1; twin copy at offset k*k
h 18 21
e 0 1 2 9 10 11
e 0 3 6
e 0 4 8
e 0 5 7
e 1 3 8
e 1 4 7
e 1 5 6
e 2 3 7
e 2 4 6
e 2 5 8
e 3 4 5 12 13 14
e 6 7 8 15 16 17
e 9 12 15
e 9 13 17
e 9 14 16
e 10 12 17
e 10 13 16
e 10 14 15
e 11 12 16
e 11 13 15
e 11 14 17
""",
    ),
    (
        "cyclic-difference --n 7 --base 0,1,3",
        "(n=7, m=7)",
        """\
# family=cyclic-difference n=7 base=0,1,3
# linear=true
h 7 7
e 0 1 3
e 0 2 6
e 0 4 5
e 1 2 4
e 1 5 6
e 2 3 5
e 3 4 6
""",
    ),
    (
        "cyclic-difference --n 6 --base 0,1,2",
        "(n=6, m=6)",
        """\
# family=cyclic-difference n=6 base=0,1,2
# linear=false
h 6 6
e 0 1 2
e 0 1 5
e 0 4 5
e 1 2 3
e 2 3 4
e 3 4 5
""",
    ),
    (
        "circulant --n 6 --offsets 1,2",
        "(n=6, m=12)",
        """\
# family=circulant n=6 offsets=1,2
# connected=true
h 6 12
e 0 1
e 0 2
e 0 4
e 0 5
e 1 2
e 1 3
e 1 5
e 2 3
e 2 4
e 3 4
e 3 5
e 4 5
""",
    ),
    (
        "circulant --n 4 --offsets 2",
        "(n=4, m=2)",
        """\
# family=circulant n=4 offsets=2
# connected=false
h 4 2
e 0 2
e 1 3
""",
    ),
    (
        "random --n 6 --k 3 --m 4",
        "(n=6, m=3)",
        """\
# family=random n=6 k=3 m=4 seed=0
h 6 3
e 0 1 5
e 0 2 4
e 0 3 4
""",
    ),
    (
        "random --n 6 --k 3 --m 4 --seed 5",
        "(n=6, m=2)",
        """\
# family=random n=6 k=3 m=4 seed=5
h 6 2
e 1 2 3
e 1 2 5
""",
    ),
]


@pytest.mark.parametrize("spec,sizes,text", GENERATE_GOLDENS, ids=[spec for spec, _, _ in GENERATE_GOLDENS])
def test_generate_output_is_pinned(capsys, tmp_path, spec, sizes, text):
    path = tmp_path / "out.hg"
    code, out, err = run_cli(capsys, "generate", "--family", *spec.split(), "--out", str(path))
    assert (code, out, err) == (0, f"wrote {path} {sizes}\n", "")
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize(
    "family,params",
    [
        ("complete", {"n": "4", "k": "3"}),
        ("glued-complete", {"n": "5", "k": "3"}),
        ("affine", {"k": "3"}),
        ("affine-doubled", {"k": "3"}),
        ("cyclic-difference", {"n": "7", "base": "0,1,3"}),
        ("circulant", {"n": "6", "offsets": "1,2"}),
        ("random", {"n": "6", "k": "3", "m": "4"}),
    ],
)
def test_generate_names_each_missing_parameter(capsys, tmp_path, family, params):
    path = tmp_path / "out.hg"
    for missing in params:
        argv = [arg for name, value in params.items() if name != missing for arg in (f"--{name}", value)]
        code, out, err = run_cli(capsys, "generate", "--family", family, *argv, "--out", str(path))
        assert (code, out) == (2, ""), missing
        assert err == f"error: family {family!r} requires --{missing}\n"
        assert not path.exists()


GOLDEN_AFFINE_3 = """\
n=9
m=9
delta=3
Delta=3
uniform_k=3
linear=true
connected=true
kappa=3
transitive=true
maximal=true
"""

GOLDEN_COMPLETE_5_3 = """\
n=5
m=10
delta=6
Delta=6
uniform_k=3
linear=false
connected=true
kappa=6
transitive=none
maximal=true
"""

GOLDEN_GLUED_5_3 = """\
n=15
m=35
delta=7
Delta=7
uniform_k=3
linear=false
connected=true
kappa=5
transitive=true
maximal=false
"""

GOLDEN_DOUBLED_3 = """\
n=18
m=21
delta=4
Delta=4
uniform_k=none
linear=true
connected=true
kappa=3
transitive=true
maximal=false
"""


def test_machine_goldens(capsys, tmp_path):
    cases = [
        (["--family", "affine", "--k", "3"], True, GOLDEN_AFFINE_3),
        (["--family", "complete", "--n", "5", "--k", "3"], False, GOLDEN_COMPLETE_5_3),
        (["--family", "glued-complete", "--n", "5", "--k", "3"], True, GOLDEN_GLUED_5_3),
        (["--family", "affine-doubled", "--k", "3"], True, GOLDEN_DOUBLED_3),
    ]
    for i, (argv, with_transitivity, expected) in enumerate(cases):
        path = gen(capsys, tmp_path, f"g{i}.hg", *argv)
        flags = ["--connectivity", "--machine"]
        if with_transitivity:
            flags.insert(1, "--transitivity")
        code, out, err = run_cli(capsys, "analyze", str(path), *flags)
        assert code == 0
        assert out == expected


def test_connectivity_gets_the_generators_in_hand(capsys, tmp_path, monkeypatch):
    """``analyze --transitivity`` and ``verify theorem`` hand the generators
    they found to ``edge_connectivity``; the human view keeps its timings
    keys in phase order though transitivity now runs first."""
    seen = []
    run = cli.edge_connectivity

    def spy(H, automorphisms=()):
        seen.append(automorphisms)
        return run(H, automorphisms=automorphisms)

    # analyze calls it from report, verify theorem from cli
    for module in (cli, report):
        monkeypatch.setattr(module, "edge_connectivity", spy)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = gen(capsys, corpus, "affine_3.hg", "--family", "affine", "--k", "3")
    gens = tuple(transitivity_generators(affine_hypergraph(3)))
    code, out, err = run_cli(capsys, "analyze", str(path), "--connectivity", "--transitivity", "--atom")
    assert code == 0
    keys = [item.split("=")[0] for item in out.splitlines()[-1].split()[2:]]
    assert keys == ["parse", "base", "connectivity", "transitivity", "atom"]
    assert run_cli(capsys, "analyze", str(path), "--connectivity")[0] == 0
    assert run_cli(capsys, "verify", "theorem", "--corpus", str(corpus), "--which", "main")[0] == 0
    assert [tuple(a) for a in seen] == [gens, (), gens]


def test_machine_output_shape(capsys, tmp_path):
    path = gen(capsys, tmp_path, "p.hg", "--family", "circulant", "--n", "6", "--offsets", "1")
    code, out, err = run_cli(capsys, "analyze", str(path), "--machine")
    assert code == 0
    lines = out.splitlines()
    assert [line.split("=")[0] for line in lines] == MACHINE_KEY_ORDER
    assert "kappa=none" in lines
    assert "transitive=none" in lines
    assert "maximal=none" in lines
    assert "timings" not in out


def test_human_output_mentions_timings_and_witness(capsys, tmp_path):
    path = gen(capsys, tmp_path, "h.hg", "--family", "affine", "--k", "3")
    code, out, err = run_cli(
        capsys, "analyze", str(path), "--connectivity", "--transitivity", "--atom"
    )
    assert code == 0
    assert "edge connectivity: 3" in out
    assert "witness side:" in out
    assert "maximally edge-connected: yes" in out
    assert "vertex-transitive: yes" in out
    assert "generator: p " in out
    assert "edge atom: 0 (boundary 3)" in out
    assert "timings [ms]:" in out
    # a pair in two edges and an isolated vertex
    path = tmp_path / "split.hg"
    path.write_text("h 5 2\ne 0 1 2\ne 0 1 3\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "linear: no (pair 0,1 repeats in edges 0 and 1)\n" in out
    assert "connected: no (2 components)\n" in out


# analyze --connectivity --transitivity --atom, pinned but for its timings
# line: a non-linear uniform family, a disconnected file that is neither
# linear nor uniform, and a linear uniform family
HUMAN_GOLDENS = [
    (
        "--family glued-complete --n 5 --k 3",
        """\
vertices: 15
edges: 35
edge sizes: 3 (x35)
degree: min 7, max 7
uniform: k=3
linear: no (pair 0,1 repeats in edges 0 and 1)
connected: yes
edge connectivity: 5
  witness side: 0 1 2 3 4
  cut edges: 6 10 12 13 14
maximally edge-connected: no
vertex-transitive: yes
  generator: p 1 2 3 4 0 6 7 8 9 5 11 12 13 14 10
  generator: p 5 6 7 8 9 10 11 12 13 14 0 1 2 3 4
edge atom: 0 1 2 3 4 (boundary 5)
""",
    ),
    (
        "h 6 3\ne 0 1 2\ne 3 4 5\ne 0 1\n",
        """\
vertices: 6
edges: 3
edge sizes: 2 (x1), 3 (x2)
degree: min 1, max 2
uniform: no
linear: no (pair 0,1 repeats in edges 0 and 2)
connected: no (2 components)
edge connectivity: 0
  witness side: 0 1 2
  cut edges: (none)
maximally edge-connected: no
vertex-transitive: no
note: edge atom: skipped (edge atom is undefined for a disconnected hypergraph)
""",
    ),
    (
        "--family affine --k 3",
        """\
vertices: 9
edges: 9
edge sizes: 3 (x9)
degree: min 3, max 3
uniform: k=3
linear: yes
connected: yes
edge connectivity: 3
  witness side: 0
  cut edges: 0 1 2
maximally edge-connected: yes
vertex-transitive: yes
  generator: p 1 2 0 4 5 3 7 8 6
  generator: p 3 4 5 6 7 8 0 1 2
edge atom: 0 (boundary 3)
""",
    ),
]


@pytest.mark.parametrize("instance,text", HUMAN_GOLDENS, ids=["glued_complete_5_3", "split_6", "affine_3"])
def test_human_output_is_pinned(capsys, tmp_path, instance, text):
    """The instance is a generate spec or a file's text."""
    if instance.startswith("--family"):
        path = gen(capsys, tmp_path, "h.hg", *instance.split())
    else:
        path = tmp_path / "h.hg"
        path.write_text(instance)
    code, out, err = run_cli(capsys, "analyze", str(path), "--connectivity", "--transitivity", "--atom")
    assert (code, err) == (0, "")
    body, timings = out.rsplit("timings [ms]: ", 1)
    assert body == text
    assert timings.count("\n") == 1 and timings.endswith("\n")


def test_analyze_guard_note_keeps_exit_zero(capsys, tmp_path):
    path = gen(capsys, tmp_path, "big.hg", "--family", "circulant", "--n", "27", "--offsets", "1")
    code, out, err = run_cli(capsys, "analyze", str(path), "--connectivity", "--atom")
    assert code == 0
    assert "edge connectivity: 2" in out
    assert "note: edge atom: skipped" in out
    assert "2 <= n <= 26" in out


def test_analyze_one_wide_edge_is_fast(capsys, tmp_path):
    """The linearity check stores no vertex pairs, so one 20 000-vertex
    edge (about 110 KB of file) is not 2 * 10**8 pairs."""
    n = 20_000
    path = tmp_path / "wide.hg"
    path.write_text(f"h {n} 1\ne " + " ".join(map(str, range(n))) + "\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", str(path), "--machine")
    assert time.perf_counter() - start < 5.0
    assert code == 0 and err == ""
    assert "linear=true\nconnected=true\n" in out
    assert out.startswith(f"n={n}\nm=1\ndelta=1\nDelta=1\nuniform_k={n}\n")


def test_analyze_transitivity_refuses_a_non_regular_input_at_the_header_cap(capsys, tmp_path):
    """A non-regular input is not vertex-transitive, so one edge among 2**20
    vertices gets its verdict with no search, whose tables would take
    O(n**2) memory here."""
    path = tmp_path / "cap.hg"
    path.write_text("h 1048576 1\ne 0 1\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", str(path), "--transitivity", "--machine")
    assert time.perf_counter() - start < 5.0
    assert code == 0 and err == ""
    assert "transitive=false\n" in out


def test_analyze_single_vertex_notes(capsys, tmp_path):
    path = tmp_path / "one.hg"
    path.write_text("h 1 0\n")
    code, out, err = run_cli(capsys, "analyze", str(path), "--connectivity", "--machine")
    assert code == 0
    assert "kappa=none" in out
    assert "n=1" in out
    code, human, err = run_cli(capsys, "analyze", str(path), "--connectivity")
    assert "note: edge connectivity: skipped" in human
    assert "note: uniformity: undefined (no edges)" in human


def test_analyze_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.hg"
    path.write_text("h 2 1\ne 0 5\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err
    code, out, err = run_cli(capsys, "analyze", str(tmp_path / "missing.hg"))
    assert code == 2
    assert err.startswith("error:")


def test_non_utf8_instance_exits_2(capsys, tmp_path):
    path = tmp_path / "latin.hg"
    path.write_bytes(b"h 3 1\ne 0 \xff 1\n")
    for argv in (("analyze", str(path)), ("oracle", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "latin.hg" in err


def test_over_cap_instance_exits_2(capsys, tmp_path):
    """A header declaring more vertices than the parser reads is refused on
    line 1, before anything is sized by n."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "huge.hg"
    path.write_text("h 1048577 0\n")
    expected = f"error: {path}: line 1: too many vertices, header declares 1048577, limit 1048576\n"
    for argv in (
        ("analyze", str(path)),
        ("oracle", str(path)),
        ("verify", "theorem", "--corpus", str(corpus), "--which", "main"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == expected


def test_verify_theorem_names_a_bad_file(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    gen(capsys, corpus, "affine_3.hg", "--family", "affine", "--k", "3")
    (corpus / "broken.hg").write_text("h 2 1\ne 0 1\ne 0 1\n")
    (corpus / "latin.hg").write_bytes(b"h 3 1\ne 0 \xff 1\n")
    code, out, err = run_cli(capsys, "verify", "theorem", "--corpus", str(corpus), "--which", "main")
    assert code == 2
    assert err.startswith("error:")
    assert "broken.hg" in err
    assert "line 3" in err


def test_analyze_library_entry_matches_cli(capsys, tmp_path):
    report = analyze(complete_uniform(5, 3), connectivity=True)
    assert render_machine(report) == GOLDEN_COMPLETE_5_3
    assert report.cut is not None
    assert report.atom is None


def test_verify_lemma_passes_and_is_deterministic(capsys):
    code, out1, err = run_cli(capsys, "verify", "lemma", "--trials", "120", "--seed", "5")
    assert code == 0
    assert out1.endswith("PASS\n")
    assert "uncrossing exhaustive:" in out1
    assert "0 violations" in out1
    code, out2, err = run_cli(capsys, "verify", "lemma", "--trials", "120", "--seed", "5")
    assert out1 == out2
    code, out3, err = run_cli(capsys, "verify", "lemma", "--trials", "120", "--seed", "6")
    assert code == 0
    assert out3 != out2 or "seed=6" in out3


def lemma_instances():
    """The instances the lemma checks exhaustively: uniform, n <= 8."""
    return [
        (name, H)
        for name, H in builtin_corpus()
        if H.n <= 8 and H.m > 0 and is_uniform(H) is not None
    ]


def violation_block(name, H, X, Y):
    sizes = [len(boundary(H, S)) for S in (X | Y, X & Y, X, Y)]
    return (
        f"violation in {name}:\n"
        f"  X = {' '.join(map(str, sorted(X)))}\n"
        f"  Y = {' '.join(map(str, sorted(Y)))}\n"
        f"  |boundary(X u Y)|={sizes[0]} |boundary(X n Y)|={sizes[1]}"
        f" |boundary(X)|={sizes[2]} |boundary(Y)|={sizes[3]}\n"
        + serialize_hypergraph(H)
        + "FAIL\n"
    )


def instance_of(n, edge_masks):
    """The instance whose edges are the given vertex bitmasks."""
    return Hypergraph(n, tuple(sorted(tuple(v for v in range(n) if em >> v & 1) for em in edge_masks)))


def crossings(masks, s):
    """|boundary(S)| by the crossing rule of the per-edge check, for the
    side bitmask s and the edges' bitmasks: an edge crosses S when
    0 < |S & e| < |e|."""
    return sum(0 < s & em != em for em in masks)


def test_verify_lemma_counts_are_boundary_sizes():
    """Both halves of the lemma count what ``boundary`` counts: the table at
    every mask, and the crossing rule of the per-edge check summed over an
    instance's or a trial's masks (a repeat as a parallel edge), at sampled
    mask pairs, where the per-edge check passes."""
    rng = SplitMix64(17)
    instances = lemma_instances()
    assert len(instances) >= 10
    for name, H in instances:
        table = cli._boundary_size_table(H)
        sets = [{v for v in range(H.n) if mask >> v & 1} for mask in range(1 << H.n)]
        assert table == [len(boundary(H, X)) for X in sets], name
        edge_masks = [sum(1 << v for v in e) for e in H.edges]
        for _ in range(100):
            x_mask, y_mask = rng.below(1 << H.n), rng.below(1 << H.n)
            sides = (x_mask | y_mask, x_mask & y_mask, x_mask, y_mask)
            assert [crossings(edge_masks, s) for s in sides] == [table[s] for s in sides], name
            assert cli._uncrosses_edgewise(edge_masks, x_mask, y_mask), name
    # the trials' own draws, whose masks they take without building H
    for n, masks, x_mask, y_mask in _lemma_trials(rng, 200, 16):
        assert 1 <= len(masks) <= 2 * n
        assert all(em < 1 << n for em in masks)
        H = instance_of(n, [em for em in masks if bin(em).count("1") >= 2])
        X = {v for v in range(n) if x_mask >> v & 1}
        Y = {v for v in range(n) if y_mask >> v & 1}
        assert [crossings(masks, s) for s in (x_mask | y_mask, x_mask & y_mask, x_mask, y_mask)] == [
            len(boundary(H, S)) for S in (X | Y, X & Y, X, Y)
        ]
        assert cli._uncrosses_edgewise(masks, x_mask, y_mask)


def test_uncrosses_edgewise_on_every_crossing_pattern():
    """X and Y split the vertices into X n Y, X - Y, Y - X and the rest.  An
    edge meeting any nonempty set of those four regions, with one or two
    vertices in each, alone or repeated, passes the per-edge check, and its
    slack |boundary(X)| + |boundary(Y)| - |boundary(X u Y)| - |boundary(X n Y)|
    per copy is 2 when it meets X - Y and Y - X and nothing else, 1 when it
    meets those two and one other region, and 0 otherwise."""
    regions = ((0, 1), (2, 3), (4, 5), (6, 7))  # X n Y, X - Y, Y - X, the rest
    X, Y = {0, 1, 2, 3}, {0, 1, 4, 5}
    x_mask, y_mask = 0b1111, 0b110011
    checked = set()
    for met in range(1, 16):
        chosen = [regions[r] for r in range(4) if met >> r & 1]
        expected = {0b0110: 2, 0b0111: 1, 0b1110: 1}.get(met, 0)
        for widths in product((1, 2), repeat=len(chosen)):
            edge = tuple(sorted(v for vs, w in zip(chosen, widths) for v in vs[:w]))
            if len(edge) < 2:
                continue
            for copies in (1, 2):
                H = Hypergraph(8, (edge,) * copies)
                bx, by, bu, bm = (len(boundary(H, S)) for S in (X, Y, X | Y, X & Y))
                assert bx + by - bu - bm == copies * expected, (edge, copies)
                assert cli._uncrosses_edgewise([sum(1 << v for v in edge)] * copies, x_mask, y_mask), edge
                checked.add(met)
    assert len(checked) == 15


def test_verify_lemma_exhaustive_half_reports_a_violation(capsys, monkeypatch):
    """A table that breaks submodularity first at X = {0}, Y = {1} fails the
    run, which prints the true sizes and the instance."""
    name, H = lemma_instances()[0]
    monkeypatch.setattr(
        cli, "_boundary_size_table", lambda H: [int(mask == 3) for mask in range(1 << H.n)]
    )
    code, out, err = run_cli(capsys, "verify", "lemma", "--trials", "0")
    assert code == 1
    assert out == violation_block(name, H, {0}, {1})


def first_violation_by_loop(table):
    """The reference for the local check: every pair x <= y, in order."""
    size = len(table)
    for x in range(size):
        for y in range(x, size):
            if table[x | y] + table[x & y] > table[x] + table[y]:
                return x, y
    return None


def test_lane_check_finds_the_loops_first_violation():
    """The check by local pairs and the plain double loop name the same
    first (x, y), or None: on every table the exhaustive half checks, on
    tables with one injected violation, some with values of 64 or more, on
    random integer tables at n = 0..8, which break anywhere, and on the
    boundary tables of random hypergraphs with repeated edges, which never
    break."""
    tables = [cli._boundary_size_table(H) for _, H in lemma_instances()]
    assert len(tables) == 13
    for table in tables:
        assert cli._first_uncrossing_violation(table) is None
        assert first_violation_by_loop(table) is None
    rng = SplitMix64(29)
    found = wide = 0
    for trial in range(400):
        table = list(tables[rng.below(len(tables))])
        if trial % 4 == 0:
            table = [v + 64 for v in table]  # still submodular, with larger values
        # submodular before the change, so every violation meets the changed mask
        mask = rng.below(len(table))
        table[mask] += rng.below(140) - 70 if trial % 2 else 1 + rng.below(3)
        table[mask] = max(table[mask], 0)
        expected = first_violation_by_loop(table)
        assert cli._first_uncrossing_violation(table) == expected, (trial, mask)
        found += expected is not None
        wide += max(table) >= 64
    assert found > 150 and wide >= 100, (found, wide)
    # at n = 0 and 1 nothing can break the inequality
    assert cli._first_uncrossing_violation([3]) is None
    assert cli._first_uncrossing_violation([0, 5]) is None
    broken = 0
    for trial in range(300):
        n = trial % 9
        table = [rng.below(6) for _ in range(1 << n)]
        expected = first_violation_by_loop(table)
        assert cli._first_uncrossing_violation(table) == expected, (trial, table)
        broken += expected is not None
    assert broken > 200, broken  # of the 233 at n >= 2
    for trial in range(60):
        n = 2 + trial % 7
        edges = [rng.subset(n, 2 + rng.below(n - 1)) for _ in range(1 + rng.below(6))]
        edges += edges[: 1 + rng.below(len(edges))]  # repeated edges
        table = cli._boundary_size_table(Hypergraph(n, tuple(edges)))
        assert cli._first_uncrossing_violation(table) is None, (trial, edges)
        assert first_violation_by_loop(table) is None, (trial, edges)


def test_verify_lemma_random_half_reports_a_violation(capsys, monkeypatch):
    """A per-edge check that finds an edge breaking the inequality fails the
    first random trial, which prints the instance that trial drew."""
    calls = []

    def broken(masks, x_mask, y_mask):
        calls.append((list(masks), x_mask, y_mask))
        return False

    monkeypatch.setattr(cli, "_uncrosses_edgewise", broken)
    code, out, err = run_cli(capsys, "verify", "lemma", "--trials", "50", "--seed", "1")
    assert code == 1
    assert len(calls) == 1
    # replay trial 0's draws at the default --nmax 10
    rng = SplitMix64(1)
    n = 2 + rng.below(9)
    m = 1 + rng.below(2 * n)
    outputs = [rng.next_u64() for _ in range(m)]
    edges = {tuple(v for v in range(n) if u >> v & 1) for u in outputs}
    H = Hypergraph(n, tuple(sorted(e for e in edges if len(e) >= 2)))
    assert H.m == 7  # large enough that a draw from another point of the stream would differ
    x_mask, y_mask = rng.below(1 << n), rng.below(1 << n)
    assert calls[0] == ([u % (1 << n) for u in outputs], x_mask, y_mask)
    X = {v for v in range(n) if x_mask >> v & 1}
    Y = {v for v in range(n) if y_mask >> v & 1}
    head, sep, tail = out.partition("violation in")
    assert head.startswith("uncrossing exhaustive:") and "random" not in head
    assert sep + tail == violation_block("random trial 0", H, X, Y)


def record_trials(capsys, monkeypatch, *argv):
    """Run verify lemma and return the (masks, X, Y) of every trial."""
    seen = []

    def record(masks, x_mask, y_mask):
        seen.append((list(masks), x_mask, y_mask))
        return True

    monkeypatch.setattr(cli, "_uncrosses_edgewise", record)
    code, out, err = run_cli(capsys, "verify", "lemma", *argv)
    assert code == 0 and out.endswith("PASS\n")
    return seen


def replay_trials(rng, nmax, trials):
    """The trials' draws made one scalar call of ``rng`` at a time: the
    (masks in draw order, X, Y) of each trial."""
    drawn = []
    for _ in range(trials):
        n = 2 + rng.below(nmax - 1)
        m = 1 + rng.below(2 * n)
        masks = [rng.next_u64() % (1 << n) for _ in range(m)]
        drawn.append((masks, rng.below(1 << n), rng.below(1 << n)))
    return drawn


class Scripted(SplitMix64):
    """A generator whose outputs are the given list, in order, to scalar
    calls and the stream alike; ``taken`` counts the outputs handed out."""

    def __init__(self, outputs):
        super().__init__(0)
        self.outputs, self.taken = outputs, 0

    def next_u64(self):
        assert self.taken < len(self.outputs), "asked past the scripted outputs"
        self.taken += 1
        return self.outputs[self.taken - 1]

    def _stream(self):
        return iter(self.next_u64, None)


@pytest.mark.parametrize("nmax", [2, 10, 16, 64])
def test_verify_lemma_trials_replay_scalar_draws(capsys, monkeypatch, nmax):
    """The trials draw from blocks of one output stream, yet each of the
    first 300 checks the masks, X and Y that scalar calls of below and
    next_u64 on one generator give, also where a trial's draws straddle a
    block boundary."""
    seen = record_trials(capsys, monkeypatch, "--trials", "300", "--seed", "29", "--nmax", str(nmax))
    rng = Scripted(list(islice(SplitMix64(29)._stream(), 300 * (2 * nmax + 5))))
    drawn, straddles = [], 0
    for _ in range(300):
        start = rng.taken
        drawn += replay_trials(rng, nmax, 1)
        straddles += start // _LANES != (rng.taken - 1) // _LANES
    assert seen == drawn
    assert straddles


def test_verify_lemma_outer_draws_take_the_next_output_after_a_rejection(capsys, monkeypatch):
    """2**64 - 1 is rejected below every bound that is not a power of two,
    such as the bound 9 of n at --nmax 10.  Two copies spliced into the
    trials' stream, at its start, among the first trials' draws or at its
    first block boundary, are skipped or taken as scalar draws would."""
    rejected = 2**64 - 1
    plain = list(islice(iter(SplitMix64(5).next_u64, None), 4000))
    for spliced_at in (0, 1, 2, 3, 4, 5, 6, 7, _LANES - 1, _LANES, _LANES + 1):
        script = list(plain)
        script[spliced_at:spliced_at] = [rejected, rejected]
        monkeypatch.setattr(cli, "SplitMix64", lambda seed: Scripted(script))
        seen = record_trials(capsys, monkeypatch, "--trials", "60", "--seed", "5")
        assert seen == replay_trials(Scripted(script), 10, 60), spliced_at
        if spliced_at == 0:
            # both land on the draw of n and are skipped
            assert seen == replay_trials(SplitMix64(5), 10, 60)
        monkeypatch.undo()


def test_verify_lemma_memory_stays_flat_in_trials(capsys):
    """The trials are drawn one at a time, so twenty times the trials peak
    at about the same traced memory."""
    peaks = []
    tracemalloc.start()
    try:
        for count in ("1000", "20000"):
            tracemalloc.reset_peak()
            code, out, err = run_cli(capsys, "verify", "lemma", "--trials", count, "--nmax", "16")
            assert code == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 1024, peaks


def test_verify_lemma_rejects_bad_parameters(capsys):
    code, out, err = run_cli(capsys, "verify", "lemma", "--trials", "-1")
    assert code == 2
    code, out, err = run_cli(capsys, "verify", "lemma", "--nmax", "1")
    assert code == 2
    # sides are drawn below 2**nmax, beyond one 64-bit draw for nmax > 64
    code, out, err = run_cli(capsys, "verify", "lemma", "--trials", "50", "--nmax", "65")
    assert code == 2
    assert "2 <= --nmax <= 64" in err


def test_verify_theorem_main_gates_and_passes(capsys, tmp_path):
    corpus = tmp_path / "main"
    corpus.mkdir()
    gen(capsys, corpus, "affine_3.hg", "--family", "affine", "--k", "3")
    gen(capsys, corpus, "cyc_13.hg", "--family", "cyclic-difference", "--n", "13", "--base", "0,1,4")
    gen(capsys, corpus, "doubled_3.hg", "--family", "affine-doubled", "--k", "3")
    gen(capsys, corpus, "pair.hg", "--family", "circulant", "--n", "6", "--offsets", "1")
    (corpus / "bare.hg").write_text("h 3 0\n")
    # linear, 3-uniform and connected, but vertex 2 alone has degree 2
    (corpus / "bowtie.hg").write_text("h 5 2\ne 0 1 2\ne 2 3 4\n")
    code, out, err = run_cli(capsys, "verify", "theorem", "--corpus", str(corpus), "--which", "main")
    assert code == 0
    lines = out.splitlines()
    assert any("affine_3.hg" in l and l.rstrip().endswith("pass") for l in lines)
    assert any("doubled_3.hg" in l and "not uniform" in l and "skipped" in l for l in lines)
    assert any("pair.hg" in l and "edge size below 3" in l for l in lines)
    assert any("bare.hg" in l and "no edges" in l and "skipped" in l for l in lines)
    assert any("bowtie.hg" in l and "not vertex-transitive" in l and "skipped" in l for l in lines)
    assert "summary: 6 instances, 2 gated, 2 pass, 0 fail, 4 skipped" in out


def test_verify_theorem_mader_gates_and_passes(capsys, tmp_path):
    corpus = tmp_path / "mader"
    corpus.mkdir()
    gen(capsys, corpus, "c6.hg", "--family", "circulant", "--n", "6", "--offsets", "1")
    gen(capsys, corpus, "c8.hg", "--family", "circulant", "--n", "8", "--offsets", "1,2")
    gen(capsys, corpus, "split.hg", "--family", "circulant", "--n", "6", "--offsets", "3")
    gen(capsys, corpus, "tri.hg", "--family", "affine", "--k", "3")
    code, out, err = run_cli(capsys, "verify", "theorem", "--corpus", str(corpus), "--which", "mader")
    assert code == 0
    assert "summary: 4 instances, 2 gated, 2 pass, 0 fail, 2 skipped" in out
    lines = out.splitlines()
    assert any("split.hg" in l and "not connected" in l for l in lines)
    assert any("tri.hg" in l and "not 2-uniform" in l for l in lines)


def test_verify_theorem_missing_corpus_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "theorem", "--corpus", str(tmp_path / "nope"), "--which", "main")
    assert code == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, err = run_cli(capsys, "verify", "theorem", "--corpus", str(empty), "--which", "main")
    assert code == 2


def test_verdict_exit_code_flags_failures(capsys, tmp_path, monkeypatch):
    """The failing branch cannot be reached with truthful corpora, so a
    minimum degree read one too high makes the one gated file fail."""
    corpus = tmp_path / "main"
    corpus.mkdir()
    gen(capsys, corpus, "affine_3.hg", "--family", "affine", "--k", "3")
    (corpus / "bare.hg").write_text("h 3 0\n")
    monkeypatch.setattr(cli, "degree_extremes", lambda H: (4, 4))
    code, out, err = run_cli(capsys, "verify", "theorem", "--corpus", str(corpus), "--which", "main")
    assert code == 1
    assert "summary: 2 instances, 1 gated, 0 pass, 1 fail, 1 skipped" in out
    assert out.endswith("critical: affine_3.hg violates kappa == delta under satisfied hypotheses\n")


def test_oracle_command_connected(capsys, tmp_path, monkeypatch):
    path = gen(capsys, tmp_path, "a3.hg", "--family", "affine", "--k", "3")
    runs = []

    def counted(H):
        runs.append(H.n)
        return _side_blocks(H)

    monkeypatch.setattr(connectivity, "_side_blocks", counted)
    code, out, err = run_cli(capsys, "oracle", str(path))
    assert code == 0
    assert out == "kappa=3\natom=0\ncut=0 1 2\n"
    assert runs == [9]  # one enumeration gives kappa and the atom


def test_oracle_command_disconnected(capsys, tmp_path):
    path = tmp_path / "m.hg"
    cases = [
        ("h 4 2\ne 0 1\ne 2 3\n", "kappa=0\nside=0 1\ncut=\n"),
        # the first zero side in increasing mask order
        ("h 4 1\ne 0 2\n", "kappa=0\nside=0 2\ncut=\n"),
    ]
    for text, expected in cases:
        path.write_text(text)
        code, out, err = run_cli(capsys, "oracle", str(path))
        assert code == 0
        assert out == expected


def test_oracle_command_matches_library_on_corpus(capsys, tmp_path):
    path = tmp_path / "c.hg"
    checked = 0
    for name, H in builtin_corpus():
        if H.n > 12 or not is_connected(H):
            continue
        path.write_text(serialize_hypergraph(H))
        code, out, err = run_cli(capsys, "oracle", str(path))
        atom = edge_atom(H)
        assert code == 0, name
        assert out == (
            f"kappa={edge_connectivity_oracle(H).value}\n"
            f"atom={' '.join(map(str, atom.side))}\n"
            f"cut={' '.join(map(str, atom.cut_edges))}\n"
        ), name
        checked += 1
    assert checked >= 10


def test_oracle_guard_exits_2(capsys, tmp_path):
    path = gen(capsys, tmp_path, "big.hg", "--family", "circulant", "--n", "27", "--offsets", "1")
    code, out, err = run_cli(capsys, "oracle", str(path))
    assert code == 2
    assert "2 <= n <= 26" in err


def test_oracle_guard_comes_before_any_walk(capsys, tmp_path, monkeypatch):
    """The largest header the parser accepts is refused by the n <= 26 guard
    before anything walks its million vertices."""
    path = tmp_path / "wide.hg"
    path.write_text("h 1048576 0\n")
    walks = []
    monkeypatch.setattr(cli, "is_connected", lambda H: walks.append(H.n) or True)
    code, out, err = run_cli(capsys, "oracle", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: oracle enumeration requires 2 <= n <= 26, got n=1048576\n"
    assert walks == []


def test_console_script_entry_point(tmp_path, monkeypatch, capsys):
    """``cli.main_entry``, the target of the ``hyperconn`` console script,
    reads sys.argv and exits with main's code."""
    path = tmp_path / "a3.hg"
    path.write_text(serialize_hypergraph(affine_hypergraph(3)))
    missing = tmp_path / "missing.hg"
    for file, code, out, err in (
        (path, 0, "kappa=3\natom=0\ncut=0 1 2\n", ""),
        (missing, 2, "", f"error: [Errno 2] No such file or directory: '{missing}'\n"),
    ):
        monkeypatch.setattr(sys, "argv", ["hyperconn", "oracle", str(file)])
        with pytest.raises(SystemExit) as stop:
            cli.main_entry()
        assert stop.value.code == code
        assert capsys.readouterr() == (out, err)


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch, capsys):
    """``main`` reuses one parser.  A sequence of calls on it, usage and
    file errors included, prints what each call prints with a parser built
    afresh for it (the human view's timings line aside)."""
    assert cli.build_parser() is cli.build_parser()
    instance = tmp_path / "glued.hg"
    calls = [
        ["generate", "--family", "glued-complete", "--n", "5", "--k", "3", "--out", str(instance)],
        ["analyze", str(instance), "--connectivity", "--transitivity", "--machine"],
        ["analyze", str(instance), "--connectivity", "--atom"],
        ["analyze", "--machine"],
        ["oracle", str(tmp_path / "missing.hg")],
        ["oracle", str(instance)],
        ["verify", "lemma", "--trials", "50", "--seed", "3"],
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = f"SystemExit({stop.code})"
        out, err = capsys.readouterr()
        out = "".join(line for line in out.splitlines(True) if not line.startswith("timings"))
        return code, out, err

    shared = [run(argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, "SystemExit(2)", 2, 0, 0]
    assert "edge atom: 0 1 2 3 4 (boundary 5)\n" in shared[2][1]
    assert shared[3][2].startswith("usage: hyperconn analyze")
    assert shared[4][2].startswith("error: [Errno 2]")


def test_module_entry_point(tmp_path, monkeypatch):
    # the subprocesses import the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(hyperconn.__file__))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = tmp_path / "k4.hg"
    proc = subprocess.run(
        [sys.executable, "-m", "hyperconn", "generate", "--family", "complete",
         "--n", "4", "--k", "2", "--out", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "hyperconn", "analyze", str(path), "--connectivity", "--machine"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "kappa=3" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "hyperconn"], capture_output=True, text=True)
    assert proc.returncode == 2
