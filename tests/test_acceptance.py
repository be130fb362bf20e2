"""Acceptance suite: one test per shipped claim, with runtime budgets.

Each test prints a single [pass] line (visible under pytest -s); the
pytest -v report gives the same one-line-per-criterion view.  Budgets
are generous ceilings, not expectations: every criterion currently
finishes orders of magnitude faster.
"""

import time
from itertools import combinations

from hyperconn import (
    Hypergraph,
    SplitMix64,
    affine_hypergraph,
    boundary,
    builtin_corpus,
    circulant_graph,
    complete_uniform,
    edge_atom,
    edge_connectivity,
    edge_connectivity_oracle,
    enumerate_automorphisms,
    is_automorphism,
    is_block_of_imprimitivity,
    is_connected,
    is_linear,
    is_uniform,
    is_vertex_transitive,
    random_uniform_hypergraph,
    serialize_hypergraph,
    transitivity_generators,
    vertex_profile,
)
from hyperconn.constructions import affine_doubled_family, glued_complete_family

from helpers import all_min_atom_sides, mask_set, run_cli


def machine_dict(out):
    return dict(line.split("=", 1) for line in out.splitlines())


def test_criterion_01_doubled_counterexample_k3(capsys, tmp_path):
    """Doubled affine family, k=3: kappa'=3 against degree 4, transitive."""
    start = time.perf_counter()
    path = tmp_path / "doubled_3.hg"
    code, _, _ = run_cli(
        capsys, "generate", "--family", "affine-doubled", "--k", "3", "--out", str(path)
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "analyze", str(path), "--connectivity", "--transitivity", "--machine"
    )
    assert code == 0
    got = machine_dict(out)
    assert got["n"] == "18" and got["m"] == "21"
    assert got["kappa"] == "3"
    assert got["delta"] == "4" and got["Delta"] == "4"
    assert got["linear"] == "true"
    assert got["uniform_k"] == "none"
    assert got["transitive"] == "true"
    assert got["maximal"] == "false"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[pass] criterion 1: doubled k=3 kappa=3 < degree 4 ({elapsed:.2f}s < 10s)")


def test_criterion_02_doubled_counterexample_k5(capsys, tmp_path):
    """Doubled affine family, k=5: kappa'=5, Delta=6 on 50 vertices."""
    path = tmp_path / "doubled_5.hg"
    code, _, _ = run_cli(
        capsys, "generate", "--family", "affine-doubled", "--k", "5", "--out", str(path)
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "analyze", str(path), "--connectivity", "--transitivity", "--machine"
    )
    assert code == 0
    got = machine_dict(out)
    assert got["n"] == "50"
    assert got["kappa"] == "5"
    assert got["Delta"] == "6"
    assert got["transitive"] == "true"
    assert got["maximal"] == "false"
    start = time.perf_counter()
    assert transitivity_generators(affine_doubled_family(5)) is not None
    search = time.perf_counter() - start
    assert search < 60.0
    print(f"[pass] criterion 2: doubled k=5 kappa=5, Delta=6, transitivity {search:.2f}s < 60s")


def test_criterion_03_glued_counterexample(capsys, tmp_path):
    """Glued complete family (5,3): kappa' <= 5 while degree is 7."""
    start = time.perf_counter()
    path = tmp_path / "glued_5_3.hg"
    code, _, _ = run_cli(
        capsys, "generate", "--family", "glued-complete", "--n", "5", "--k", "3",
        "--out", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "analyze", str(path), "--connectivity", "--transitivity", "--machine"
    )
    assert code == 0
    got = machine_dict(out)
    assert got["delta"] == "7" and got["Delta"] == "7"
    assert got["uniform_k"] == "3"
    assert got["linear"] == "false"
    assert got["transitive"] == "true"
    assert got["maximal"] == "false"
    kappa = int(got["kappa"])
    assert kappa <= 5
    H = glued_complete_family(5, 3)
    assert H.n == 15
    brute = edge_connectivity_oracle(H)
    assert brute.value == kappa == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[pass] criterion 3: glued (5,3) kappa=5 <= 5 < degree 7, oracle agrees ({elapsed:.2f}s < 30s)")


def test_criterion_04_linear_uniform_instances_are_maximal(capsys, tmp_path):
    """Linearity-gated corpus: kappa' = delta on every gated instance."""
    start = time.perf_counter()
    corpus = tmp_path / "main_corpus"
    corpus.mkdir()
    families = [
        ("affine_3.hg", ["--family", "affine", "--k", "3"]),
        ("affine_5.hg", ["--family", "affine", "--k", "5"]),
        ("cyc_13_014.hg", ["--family", "cyclic-difference", "--n", "13", "--base", "0,1,4"]),
        ("cyc_21_037.hg", ["--family", "cyclic-difference", "--n", "21", "--base", "0,3,7"]),
    ]
    for name, argv in families:
        code, _, _ = run_cli(capsys, "generate", *argv, "--out", str(corpus / name))
        assert code == 0
    code, out, _ = run_cli(
        capsys, "verify", "theorem", "--corpus", str(corpus), "--which", "main"
    )
    assert code == 0
    assert "summary: 4 instances, 4 gated, 4 pass, 0 fail, 0 skipped" in out
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[pass] criterion 4: 4 linear uniform instances all maximally connected ({elapsed:.2f}s < 60s)")


def test_criterion_05_circulant_graphs_are_maximal(capsys, tmp_path):
    """Connected circulants: kappa' = delta on every instance."""
    corpus = tmp_path / "mader_corpus"
    corpus.mkdir()
    offsets = [(6, "1"), (7, "1,2"), (8, "1,2"), (9, "1,3"), (10, "1,2,5")]
    for n, offs in offsets:
        code, _, _ = run_cli(
            capsys, "generate", "--family", "circulant", "--n", str(n),
            "--offsets", offs, "--out", str(corpus / f"circulant_{n}.hg"),
        )
        assert code == 0
    code, out, _ = run_cli(
        capsys, "verify", "theorem", "--corpus", str(corpus), "--which", "mader"
    )
    assert code == 0
    assert "summary: 5 instances, 5 gated, 5 pass, 0 fail, 0 skipped" in out
    print("[pass] criterion 5: 5 connected circulant graphs all maximally connected")


def test_criterion_06_uncrossing_suite(capsys):
    """Exhaustive n <= 8 plus 1000 seeded random samples: zero violations."""
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "verify", "lemma", "--trials", "1000", "--seed", "0", "--nmax", "10"
    )
    assert code == 0
    assert out.endswith("PASS\n")
    assert "exhaustive" in out and "0 violations" in out
    assert "1000 trials" in out
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"[pass] criterion 6: uncrossing inequality, exhaustive + 1000 trials ({elapsed:.2f}s < 120s)")


def test_criterion_07_oracle_equivalence():
    """Flow kappa' equals exhaustive kappa' everywhere it can be compared."""
    for name, H in builtin_corpus():
        if H.n > 12:
            continue
        assert edge_connectivity(H).value == edge_connectivity_oracle(H).value, name
    rng = SplitMix64(999)
    for i in range(200):
        n = 2 + rng.below(9)
        k = 2 + rng.below(min(n, 4) - 1)
        m = 1 + rng.below(2 * n)
        H = random_uniform_hypergraph(n, k, m, seed=1000 + i)
        assert edge_connectivity(H).value == edge_connectivity_oracle(H).value, i
    print("[pass] criterion 7: flow matches exhaustive oracle on corpus (n<=12) + 200 random instances")


def test_criterion_08_deletion_identity():
    """|boundary(X-y)| = |boundary(X)| + a_k(y)/(k-1) - b_1(y)/(k-1)."""
    rng = SplitMix64(777)
    for H in (affine_hypergraph(3), affine_hypergraph(5)):
        k = is_uniform(H)
        done = 0
        while done < 100:
            X = mask_set(rng.below(1 << H.n), H.n)
            if not X:
                continue
            ys = sorted(X)
            y = ys[rng.below(len(ys))]
            prof = vertex_profile(H, X, y)
            assert prof.a[k - 1] % (k - 1) == 0
            assert prof.b[0] % (k - 1) == 0
            expected = (
                len(boundary(H, X))
                + prof.a[k - 1] // (k - 1)
                - prof.b[0] // (k - 1)
            )
            assert len(boundary(H, X - {y})) == expected, (sorted(X), y)
            done += 1
    print("[pass] criterion 8: deletion identity on 2 x 100 seeded (X, y) pairs, integral fractions")


def test_criterion_09_atom_block_property():
    """Some minimum atom is small and a block; profiles constant on it."""
    checked = 0
    for name, H in builtin_corpus():
        if H.n > 12 or not is_connected(H) or not is_vertex_transitive(H):
            continue
        atom = edge_atom(H)
        value, sides = all_min_atom_sides(H)
        assert atom.value == value, name
        assert atom.side in sides, name
        autos = enumerate_automorphisms(H, cap=100000)
        block_atoms = [
            s for s in sides if is_block_of_imprimitivity(H, set(s), autos).is_block
        ]
        assert block_atoms, name
        X = set(block_atoms[0])
        assert len(X) <= H.n / 2, name
        if is_uniform(H) is not None and bool(is_linear(H)):
            profiles = {vertex_profile(H, X, x) for x in sorted(X)}
            assert len(profiles) == 1, name
        checked += 1
    assert checked >= 10
    print(f"[pass] criterion 9: atom block property on {checked} connected transitive instances")


def test_criterion_10_byte_identical_reruns(capsys, tmp_path):
    """Machine-readable outputs are byte-identical across reruns."""
    corpus = tmp_path / "det"
    corpus.mkdir()
    instances = [
        ("affine_3.hg", ["--family", "affine", "--k", "3"]),
        ("complete_5_3.hg", ["--family", "complete", "--n", "5", "--k", "3"]),
        ("glued_5_3.hg", ["--family", "glued-complete", "--n", "5", "--k", "3"]),
        ("doubled_3.hg", ["--family", "affine-doubled", "--k", "3"]),
        ("circ_8_12.hg", ["--family", "circulant", "--n", "8", "--offsets", "1,2"]),
    ]
    for name, argv in instances:
        code, _, _ = run_cli(capsys, "generate", *argv, "--out", str(corpus / name))
        assert code == 0

    def full_suite():
        chunks = []
        for name, _ in instances:
            code, out, _ = run_cli(
                capsys, "analyze", str(corpus / name),
                "--connectivity", "--transitivity", "--machine",
            )
            assert code == 0
            chunks.append(out)
        code, out, _ = run_cli(capsys, "verify", "lemma", "--trials", "300", "--seed", "0")
        assert code == 0
        chunks.append(out)
        for which in ("main", "mader"):
            code, out, _ = run_cli(
                capsys, "verify", "theorem", "--corpus", str(corpus), "--which", which
            )
            chunks.append(out)
        return "".join(chunks)

    first = full_suite()
    second = full_suite()
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")
    print("[pass] criterion 10: full machine-readable suite byte-identical across reruns")


def test_criterion_11_affine_transitivity_scales():
    """Transitivity generators for affine k=7 and k=11 are automorphisms whose
    orbit of vertex 0 is every vertex."""
    timings = []
    for k, ceiling in ((7, 5.0), (11, 30.0)):
        H = affine_hypergraph(k)
        start = time.perf_counter()
        gens = transitivity_generators(H)
        elapsed = time.perf_counter() - start
        assert gens is not None
        assert all(is_automorphism(H, p) for p in gens)
        reached = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for p in gens:
                if p[v] not in reached:
                    reached.add(p[v])
                    frontier.append(p[v])
        assert reached == set(range(H.n))
        assert elapsed < ceiling
        timings.append(f"k={k} {elapsed:.2f}s < {ceiling:.0f}s")
    print(f"[pass] criterion 11: affine transitivity, {', '.join(timings)}")


def least_side_of_value(H, value):
    """The least side by (size, sorted vertex sequence) among those whose
    boundary has ``value`` edges, searched by increasing size."""
    for size in range(1, H.n):
        for X in combinations(range(H.n), size):
            if len(boundary(H, X)) == value:
                return X
    return None


def test_criterion_12_oracle_enumerates_twenty_vertices(capsys, tmp_path):
    """`hyperconn oracle` on 20 vertices, 2**19 - 1 sides, agrees with the
    flow route and finds the atom: circulant(20, {1, 2}), a connected random
    3-uniform instance with 60 edges, complete_uniform(20, 3), whose
    boundary sizes need an 11-bit counter, and a path plus one edge over all
    20 vertices, whose 38 minimum sides lie in many blocks."""
    timings, answers = [], {}
    random_20 = random_uniform_hypergraph(20, 3, 60, seed=1)
    assert random_20.m == 60 and is_connected(random_20)
    path_20 = Hypergraph(20, tuple((v, v + 1) for v in range(19)) + (tuple(range(20)),))
    cases = (
        ("circulant_20_12", circulant_graph(20, (1, 2))),
        ("random_20_3_60", random_20),
        ("complete_20_3", complete_uniform(20, 3)),
        ("path_20_full", path_20),
    )
    for name, H in cases:
        path = tmp_path / f"{name}.hg"
        path.write_text(serialize_hypergraph(H))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "oracle", str(path))
        elapsed = time.perf_counter() - start
        assert code == 0
        got = machine_dict(out)
        kappa = edge_connectivity(H).value
        assert int(got["kappa"]) == kappa, name
        atom = tuple(int(v) for v in got["atom"].split())
        assert len(boundary(H, atom)) == kappa, name
        assert atom == least_side_of_value(H, kappa), name
        assert elapsed < 10.0, name
        timings.append(f"{name} {elapsed:.2f}s < 10s")
        answers[name] = (got["kappa"], got["atom"])
    assert answers["complete_20_3"] == ("171", "0")
    assert answers["path_20_full"] == ("2", "0")
    print(f"[pass] criterion 12: oracle at n=20, {', '.join(timings)}")
